//! Integration tests for the shared script-compilation cache and the
//! wider shared-artifact layer it gates (realm templates, shared
//! profiles): the cache must be a *pure* optimisation — invisible in every
//! measured artifact — while staying correct under concurrency and bounded
//! in growth.
//!
//! The cache and the telemetry registry are process-wide; these tests
//! serialise on one mutex so the parallel test runner cannot interleave
//! their resets.

use std::sync::{Arc, Mutex, PoisonError};

use browser::CspPolicy;
use gullible::obs;
use gullible::scan::{Scan, ScanConfig};
use openwpm::{Browser, BrowserConfig, PageScript, SiteResponse, VisitSpec};

static SERIAL: Mutex<()> = Mutex::new(());

fn scan_cfg() -> ScanConfig {
    let mut cfg = ScanConfig::new(600, 7);
    cfg.workers = 2;
    cfg
}

/// The headline ablation invariant, at test scale: the same seed scanned
/// with the cache on and off yields identical Table 5 output, identical
/// per-site records, and a byte-identical telemetry digest.
#[test]
fn cache_is_invisible_to_results_and_telemetry() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let leg = |cache_on: bool| {
        obs::reset();
        obs::set_stats(true);
        jsengine::cache().clear();
        jsengine::set_cache_enabled(cache_on);
        let report = Scan::new(scan_cfg()).run().expect("scan");
        let digest = obs::registry().snapshot().digest();
        (report, digest)
    };
    let (on, digest_on) = leg(true);
    let (off, digest_off) = leg(false);
    obs::reset();
    jsengine::set_cache_enabled(true);

    assert_eq!(on.table5(), off.table5(), "table 5 must not depend on the cache");
    assert_eq!(on.sites, off.sites, "per-site records must not depend on the cache");
    assert_eq!(on.history, off.history);
    assert_eq!(
        digest_on, digest_off,
        "telemetry digest differs: {digest_on:016x} (cache) vs {digest_off:016x} (no cache)"
    );
}

fn page(csp: Option<CspPolicy>, scripts: &[&str]) -> VisitSpec {
    VisitSpec {
        url: "https://victim.test/shop".into(),
        csp,
        scripts: scripts
            .iter()
            .enumerate()
            .map(|(i, src)| PageScript {
                url: format!("https://victim.test/s{i}.js"),
                source: Arc::from(*src),
                content_type: "text/javascript".into(),
            })
            .collect(),
        dwell_override_s: Some(2),
        ..Default::default()
    }
}

/// Pages covering everything a page can observe of the vanilla
/// instrument; each beacons what it saw, so the traffic carries it.
fn instrument_probe_specs() -> Vec<VisitSpec> {
    let probe = "navigator.userAgent; screen.width; document.createElement('div'); \
                 navigator.sendBeacon('/seen?n=' + navigator.platform.length);";
    let hijack = detect::corpus::dispatcher_hijack_attack();
    let fake = detect::corpus::fake_data_injection_attack("https://innocent.example/app.js");
    vec![
        // Plain page, and one whose CSP admits the injection.
        page(None, &[probe]),
        page(Some(CspPolicy::permissive()), &[probe]),
        // Strict CSP: the injection fails and a csp_report goes out.
        page(Some(CspPolicy::strict("/csp-report")), &[probe]),
        // Listing 2: hijack the dispatcher with the grabbed event id (beaconed,
        // so a stale template id would show), then probe; and fake records.
        page(
            None,
            &[&hijack, "navigator.sendBeacon('/id?' + window.__owpmBlockedId);", probe],
        ),
        page(None, &[&fake]),
        // Listing 3: an immediate in-frame access races the scheduled
        // injection; a delayed one runs after it.
        page(
            None,
            &["var f1 = document.createElement('iframe'); document.body.appendChild(f1); \
               f1.contentWindow.navigator.userAgent; \
               var f2 = document.createElement('iframe'); document.body.appendChild(f2); \
               setTimeout(function () { f2.contentWindow.navigator.userAgent; }, 100);"],
        ),
        // Wrapper source, wrapper stack frames and prototype pollution.
        page(
            None,
            &["var ts = document.createElement.toString(); var st = ''; \
               try { throw new Error('probe'); } catch (e) { st = '' + e.stack; } \
               var own = Object.getOwnPropertyNames(Document.prototype).join(','); \
               navigator.sendBeacon('/probe?ts=' + ts.length + '&st=' + st + '&own=' + own);"],
        ),
        // The watched OpenWPM properties (recorded by the scanner config).
        page(
            None,
            &["navigator.sendBeacon('/watch?g=' + typeof window.getInstrumentJS + \
               '&j=' + window.jsInstruments + '&i=' + ('instrumentFingerprintingApis' in window));"],
        ),
    ]
}

/// Everything a crawl can record of `specs` under one cache setting: per
/// config, the `VisitStats` and `RecordStore` of `Browser::visit`, then
/// (through `open_page`) each script's result, the page traffic and the
/// interpreter profile, and finally the telemetry digest. A runaway loop
/// runs on the `open_page` leg only, with the page's step budget cut to
/// keep debug runs short: the install's steps count against it, so the
/// loop's op count shows whether a pre-installed page was charged for them.
fn crawl_outcome(specs: &[VisitSpec], cache_on: bool) -> Vec<String> {
    obs::reset();
    obs::set_stats(true);
    jsengine::set_cache_enabled(cache_on);
    let runaway = page(None, &["var i = 0; while (true) { i++; }"]);
    let mut out = Vec::new();
    for config in [BrowserConfig::vanilla(5), BrowserConfig::scanner(5)] {
        let mut b = Browser::new(config.clone());
        for (key, spec) in specs.iter().enumerate() {
            b.set_visit_key(key as u64);
            let stats = b.visit(spec, |_| SiteResponse::default()).expect("URL parses");
            out.push(format!("visit {key}: {stats:?}"));
        }
        out.push(format!("visit store: {:?}", b.take_store()));
        let mut b = Browser::new(config);
        for (key, spec) in specs.iter().chain([&runaway]).enumerate() {
            b.set_visit_key(key as u64);
            let (mut page, stats) = b.open_page(spec).expect("URL parses");
            page.interp.step_limit = 200_000;
            for script in &spec.scripts {
                let r = page.run_script((&*script.source, script.url.as_str()));
                out.push(format!("page {key} {}: {r:?}", script.url));
            }
            page.advance(2_000);
            out.push(format!(
                "page {key}: {stats:?} {:?} {:?}",
                page.traffic(),
                page.take_profile()
            ));
        }
        out.push(format!("page store: {:?}", b.take_store()));
    }
    out.push(format!("digest {:016x}", obs::registry().snapshot().digest()));
    out
}

/// A vanilla page cloned from the pre-installed template (cache on) must
/// be indistinguishable from one that ran the install itself (cache off):
/// same records, traffic, stats, script results and interpreter profile,
/// including on pages whose scripts attack the instrument.
#[test]
fn preinstalled_pages_match_per_page_installs() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let specs = instrument_probe_specs();
    let on = crawl_outcome(&specs, true);
    let off = crawl_outcome(&specs, false);
    obs::reset();
    jsengine::set_cache_enabled(true);
    assert_eq!(on.len(), off.len());
    for (a, b) in on.iter().zip(&off) {
        assert_eq!(a, b, "pre-installed page (left) differs from a per-page install (right)");
    }
    // The probes really exercised the instrument: the hijack beaconed a
    // per-page event id, and the loop hit the budget.
    assert!(on.iter().any(|l| l.contains("/id") && l.contains("owpm")));
    assert!(!on.iter().any(|l| l.contains("owpm-template")));
    assert!(on.iter().any(|l| l.contains("Budget")));
}

/// Hammer the cache from many threads: every thread compiling the same
/// body set must converge on one shared artifact per body, with the entry
/// count bounded by the number of unique bodies (never by call count).
#[test]
fn concurrent_compiles_share_one_artifact_per_body() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    jsengine::set_cache_enabled(true);
    jsengine::cache().clear();
    let bodies: Arc<Vec<String>> = Arc::new(
        (0..24).map(|i| format!("var stress{i} = {i}; stress{i} + 1;")).collect(),
    );
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let bodies = bodies.clone();
            std::thread::spawn(move || {
                for _round in 0..40 {
                    for (i, body) in bodies.iter().enumerate() {
                        let cs = jsengine::compile_cached(body, &format!("stress{i}.js"))
                            .expect("stress script compiles");
                        assert_eq!(cs.name().as_ref(), format!("stress{i}.js"));
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("stress thread panicked");
    }

    let stats = jsengine::cache().stats();
    assert_eq!(stats.entries, 24, "one entry per unique body");
    // 8 threads × 40 rounds × 24 bodies; racing first compiles may record
    // a few extra misses (parse happens outside the shard lock), but the
    // steady state is all hits.
    assert_eq!(stats.hits + stats.misses, 8 * 40 * 24);
    assert!(stats.misses < 24 + 8, "misses {} not bounded by unique bodies", stats.misses);

    // After the dust settles, everyone gets pointer-identical programs.
    let a = jsengine::compile_cached(&bodies[0], "stress0.js").unwrap();
    let b = jsengine::compile_cached(&bodies[0], "stress0.js").unwrap();
    assert!(Arc::ptr_eq(a.ast(), b.ast()));
}

/// Recompiling the same bodies forever must not grow the cache: size is
/// bounded by the unique-body count, not the compile count.
#[test]
fn growth_is_bounded_by_unique_bodies() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    jsengine::set_cache_enabled(true);
    jsengine::cache().clear();
    for round in 0..10 {
        for i in 0..20 {
            jsengine::compile_cached(&format!("var g{i} = {i};"), "growth.js")
                .expect("growth script compiles");
        }
        let stats = jsengine::cache().stats();
        assert_eq!(stats.entries, 20, "round {round}: cache grew past the unique-body count");
    }
    let stats = jsengine::cache().stats();
    assert_eq!(stats.misses, 20);
    assert_eq!(stats.hits, 9 * 20);
    jsengine::cache().clear();
}
