//! The traced legs: one per workload, each in its own process with the
//! program's stats on. Where the crawl's orchestration is private (the
//! scan worker closure, `classify_page`, `Client::tag`), the leg rebuilds
//! the pipeline from public calls and records a span around each; the
//! rebuilt pipeline must reproduce the real one's tables. Isolated probes
//! (a shadow browser's `open_page`, `PageTemplate::instantiate`, uncached
//! `jsengine::compile` and `detect::classify`) run after the traced crawl
//! on the same inputs, as spans of their own.
//!
//! Every leg reports every per-layer metric; a layer a workload does not
//! use reads 0 (see NOTES.md for which).

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use archive::{BundleReader, BundleWriter};
use browser::PageTemplate;
use gullible::compare::{compare_set, CompareReport, RunData, VisitSummary};
use gullible::{site_visit, Client, ReplayBundle, Scan, ScanConfig};
use netsim::Url;
use openwpm::manager::run_parallel;
use openwpm::{Browser, BrowserConfig, SiteResponse, VisitSpec};
use webgen::{behaviour, blocklists, verdict_from_traffic, visit_spec, PageKind, Population};

use crate::legs::{
    archive_config, bundle_dir, check_goldens, compare_config, compare_tables, compare_visits,
    scan_config, PassClock, DEV_SEED,
};
use crate::trace::{self, NameStats, Span, Tracer};
use crate::{digest_of, since_spawn_s, Args, Report, Workload};

/// Every per-layer metric, in the order BENCHMARK.json lists them. The
/// run script adds `obs.trace_overhead`, which needs the untraced leg.
pub const LAYER_METRICS: &[&str] = &[
    "webgen.materialise_us_per_site",
    "webgen.unique_bodies",
    "openwpm.visit_us_p50",
    "openwpm.visit_us_p99",
    "openwpm.visit_us_per_site",
    "openwpm.open_page_us_per_page",
    "openwpm.open_page_us_per_page.scan",
    "openwpm.open_page_us_per_page.wpm",
    "openwpm.open_page_us_per_page.hide",
    "openwpm.install_share",
    "openwpm.page_exec_us_per_page",
    "openwpm.records_per_page",
    "manager.busy_share",
    "manager.steals",
    "supervisor.attempts_per_site",
    "supervisor.retries",
    "supervisor.failed",
    "supervisor.failed_ratio",
    "browser.instantiate_us_per_page",
    "jsengine.compile_us_per_body",
    "jsengine.cache_hit_ratio",
    "jsengine.ops_per_page",
    "detect.static_us_per_page",
    "detect.memo_hit_ratio",
    "detect.classify_cold_us_per_body",
    "detect.dynamic_us_per_page",
    "netsim.blocklist_build_us",
    "netsim.blocklist_match_us_per_request",
    "netsim.requests_per_visit",
    "netsim.cookies_per_visit",
    "archive.append_us_per_site",
    "archive.commit_us",
    "archive.open_us",
    "archive.blob_read_us",
    "archive.dedup_ratio",
    "archive.peak_records_in_flight",
    "archive.bundle_bytes_per_site",
    "stats.tables_us",
    "obs.span_coverage",
    "obs.uncovered_share",
];

/// Probes visit every `PROBE_STRIDE`-th site of the scan.
const PROBE_STRIDE: u32 = 4;

struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn new() -> Layers {
        Layers(LAYER_METRICS.iter().map(|m| (*m, 0.0)).collect())
    }

    fn set(&mut self, name: &'static str, v: f64) {
        assert!(
            self.0.contains_key(name),
            "{name} is not a declared per-layer metric"
        );
        self.0.insert(name, v);
    }

    /// Span coverage of the traced wall time: summed top-level span time
    /// over `threads` × wall. The remainder is scheduling, idle workers
    /// and benchmark glue. Each span name's self time is reported on the
    /// same base, so the shares and the remainder add up to one.
    fn coverage(&mut self, rep: &mut Report, lists: &[Vec<Span>], threads: usize, wall_s: f64) {
        let capacity_ns = threads as f64 * wall_s * 1e9;
        let covered = trace::root_ns(lists) as f64 / capacity_ns;
        self.set("obs.span_coverage", covered);
        self.set("obs.uncovered_share", 1.0 - covered);
        for (name, st) in trace::by_name(lists) {
            rep.phases
                .push((name, st.count, st.self_ns as f64 / capacity_ns));
        }
    }

    fn into_report(self, rep: &mut Report) {
        for (k, v) in self.0 {
            rep.metric(k, v);
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `hit / (hit + miss)` for a pair of registry counters.
fn hit_ratio(snap: &obs::Snapshot, hit: &str, miss: &str) -> f64 {
    let (h, m) = (snap.counter(hit) as f64, snap.counter(miss) as f64);
    ratio(h, h + m)
}

/// Mean operations per page from the engine's per-visit histogram.
fn ops_per_page(snap: &obs::Snapshot) -> f64 {
    snap.histograms
        .get("jsengine.ops_per_visit")
        .map(|h| ratio(h.sum as f64, h.count as f64))
        .unwrap_or(0.0)
}

fn total_us(stats: &BTreeMap<&'static str, NameStats>, name: &str) -> f64 {
    stats
        .get(name)
        .map(|s| s.total_ns as f64 / 1e3)
        .unwrap_or(0.0)
}

fn mean_us(stats: &BTreeMap<&'static str, NameStats>, name: &str) -> f64 {
    stats.get(name).map(NameStats::mean_us).unwrap_or(0.0)
}

struct Worker {
    browser: Browser,
    tr: Tracer,
}

pub fn run(args: &Args) -> Report {
    obs::set_stats(true);
    let (mut rep, lists) = match args.workload {
        Workload::Scan => scan(args),
        Workload::Compare => compare(args),
        Workload::Archive => archive(args),
    };
    let path = args.dir.join("spans.jsonl");
    if let Err(e) = trace::write_jsonl(&path, &lists) {
        rep.failures
            .push(format!("writing {}: {e}", path.display()));
    }
    rep
}

// ------------------------------------------------------------------ scan

#[derive(Default)]
struct SiteOut {
    pages: u64,
    records: u64,
    /// Static identified/true, dynamic identified/true, over all pages.
    flags: [bool; 4],
}

/// One site of the scan, rebuilt from public calls: the site's plan and
/// materialised pages, then per page the browser visit and the static
/// (memoised verdicts over saved scripts) and dynamic (recorded calls)
/// classification that feed Table 5.
fn scan_site(wk: &mut Worker, pop: &Population, rank: u32) -> SiteOut {
    let Worker { browser, tr } = wk;
    tr.enter("site", rank);
    let plan = tr.span("webgen.plan", rank, || pop.plan(rank));
    let visit = tr.span("webgen.materialise", rank, || site_visit(&plan, true));
    browser.set_visit_key(rank as u64);
    let mut out = SiteOut::default();
    for spec in &visit.pages {
        tr.span("openwpm.visit", rank, || {
            browser.visit(spec, |_| SiteResponse::default())
        })
        .expect("generated visit specs always load");
        let store = tr.span("openwpm.take_store", rank, || browser.take_store());
        out.pages += 1;
        out.records +=
            (store.js_calls.len() + store.http_requests.len() + store.saved_scripts.len()) as u64;
        let flags = &mut out.flags;
        let selenium_by_url = tr.span("detect.static", rank, || {
            let mut by_url = HashMap::new();
            for script in &store.saved_scripts {
                let verdict =
                    detect::classify_memo(&script.body, obs::fnv1a(script.body.as_bytes()));
                flags[0] |= verdict.naive_webdriver || verdict.finding.is_detector();
                flags[1] |= verdict.finding.is_detector();
                by_url.insert(script.url.as_str(), verdict.finding.selenium);
            }
            by_url
        });
        tr.span("detect.dynamic", rank, || {
            // The scanner installs ten honey properties.
            for o in detect::observe(&store) {
                let statically = selenium_by_url
                    .get(o.script_url.as_str())
                    .copied()
                    .unwrap_or(false);
                flags[2] |= o.accessed_webdriver || !o.openwpm_props.is_empty();
                flags[3] |= o.classify(10, statically) == detect::DynamicClass::Detector;
            }
        });
    }
    tr.exit();
    out
}

fn table5_of(sites: &[SiteOut]) -> [(u32, u32); 3] {
    let count =
        |f: &dyn Fn(&[bool; 4]) -> bool| sites.iter().filter(|s| f(&s.flags)).count() as u32;
    [
        (count(&|f| f[0]), count(&|f| f[1])),
        (count(&|f| f[2]), count(&|f| f[3])),
        (count(&|f| f[0] || f[2]), count(&|f| f[1] || f[3])),
    ]
}

/// Shadow-browser probes over every `PROBE_STRIDE`-th site, and uncached
/// compile / classify over every distinct script body of the crawl.
fn scan_probes(pop: &Population, seed: u64, tr: &mut Tracer) {
    let mut shadow = Browser::new(BrowserConfig::scanner(seed));
    let template = PageTemplate::new(shadow.profile());
    let mut bodies: BTreeMap<u64, Arc<str>> = BTreeMap::new();
    for rank in 0..pop.n_sites {
        let visit = site_visit(&pop.plan(rank), true);
        for spec in &visit.pages {
            for s in &spec.scripts {
                bodies
                    .entry(s.content_hash())
                    .or_insert_with(|| s.source.clone());
            }
        }
        if rank.is_multiple_of(PROBE_STRIDE) {
            shadow.set_visit_key(rank as u64);
            for spec in &visit.pages {
                page_probes(
                    tr,
                    rank,
                    spec,
                    &template,
                    &mut shadow,
                    "probe.open_page.scan",
                );
            }
            drop(shadow.take_store());
        }
    }
    body_probes(tr, &bodies, true);
}

fn page_probes(
    tr: &mut Tracer,
    rank: u32,
    spec: &VisitSpec,
    template: &PageTemplate,
    shadow: &mut Browser,
    open_page: &'static str,
) {
    let url = Url::parse(&spec.url).expect("generated URLs parse");
    tr.span("probe.instantiate", rank, || {
        drop(template.instantiate(url, spec.csp.clone()))
    });
    tr.span(open_page, rank, || {
        drop(shadow.open_page(spec).expect("generated URLs parse"))
    });
}

fn body_probes(tr: &mut Tracer, bodies: &BTreeMap<u64, Arc<str>>, classify: bool) {
    for (i, body) in bodies.values().enumerate() {
        tr.span("probe.compile", i as u32, || {
            drop(jsengine::compile(body, "probe"))
        });
        if classify {
            tr.span("probe.classify", i as u32, || drop(detect::classify(body)));
        }
    }
}

/// Layers measured by the shadow probes, shared by scan and compare.
fn probe_layers(l: &mut Layers, stats: &BTreeMap<&'static str, NameStats>, visit_per_page: f64) {
    let opens: Vec<&NameStats> = [
        "probe.open_page.scan",
        "probe.open_page.wpm",
        "probe.open_page.hide",
    ]
    .iter()
    .filter_map(|n| stats.get(n))
    .collect();
    let open_page = ratio(
        opens.iter().map(|s| s.total_ns as f64).sum::<f64>() / 1e3,
        opens.iter().map(|s| s.count as f64).sum(),
    );
    let instantiate = mean_us(stats, "probe.instantiate");
    l.set("openwpm.open_page_us_per_page", open_page);
    l.set(
        "openwpm.open_page_us_per_page.scan",
        mean_us(stats, "probe.open_page.scan"),
    );
    l.set(
        "openwpm.open_page_us_per_page.wpm",
        mean_us(stats, "probe.open_page.wpm"),
    );
    l.set(
        "openwpm.open_page_us_per_page.hide",
        mean_us(stats, "probe.open_page.hide"),
    );
    l.set("browser.instantiate_us_per_page", instantiate);
    l.set(
        "openwpm.install_share",
        ratio(open_page - instantiate, visit_per_page),
    );
    l.set("openwpm.page_exec_us_per_page", visit_per_page - open_page);
    l.set(
        "jsengine.compile_us_per_body",
        mean_us(stats, "probe.compile"),
    );
}

/// Visit-span layers shared by scan and compare.
fn visit_layers(l: &mut Layers, lists: &[Vec<Span>], sites: f64) -> f64 {
    let visits = trace::durations_us(lists, "openwpm.visit");
    let per_page = ratio(visits.iter().sum(), visits.len() as f64);
    l.set("openwpm.visit_us_p50", trace::quantile(&visits, 0.50));
    l.set("openwpm.visit_us_p99", trace::quantile(&visits, 0.99));
    l.set(
        "openwpm.visit_us_per_site",
        ratio(visits.iter().sum(), sites),
    );
    per_page
}

fn scan(args: &Args) -> (Report, Vec<Vec<Span>>) {
    let cfg = scan_config(args.seed, args.workers);
    let pop = Population::new(cfg.n_sites, cfg.seed);
    let mut rep = Report {
        setup_s: since_spawn_s(args.spawned_ns),
        ..Report::default()
    };
    let n = cfg.n_sites as f64;

    let mut clock = PassClock::start(&mut rep, cfg.workers);
    let t0 = Instant::now();
    let sites = run_parallel(
        (0..cfg.n_sites).collect(),
        cfg.workers,
        |w| Worker {
            browser: Browser::new(BrowserConfig::scanner(cfg.seed)).with_instance(w as u32),
            tr: Tracer::new(w as u32),
        },
        |wk, _, rank| scan_site(wk, &pop, rank),
    );
    let wall = t0.elapsed().as_secs_f64();
    let (_, factor) = clock.lap(&mut rep, None);
    let snap = obs::registry().snapshot();
    let unique_bodies = webgen::materialised_bodies();
    let crawl = trace::collect();
    rep.attempted = cfg.n_sites as u64;

    let mut probe_tr = Tracer::new(cfg.workers as u32);
    scan_probes(&pop, cfg.seed, &mut probe_tr);
    drop(probe_tr);
    let probes = trace::collect();

    // The real scan, on a fresh registry: it must agree with the rebuilt
    // pipeline. At the development seed the 5,000-site goldens are checked
    // too.
    obs::reset();
    obs::set_stats(true);
    let report = Scan::new(cfg).run().expect("plain scan");
    let digest = obs::registry().snapshot().digest();
    let table5 = table5_of(&sites);
    rep.expect_eq("traced scan Table 5 vs Scan::run", table5, report.table5());
    if cfg.seed == DEV_SEED {
        check_goldens(&mut rep, cfg.workers);
    }
    rep.check("table5", format!("{table5:?}"));
    rep.check("telemetry", format!("{digest:016x}"));

    let mut l = Layers::new();
    let stats = trace::by_name(&crawl);
    let probe_stats = trace::by_name(&probes);
    let pages: u64 = sites.iter().map(|s| s.pages).sum();
    let pages_f = pages as f64;
    l.set(
        "webgen.materialise_us_per_site",
        (total_us(&stats, "webgen.plan") + total_us(&stats, "webgen.materialise")) / n,
    );
    l.set("webgen.unique_bodies", unique_bodies as f64);
    let visit_per_page = visit_layers(&mut l, &crawl, n);
    probe_layers(&mut l, &probe_stats, visit_per_page);
    l.set(
        "openwpm.records_per_page",
        sites.iter().map(|s| s.records).sum::<u64>() as f64 / pages_f,
    );
    l.set(
        "manager.busy_share",
        total_us(&stats, "site") / 1e6 / (cfg.workers as f64 * wall),
    );
    l.set("manager.steals", snap.counter("sched.steal") as f64);
    let c = &report.completion;
    l.set(
        "supervisor.attempts_per_site",
        c.attempts as f64 / c.total as f64,
    );
    l.set(
        "supervisor.retries",
        c.attempts.saturating_sub(c.total as u64) as f64,
    );
    l.set("supervisor.failed", (c.failed + c.interrupted) as f64);
    l.set(
        "supervisor.failed_ratio",
        (c.failed + c.interrupted) as f64 / n,
    );
    l.set(
        "jsengine.cache_hit_ratio",
        hit_ratio(&snap, "cache.compile.hit", "cache.compile.miss"),
    );
    l.set("jsengine.ops_per_page", ops_per_page(&snap));
    l.set(
        "detect.static_us_per_page",
        total_us(&stats, "detect.static") / pages_f,
    );
    l.set(
        "detect.memo_hit_ratio",
        hit_ratio(&snap, "match.memo.hit", "match.memo.miss"),
    );
    l.set(
        "detect.classify_cold_us_per_body",
        mean_us(&probe_stats, "probe.classify"),
    );
    l.set(
        "detect.dynamic_us_per_page",
        total_us(&stats, "detect.dynamic") / pages_f,
    );
    l.coverage(&mut rep, &crawl, cfg.workers, wall);
    l.into_report(&mut rep);
    rep.metric("traced_wall_ref_s", wall / factor);
    let mut lists = crawl;
    lists.extend(probes);
    (rep, lists)
}

// --------------------------------------------------------------- compare

/// `Client::tag` is private to the comparison; the traced leg rebuilds it.
/// A drift shows as a Tables 8–10 mismatch against the untraced leg.
fn client_tag(client: Client, seed: u64) -> u64 {
    let base = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    match client {
        Client::Wpm => base ^ 0x1111,
        Client::WpmHide => base ^ 0x2222,
    }
}

fn client_config(client: Client, seed: u64) -> BrowserConfig {
    match client {
        Client::Wpm => BrowserConfig::vanilla(seed),
        Client::WpmHide => BrowserConfig::stealth(seed),
    }
}

struct VisitOut {
    summary: VisitSummary,
    records: u64,
    requests: u64,
    cookies: u64,
}

/// One client visit of the comparison, rebuilt from public calls as
/// `compare::visit_one` makes it.
fn compare_visit(
    wk: &mut Worker,
    pop: &Population,
    rank: u32,
    run: u32,
    tag: u64,
    flagged_before: bool,
) -> VisitOut {
    let Worker { browser, tr } = wk;
    tr.enter("visit", rank);
    let plan = tr.span("webgen.plan", rank, || pop.plan(rank));
    let spec = tr.span("webgen.materialise", rank, || {
        let mut spec = visit_spec(&plan, PageKind::Front);
        spec.dwell_override_s = Some(61);
        spec
    });
    let flagged = Cell::new(false);
    let stats = tr
        .span("openwpm.visit", rank, || {
            browser.visit(&spec, |traffic| {
                let f = verdict_from_traffic(traffic);
                flagged.set(f);
                behaviour::site_response(&plan, run, tag, f, flagged_before)
            })
        })
        .expect("generated plan URLs always parse");
    let store = tr.span("openwpm.take_store", rank, || browser.take_store());
    let (easylist, easyprivacy) = tr.span("netsim.blocklist_build", rank, || {
        (blocklists::easylist(), blocklists::easyprivacy())
    });
    let mut summary = VisitSummary {
        rank: plan.rank,
        flagged: flagged.get(),
        instrument_blocked: !stats.instrumented,
        cookies: store.cookies.clone(),
        ..Default::default()
    };
    tr.span("netsim.blocklist_match", rank, || {
        for req in &store.http_requests {
            *summary
                .requests_by_type
                .entry(req.resource_type)
                .or_insert(0) += 1;
            summary.easylist_hits += easylist.matches(req) as u32;
            summary.easyprivacy_hits += easyprivacy.matches(req) as u32;
        }
    });
    tr.span("compare.summarise", rank, || {
        for rec in store
            .js_calls
            .iter()
            .filter(|r| !r.symbol.starts_with("honey:"))
        {
            *summary
                .js_symbol_counts
                .entry(rec.symbol.clone())
                .or_insert(0) += 1;
        }
    });
    tr.exit();
    VisitOut {
        summary,
        records: (store.js_calls.len() + store.http_requests.len() + store.saved_scripts.len())
            as u64,
        requests: store.http_requests.len() as u64,
        cookies: store.cookies.len() as u64,
    }
}

fn compare(args: &Args) -> (Report, Vec<Vec<Span>>) {
    let cfg = compare_config(args.seed, args.workers);
    let pop = Population::new(cfg.n_sites, cfg.seed);
    let set = compare_set(&pop);
    let mut rep = Report {
        setup_s: since_spawn_s(args.spawned_ns),
        ..Report::default()
    };

    let mut clock = PassClock::start(&mut rep, cfg.workers);
    let t0 = Instant::now();
    let mut parallel_s = 0.0;
    let (mut records, mut requests, mut cookies) = (0u64, 0u64, 0u64);
    // Per-client re-identification memory, as `run_compare` keeps it.
    let mut memory: HashSet<(u32, u32)> = HashSet::new();
    let mut runs = Vec::new();
    for run in 1..=cfg.runs {
        let mut pair = Vec::new();
        for (client_id, client) in [(0u32, Client::Wpm), (1u32, Client::WpmHide)] {
            let tag = client_tag(client, cfg.seed);
            let flagged_before: HashSet<u32> = set
                .iter()
                .copied()
                .filter(|r| memory.contains(&(client_id, *r)))
                .collect();
            let tp = Instant::now();
            let outs = run_parallel(
                set.clone(),
                cfg.workers,
                |w| Worker {
                    browser: Browser::new(client_config(
                        client,
                        cfg.seed ^ ((run as u64) << 32) ^ w as u64,
                    )),
                    tr: Tracer::new(w as u32),
                },
                |wk, _, rank| {
                    compare_visit(wk, &pop, rank, run, tag, flagged_before.contains(&rank))
                },
            );
            parallel_s += tp.elapsed().as_secs_f64();
            let mut sites = Vec::with_capacity(outs.len());
            for o in outs {
                if o.summary.flagged {
                    memory.insert((client_id, o.summary.rank));
                }
                records += o.records;
                requests += o.requests;
                cookies += o.cookies;
                sites.push(o.summary);
            }
            pair.push(RunData { sites });
        }
        let hide = pair.pop().expect("two clients per run");
        let wpm = pair.pop().expect("two clients per run");
        runs.push((wpm, hide));
    }
    let report = CompareReport {
        compare_set: set,
        runs,
    };
    let mut main_tr = Tracer::new(cfg.workers as u32);
    let tables = main_tr.span("stats.tables", 0, || compare_tables(&report));
    let wall = t0.elapsed().as_secs_f64();
    let (_, factor) = clock.lap(&mut rep, None);
    drop(main_tr);
    let snap = obs::registry().snapshot();
    let unique_bodies = webgen::materialised_bodies();
    let crawl = trace::collect();
    let visits = compare_visits(&report);
    rep.attempted = visits;
    rep.check("tables", digest_of(&tables));

    // Shadow probes: both clients' `open_page` over the comparison set.
    let mut probe_tr = Tracer::new(cfg.workers as u32);
    let mut wpm = Browser::new(BrowserConfig::vanilla(cfg.seed));
    let mut hide = Browser::new(BrowserConfig::stealth(cfg.seed));
    let template = PageTemplate::new(wpm.profile());
    let mut bodies: BTreeMap<u64, Arc<str>> = BTreeMap::new();
    for &rank in &report.compare_set {
        let mut spec = visit_spec(&pop.plan(rank), PageKind::Front);
        spec.dwell_override_s = Some(61);
        for s in &spec.scripts {
            bodies
                .entry(s.content_hash())
                .or_insert_with(|| s.source.clone());
        }
        page_probes(
            &mut probe_tr,
            rank,
            &spec,
            &template,
            &mut wpm,
            "probe.open_page.wpm",
        );
        probe_tr.span("probe.open_page.hide", rank, || {
            drop(hide.open_page(&spec).expect("URL parses"))
        });
    }
    drop((wpm.take_store(), hide.take_store()));
    body_probes(&mut probe_tr, &bodies, false);
    drop(probe_tr);
    let probes = trace::collect();

    let mut l = Layers::new();
    let stats = trace::by_name(&crawl);
    let probe_stats = trace::by_name(&probes);
    let v = visits as f64;
    l.set(
        "webgen.materialise_us_per_site",
        (total_us(&stats, "webgen.plan") + total_us(&stats, "webgen.materialise")) / v,
    );
    l.set("webgen.unique_bodies", unique_bodies as f64);
    let visit_per_page = visit_layers(&mut l, &crawl, v);
    probe_layers(&mut l, &probe_stats, visit_per_page);
    l.set("openwpm.records_per_page", records as f64 / v);
    l.set(
        "manager.busy_share",
        total_us(&stats, "visit") / 1e6 / (cfg.workers as f64 * parallel_s),
    );
    l.set("manager.steals", snap.counter("sched.steal") as f64);
    l.set(
        "jsengine.cache_hit_ratio",
        hit_ratio(&snap, "cache.compile.hit", "cache.compile.miss"),
    );
    l.set("jsengine.ops_per_page", ops_per_page(&snap));
    l.set(
        "netsim.blocklist_build_us",
        mean_us(&stats, "netsim.blocklist_build"),
    );
    l.set(
        "netsim.blocklist_match_us_per_request",
        ratio(total_us(&stats, "netsim.blocklist_match"), requests as f64),
    );
    l.set("netsim.requests_per_visit", requests as f64 / v);
    l.set("netsim.cookies_per_visit", cookies as f64 / v);
    l.set("stats.tables_us", total_us(&stats, "stats.tables"));
    l.coverage(&mut rep, &crawl, cfg.workers, wall);
    l.into_report(&mut rep);
    rep.metric("traced_wall_ref_s", wall / factor);
    let mut lists = crawl;
    lists.extend(probes);
    (rep, lists)
}

// --------------------------------------------------------------- archive

/// The durable crawl: the streamed write and the replay run whole (their
/// orchestration is private), with the bundle read and a `BundleWriter`
/// replica of the write path timed around the archive layer's own calls.
fn archive(args: &Args) -> (Report, Vec<Vec<Span>>) {
    let cfg = archive_config(args.seed, args.workers);
    let bundle = bundle_dir(&args.dir);
    let copy = args.dir.join("bundle-replica");
    for d in [&bundle, &copy] {
        let _ = std::fs::remove_dir_all(d);
    }
    let mut rep = Report {
        setup_s: since_spawn_s(args.spawned_ns),
        ..Report::default()
    };
    let n = cfg.n_sites as f64;

    let mut tr = Tracer::new(0);
    let mut clock = PassClock::start(&mut rep, cfg.workers);
    let t0 = Instant::now();
    tr.enter("archive.write", 0);
    let written = Scan::new(cfg)
        .stream_to(&bundle)
        .run()
        .expect("streamed crawl");
    tr.exit();
    let write_s = t0.elapsed().as_secs_f64();
    let (_, factor) = clock.lap(&mut rep, None);
    let snap = obs::registry().snapshot();
    let unique_bodies = webgen::materialised_bodies();
    let reader = tr
        .span("archive.open", 0, || BundleReader::open(&bundle))
        .expect("bundle reopens");
    let blob_bytes: usize = tr.span("archive.blob_read", 0, || {
        reader
            .blobs
            .keys()
            .map(|h| reader.blob(*h).map_or(0, |b| b.len()))
            .sum()
    });
    let replayed = tr
        .span("archive.replay", 0, || {
            Scan::new(ScanConfig {
                workers: args.workers,
                ..cfg
            })
            .replay(&bundle)
            .run()
        })
        .expect("replay");

    // Replica of the write path: every served body goes through
    // `put_blob` (unique bodies are written, repeats are dedup hits) and
    // every site entry through `append_entry`, round-robin per site.
    let arch = written.archive.unwrap_or_default();
    let writer = tr
        .span("archive.create", 0, || {
            BundleWriter::create(&copy, &reader.config)
        })
        .expect("replica bundle");
    let unique: Vec<&Arc<str>> = reader.blobs.values().collect();
    let puts = (arch.blobs_written + arch.dedup_hits) as usize;
    let entries = reader.entries.len().max(1);
    for (i, entry) in reader.entries.iter().enumerate() {
        tr.enter("archive.append", i as u32);
        for p in (i..puts).step_by(entries) {
            writer
                .put_blob(&unique[p % unique.len().max(1)][..])
                .expect("replica blob");
        }
        writer.append_entry(entry).expect("replica entry");
        tr.exit();
    }
    let replica = tr
        .span("archive.commit", 0, || {
            writer.commit(reader.commit.as_deref().unwrap_or(""))
        })
        .expect("replica commit");
    let wall = t0.elapsed().as_secs_f64();
    drop(tr);
    let lists = trace::collect();
    rep.attempted = 2 * cfg.n_sites as u64;

    let c = &written.completion;
    let failed = c.failed + c.interrupted;
    let rc = &replayed.completion;
    rep.expect_eq(
        "traced archive replay divergences",
        replayed.replay.map(|r| r.divergences),
        Some(0),
    );
    rep.expect_eq(
        "traced archive replay failed sites",
        rc.failed + rc.interrupted,
        failed,
    );
    rep.expect_eq(
        "traced archive replay Table 5",
        replayed.table5(),
        written.table5(),
    );
    rep.expect_eq(
        "archive blob bytes read back",
        blob_bytes as u64,
        arch.blob_bytes,
    );
    rep.expect_eq(
        "replica unique blobs",
        replica.blobs_written,
        arch.blobs_written,
    );
    rep.expect_eq(
        "replica entries",
        replica.entries,
        reader.entries.len() as u64,
    );
    match ReplayBundle::open(&bundle) {
        Ok(b) => rep.check("records", format!("{:016x}", b.commit.records_digest)),
        Err(e) => rep
            .failures
            .push(format!("archive bundle does not reopen: {e}")),
    }
    rep.check("failed", failed.to_string());
    rep.check("table5", format!("{:?}", written.table5()));

    let mut l = Layers::new();
    let stats = trace::by_name(&lists);
    l.set("webgen.unique_bodies", unique_bodies as f64);
    l.set("manager.steals", snap.counter("sched.steal") as f64);
    // The write's per-site wall times come from the scheduler's own
    // histogram: its worker loop is private to `Scan`.
    let item_s = snap
        .histograms
        .get("sched.visit_wall_us")
        .map_or(0.0, |h| h.sum as f64 / 1e6);
    l.set(
        "manager.busy_share",
        item_s / (args.workers as f64 * write_s),
    );
    l.set(
        "supervisor.attempts_per_site",
        c.attempts as f64 / c.total as f64,
    );
    l.set(
        "supervisor.retries",
        c.attempts.saturating_sub(c.total as u64) as f64,
    );
    l.set("supervisor.failed", failed as f64);
    l.set("supervisor.failed_ratio", failed as f64 / n);
    l.set(
        "jsengine.cache_hit_ratio",
        hit_ratio(&snap, "cache.compile.hit", "cache.compile.miss"),
    );
    l.set("jsengine.ops_per_page", ops_per_page(&snap));
    l.set(
        "detect.memo_hit_ratio",
        hit_ratio(&snap, "match.memo.hit", "match.memo.miss"),
    );
    l.set(
        "archive.append_us_per_site",
        total_us(&stats, "archive.append") / entries as f64,
    );
    l.set("archive.commit_us", total_us(&stats, "archive.commit"));
    l.set("archive.open_us", total_us(&stats, "archive.open"));
    l.set(
        "archive.blob_read_us",
        total_us(&stats, "archive.blob_read"),
    );
    l.set(
        "archive.dedup_ratio",
        ratio(
            arch.dedup_hits as f64,
            (arch.dedup_hits + arch.blobs_written) as f64,
        ),
    );
    l.set(
        "archive.peak_records_in_flight",
        written
            .stream
            .map_or(0.0, |s| s.peak_records_in_flight as f64),
    );
    let bytes: u64 = std::fs::read_dir(&bundle)
        .map(|d| {
            d.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    l.set("archive.bundle_bytes_per_site", bytes as f64 / n);
    l.coverage(&mut rep, &lists, 1, wall);
    l.into_report(&mut rep);
    rep.metric("traced_wall_ref_s", write_s / factor);
    (rep, lists)
}
