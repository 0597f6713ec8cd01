//! Crawl-archive integration: stream a scan into a content-addressed
//! bundle, replay the whole pipeline from it, and diff bundles.
//!
//! The reproducibility contract under test (paper Sec. 6.3): a replayed
//! scan must reproduce the recording run's Table 5, crawl history and
//! telemetry digest, and a plain run's per-site records, *byte-for-byte*,
//! at any worker count; two same-seed recordings must diff clean; and a
//! damaged bundle must fail loudly, never silently re-measure partial
//! data.

use std::path::PathBuf;
use std::sync::Mutex;

use archive::BundleReader;
use gullible::{diff_bundles, site_visit, ReplayBundle, Scan, ScanConfig};
use openwpm::FaultPlan;
use webgen::Population;

// Every test here runs scans against the process-global obs registry, and
// the digest tests flip global stats on; serialize them all so one test's
// metrics can't bleed into another's digest.
static OBS: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    OBS.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gullible-archive-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn record_then_replay_reproduces_run_byte_for_byte() {
    let _g = lock();
    let dir = tmp_dir("roundtrip");
    let cfg = ScanConfig {
        faults: FaultPlan::adversarial(3),
        flaky_sites_per_100k: 1_000,
        ..ScanConfig::new(240, 7)
    };

    gullible::obs::reset();
    gullible::obs::set_stats(true);
    let recorded = Scan::new(cfg).stream_to(&dir).run().expect("record");
    let stats = recorded.archive.expect("recording run must report archive stats");
    assert_eq!(stats.sites, 240);
    assert!(stats.blobs_written > 0);
    assert!(stats.dedup_hits > 0, "shared provider scripts must dedup");

    // Replay at a different worker count: the bundle carries the recorded
    // config; only parallelism comes from the caller.
    gullible::obs::reset();
    gullible::obs::set_stats(true);
    let replayed =
        Scan::new(ScanConfig { workers: 1, ..ScanConfig::new(1, 1) }).replay(&dir).run().expect("replay");
    let replay_digest = gullible::obs::registry().snapshot().digest();
    gullible::obs::reset();

    let rstats = replayed.replay.expect("replay run must report replay stats");
    assert_eq!(rstats.sites, 240);
    assert_eq!(rstats.divergences, 0, "replay must reproduce every recorded outcome");

    assert_eq!(replayed.n_sites, recorded.n_sites);
    assert_eq!(replayed.table5(), recorded.table5());
    assert_eq!(replayed.table6(), recorded.table6());
    assert_eq!(replayed.table12(), recorded.table12());
    assert_eq!(replayed.history, recorded.history);
    assert_eq!(replayed.completion, recorded.completion);
    let plain = Scan::new(cfg).run().expect("plain scan");
    assert_eq!(replayed.sites, plain.sites, "per-site records must be identical");

    let bundle = ReplayBundle::open(&dir).expect("open");
    assert!(bundle.commit.stats_enabled);
    assert_eq!(
        bundle.commit.telemetry_digest, replay_digest,
        "replay telemetry digest must equal the recording run's"
    );
    assert_eq!(bundle.commit.table5, recorded.table5());
    assert_eq!(bundle.commit.completed, recorded.completion.completed);
    assert_eq!(bundle.commit.failed, recorded.completion.failed);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Property: over randomized small scans, (a) the bundle's blob counts
/// equal the corpus statistics computed independently from the generator
/// (blobs = unique script bodies, dedup hits = served − unique), and
/// (b) replay reproduces the per-site records exactly — including runs
/// with fault weather and budget-interrupted first legs that a second,
/// unbudgeted run resumes.
#[test]
fn randomized_scans_roundtrip_with_exact_blob_accounting() {
    let _g = lock();
    gullible::obs::reset();
    proplite::run_cases(4, 0xA2C4_11EE, |rng| {
        let n_sites = rng.u32_in(30, 70);
        let cfg = ScanConfig {
            include_subpages: rng.bool(),
            faults: if rng.bool() { FaultPlan::adversarial(rng.u32_in(1, 9) as u64) } else { FaultPlan::none() },
            visit_budget: if rng.bool() { Some(n_sites as usize / 2) } else { None },
            ..ScanConfig::new(n_sites, rng.u32_in(1, 1_000) as u64)
        };
        let dir = tmp_dir("prop");

        let budgeted = cfg.visit_budget.is_some();
        let mut recorded = Scan::new(cfg).stream_to(&dir).run().expect("record");
        if budgeted {
            assert!(recorded.archive.is_none(), "a budgeted stream stays unsealed");
            assert!(recorded.completion.interrupted > 0);
            recorded = Scan::new(ScanConfig { visit_budget: None, ..cfg })
                .stream_to(&dir)
                .run()
                .expect("resume");
        }
        let stats = recorded.archive.expect("archive stats");

        // Independent corpus statistics straight from the generator.
        let mut pop = Population::new(cfg.n_sites, cfg.seed);
        pop.targets.flaky_per_100k = cfg.flaky_sites_per_100k;
        let mut served = 0u64;
        let mut unique = std::collections::HashSet::new();
        for rank in 0..cfg.n_sites {
            for spec in &site_visit(&pop.plan(rank), cfg.include_subpages).pages {
                for script in &spec.scripts {
                    served += 1;
                    unique.insert(script.content_hash());
                }
            }
        }
        assert_eq!(stats.sites as u32, cfg.n_sites);
        let blobs = BundleReader::open(&dir).expect("open").blobs.len();
        assert_eq!(blobs, unique.len(), "blobs = unique script bodies");
        if !budgeted {
            // Counters cover one leg; a single-leg stream put every body.
            assert_eq!(stats.blobs_written, unique.len() as u64);
            assert_eq!(stats.dedup_hits, served - unique.len() as u64);
        }

        let replayed = Scan::new(ScanConfig { workers: rng.usize_in(1, 3), ..cfg })
            .replay(&dir)
            .run()
            .expect("replay");
        assert_eq!(replayed.replay.unwrap().divergences, 0);
        let plain = Scan::new(ScanConfig { visit_budget: None, ..cfg }).run().expect("plain");
        assert_eq!(replayed.sites, plain.sites);
        assert_eq!(replayed.history, recorded.history);
        assert_eq!(replayed.history, plain.history);
        assert_eq!(replayed.completion.interrupted, 0);

        let _ = std::fs::remove_dir_all(&dir);
    });
}

#[test]
fn same_seed_bundles_diff_clean_and_ablations_diff_dirty() {
    let _g = lock();
    gullible::obs::reset();
    let cfg = ScanConfig::new(150, 23);
    let (dir_a, dir_b, dir_c) = (tmp_dir("diff-a"), tmp_dir("diff-b"), tmp_dir("diff-c"));

    Scan::new(cfg).stream_to(&dir_a).run().expect("record a");
    Scan::new(ScanConfig { workers: 2, ..cfg }).stream_to(&dir_b).run().expect("record b");
    // The Sec. 6.3 shape: same sites, different client behaviour.
    Scan::new(ScanConfig { simulate_interaction: true, ..cfg })
        .stream_to(&dir_c)
        .run()
        .expect("record c");

    let a = ReplayBundle::open(&dir_a).expect("open a");
    let b = ReplayBundle::open(&dir_b).expect("open b");
    let c = ReplayBundle::open(&dir_c).expect("open c");

    let clean = diff_bundles(&a, &b);
    assert!(clean.is_clean(), "same-seed runs must diff clean: {:?}", clean.deltas.first());
    assert!(!clean.config_differs, "worker count is not part of the recorded experiment");
    assert_eq!(a.commit.records_digest, b.commit.records_digest);

    let dirty = diff_bundles(&a, &c);
    assert!(dirty.config_differs);
    assert!(!dirty.is_clean(), "interaction ablation must change some site's records");
    assert!(dirty
        .deltas
        .iter()
        .any(|d| d.changes.iter().any(|c| c.starts_with("records.") || c.contains("record fields"))));
    // Sites the ablation doesn't touch stay identical.
    assert!(dirty.deltas.len() < 150);

    for d in [&dir_a, &dir_b, &dir_c] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn damaged_bundles_fail_loudly() {
    let _g = lock();
    gullible::obs::reset();
    let dir = tmp_dir("damage");
    Scan::new(ScanConfig::new(25, 5)).stream_to(&dir).run().expect("record");
    let manifest = dir.join("manifest.gar");
    let pristine = std::fs::read_to_string(&manifest).expect("read manifest");

    // Missing bundle directory.
    let err = ReplayBundle::open(tmp_dir("nowhere")).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);

    // Uncommitted bundle: the recording crawl died before sealing.
    let without_commit: Vec<&str> = pristine.lines().collect();
    std::fs::write(&manifest, without_commit[..without_commit.len() - 1].join("\n"))
        .expect("truncate");
    let err = ReplayBundle::open(&dir).unwrap_err().to_string();
    assert!(err.contains("no commit line"), "{err}");

    // Committed bundle with a tampered site entry.
    let mut bytes = pristine.clone().into_bytes();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&manifest, &bytes).expect("tamper");
    let err = ReplayBundle::open(&dir).unwrap_err().to_string();
    assert!(
        err.contains("dropped manifest lines") || err.contains("missing site"),
        "{err}"
    );

    // Restore and verify it opens again (the damage checks are real).
    std::fs::write(&manifest, &pristine).expect("restore");
    ReplayBundle::open(&dir).expect("pristine bundle must open");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `replay` re-measures a sealed bundle and writes none, so it cannot be
/// combined with the streaming sink.
#[test]
fn replay_and_record_reject_invalid_mode_combinations() {
    let _g = lock();
    let dir = tmp_dir("modes");
    let err = Scan::new(ScanConfig::new(10, 1))
        .stream_to(dir.join("rec"))
        .replay(dir.join("rep"))
        .run()
        .unwrap_err();
    // The mode check fires before any I/O (no bundle exists anyway).
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(!dir.exists(), "a rejected combination must touch nothing");
}
