//! Supervised-crawl guarantees (the robustness additions around Sec. 4's
//! scan): fault-injected crawls degrade gracefully and report their
//! completeness, aggregates are deterministic under faults, and a crawl
//! killed midway resumes from its stream bundle to byte-identical
//! aggregates.

use std::path::PathBuf;

use gullible::scan::{PageFlags, Scan, ScanConfig, SiteScanRecord};
use gullible::STREAM_CHECKPOINT_FILE;
use openwpm::{CrawlStatus, FailureReason, FaultPlan};

fn tmp_bundle(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("gullible-supervised-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The per-site records of a sealed stream bundle, re-measured by replay
/// (a streamed report keeps none in memory).
fn replayed_sites(dir: &std::path::Path) -> Vec<SiteScanRecord> {
    let replayed = Scan::new(ScanConfig::new(1, 1)).replay(dir).run().expect("replay");
    assert_eq!(replayed.replay.expect("replay stats").divergences, 0);
    replayed.sites
}

/// The issue's acceptance scenario: a 1,000-site scan under a 5% crash /
/// 1% hang / 1% nav-error fault plan completes without panicking, reports
/// a per-reason failure breakdown, and still covers ≥ 95% of sites.
#[test]
fn adversarial_thousand_site_scan_degrades_gracefully() {
    let cfg = ScanConfig {
        faults: FaultPlan::adversarial(7),
        ..ScanConfig::new(1_000, 42)
    };
    let report = Scan::new(cfg).run().expect("scan");

    assert_eq!(report.completion.total, 1_000);
    assert_eq!(report.history.len(), 1_000);
    assert_eq!(report.sites.len(), report.completion.completed);
    assert!(
        report.completion.completion_rate() >= 0.95,
        "completion {:.3}",
        report.completion.completion_rate()
    );
    // With a 5% per-visit crash rate some visits must have been retried.
    assert!(report.completion.recovered > 0);
    assert!(report.completion.restarts > 0);

    // Failures (if any at this retry budget) carry typed reasons that the
    // coverage line itemises.
    let line = report.coverage_line();
    assert!(line.contains("/1000 sites completed"));
    for h in &report.history {
        if h.status == CrawlStatus::Failed {
            let reason = FailureReason::parse(&h.error)
                .unwrap_or_else(|| panic!("untyped failure reason {:?}", h.error));
            assert!(line.contains(reason.as_str()), "coverage line omits {reason:?}");
        }
    }
}

/// Same seed + same fault plan ⇒ identical aggregates, run to run.
#[test]
fn faulty_scan_aggregates_are_deterministic() {
    let cfg = ScanConfig {
        faults: FaultPlan::adversarial(19),
        workers: 3,
        ..ScanConfig::new(400, 11)
    };
    let a = Scan::new(cfg).run().expect("scan");
    let b = Scan::new(cfg).run().expect("scan");
    assert_eq!(a.completion, b.completion);
    assert_eq!(a.history, b.history);
    assert_eq!(a.table5(), b.table5());
    assert_eq!(a.table7(), b.table7());
    assert_eq!(a.table12(), b.table12());
    assert_eq!(a.sites, b.sites);
}

/// Kill the crawl midway (deterministically, via the visit budget), resume
/// from the stream bundle, and get aggregates identical to a run that was
/// never interrupted.
#[test]
fn killed_and_resumed_scan_matches_uninterrupted() {
    let base = ScanConfig {
        faults: FaultPlan::adversarial(5),
        workers: 2,
        ..ScanConfig::new(300, 23)
    };
    let uninterrupted = Scan::new(base).run().expect("scan");

    let dir = tmp_bundle("resume");
    // First leg: budget admits only 120 of 300 sites, rest interrupted.
    let first = Scan::new(ScanConfig { visit_budget: Some(120), ..base })
        .stream_to(&dir)
        .run()
        .expect("first leg");
    assert_eq!(first.completion.interrupted, 180);
    assert!(first.completion.completed < uninterrupted.completion.completed);

    // Second leg: no budget, resumes the remaining sites from the bundle.
    // Everything the measurement reports — site records, per-site history,
    // tables, the coverage line — must be byte-identical to the run that
    // was never interrupted. (Effort telemetry like attempts/restarts is
    // per-process-leg and deliberately not checkpointed.)
    let resumed = Scan::new(base).stream_to(&dir).run().expect("second leg");
    assert_eq!(resumed.completion.completed, uninterrupted.completion.completed);
    assert_eq!(resumed.completion.failed, uninterrupted.completion.failed);
    assert_eq!(resumed.completion.interrupted, 0);
    assert_eq!(
        resumed.completion.failures_by_reason,
        uninterrupted.completion.failures_by_reason
    );
    assert_eq!(resumed.history, uninterrupted.history);
    assert_eq!(replayed_sites(&dir), uninterrupted.sites);
    assert_eq!(resumed.table5(), uninterrupted.table5());
    assert_eq!(resumed.table12(), uninterrupted.table12());
    assert_eq!(resumed.coverage_line(), uninterrupted.coverage_line());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn final checkpoint line (simulating a kill mid-write) is skipped
/// on load and the affected site is simply re-visited.
#[test]
fn torn_checkpoint_line_is_survivable() {
    let base = ScanConfig { workers: 2, ..ScanConfig::new(150, 31) };
    let uninterrupted = Scan::new(base).run().expect("scan");

    let dir = tmp_bundle("torn");
    Scan::new(ScanConfig { visit_budget: Some(60), ..base })
        .stream_to(&dir)
        .run()
        .expect("first leg");
    // Tear the last line in half.
    let path = dir.join(STREAM_CHECKPOINT_FILE);
    let contents = std::fs::read_to_string(&path).unwrap();
    let keep = contents.len() - contents.lines().last().unwrap().len() / 2 - 1;
    std::fs::write(&path, &contents[..keep]).unwrap();

    let resumed = Scan::new(base).stream_to(&dir).run().expect("second leg");
    assert_eq!(resumed.completion.completed, uninterrupted.completion.completed);
    assert_eq!(resumed.completion.interrupted, 0);
    assert_eq!(replayed_sites(&dir), uninterrupted.sites);
    assert_eq!(resumed.history, uninterrupted.history);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Checkpoint files are stamped with a format version; files from another
/// version (or from before versioning existed) are refused with a clear
/// error instead of being mis-parsed as "all lines torn" — which would
/// silently restart the crawl from zero.
#[test]
fn checkpoint_format_version_is_stamped_and_validated() {
    let base = ScanConfig { workers: 2, ..ScanConfig::new(40, 13) };

    // A fresh checkpoint leads with the version header.
    let dir = tmp_bundle("version");
    let path = dir.join(STREAM_CHECKPOINT_FILE);
    Scan::new(ScanConfig { visit_budget: Some(20), ..base })
        .stream_to(&dir)
        .run()
        .expect("scan");
    let contents = std::fs::read_to_string(&path).unwrap();
    let expected = format!("gullible-checkpoint v{}", gullible::CHECKPOINT_FORMAT_VERSION);
    assert_eq!(contents.lines().next(), Some(expected.as_str()));

    // Resuming from it works (header is not mistaken for a site line).
    let resumed = Scan::new(base).stream_to(&dir).run().expect("resume");
    assert_eq!(resumed.completion.checkpoint_lines_dropped, 0);

    // A future/past version is refused, naming both versions.
    let body = contents.split_once('\n').unwrap().1;
    std::fs::write(&path, format!("gullible-checkpoint v999\n{body}")).unwrap();
    let err = Scan::new(base).stream_to(&dir).run().unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let msg = err.to_string();
    assert!(msg.contains("v999"), "{msg}");
    assert!(msg.contains(&format!("v{}", gullible::CHECKPOINT_FORMAT_VERSION)), "{msg}");

    // A pre-versioning file (no header at all) is refused, not restarted.
    std::fs::write(&path, body).unwrap();
    let err = Scan::new(base).stream_to(&dir).run().unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("pre-versioning"), "{err}");

    // A mangled header is refused too.
    std::fs::write(&path, format!("gullible-checkpoint vX\n{body}")).unwrap();
    let err = Scan::new(base).stream_to(&dir).run().unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A panic inside a visit step surfaces once, names the *correct* item
/// index, and does so at any worker count — the work-stealing scheduler
/// may route the item to any worker, but never mislabel it.
#[test]
fn step_panic_reports_correct_index_at_any_worker_count() {
    for workers in [1usize, 3, 8] {
        let caught = std::panic::catch_unwind(|| {
            openwpm::run_parallel(
                (0..100u32).collect::<Vec<_>>(),
                workers,
                |_| (),
                |_, i, x: u32| {
                    if x == 61 {
                        panic!("deliberate visit explosion");
                    }
                    i
                },
            )
        });
        let payload = caught.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("item 61"), "workers={workers}: {msg}");
        assert!(msg.contains("deliberate visit explosion"), "workers={workers}: {msg}");
    }
}

/// Fault injection draws are keyed by (site, attempt), not by scheduling:
/// the same adversarial plan must produce the same per-site outcomes and
/// retry accounting whether one worker or eight drain the queue.
#[test]
fn fault_outcomes_identical_across_worker_counts() {
    let base_cfg = |workers| ScanConfig {
        faults: FaultPlan::adversarial(29),
        workers,
        ..ScanConfig::new(250, 17)
    };
    let base = Scan::new(base_cfg(1)).run().expect("scan");
    for workers in [3, 8] {
        let report = Scan::new(base_cfg(workers)).run().expect("scan");
        assert_eq!(base.completion, report.completion, "workers={workers}");
        assert_eq!(base.history, report.history, "workers={workers}");
        assert_eq!(base.sites, report.sites, "workers={workers}");
        assert_eq!(base.coverage_line(), report.coverage_line(), "workers={workers}");
    }
}

/// Stream resume composes with the scheduler at a high worker count:
/// interrupt a faulty 8-worker crawl, resume with a different worker
/// count, and match the uninterrupted single-worker run byte for byte.
#[test]
fn checkpoint_resume_with_many_workers_matches_single_worker() {
    let cfg = |workers| ScanConfig {
        faults: FaultPlan::adversarial(3),
        workers,
        ..ScanConfig::new(200, 53)
    };
    let uninterrupted = Scan::new(cfg(1)).run().expect("scan");

    let dir = tmp_bundle("sched-resume");
    Scan::new(ScanConfig { visit_budget: Some(80), ..cfg(8) })
        .stream_to(&dir)
        .run()
        .expect("first leg");
    let resumed = Scan::new(cfg(3)).stream_to(&dir).run().expect("second leg");
    assert_eq!(resumed.completion.completed, uninterrupted.completion.completed);
    assert_eq!(resumed.completion.failed, uninterrupted.completion.failed);
    assert_eq!(replayed_sites(&dir), uninterrupted.sites);
    assert_eq!(resumed.history, uninterrupted.history);
    assert_eq!(resumed.table5(), uninterrupted.table5());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A streamed scan keeps no per-site records, yet `count` must still see
/// every completed site: it answers from the folded flags, exactly as for
/// a plain scan.
#[test]
fn streamed_count_matches_plain_run() {
    let cfg = ScanConfig { faults: FaultPlan::adversarial(13), ..ScanConfig::new(220, 61) };
    let plain = Scan::new(cfg).run().expect("scan");
    let dir = tmp_bundle("count");
    let streamed = Scan::new(cfg).stream_to(&dir).run().expect("stream");
    assert!(streamed.sites.is_empty());
    type Predicate = fn(PageFlags, PageFlags) -> bool;
    let predicates: [(&str, Predicate); 5] = [
        ("front union", |front, _| front.union_true()),
        ("front static", |front, _| front.static_true),
        ("front dynamic", |front, _| front.dynamic_true),
        ("site dynamic identified", |_, site| site.dynamic_identified),
        ("subpage-only union", |front, site| site.union_true() && !front.union_true()),
    ];
    for (name, f) in predicates {
        let expected = plain.sites.iter().filter(|s| f(s.front, s.site)).count() as u32;
        assert!(expected > 0, "{name}: predicate must select some site");
        assert_eq!(plain.count(f), expected, "{name}");
        assert_eq!(streamed.count(f), expected, "{name}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
