//! Integration tests for static matching at scan scale: the FNV-64 verdict
//! memo must actually absorb the repeated script bodies a multi-subpage
//! scan produces, and its effort metrics must stay out of the digest.
//!
//! The verdict memo and the telemetry registry are process-wide; these
//! tests serialise on one mutex so the parallel test runner cannot
//! interleave their resets.

use std::sync::Mutex;

use gullible::obs;
use gullible::scan::{Scan, ScanConfig};

static SERIAL: Mutex<()> = Mutex::new(());

fn scan_cfg() -> ScanConfig {
    let mut cfg = ScanConfig::new(600, 7);
    cfg.workers = 2;
    cfg
}

/// Identical script bodies fetched on multiple pages (and sites) of one
/// scan must hit the verdict memo: each distinct body is preprocessed and
/// matched once per process, every repeat is a map lookup.
#[test]
fn repeated_bodies_hit_the_verdict_memo() {
    let _g = SERIAL.lock().unwrap();
    obs::reset();
    obs::set_stats(true);
    detect::clear_verdict_memo();
    let report = Scan::new(scan_cfg()).run().expect("scan");
    let snap = obs::registry().snapshot();
    let hits = snap.counter("match.memo.hit");
    let misses = snap.counter("match.memo.miss");
    let scanned: usize = report.sites.iter().map(|s| s.script_hashes.len()).sum();
    assert!(scanned > 0, "scan produced no scripts to classify");
    assert_eq!(
        (hits + misses) as usize,
        scanned,
        "every saved script must consult the memo exactly once"
    );
    assert!(hits > 0, "multi-subpage scan must reuse memoised verdicts (misses {misses})");
    assert!(
        misses <= hits,
        "shared bodies should dominate: {misses} misses vs {hits} hits"
    );
    // The memo split renders in [stats] but is digest-excluded.
    obs::reset();
    detect::clear_verdict_memo();
}

/// The `match.*` effort metrics render in the `[stats]` summary but are
/// excluded from the telemetry digest — the memo hit/miss split depends on
/// worker scheduling, never the verdicts.
#[test]
fn match_metrics_are_digest_excluded() {
    let _g = SERIAL.lock().unwrap();
    obs::reset();
    obs::set_stats(true);
    let before = obs::registry().snapshot().digest();
    let _ = detect::classify_memo("if (navigator.webdriver) {}", 0x1234);
    let _ = detect::classify_memo("if (navigator.webdriver) {}", 0x1234);
    let snap = obs::registry().snapshot();
    assert!(snap.counter("match.scripts") > 0);
    assert_eq!(snap.counter("match.memo.hit"), 1);
    assert_eq!(snap.digest(), before, "match.* metrics must not move the digest");
    obs::reset();
    detect::clear_verdict_memo();
}
