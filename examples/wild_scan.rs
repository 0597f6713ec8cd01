//! A small-scale "in the wild" scan: crawl the top slice of the synthetic
//! Tranco population with the scanning client and classify bot detectors
//! with the combined static + dynamic pipeline (paper Sec. 4).
//!
//! Run with: `cargo run --release --example wild_scan -p gullible`

#![deny(deprecated)]

use gullible::report::pct;
use gullible::{Scan, ScanConfig};

fn main() {
    let n = 3_000;
    println!("scanning {n} synthetic sites (front page + up to 3 subpages each)…\n");
    let report = Scan::new(ScanConfig::new(n, 42)).run().expect("scan");

    let [(si, st), (di, dt), (ui, ut)] = report.table5();
    println!("sites with Selenium detectors (front + subpages):");
    println!("  static   identified {si:>5}   without false positives {st:>5}");
    println!("  dynamic  identified {di:>5}   without inconclusive    {dt:>5}");
    println!("  union    identified {ui:>5}   true detectors          {ut:>5}");
    println!(
        "  → {} of sites run bot detection (paper: 18.7% of the Tranco 100K)\n",
        pct(ut as u64, n as u64)
    );

    let front = report.count(|front, _| front.union_true());
    println!(
        "front page only: {front} sites ({}); subpage crawling adds {} sites (paper: +5 %-points)\n",
        pct(front as u64, n as u64),
        ut - front
    );

    println!("top third-party detector hosts:");
    for (domain, count) in report.table7().into_iter().take(5) {
        println!("  {domain:<24} {count}");
    }

    let t6 = report.table6();
    if !t6.is_empty() {
        println!("\nOpenWPM-specific detectors (providers probing instrumentation props):");
        for (provider, props) in &t6 {
            println!("  {provider}: {props:?}");
        }
    }

    let t12 = report.table12();
    println!("\nfirst-party bot-management origins (URL-pattern clustering):");
    for (origin, count) in &t12 {
        println!("  {origin:<12} {count}");
    }
}
