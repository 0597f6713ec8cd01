//! Fig. 3 — detectors on front pages vs incl. subpages, per rank bucket.

#![deny(deprecated)]

use gullible::report::{pct, thousands};
use gullible::Scan;

fn main() {
    bench::banner("Figure 3: front- vs subpage detectors per rank bucket");
    let report = Scan::new(bench::scan_config()).run().expect("scan");
    let bucket = (report.n_sites / 20).max(1);
    println!("bucket size: {} ranks\n", thousands(bucket as u64));
    println!("{:<14} {:>12} {:>16}", "rank bucket", "front (dyn)", "front+sub (dyn)");
    for (i, counts) in report.rank_buckets(bucket).iter().enumerate() {
        let bar = |n: u32| "#".repeat((n as usize * 40 / bucket.max(1) as usize).min(60));
        println!(
            "{:<14} {:>12} {:>16}   {}",
            format!("{}..{}", i as u32 * bucket, (i as u32 + 1) * bucket),
            counts[1],
            counts[3],
            bar(counts[3])
        );
    }
    let front = report.count(|front, _| front.dynamic_true);
    let site = report.count(|_, site| site.dynamic_true);
    println!(
        "\nactive-detector sites: front {} → incl. subpages {} (+{:.0}%; paper: +37%, 14% → 19% \
         union: front {} → {} of {})",
        thousands(front as u64),
        thousands(site as u64),
        (site as f64 / front as f64 - 1.0) * 100.0,
        pct(report.count(|front, _| front.union_true()) as u64, report.n_sites as u64),
        pct(report.count(|_, site| site.union_true()) as u64, report.n_sites as u64),
        thousands(report.n_sites as u64),
    );
    println!("{}", gullible::report::coverage_note(&report.completion));
    bench::finish("figure03", Some(&report.coverage_line()));
}
