//! Analysis-method ablation: static-only vs dynamic-only vs combined, with
//! and without honey properties and interaction — quantifying the design
//! choices behind Sec. 4.1 of the paper on the same population.

#![deny(deprecated)]

use gullible::report::{thousands, TextTable};
use gullible::scan::{Scan, ScanConfig};

fn main() {
    bench::banner("ablation: analysis methods");
    let n = bench::n_sites().min(10_000); // ablations run several scans
    let base = ScanConfig { n_sites: n, seed: bench::seed(), workers: bench::workers(), ..ScanConfig::new(n, bench::seed()) };

    let passive = Scan::new(base).run().expect("scan");
    let interactive = Scan::new(ScanConfig { simulate_interaction: true, ..base }).run().expect("scan");

    let mut table = TextTable::new("analysis-method ablation (detector sites found)");
    table.header(&["pipeline", "sites", "vs combined"]);
    let combined = passive.count(|_, site| site.union_true());
    let rows = [
        ("static only", passive.count(|_, site| site.static_true)),
        ("dynamic only", passive.count(|_, site| site.dynamic_true)),
        ("combined (the paper's choice)", combined),
        ("dynamic w/o honey filter (incl. iterator FPs)", passive.count(|_, site| site.dynamic_identified)),
        ("combined + interaction (HLISA-style)", interactive.count(|_, site| site.union_true())),
        ("dynamic + interaction", interactive.count(|_, site| site.dynamic_true)),
    ];
    for (label, count) in rows {
        table.row(&[
            label.to_string(),
            thousands(count as u64),
            format!("{:+.1}%", (count as f64 / combined as f64 - 1.0) * 100.0),
        ]);
    }
    println!("{}", table.render());
    println!(
        "takeaways (mirroring the paper): neither method subsumes the other; the honey filter\n\
         removes iterator false positives from the dynamic pipeline; simulated interaction\n\
         recovers hover-gated detectors that are otherwise static-only."
    );
    println!("passive   {}", gullible::report::coverage_note(&passive.completion));
    println!("interactive {}", gullible::report::coverage_note(&interactive.completion));
    bench::finish("ablation_analysis", Some(&interactive.coverage_line()));
}
