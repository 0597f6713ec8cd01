//! Umbrella experiment runner: regenerates every table and figure from one
//! scan and one comparison (so the expensive pipelines run once), printing
//! everything in paper order. This is what produces the numbers recorded in
//! EXPERIMENTS.md:
//!
//! ```text
//! GULLIBLE_SITES=100000 cargo run --release -p bench --bin repro
//! ```
//!
//! Set `GULLIBLE_BUNDLE=/path/to/dir` to stream the scan into a crawl
//! bundle: a killed run resumes by re-running the same command and prints
//! tables identical to an uninterrupted one. A sealed bundle is refused
//! (exit 2); re-measure it with `archive_replay`. `GULLIBLE_FAULT_*`
//! injects crawl faults (see `bench` crate docs); the coverage line under
//! the scan tables reports the resulting completion rate.

#![deny(deprecated)]

use gullible::report::{pct, thousands};
use gullible::{run_compare, Client, Scan};
use netsim::{CookieParty, ResourceType};
use stats::descriptive::{fmt_pct, pct_change};

fn main() {
    bench::banner("full reproduction run");
    let t0 = std::time::Instant::now();

    // ---------- scan-based experiments ----------
    println!("--- running the Tranco scan (Sec. 4) ---");
    let mut scan = Scan::new(bench::scan_config());
    if let Some(dir) = bench::env::bundle() {
        scan = scan.stream_to(dir);
    }
    let scan = scan.run().unwrap_or_else(|e| {
        eprintln!("error: crawl bundle: {e}");
        if e.kind() == std::io::ErrorKind::AlreadyExists {
            eprintln!("hint: the bundle is finished; re-measure it with `archive_replay`");
        }
        std::process::exit(2);
    });
    println!("scan finished in {:.1?}", t0.elapsed());
    println!("{}\n", scan.coverage_line());

    let [(si, st), (di, dt), (ui, ut)] = scan.table5();
    println!("[Table 5] sites with Selenium detectors (front + subpages)");
    println!("  identified: static {} dynamic {} union {}", thousands(si as u64), thousands(di as u64), thousands(ui as u64));
    println!("  w/o FPs:    static {} dynamic {} union {}", thousands(st as u64), thousands(dt as u64), thousands(ut as u64));
    println!("  paper:      32,694/19,139/38,264 and 15,838/16,762/18,714 at 100K");
    let (scripts_total, scripts_unique) = scan.script_stats();
    println!(
        "  scripts: {} collected, {} unique (paper corpus: 1,535,306 unique)\n",
        thousands(scripts_total),
        thousands(scripts_unique)
    );

    println!("[Table 6] OpenWPM-specific probes");
    for (provider, props) in scan.table6() {
        println!("  {provider}: {props:?}");
    }
    println!("  paper: cheqzone 331, googlesyndication 14, google 9, adzouk1tag 2\n");

    println!("[Table 7] top third-party detector hosts");
    let t7 = scan.table7();
    let t7_total: u32 = t7.iter().map(|(_, n)| n).sum();
    for (domain, count) in t7.iter().take(10) {
        println!("  {domain:<24} {:>6}  {:.2}%", thousands(*count as u64), *count as f64 * 100.0 / t7_total as f64);
    }
    let (fp_incl, tp_incl) = scan.inclusion_totals();
    println!("  inclusions: first-party {} third-party {} (paper: 3,867 / 21,325)\n", thousands(fp_incl as u64), thousands(tp_incl as u64));

    let front_u = scan.count(|front, _| front.union_true());
    println!("[Table 11/Fig 3] front pages: static {} dynamic {} union {} ({} of sites)",
        thousands(scan.count(|front, _| front.static_true) as u64),
        thousands(scan.count(|front, _| front.dynamic_true) as u64),
        thousands(front_u as u64),
        pct(front_u as u64, scan.n_sites as u64));
    println!("  incl. subpages: union {} ({}); paper 13,989 (14.0%) -> 18,714 (18.7%)\n",
        thousands(ut as u64), pct(ut as u64, scan.n_sites as u64));

    println!("[Fig 4] front-page detectors per rank decile (static / dynamic)");
    let bucket = (scan.n_sites / 10).max(1);
    for (i, b) in scan.rank_buckets(bucket).iter().enumerate() {
        println!("  decile {i}: {:>6} / {:>6}", b[0], b[1]);
    }
    println!();

    println!("[Fig 5] detector-site categories (top shares)");
    let (first_cats, third_cats) = scan.category_tallies();
    let tot3: u32 = third_cats.values().sum();
    let tot1: u32 = first_cats.values().sum();
    let mut cats3: Vec<_> = third_cats.iter().collect();
    cats3.sort_by(|a, b| b.1.cmp(a.1));
    for (c, n) in cats3.iter().take(5) {
        println!("  third-party {c:<14} {:.1}%", **n as f64 * 100.0 / tot3 as f64);
    }
    let mut cats1: Vec<_> = first_cats.iter().collect();
    cats1.sort_by(|a, b| b.1.cmp(a.1));
    for (c, n) in cats1.iter().take(5) {
        println!("  first-party {c:<14} {:.1}%", **n as f64 * 100.0 / tot1 as f64);
    }
    println!();

    println!("[Table 12] first-party origin clusters");
    for (origin, count) in scan.table12() {
        println!("  {origin:<12} {}", thousands(count as u64));
    }
    println!("  paper: Akamai 1,004 Incapsula 998 Unknown 659 Cloudflare 486 PerimeterX 134");
    println!("  all scan tables above: {}\n", gullible::report::coverage_note(&scan.completion));

    // ---------- comparison-based experiments ----------
    println!("--- running the WPM vs WPM_hide comparison (Sec. 6.3) ---");
    let t1 = std::time::Instant::now();
    let cmp = run_compare(bench::compare_config());
    println!("comparison finished in {:.1?} over {} sites × {} runs\n", t1.elapsed(), cmp.compare_set.len(), cmp.runs.len());

    println!("[Table 8] total requests per run (WPM vs WPM_hide)");
    for (i, (w, h)) in cmp.runs.iter().enumerate() {
        println!("  r{}: {} vs {} ({})", i + 1, thousands(w.total_requests()), thousands(h.total_requests()),
            fmt_pct(pct_change(w.total_requests() as f64, h.total_requests() as f64)));
    }
    let (w1, h1) = &cmp.runs[0];
    println!("  per type (r1):");
    for rt in ResourceType::all() {
        let (a, b) = (w1.requests_of(*rt), h1.requests_of(*rt));
        if a + b > 0 {
            println!("    {:<16} {:>8} {:>8}  {}", rt.as_str(), thousands(a), thousands(b), fmt_pct(pct_change(a as f64, b as f64)));
        }
    }
    println!("  csp blocked sites (WPM): {} of {} (paper: 113 of 1,487)\n", w1.blocked_sites(), cmp.compare_set.len());

    println!("[Table 9] blocklist-matched requests");
    for (i, (w, h)) in cmp.runs.iter().enumerate() {
        println!("  r{}: EasyList {} ({}) EasyPrivacy {} ({})", i + 1,
            thousands(w.easylist_total()),
            fmt_pct(pct_change(w.easylist_total() as f64, h.easylist_total() as f64)),
            thousands(w.easyprivacy_total()),
            fmt_pct(pct_change(w.easyprivacy_total() as f64, h.easyprivacy_total() as f64)));
        if let Some(wx) = cmp.wilcoxon_trackers(i) {
            println!("      Wilcoxon z = {:.2}, p = {:.2e}", wx.z, wx.p_value);
        }
    }
    println!("  paper: +1.64/+5.64/+5.81% (EasyList), p < 0.0001\n");

    println!("[Table 10] cookies");
    for i in 0..cmp.runs.len() {
        let (w, h) = &cmp.runs[i];
        let (w1c, h1c) = (w.cookies_of(CookieParty::First), h.cookies_of(CookieParty::First));
        let (w3c, h3c) = (w.cookies_of(CookieParty::Third), h.cookies_of(CookieParty::Third));
        let (wt, ht) = (cmp.tracking_cookies(Client::Wpm, i), cmp.tracking_cookies(Client::WpmHide, i));
        println!("  r{}: 1st {} ({}) 3rd {} ({}) tracking {} ({})", i + 1,
            thousands(w1c), fmt_pct(pct_change(w1c as f64, h1c as f64)),
            thousands(w3c), fmt_pct(pct_change(w3c as f64, h3c as f64)),
            thousands(wt), fmt_pct(pct_change(wt as f64, ht as f64)));
    }
    println!("  paper: 1st +3.33/+3.06/+4.23%  3rd +5.05/+7.12/+8.11%  tracking +41.70/+52.13/+59.65%\n");

    println!("[Fig 6] API-call coverage (WPM / WPM_hide, r1) — lowest-coverage symbols");
    let cov = cmp.coverage(0);
    let mut rows: Vec<(&String, f64, u64, u64)> = cov
        .iter()
        .filter(|(_, (_, h))| *h > 0)
        .map(|(s, (w, h))| (s, *w as f64 * 100.0 / *h as f64, *w, *h))
        .collect();
    rows.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    for (sym, covg, w, h) in rows.iter().take(12) {
        println!("  {sym:<40} {covg:>5.1}%  ({w}/{h})");
    }
    println!("\ntotal wall time {:.1?}", t0.elapsed());
    bench::finish("repro", Some(&scan.coverage_line()));
}
