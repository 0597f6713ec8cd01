//! Workload definitions and the untraced legs.
//!
//! Every leg runs three timed passes in one fresh process: cold at N
//! workers, then warm at N workers, then warm at one worker. What a pass is
//! depends on the workload:
//!
//! * scan — `Scan::new(cfg).run()` over 2,000 sites (the Sec. 4 scan);
//! * compare — `run_compare` (3 runs × 2 clients) plus Tables 8–10;
//! * archive — `Scan::stream_to` under a fixed fault plan, then two
//!   `Scan::replay` passes of the bundle it wrote.
//!
//! Each pass is bracketed by host calibrations (see `calib`), and its
//! throughput is reported at the reference host speed.

use std::path::{Path, PathBuf};
use std::time::Instant;

use gullible::compare::{compare_set, CompareReport};
use gullible::{run_compare, Client, CompareConfig, ReplayBundle, Scan, ScanConfig};
use netsim::{CookieParty, ResourceType};
use openwpm::FaultPlan;
use webgen::Population;

use crate::{calib, digest_of, peak_rss_mb, since_spawn_s, Args, Report, Workload};

/// Small enough that a leg's three passes take a few seconds, so a run has
/// several legs to take medians over.
pub const SCAN_SITES: u32 = 2_000;
/// 7K sites give a comparison set of 104 detector sites, so one pass is
/// 6 `run_parallel` barriers of 104 visits each.
pub const COMPARE_SITES: u32 = 7_000;
pub const ARCHIVE_SITES: u32 = 1_500;

/// The development seed, at which the 5,000-site scan's Table 5 and
/// telemetry digest have known values (the goldens).
pub const DEV_SEED: u64 = 42;
pub const DEV_SITES: u32 = 5_000;
pub const DEV_TABLE5: [(u32, u32); 3] = [(1652, 798), (898, 790), (1823, 914)];
pub const DEV_TELEMETRY: u64 = 0x2d62_dac2_86f9_ba68;

pub fn scan_config(seed: u64, workers: usize) -> ScanConfig {
    ScanConfig {
        workers,
        ..ScanConfig::new(SCAN_SITES, seed)
    }
}

pub fn compare_config(seed: u64, workers: usize) -> CompareConfig {
    CompareConfig {
        workers,
        ..CompareConfig::new(COMPARE_SITES, seed)
    }
}

/// Seed of the archive workload's fault draws: the fault plan is part of
/// the workload, fixed like its rates, while the population follows the
/// benchmark seed.
pub const ARCHIVE_FAULT_SEED: u64 = 0xFA_017;

/// Crawl weather heavy enough that some sites exhaust their retries:
/// milder plans are fully rescued by the supervisor, leaving the failed
/// share nothing to count. The draws are keyed by rank and attempt, so a
/// population's failures repeat exactly.
pub fn archive_config(seed: u64, workers: usize) -> ScanConfig {
    ScanConfig {
        workers,
        faults: FaultPlan {
            crash_per_mille: 60,
            hang_per_mille: 20,
            nav_error_per_mille: 40,
            tab_crash_per_mille: 20,
            http_flaky_per_mille: 40,
            seed: ARCHIVE_FAULT_SEED,
            ..FaultPlan::default()
        },
        flaky_sites_per_100k: 500,
        ..ScanConfig::new(ARCHIVE_SITES, seed)
    }
}

pub fn bundle_dir(dir: &Path) -> PathBuf {
    dir.join("bundle")
}

/// Everything Tables 8–10 print, derived from a comparison report:
/// requests by resource type, blocklist hits, cookies by party, tracking
/// cookies, the Wilcoxon tests and the per-API call coverage.
pub fn compare_tables(report: &CompareReport) -> String {
    let mut out = String::new();
    for (i, (wpm, hide)) in report.runs.iter().enumerate() {
        for rt in ResourceType::all() {
            out += &format!("{rt:?}:{}/{};", wpm.requests_of(*rt), hide.requests_of(*rt));
        }
        out += &format!(
            "total:{}/{};easylist:{}/{};easyprivacy:{}/{};",
            wpm.total_requests(),
            hide.total_requests(),
            wpm.easylist_total(),
            hide.easylist_total(),
            wpm.easyprivacy_total(),
            hide.easyprivacy_total()
        );
        for party in [CookieParty::First, CookieParty::Third] {
            out += &format!(
                "{party:?}:{}/{};",
                wpm.cookies_of(party),
                hide.cookies_of(party)
            );
        }
        out += &format!(
            "tracking:{}/{};wilcoxon:{:?}/{:?};coverage:{:?}\n",
            report.tracking_cookies(Client::Wpm, i),
            report.tracking_cookies(Client::WpmHide, i),
            report.wilcoxon_trackers(i).map(|w| (w.z, w.p_value)),
            report.wilcoxon_cookies(i).map(|w| (w.z, w.p_value)),
            report.coverage(i)
        );
    }
    out
}

/// Client visits in one comparison: every set site, per client, per run.
pub fn compare_visits(report: &CompareReport) -> u64 {
    report
        .runs
        .iter()
        .map(|(w, h)| (w.sites.len() + h.sites.len()) as u64)
        .sum()
}

/// The workload's set-up, shared by legs and set-up samples: the scan
/// needs only its configuration, the comparison selects its comparison
/// set, and the durable crawl starts from an empty bundle directory.
fn setup(args: &Args) -> Setup {
    match args.workload {
        Workload::Scan => Setup::Scan(scan_config(args.seed, args.workers)),
        Workload::Compare => {
            let cfg = compare_config(args.seed, args.workers);
            let set = compare_set(&Population::new(cfg.n_sites, cfg.seed));
            Setup::Compare(cfg, set.len())
        }
        Workload::Archive => {
            let bundle = bundle_dir(&args.dir);
            let _ = std::fs::remove_dir_all(&bundle);
            Setup::Archive(archive_config(args.seed, args.workers), bundle)
        }
    }
}

enum Setup {
    Scan(ScanConfig),
    Compare(CompareConfig, usize),
    Archive(ScanConfig, PathBuf),
}

/// The goldens: a 5,000-site scan at the development seed, on a fresh
/// registry with stats on, must print the known Table 5 and telemetry
/// digest. Untimed; run at the development seed only.
pub fn check_goldens(rep: &mut Report, workers: usize) {
    obs::reset();
    obs::set_stats(true);
    let report = Scan::new(ScanConfig {
        workers,
        ..ScanConfig::new(DEV_SITES, DEV_SEED)
    })
    .run()
    .expect("plain scan");
    let digest = obs::registry().snapshot().digest();
    rep.expect_eq(
        "5,000-site scan Table 5 at the development seed",
        report.table5(),
        DEV_TABLE5,
    );
    rep.expect_eq(
        "5,000-site scan telemetry digest at the development seed",
        digest,
        DEV_TELEMETRY,
    );
}

pub fn goldens(args: &Args) -> Report {
    let mut rep = Report {
        attempted: DEV_SITES as u64,
        ..Report::default()
    };
    check_goldens(&mut rep, args.workers);
    rep
}

pub fn setup_only(args: &Args) -> Report {
    let _setup = setup(args);
    let mut rep = Report {
        setup_s: since_spawn_s(args.spawned_ns),
        attempted: 1,
        ..Report::default()
    };
    let clock = PassClock::start(&mut rep, 1);
    rep.metric("setup_ref_s", rep.setup_s / clock.factor());
    rep
}

const PASSES: [&str; 3] = ["sites_per_s", "warm_sites_per_s", "warm_sites_per_s_1w"];
/// The same passes' wall-clock throughput, before calibration.
const RAW: [&str; 3] = [
    "sites_per_s.wall",
    "warm_sites_per_s.wall",
    "warm_sites_per_s_1w.wall",
];

/// Times passes between host calibrations: each pass is measured from the
/// end of the calibration before it, and calibrated by the mean of that
/// one and the one after it. Both run on as many threads as the pass has
/// workers, since a lone worker runs at the speed of one virtual core,
/// which may differ from the mean of all of them; a one-worker pass and
/// its calibrations are pinned to the same core.
pub struct PassClock {
    workers: usize,
    unit_s: f64,
    started: Instant,
}

impl PassClock {
    /// Calibrates, then starts the first pass's clock.
    pub fn start(rep: &mut Report, workers: usize) -> PassClock {
        calib::pin_to_one_cpu(workers == 1);
        let mut clock = PassClock {
            workers,
            unit_s: 0.0,
            started: Instant::now(),
        };
        clock.unit_s = clock.calibrate(rep);
        clock.started = Instant::now();
        clock
    }

    fn calibrate(&self, rep: &mut Report) -> f64 {
        calib::unit_s(self.workers).unwrap_or_else(|e| {
            rep.failures.push(e);
            calib::REF_UNIT_S
        })
    }

    /// The host's speed-up factor to the reference, from the latest
    /// calibration alone.
    pub fn factor(&self) -> f64 {
        self.unit_s / calib::REF_UNIT_S
    }

    /// Ends the pass that is running: returns its wall time in seconds and
    /// its speed-up factor to the reference host (`unit_s / REF_UNIT_S`).
    /// Then, if another pass follows with `next` workers, calibrates for it
    /// (again, if its worker count differs) and starts its clock.
    pub fn lap(&mut self, rep: &mut Report, next: Option<usize>) -> (f64, f64) {
        let wall = self.started.elapsed().as_secs_f64();
        let after = self.calibrate(rep);
        let factor = (self.unit_s + after) / 2.0 / calib::REF_UNIT_S;
        self.unit_s = after;
        if let Some(workers) = next.filter(|w| *w != self.workers) {
            self.workers = workers;
            calib::pin_to_one_cpu(workers == 1);
            self.unit_s = self.calibrate(rep);
        }
        self.started = Instant::now();
        (wall, factor)
    }
}

/// Record pass `i`'s throughput at the reference host speed, with its
/// wall-clock figure beside it. For the cold pass the host factor and the
/// wall time at the reference speed are kept too, the latter as the base
/// of the traced leg's overhead. `pass_workers` holds every pass's worker
/// count.
fn pass_metric(
    rep: &mut Report,
    i: usize,
    items: f64,
    clock: &mut PassClock,
    pass_workers: [usize; 3],
) {
    let (wall, factor) = clock.lap(rep, pass_workers.get(i + 1).copied());
    rep.metric(PASSES[i], items / wall * factor);
    rep.metric(RAW[i], items / wall);
    if i == 0 {
        rep.metric("cold_wall_ref_s", wall / factor);
        rep.metric("host_factor", factor);
    }
}

pub fn run(args: &Args) -> Report {
    let setup = setup(args);
    let mut rep = Report {
        setup_s: since_spawn_s(args.spawned_ns),
        ..Report::default()
    };
    let pass_workers = [args.workers, args.workers, 1];
    let mut clock = PassClock::start(&mut rep, args.workers);
    rep.metric("setup_ref_s", rep.setup_s / clock.factor());
    match setup {
        Setup::Scan(cfg) => {
            let mut seen = Vec::new();
            for (i, workers) in pass_workers.into_iter().enumerate() {
                let report = Scan::new(ScanConfig { workers, ..cfg })
                    .run()
                    .expect("plain scan");
                pass_metric(&mut rep, i, cfg.n_sites as f64, &mut clock, pass_workers);
                rep.attempted += cfg.n_sites as u64;
                if i == 0 {
                    rep.metric("completed_ratio", report.completion.completion_rate());
                    rep.expect_eq(
                        "scan completed sites",
                        report.completion.completed,
                        cfg.n_sites as usize,
                    );
                }
                seen.push((
                    digest_of(&report.sites),
                    digest_of(&report.history),
                    report.table5(),
                ));
            }
            for (i, s) in seen.iter().enumerate().skip(1) {
                rep.expect_eq(
                    &format!("scan pass {} records vs cold pass", i + 1),
                    s,
                    &seen[0],
                );
            }
            let (records, history, table5) = &seen[0];
            rep.check("records", records.clone());
            rep.check("history", history.clone());
            rep.check("table5", format!("{table5:?}"));
        }
        Setup::Compare(cfg, set_len) => {
            let mut seen = Vec::new();
            for (i, workers) in pass_workers.into_iter().enumerate() {
                let report = run_compare(CompareConfig { workers, ..cfg });
                let tables = compare_tables(&report);
                let visits = compare_visits(&report);
                pass_metric(&mut rep, i, visits as f64, &mut clock, pass_workers);
                rep.attempted += visits;
                if i == 0 {
                    // The comparison has no failure path: every visit lands.
                    let expected = set_len as u64 * 2 * cfg.runs as u64;
                    rep.expect_eq("compare client visits", visits, expected);
                    rep.metric("completed_ratio", visits as f64 / expected as f64);
                }
                seen.push(tables);
            }
            for (i, s) in seen.iter().enumerate().skip(1) {
                rep.expect_eq(
                    &format!("compare pass {} Tables 8-10 vs cold pass", i + 1),
                    s,
                    &seen[0],
                );
            }
            rep.check("tables", digest_of(&seen[0]));
        }
        Setup::Archive(cfg, bundle) => {
            archive_passes(&mut rep, cfg, &bundle, pass_workers, &mut clock)
        }
    }
    rep.metric("peak_rss_mb", peak_rss_mb());
    rep
}

fn archive_passes(
    rep: &mut Report,
    cfg: ScanConfig,
    bundle: &Path,
    pass_workers: [usize; 3],
    clock: &mut PassClock,
) {
    let n = cfg.n_sites as f64;
    let written = Scan::new(cfg)
        .stream_to(bundle)
        .run()
        .expect("streamed crawl");
    pass_metric(rep, 0, n, clock, pass_workers);
    rep.attempted += cfg.n_sites as u64;
    let c = &written.completion;
    let failed = c.failed + c.interrupted;
    rep.metric("completed_ratio", c.completion_rate());
    rep.metric("failed_ratio", failed as f64 / n);
    rep.expect_eq(
        "archive bundle sealed",
        written.stream.map(|s| s.committed),
        Some(true),
    );

    for (i, workers) in pass_workers.into_iter().enumerate().skip(1) {
        let metric = PASSES[i];
        let replayed = Scan::new(ScanConfig { workers, ..cfg })
            .replay(bundle)
            .run()
            .expect("replay");
        pass_metric(rep, i, n, clock, pass_workers);
        rep.attempted += cfg.n_sites as u64;
        let divergences = replayed.replay.map(|r| r.divergences);
        rep.expect_eq(
            &format!("archive {metric} replay divergences"),
            divergences,
            Some(0),
        );
        let rc = &replayed.completion;
        rep.expect_eq(
            &format!("archive {metric} replay failed sites"),
            rc.failed + rc.interrupted,
            failed,
        );
        rep.expect_eq(
            &format!("archive {metric} replay Table 5"),
            replayed.table5(),
            written.table5(),
        );
    }
    let bytes: u64 = std::fs::read_dir(bundle)
        .map(|d| {
            d.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    rep.metric("bundle_bytes_per_site", bytes as f64 / n);
    match ReplayBundle::open(bundle) {
        Ok(b) => rep.check("records", format!("{:016x}", b.commit.records_digest)),
        Err(e) => rep
            .failures
            .push(format!("archive bundle does not reopen: {e}")),
    }
    rep.check("failed", failed.to_string());
    rep.check("table5", format!("{:?}", written.table5()));
}
