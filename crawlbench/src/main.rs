//! One leg of the crawl benchmark: a fresh process that runs one workload
//! and prints one JSON line of raw measurements. `crawlbench/run.py`
//! builds this binary, starts the legs, checks their outputs against each
//! other and aggregates them; see `crawlbench/NOTES.md`.
//!
//! ```text
//! crawlbench --workload scan|compare|archive --seed N --workers N \
//!            --spawned-ns <unix ns at spawn> --dir <scratch dir> \
//!            [--trace | --setup-only | --goldens]
//! ```
//!
//! Untraced legs (the default) report end-to-end numbers; `--trace` runs
//! the traced leg, whose spans give the per-layer split. `--setup-only`
//! performs the workload's set-up and exits, one more set-up sample.
//! `--goldens` runs the untimed 5,000-site scan at the development seed and
//! checks its known Table 5 and telemetry digest.

mod calib;
mod legs;
mod trace;
mod traced;

use std::path::PathBuf;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Scan,
    Compare,
    Archive,
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub workers: usize,
    pub spawned_ns: u128,
    pub dir: PathBuf,
    pub trace: bool,
    pub setup_only: bool,
    pub goldens: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut workers = None;
    let mut spawned_ns = None;
    let mut dir = None;
    let mut trace = false;
    let mut setup_only = false;
    let mut goldens = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                workload = Some(match value()?.as_str() {
                    "scan" => Workload::Scan,
                    "compare" => Workload::Compare,
                    "archive" => Workload::Archive,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--workers" => {
                workers = Some(
                    value()?
                        .parse::<usize>()
                        .map_err(|e| format!("--workers: {e}"))?,
                )
            }
            "--spawned-ns" => {
                spawned_ns = Some(
                    value()?
                        .parse::<u128>()
                        .map_err(|e| format!("--spawned-ns: {e}"))?,
                )
            }
            "--dir" => dir = Some(PathBuf::from(value()?)),
            "--trace" => trace = true,
            "--setup-only" => setup_only = true,
            "--goldens" => goldens = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        workers: workers
            .filter(|w| *w >= 1)
            .ok_or("--workers >= 1 is required")?,
        spawned_ns: spawned_ns.ok_or("--spawned-ns is required")?,
        dir: dir.ok_or("--dir is required")?,
        trace,
        setup_only,
        goldens,
    })
}

/// Seconds from the parent's spawn timestamp to now: process start plus
/// the workload's set-up.
pub fn since_spawn_s(spawned_ns: u128) -> f64 {
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after 1970")
        .as_nanos();
    now.saturating_sub(spawned_ns) as f64 / 1e9
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// FNV-1a of a value's `Debug` rendering: the benchmark's own digest of
/// per-site records and tables.
pub fn digest_of(v: &impl std::fmt::Debug) -> String {
    format!("{:016x}", obs::fnv1a(format!("{v:?}").as_bytes()))
}

/// What one leg prints: numbers, values the other legs must reproduce, and
/// correctness failures (any failure fails the whole benchmark run).
#[derive(Default)]
pub struct Report {
    pub setup_s: f64,
    pub attempted: u64,
    pub metrics: Vec<(&'static str, f64)>,
    pub checks: Vec<(&'static str, String)>,
    pub failures: Vec<String>,
    /// Traced legs: `(span name, count, self time share of the traced
    /// thread time)`.
    pub phases: Vec<(&'static str, u64, f64)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, v: f64) {
        if !v.is_finite() {
            self.failures
                .push(format!("{name} is not a finite number ({v})"));
        }
        self.metrics
            .push((name, if v.is_finite() { v } else { 0.0 }));
    }

    pub fn check(&mut self, name: &'static str, v: impl Into<String>) {
        self.checks.push((name, v.into()));
    }

    pub fn expect_eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        if got != want {
            self.failures
                .push(format!("{what}: got {got:?}, expected {want:?}"));
        }
    }

    fn to_json(&self) -> String {
        let str_json = |s: &str| {
            let mut o = String::new();
            obs::push_json_string(&mut o, s);
            o
        };
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v)| format!("{}:{v}", str_json(k)))
            .collect();
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|(k, v)| format!("{}:{}", str_json(k), str_json(v)))
            .collect();
        let failures: Vec<String> = self.failures.iter().map(|f| str_json(f)).collect();
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|(k, n, v)| format!("[{},{n},{v}]", str_json(k)))
            .collect();
        format!(
            "{{\"setup_s\":{},\"attempted\":{},\"metrics\":{{{}}},\"checks\":{{{}}},\"failures\":[{}],\"phases\":[{}]}}",
            self.setup_s,
            self.attempted,
            metrics.join(","),
            checks.join(","),
            failures.join(","),
            phases.join(",")
        )
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("crawlbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.dir) {
        eprintln!("crawlbench: {}: {e}", args.dir.display());
        std::process::exit(2);
    }
    let report = if args.goldens {
        legs::goldens(&args)
    } else if args.setup_only {
        legs::setup_only(&args)
    } else if args.trace {
        traced::run(&args)
    } else {
        legs::run(&args)
    };
    println!("{}", report.to_json());
}
