//! The `GULLIBLE_*` environment knobs, parsed in exactly one place.
//!
//! Every regeneration binary and the umbrella `repro` runner read their
//! configuration from these variables; nothing else in the workspace calls
//! `std::env::var` for a `GULLIBLE_*` name except [`FaultPlan::from_env`]
//! (which this module re-wraps as [`fault_plan`]).
//!
//! | knob                      | type  | default        | meaning |
//! |---------------------------|-------|----------------|---------|
//! | `GULLIBLE_SITES`          | u32   | 20,000         | population size (paper scale: 100,000) |
//! | `GULLIBLE_SEED`           | u64   | 42             | population seed |
//! | `GULLIBLE_WORKERS`        | usize | CPU count      | crawl worker threads |
//! | `GULLIBLE_TRACE`          | path  | unset          | stream the JSONL telemetry journal here |
//! | `GULLIBLE_TRACE_WALL`     | bool  | 0              | add `wall_ms` to journal lines (breaks byte-identity) |
//! | `GULLIBLE_STATS`          | bool  | 0              | print the `[stats]` crawl summary after each run |
//! | `GULLIBLE_FAULT_CRASH_PM` | u32   | 0              | browser-crash probability per visit (per-mille) |
//! | `GULLIBLE_FAULT_HANG_PM`  | u32   | 0              | visit-hang probability (per-mille) |
//! | `GULLIBLE_FAULT_NAV_PM`   | u32   | 0              | navigation-error probability (per-mille) |
//! | `GULLIBLE_FAULT_TAB_PM`   | u32   | 0              | mid-visit tab-crash probability (per-mille) |
//! | `GULLIBLE_FAULT_HTTP_PM`  | u32   | 0              | transient-HTTP-failure probability (per-mille) |
//! | `GULLIBLE_FAULT_BOOST_PM` | u32   | 1000           | failure multiplier on flaky-flagged sites (per-mille) |
//! | `GULLIBLE_FAULT_SEED`     | u64   | `0xFA017`      | fault-plan seed, independent of the population seed |
//! | `GULLIBLE_COMPILE_CACHE`  | bool  | 1              | share compiled scripts across workers (`0` disables; ablation) |
//! | `GULLIBLE_COMPILE_SHARDS` | usize | 16             | mutex stripes in the compile cache (set before first use) |
//! | `GULLIBLE_BUNDLE`         | path  | unset          | crawl-bundle directory for `archive_record`/`archive_replay` (positional arg wins); makes `repro` stream its scan there and resume on restart |
//! | `GULLIBLE_PROF`           | mode  | off            | phase profiler: `1` on, `collapsed` also prints a flamegraph-ready collapsed-stack dump |
//! | `GULLIBLE_PROF_SLOW_US`   | u64   | 0              | slow-visit threshold in µs; visits at/above it dump a forensic record (`0` disables) |
//! | `GULLIBLE_FORENSICS`      | path  | unset          | append flight-recorder forensic dumps (JSONL) here; arms the profiler |
//!
//! Boolean knobs accept `1`, `true`, `yes` or `on` (anything else, or
//! unset, is off). Default-on boolean knobs (`GULLIBLE_COMPILE_CACHE`)
//! are instead *disabled* by `0`, `false`, `no` or `off`. Numeric knobs
//! that fail to parse fall back to their defaults rather than aborting a
//! long run.

use gullible::obs;
use openwpm::FaultPlan;
use std::path::PathBuf;

fn u64_knob(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn flag_knob(name: &str) -> bool {
    matches!(
        std::env::var(name).unwrap_or_default().to_ascii_lowercase().as_str(),
        "1" | "true" | "yes" | "on"
    )
}

/// A boolean knob that defaults to *on*: only an explicit negative value
/// turns it off.
fn default_on_knob(name: &str) -> bool {
    !matches!(
        std::env::var(name).unwrap_or_default().to_ascii_lowercase().as_str(),
        "0" | "false" | "no" | "off"
    )
}

fn path_knob(name: &str) -> Option<PathBuf> {
    std::env::var_os(name).filter(|v| !v.is_empty()).map(PathBuf::from)
}

/// `GULLIBLE_SITES` — population size for scan-scale experiments.
pub fn sites() -> u32 {
    u64_knob("GULLIBLE_SITES", 20_000) as u32
}

/// `GULLIBLE_SEED` — population seed.
pub fn seed() -> u64 {
    u64_knob("GULLIBLE_SEED", 42)
}

/// `GULLIBLE_WORKERS` — crawl worker threads.
pub fn workers() -> usize {
    u64_knob(
        "GULLIBLE_WORKERS",
        std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(4),
    ) as usize
}

/// `GULLIBLE_TRACE` — destination for the JSONL telemetry journal.
pub fn trace() -> Option<PathBuf> {
    path_knob("GULLIBLE_TRACE")
}

/// `GULLIBLE_TRACE_WALL` — append wall-clock timestamps to journal lines.
pub fn trace_wall() -> bool {
    flag_knob("GULLIBLE_TRACE_WALL")
}

/// `GULLIBLE_STATS` — print the `[stats]` crawl summary.
pub fn stats() -> bool {
    flag_knob("GULLIBLE_STATS")
}

/// The `GULLIBLE_FAULT_*` fault plan (see [`FaultPlan::from_env`]).
pub fn fault_plan() -> FaultPlan {
    FaultPlan::from_env()
}

/// `GULLIBLE_COMPILE_CACHE` — the shared script-compilation cache, on by
/// default. The `--no-compile-cache` CLI flag (any binary) also disables
/// it, for ablations.
pub fn compile_cache() -> bool {
    default_on_knob("GULLIBLE_COMPILE_CACHE")
        && !std::env::args().any(|a| a == "--no-compile-cache")
}

/// `GULLIBLE_COMPILE_SHARDS` — mutex stripes in the compile cache. Takes
/// effect only if set before the cache's first use.
pub fn compile_shards() -> usize {
    u64_knob("GULLIBLE_COMPILE_SHARDS", 16) as usize
}

/// `GULLIBLE_BUNDLE` — crawl-bundle directory for the archive binaries
/// and for `repro`'s durable scan.
pub fn bundle() -> Option<PathBuf> {
    path_knob("GULLIBLE_BUNDLE")
}

/// `GULLIBLE_PROF` — phase-profiler mode (`off`, `1`/`on`, `collapsed`).
pub fn prof_mode() -> obs::prof::Mode {
    obs::prof::parse_mode(&std::env::var("GULLIBLE_PROF").unwrap_or_default())
}

/// `GULLIBLE_PROF_SLOW_US` — slow-visit forensic-dump threshold (µs, 0 = off).
pub fn prof_slow_us() -> u64 {
    u64_knob("GULLIBLE_PROF_SLOW_US", 0)
}

/// `GULLIBLE_FORENSICS` — flight-recorder forensic dump file (JSONL, append).
pub fn forensics() -> Option<PathBuf> {
    path_knob("GULLIBLE_FORENSICS")
}

/// Positional (non-flag) CLI arguments, in order — the archive binaries
/// take bundle directories this way, ahead of `GULLIBLE_BUNDLE`.
pub fn positional_args() -> Vec<String> {
    std::env::args().skip(1).filter(|a| !a.starts_with("--")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env-var tests mutate process state; keep them in one test so they
    // cannot race each other under the parallel test runner.
    #[test]
    fn knob_parsing() {
        std::env::set_var("GULLIBLE_TEST_U64", "17");
        assert_eq!(u64_knob("GULLIBLE_TEST_U64", 3), 17);
        std::env::set_var("GULLIBLE_TEST_U64", "not a number");
        assert_eq!(u64_knob("GULLIBLE_TEST_U64", 3), 3);
        std::env::remove_var("GULLIBLE_TEST_U64");
        assert_eq!(u64_knob("GULLIBLE_TEST_U64", 3), 3);

        for on in ["1", "true", "YES", "On"] {
            std::env::set_var("GULLIBLE_TEST_FLAG", on);
            assert!(flag_knob("GULLIBLE_TEST_FLAG"), "{on} should enable");
        }
        std::env::set_var("GULLIBLE_TEST_FLAG", "0");
        assert!(!flag_knob("GULLIBLE_TEST_FLAG"));
        std::env::remove_var("GULLIBLE_TEST_FLAG");
        assert!(!flag_knob("GULLIBLE_TEST_FLAG"));

        for off in ["0", "false", "NO", "Off"] {
            std::env::set_var("GULLIBLE_TEST_ON", off);
            assert!(!default_on_knob("GULLIBLE_TEST_ON"), "{off} should disable");
        }
        std::env::set_var("GULLIBLE_TEST_ON", "1");
        assert!(default_on_knob("GULLIBLE_TEST_ON"));
        std::env::remove_var("GULLIBLE_TEST_ON");
        assert!(default_on_knob("GULLIBLE_TEST_ON"), "unset must default on");

        std::env::set_var("GULLIBLE_TEST_PATH", "/tmp/x.jsonl");
        assert_eq!(path_knob("GULLIBLE_TEST_PATH"), Some(PathBuf::from("/tmp/x.jsonl")));
        std::env::set_var("GULLIBLE_TEST_PATH", "");
        assert_eq!(path_knob("GULLIBLE_TEST_PATH"), None);
        std::env::remove_var("GULLIBLE_TEST_PATH");
        assert_eq!(path_knob("GULLIBLE_TEST_PATH"), None);
    }
}
