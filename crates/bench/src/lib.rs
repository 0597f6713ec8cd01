//! Shared plumbing for the experiment-regeneration binaries.
//!
//! Every table and figure of the paper has a binary in `src/bin/` that
//! regenerates it against the synthetic population. Scale, seed, fault
//! weather and telemetry are all controlled by `GULLIBLE_*` environment
//! variables, documented (with types and defaults) in [`env`](mod@env) —
//! the one module that parses them. The same binaries therefore drive
//! both quick looks and the full paper-scale runs recorded in
//! EXPERIMENTS.md.
//!
//! Each binary follows the same frame:
//!
//! ```text
//! bench::banner("Table 5: …");   // prints the run header, arms telemetry
//! …regenerate the table…
//! bench::finish("table05", coverage);  // [stats] summary + provenance footer
//! ```
//!
//! [`banner`] installs the JSONL trace journal when `GULLIBLE_TRACE` is
//! set and enables stats collection under `GULLIBLE_STATS`; [`finish`]
//! prints the human `[stats]` summary (when enabled) and always prints the
//! machine-readable `[provenance]` footer, so every regenerated table
//! carries its seed, config hash and telemetry digest (`telemetry=off`
//! when stats were not collected).

#![deny(deprecated)]

use gullible::{obs, CompareConfig, ScanConfig};

pub mod env;

/// Population size for scan-scale experiments (`GULLIBLE_SITES`).
pub fn n_sites() -> u32 {
    env::sites()
}

/// Population seed (`GULLIBLE_SEED`).
pub fn seed() -> u64 {
    env::seed()
}

/// Worker threads (`GULLIBLE_WORKERS`).
pub fn workers() -> usize {
    env::workers()
}

/// Standard scan configuration from the environment, including the
/// `GULLIBLE_FAULT_*` fault plan.
pub fn scan_config() -> ScanConfig {
    let mut cfg = ScanConfig::new(env::sites(), env::seed());
    cfg.workers = env::workers();
    cfg.faults = env::fault_plan();
    cfg
}

/// Crawl-bundle directory for the archive binaries: the first positional
/// CLI argument, else `GULLIBLE_BUNDLE`, else a (sites, seed)-scoped
/// directory under the system temp dir — the same default for
/// `archive_record` and `archive_replay`, so a record-then-replay pair
/// needs no arguments at all.
pub fn bundle_dir() -> std::path::PathBuf {
    env::positional_args()
        .into_iter()
        .next()
        .map(std::path::PathBuf::from)
        .or_else(env::bundle)
        .unwrap_or_else(|| {
            std::env::temp_dir().join(format!("gullible-bundle-{}x{}", env::sites(), env::seed()))
        })
}

/// Standard comparison configuration from the environment.
pub fn compare_config() -> CompareConfig {
    let mut cfg = CompareConfig::new(env::sites(), env::seed());
    cfg.workers = env::workers();
    cfg
}

/// Arm the telemetry knobs: install the trace journal when
/// `GULLIBLE_TRACE` names a path, enable stats under `GULLIBLE_STATS`,
/// switch on the phase profiler / flight recorder under `GULLIBLE_PROF`,
/// `GULLIBLE_PROF_SLOW_US` and `GULLIBLE_FORENSICS`.
fn arm_telemetry() {
    if env::stats() {
        obs::set_stats(true);
    }
    if let Some(path) = env::trace() {
        match obs::Journal::to_file(&path, env::trace_wall()) {
            Ok(journal) => {
                obs::install_journal(journal);
            }
            Err(e) => eprintln!("warning: GULLIBLE_TRACE={}: {e}", path.display()),
        }
    }
    obs::prof::set_mode(env::prof_mode());
    obs::prof::set_slow_visit_us(env::prof_slow_us());
    if let Some(path) = env::forensics() {
        if let Err(e) = obs::prof::set_forensic_path(Some(&path)) {
            eprintln!("warning: GULLIBLE_FORENSICS={}: {e}", path.display());
        }
    }
}

/// Apply the compile-cache knobs (`GULLIBLE_COMPILE_CACHE`,
/// `GULLIBLE_COMPILE_SHARDS`, the `--no-compile-cache` flag). Shard count
/// only takes effect before the cache's first use, so this runs from
/// [`banner`], ahead of any script compilation.
fn arm_compile_cache() {
    jsengine::set_cache_shards(env::compile_shards());
    jsengine::set_cache_enabled(env::compile_cache());
}

/// Print the run header every binary starts with (and arm telemetry).
pub fn banner(what: &str) {
    arm_telemetry();
    arm_compile_cache();
    let faults = env::fault_plan();
    let weather = if faults.is_inert() {
        String::new()
    } else {
        format!(
            ", faults {}‰/visit (seed {})",
            faults.total_per_mille(),
            faults.seed
        )
    };
    let cache = if jsengine::cache_enabled() { "" } else { ", compile cache OFF" };
    println!(
        "gullible reproduction — {what}\npopulation: {} sites, seed {}, {} workers{weather}{cache}\n",
        env::sites(),
        env::seed(),
        env::workers()
    );
}

/// Hash of the effective run configuration, as carried by provenance
/// footers. Keys are ordered; two runs with equal hashes were configured
/// identically (worker count included — it never changes the results, but
/// it is part of how the run was produced).
pub fn run_config_hash() -> u64 {
    let faults = env::fault_plan();
    obs::stats::config_hash(&[
        ("sites", env::sites().to_string()),
        ("seed", env::seed().to_string()),
        ("workers", env::workers().to_string()),
        ("faults_pm", faults.total_per_mille().to_string()),
        ("fault_seed", faults.seed.to_string()),
    ])
}

/// Print the run footer every binary ends with: the `[stats]` summary when
/// `GULLIBLE_STATS` is on, then — always — the one-line `[provenance]`
/// footer (seed, config hash, telemetry digest or `telemetry=off`,
/// coverage), and flush the trace journal.
pub fn finish(bin: &str, coverage: Option<&str>) {
    let reg = obs::registry();
    if obs::stats_enabled() {
        print!("{}", obs::stats::render_summary(reg));
    }
    if obs::prof::mode() == obs::prof::Mode::Collapsed {
        // Flamegraph-ready collapsed stacks: `stack;stack;... self_us`.
        let collapsed = obs::prof::render_collapsed();
        if !collapsed.is_empty() {
            print!("[prof] collapsed stacks (self µs)\n{collapsed}");
        }
    }
    let snapshot = obs::stats_enabled().then(|| reg.snapshot());
    println!(
        "{}",
        obs::stats::provenance_footer(bin, env::seed(), run_config_hash(), snapshot.as_ref(), coverage)
    );
    if let Some(journal) = obs::journal() {
        journal.flush();
    }
}

/// Scale one of the paper's 100K-population counts to the configured size
/// (for side-by-side target columns).
pub fn scale_target(paper_count: u64) -> u64 {
    paper_count * env::sites() as u64 / 100_000
}

/// Results collected by [`timeit`] for the `--stats` JSON footer.
static BENCH_RESULTS: std::sync::Mutex<Vec<(String, u128, u32)>> =
    std::sync::Mutex::new(Vec::new());

/// `--stats` mode for the bench harnesses: besides the human-readable
/// lines, [`bench_footer`] emits one JSON object with every measurement —
/// redirect it to `BENCH_<suite>.json` to feed performance trajectories.
pub fn stats_mode() -> bool {
    std::env::args().any(|a| a == "--stats")
}

/// Minimal self-timed benchmark runner (the offline build environment has
/// no criterion): one warm-up call, then `iters` timed iterations.
pub fn timeit(name: &str, iters: u32, mut f: impl FnMut()) {
    f();
    let t0 = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    let per = t0.elapsed() / iters;
    println!("{name:<40} {per:>12.2?}/iter ({iters} iters)");
    BENCH_RESULTS.lock().unwrap().push((name.to_string(), per.as_nanos(), iters));
}

/// End-of-suite footer for the bench harnesses. Under `--stats` it prints
/// a single JSON line with every [`timeit`] measurement plus the run's
/// config hash and telemetry digest:
///
/// ```text
/// cargo bench --bench engine -- --stats | tail -1 > BENCH_engine.json
/// ```
pub fn bench_footer(suite: &str) {
    if !stats_mode() {
        return;
    }
    let results = BENCH_RESULTS.lock().unwrap();
    let mut json = String::new();
    obs::push_json_string(&mut json, suite);
    let mut out = format!("{{\"suite\":{json},\"results\":[");
    for (i, (name, ns, iters)) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut n = String::new();
        obs::push_json_string(&mut n, name);
        out.push_str(&format!(
            "{{\"name\":{n},\"ns_per_iter\":{ns},\"iters\":{iters}}}"
        ));
    }
    out.push_str(&format!(
        "],\"config\":\"{:016x}\",\"telemetry\":\"{:016x}\"}}",
        run_config_hash(),
        obs::registry().snapshot().digest()
    ));
    println!("{out}");
}
