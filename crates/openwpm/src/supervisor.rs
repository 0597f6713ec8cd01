//! The supervised crawl executor.
//!
//! Real OpenWPM wraps every site visit in a BrowserManager watchdog:
//! crashed browsers are restarted, hung visits are killed on a timeout,
//! failed commands are retried with backoff, and sites that exhaust their
//! retries are recorded in `crawl_history`/`incomplete_visits` instead of
//! aborting the crawl. The paper's reliability analysis depends on this
//! machinery: crawl completeness is the denominator of every reported
//! rate, so a crawler that dies (or silently skips) on the first flaky
//! site produces tables that cannot be trusted.
//!
//! [`run_supervised`] reproduces that layer on top of [`run_parallel`]:
//!
//! * every visit attempt runs under `catch_unwind`, so a panicking visit
//!   poisons nothing — the worker's browser state is rebuilt and the site
//!   retried;
//! * injected faults (see [`crate::fault`]) are resolved *before* the
//!   visit, per `(fault key, attempt)`, keeping the crawl deterministic
//!   under any worker count;
//! * hangs are ended by a simulated-clock watchdog: the visit timeout is
//!   charged to the crawl clock and the browser restarted;
//! * retries follow an exponential backoff [`RetryPolicy`] with a per-site
//!   attempt cap; exhausted sites degrade gracefully into
//!   [`VisitOutcome::Failed`] with a typed [`FailureReason`];
//! * a per-item completion callback lets callers checkpoint finished work,
//!   and a `prior` vector replays checkpointed outcomes without
//!   re-visiting — the resume path.
//!
//! All time here is simulated (milliseconds on a crawl clock), never
//! wall-clock: results must not depend on host speed or scheduling.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::fault::{FaultInjector, FaultKind, FaultPlan};
use crate::manager::{panic_message, run_parallel};
use obs::Event;

/// Why a visit attempt (or a whole site) failed.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum FailureReason {
    BrowserCrash,
    /// Visit exceeded the watchdog timeout and was killed.
    Timeout,
    NavigationError,
    TabCrash,
    TransientHttp,
    /// The visit spec's URL does not parse — the visit can never succeed,
    /// but the browser is healthy; the supervisor records the failure
    /// instead of crashing the worker.
    BadUrl,
    /// The visit code itself panicked (caught by `catch_unwind`).
    Panic,
    /// A reason string this build does not recognise — typically a
    /// checkpoint written by a newer (or older) build. Preserving it as
    /// data instead of dropping the line keeps resume lossless across
    /// version skew; the string round-trips through [`FailureReason::as_str`].
    Unknown(String),
}

impl FailureReason {
    pub fn as_str(&self) -> &str {
        match self {
            FailureReason::BrowserCrash => "browser_crash",
            FailureReason::Timeout => "timeout",
            FailureReason::NavigationError => "navigation_error",
            FailureReason::TabCrash => "tab_crash",
            FailureReason::TransientHttp => "transient_http",
            FailureReason::BadUrl => "bad_url",
            FailureReason::Panic => "panic",
            FailureReason::Unknown(s) => s,
        }
    }

    /// The known (non-[`FailureReason::Unknown`]) reasons, in reporting
    /// order.
    pub fn all() -> [FailureReason; 7] {
        [
            FailureReason::BrowserCrash,
            FailureReason::Timeout,
            FailureReason::NavigationError,
            FailureReason::TabCrash,
            FailureReason::TransientHttp,
            FailureReason::BadUrl,
            FailureReason::Panic,
        ]
    }

    /// Strict inverse of [`FailureReason::as_str`]: only exact canonical
    /// names of known reasons parse. Same-build artifacts (archive
    /// bundles) use this — an unrecognised name there means corruption.
    pub fn parse(s: &str) -> Option<FailureReason> {
        FailureReason::all().into_iter().find(|r| r.as_str() == s)
    }

    /// Total decode for cross-build artifacts (checkpoints): a name this
    /// build does not know becomes [`FailureReason::Unknown`] instead of
    /// being dropped as a torn line.
    pub fn decode(s: &str) -> FailureReason {
        FailureReason::parse(s).unwrap_or_else(|| FailureReason::Unknown(s.to_string()))
    }

    fn from_fault(kind: FaultKind) -> FailureReason {
        match kind {
            FaultKind::BrowserCrash => FailureReason::BrowserCrash,
            FaultKind::Hang => FailureReason::Timeout,
            FaultKind::NavigationError => FailureReason::NavigationError,
            FaultKind::TabCrash => FailureReason::TabCrash,
            FaultKind::TransientHttp => FailureReason::TransientHttp,
        }
    }
}

/// How often and how patiently a failed visit is retried.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per site (first try included). Must be ≥ 1.
    pub max_attempts: u32,
    /// Backoff before retry `k` (1-based) is `base_backoff_ms << (k - 1)`,
    /// capped at `max_backoff_ms` — classic bounded exponential backoff.
    pub base_backoff_ms: u64,
    pub max_backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { max_attempts: 3, base_backoff_ms: 1_000, max_backoff_ms: 30_000 }
    }
}

impl RetryPolicy {
    /// No retries at all: one attempt, failures are final.
    pub fn none() -> RetryPolicy {
        RetryPolicy { max_attempts: 1, ..RetryPolicy::default() }
    }

    /// Simulated backoff charged before retry number `retry` (1-based).
    pub fn backoff_ms(&self, retry: u32) -> u64 {
        let shift = (retry.saturating_sub(1)).min(20);
        (self.base_backoff_ms << shift).min(self.max_backoff_ms)
    }
}

/// Supervisor knobs. `Copy` so scan configs can embed it with
/// struct-update syntax.
#[derive(Clone, Copy, Debug)]
pub struct SupervisorConfig {
    pub retry: RetryPolicy,
    /// Watchdog limit per visit on the simulated clock.
    pub visit_timeout_ms: u64,
    pub faults: FaultPlan,
    /// If set, only the first `budget` not-yet-completed items are
    /// visited; the rest come back [`VisitOutcome::Interrupted`]. This
    /// models a crawl killed midway deterministically (by item index, not
    /// by racy scheduling), which is what checkpoint/resume tests need.
    pub visit_budget: Option<usize>,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            retry: RetryPolicy::default(),
            visit_timeout_ms: 60_000,
            faults: FaultPlan::none(),
            visit_budget: None,
        }
    }
}

/// How one supervised item ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VisitOutcome<R> {
    Completed(R),
    /// All attempts exhausted; the site is skipped, not the crawl.
    Failed { reason: FailureReason, attempts: u32 },
    /// Never visited — the run stopped (visit budget) before reaching it.
    Interrupted,
}

impl<R> VisitOutcome<R> {
    pub fn completed(&self) -> Option<&R> {
        match self {
            VisitOutcome::Completed(r) => Some(r),
            _ => None,
        }
    }

    pub fn is_completed(&self) -> bool {
        matches!(self, VisitOutcome::Completed(_))
    }
}

/// Caller-provided identity of one work item, used for fault draws and
/// reporting.
#[derive(Clone, Debug)]
pub struct ItemMeta {
    /// Human-readable label (e.g. the site URL) for failure records.
    pub label: String,
    /// Deterministic fault-draw key (e.g. the site's rank).
    pub fault_key: u64,
    /// Whether the population marks this item as flaky (boosted rates).
    pub flaky: bool,
}

/// Aggregated crawl accounting — OpenWPM's `crawl_history` rollup.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CrawlSummary {
    pub total: usize,
    pub completed: usize,
    pub failed: usize,
    pub interrupted: usize,
    /// Completed on a retry rather than the first attempt.
    pub recovered: usize,
    /// `(reason, sites)` for exhausted sites, ordered as
    /// [`FailureReason::all`], zero-count reasons omitted.
    pub failures_by_reason: Vec<(FailureReason, usize)>,
    /// Visit attempts across all sites (≥ total visited).
    pub attempts: u64,
    /// Browser state rebuilds (crash, hang, tab crash, panic).
    pub restarts: u64,
    /// Simulated milliseconds lost to faults: timeouts plus backoff.
    pub lost_ms: u64,
    /// Torn or corrupted checkpoint lines dropped during resume.
    pub checkpoint_lines_dropped: usize,
}

impl CrawlSummary {
    /// Fraction of items that completed (the coverage denominator).
    pub fn completion_rate(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        self.completed as f64 / self.total as f64
    }

    /// One-line coverage statement printed under every table.
    pub fn coverage_line(&self) -> String {
        let mut line = format!(
            "coverage: {}/{} sites completed ({:.1}%)",
            self.completed,
            self.total,
            100.0 * self.completion_rate()
        );
        if self.failed > 0 {
            let detail: Vec<String> = self
                .failures_by_reason
                .iter()
                .map(|(r, n)| format!("{} {}", n, r.as_str()))
                .collect();
            line.push_str(&format!("; {} failed ({})", self.failed, detail.join(", ")));
        }
        if self.interrupted > 0 {
            line.push_str(&format!("; {} interrupted", self.interrupted));
        }
        if self.checkpoint_lines_dropped > 0 {
            line.push_str(&format!(
                "; {} checkpoint lines dropped",
                self.checkpoint_lines_dropped
            ));
        }
        line
    }
}

/// Everything a supervised run produces.
#[derive(Clone, Debug)]
pub struct CrawlOutcome<R> {
    /// Per-item outcome, in item order.
    pub outcomes: Vec<VisitOutcome<R>>,
    /// Visit attempts consumed per item this run (0 for replayed priors
    /// and interrupted items).
    pub attempts: Vec<u32>,
    pub summary: CrawlSummary,
}

/// Per-item bookkeeping carried back through `run_parallel`.
struct ItemRun<R> {
    outcome: VisitOutcome<R>,
    attempts: u64,
    restarts: u64,
    lost_ms: u64,
    attempts_final: u32,
    /// Telemetry events buffered during this item's visit scope; written
    /// to the journal in item order by the coordinator.
    trace: Vec<Event>,
}

/// Supervised parallel execution: fault injection, watchdog timeouts,
/// retry with backoff, browser restarts, graceful failure records, and
/// checkpoint/resume hooks.
///
/// * `meta(item)` names the item and keys its fault draws;
/// * `init(worker)` builds per-worker browser state; it is re-invoked to
///   restart that state after a crash/hang/panic;
/// * `visit(&mut state, index, &item)` performs one attempt;
/// * `prior[i] = Some(outcome)` replays a checkpointed result for item
///   `i` without visiting (pass an empty vec for a fresh run);
/// * `on_complete(index, &outcome, attempts)` fires once per
///   newly-determined item (not for replayed priors), from worker
///   threads — checkpoint writers must synchronise internally.
#[allow(clippy::too_many_arguments)]
pub fn run_supervised<W, R, S>(
    items: Vec<W>,
    workers: usize,
    cfg: SupervisorConfig,
    meta: impl Fn(&W) -> ItemMeta + Sync,
    init: impl Fn(usize) -> S + Sync,
    visit: impl Fn(&mut S, usize, &W) -> R + Sync,
    prior: Vec<Option<VisitOutcome<R>>>,
    on_complete: impl Fn(usize, &VisitOutcome<R>, u32) + Sync,
) -> CrawlOutcome<R>
where
    W: Send,
    R: Send + Clone,
{
    run_supervised_fallible(
        items,
        workers,
        cfg,
        meta,
        init,
        move |state, i, item| Ok(visit(state, i, item)),
        prior,
        on_complete,
    )
}

/// [`run_supervised`] for visits that can fail with a typed
/// [`FailureReason`] of their own (e.g. an unparseable visit URL). An
/// `Err` attempt leaves the browser healthy and is retried under the same
/// [`RetryPolicy`] as injected faults; exhausted items surface as
/// [`VisitOutcome::Failed`] with the visit's reason.
#[allow(clippy::too_many_arguments)]
pub fn run_supervised_fallible<W, R, S>(
    items: Vec<W>,
    workers: usize,
    cfg: SupervisorConfig,
    meta: impl Fn(&W) -> ItemMeta + Sync,
    init: impl Fn(usize) -> S + Sync,
    visit: impl Fn(&mut S, usize, &W) -> Result<R, FailureReason> + Sync,
    prior: Vec<Option<VisitOutcome<R>>>,
    on_complete: impl Fn(usize, &VisitOutcome<R>, u32) + Sync,
) -> CrawlOutcome<R>
where
    W: Send,
    R: Send + Clone,
{
    run_supervised_folding(items, workers, cfg, meta, init, visit, prior, on_complete, |_, r, _| r)
}

/// [`run_supervised_fallible`] with a *fold*: after `on_complete` fires
/// for a completed item, `fold(index, record, attempts)` maps the full
/// record `R` down to the stored type `T` before it enters the outcome
/// vector. Streaming crawls use this to flush each record to disk in
/// `on_complete` and keep only O(1) bookkeeping in memory — the outcome
/// vector's resident size becomes `O(items × size_of::<T>())`, not
/// `O(items × size_of::<R>())`. Priors arrive already folded.
#[allow(clippy::too_many_arguments)]
pub fn run_supervised_folding<W, R, T, S>(
    items: Vec<W>,
    workers: usize,
    cfg: SupervisorConfig,
    meta: impl Fn(&W) -> ItemMeta + Sync,
    init: impl Fn(usize) -> S + Sync,
    visit: impl Fn(&mut S, usize, &W) -> Result<R, FailureReason> + Sync,
    prior: Vec<Option<VisitOutcome<T>>>,
    on_complete: impl Fn(usize, &VisitOutcome<R>, u32) + Sync,
    fold: impl Fn(usize, R, u32) -> T + Sync,
) -> CrawlOutcome<T>
where
    W: Send,
    R: Send,
    T: Send + Clone,
{
    let n = items.len();
    let injector = FaultInjector::new(cfg.faults);
    // Resolve up-front which indices actually run: priors replay, and a
    // visit budget admits only the first `budget` fresh items. Both are
    // functions of the index alone, never of scheduling.
    let mut fresh_seen = 0usize;
    let mut admitted: Vec<bool> = Vec::with_capacity(n);
    for i in 0..n {
        let is_fresh = prior.get(i).map(|p| p.is_none()).unwrap_or(true);
        let admit = match (is_fresh, cfg.visit_budget) {
            (false, _) => false,
            (true, Some(budget)) => {
                fresh_seen += 1;
                fresh_seen <= budget
            }
            (true, None) => true,
        };
        admitted.push(admit);
    }

    let work: Vec<(W, Option<VisitOutcome<T>>, bool)> = items
        .into_iter()
        .enumerate()
        .map(|(i, item)| {
            let replay = prior.get(i).cloned().flatten();
            (item, replay, admitted[i])
        })
        .collect();

    // No `workers` attribute: the journal must be byte-identical across
    // worker counts (scheduling never reaches the trace).
    obs::emit(Event::new(0, "crawl_start").attr("items", n));

    let runs: Vec<ItemRun<T>> = run_parallel(
        work,
        workers,
        |w| (w, init(w)),
        |(worker, state), i, (item, replay, admit)| {
            obs::begin_scope();
            if let Some(outcome) = replay {
                obs::add("checkpoint.replays", 1);
                obs::emit(Event::new(0, "checkpoint_replay").attr("item", i));
                return ItemRun {
                    outcome,
                    attempts: 0,
                    restarts: 0,
                    lost_ms: 0,
                    attempts_final: 0,
                    trace: obs::end_scope(),
                };
            }
            if !admit {
                obs::emit(Event::new(0, "interrupted").attr("item", i));
                on_complete(i, &VisitOutcome::Interrupted, 0);
                return ItemRun {
                    outcome: VisitOutcome::Interrupted,
                    attempts: 0,
                    restarts: 0,
                    lost_ms: 0,
                    attempts_final: 0,
                    trace: obs::end_scope(),
                };
            }
            let m = meta(&item);
            obs::add("supervisor.visits", 1);
            let visit_span = obs::span("visit");
            obs::emit(
                Event::new(0, "visit_start")
                    .attr("item", i)
                    .attr("label", m.label.as_str())
                    .attr("flaky", m.flaky as u64),
            );
            let mut attempts = 0u32;
            let mut restarts = 0u64;
            let mut lost_ms = 0u64;
            let outcome = loop {
                attempts += 1;
                obs::add("supervisor.attempts", 1);
                if attempts > 1 {
                    obs::add("supervisor.retries", 1);
                }
                let attempt_span = obs::span("attempt");
                obs::emit(Event::new(0, "attempt").attr("n", attempts));
                let failure: FailureReason = match injector.draw(m.fault_key, attempts, m.flaky)
                {
                    Some(kind) => {
                        let reason = FailureReason::from_fault(kind);
                        obs::add("supervisor.faults", 1);
                        obs::emit(
                            Event::new(0, "fault")
                                .attr("reason", reason.as_str())
                                .attr("attempt", attempts),
                        );
                        match kind {
                            FaultKind::Hang => {
                                // Watchdog: the visit burns its full
                                // timeout, then the browser is killed.
                                lost_ms += cfg.visit_timeout_ms;
                                obs::clock_advance(cfg.visit_timeout_ms);
                                obs::emit(
                                    Event::new(0, "watchdog_timeout")
                                        .attr("ms", cfg.visit_timeout_ms),
                                );
                                *state = init(*worker);
                                restarts += 1;
                                obs::add("supervisor.restarts", 1);
                                obs::emit(Event::new(0, "browser_restart"));
                            }
                            FaultKind::BrowserCrash => {
                                *state = init(*worker);
                                restarts += 1;
                                obs::add("supervisor.restarts", 1);
                                obs::emit(Event::new(0, "browser_restart"));
                            }
                            FaultKind::TabCrash => {
                                // The content process dies mid-visit: the
                                // attempt's work happens and is lost.
                                let _ = catch_unwind(AssertUnwindSafe(|| {
                                    visit(state, i, &item)
                                }));
                                *state = init(*worker);
                                restarts += 1;
                                obs::add("supervisor.restarts", 1);
                                obs::emit(Event::new(0, "browser_restart"));
                            }
                            // Navigation and transport errors fail fast
                            // and leave the browser healthy.
                            FaultKind::NavigationError | FaultKind::TransientHttp => {}
                        }
                        reason
                    }
                    None => match catch_unwind(AssertUnwindSafe(|| visit(state, i, &item))) {
                        Ok(Ok(r)) => {
                            drop(attempt_span);
                            break VisitOutcome::Completed(r);
                        }
                        Ok(Err(reason)) => {
                            // Typed visit failure: the browser stays
                            // healthy (no restart), the attempt is charged
                            // and retried under the normal policy.
                            obs::emit(
                                Event::new(0, "visit_error")
                                    .attr("reason", reason.as_str())
                                    .attr("attempt", attempts),
                            );
                            obs::prof::dump_forensic(
                                "visit_error",
                                &[
                                    ("item", i.to_string()),
                                    ("reason", reason.as_str().to_string()),
                                    ("attempt", attempts.to_string()),
                                ],
                            );
                            reason
                        }
                        Err(payload) => {
                            // Keep the cause visible even though the crawl
                            // survives it.
                            let msg = panic_message(payload.as_ref());
                            obs::emit(Event::new(0, "visit_panic").attr("attempt", attempts));
                            obs::prof::dump_forensic(
                                "visit_panic",
                                &[
                                    ("item", i.to_string()),
                                    ("panic", msg),
                                    ("attempt", attempts.to_string()),
                                ],
                            );
                            *state = init(*worker);
                            restarts += 1;
                            obs::add("supervisor.restarts", 1);
                            obs::emit(Event::new(0, "browser_restart"));
                            FailureReason::Panic
                        }
                    },
                };
                drop(attempt_span);
                if attempts >= cfg.retry.max_attempts {
                    obs::prof::dump_forensic(
                        "visit_failed",
                        &[
                            ("item", i.to_string()),
                            ("reason", failure.as_str().to_string()),
                            ("attempts", attempts.to_string()),
                        ],
                    );
                    break VisitOutcome::Failed { reason: failure, attempts };
                }
                let backoff = cfg.retry.backoff_ms(attempts);
                lost_ms += backoff;
                obs::clock_advance(backoff);
                obs::observe("supervisor.backoff_ms", backoff);
                obs::emit(
                    Event::new(0, "retry_backoff").attr("ms", backoff).attr("attempt", attempts),
                );
            };
            obs::observe("supervisor.attempts_per_visit", attempts as u64);
            obs::emit(
                Event::new(0, "visit_end")
                    .attr("outcome", outcome_label(&outcome))
                    .attr("attempts", attempts),
            );
            // `on_complete` runs inside the still-open visit scope so that
            // checkpoint-write events land in this visit's trace.
            on_complete(i, &outcome, attempts);
            // Fold the record down to its stored form only after the
            // completion hook has seen (and possibly persisted) the full
            // record.
            let stored = match outcome {
                VisitOutcome::Completed(r) => VisitOutcome::Completed(fold(i, r, attempts)),
                VisitOutcome::Failed { reason, attempts } => {
                    VisitOutcome::Failed { reason, attempts }
                }
                VisitOutcome::Interrupted => VisitOutcome::Interrupted,
            };
            drop(visit_span);
            ItemRun {
                outcome: stored,
                attempts: attempts as u64,
                restarts,
                lost_ms,
                attempts_final: attempts,
                trace: obs::end_scope(),
            }
        },
    );

    if let Some(journal) = obs::journal() {
        for (i, run) in runs.iter().enumerate() {
            journal.write_visit_events(i, &run.trace);
        }
    }

    let mut summary = CrawlSummary { total: n, ..CrawlSummary::default() };
    let mut by_reason: std::collections::HashMap<FailureReason, usize> =
        std::collections::HashMap::new();
    let mut outcomes = Vec::with_capacity(n);
    let mut attempts_per_item = Vec::with_capacity(n);
    for run in runs {
        attempts_per_item.push(run.attempts_final);
        summary.attempts += run.attempts;
        summary.restarts += run.restarts;
        summary.lost_ms += run.lost_ms;
        match &run.outcome {
            VisitOutcome::Completed(_) => {
                summary.completed += 1;
                if run.attempts_final > 1 {
                    summary.recovered += 1;
                }
            }
            VisitOutcome::Failed { reason, .. } => {
                summary.failed += 1;
                *by_reason.entry(reason.clone()).or_insert(0) += 1;
            }
            VisitOutcome::Interrupted => summary.interrupted += 1,
        }
        outcomes.push(run.outcome);
    }
    // Known reasons in `all()` order, then any `Unknown` reasons (replayed
    // from cross-build checkpoints) sorted by name for determinism.
    summary.failures_by_reason = FailureReason::all()
        .into_iter()
        .filter_map(|r| by_reason.remove(&r).map(|n| (r, n)))
        .collect();
    let mut unknown: Vec<(FailureReason, usize)> = by_reason.into_iter().collect();
    unknown.sort_by(|(a, _), (b, _)| a.as_str().cmp(b.as_str()));
    summary.failures_by_reason.extend(unknown);
    obs::add("supervisor.visits.completed", summary.completed as u64);
    obs::add("supervisor.visits.failed", summary.failed as u64);
    obs::add("supervisor.visits.interrupted", summary.interrupted as u64);
    obs::emit(
        Event::new(0, "crawl_end")
            .attr("completed", summary.completed)
            .attr("failed", summary.failed)
            .attr("interrupted", summary.interrupted)
            .attr("attempts", summary.attempts)
            .attr("restarts", summary.restarts)
            .attr("lost_ms", summary.lost_ms),
    );
    CrawlOutcome { outcomes, attempts: attempts_per_item, summary }
}

fn outcome_label<R>(outcome: &VisitOutcome<R>) -> &str {
    match outcome {
        VisitOutcome::Completed(_) => "completed",
        VisitOutcome::Failed { reason, .. } => reason.as_str(),
        VisitOutcome::Interrupted => "interrupted",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn failure_reason_round_trips_and_rejects_garbage() {
        for r in FailureReason::all() {
            assert_eq!(FailureReason::parse(r.as_str()), Some(r.clone()), "{}", r.as_str());
        }
        proplite::run_cases(2000, 0xFA11, |rng| {
            let s = match rng.u32_in(0, 2) {
                0 => rng.ascii(0, 24),
                1 => rng.any_string(0, 24),
                // Near-misses: a valid name with one mutation.
                _ => {
                    let all = FailureReason::all();
                    let base = all[rng.usize_in(0, all.len() - 1)].as_str();
                    let mut s = base.to_string();
                    match rng.u32_in(0, 2) {
                        0 => s.push('x'),
                        1 => s = s.to_uppercase(),
                        _ => {
                            s.pop();
                        }
                    }
                    s
                }
            };
            match FailureReason::parse(&s) {
                // parse may only accept exact canonical names.
                Some(r) => assert_eq!(r.as_str(), s),
                None => assert!(
                    FailureReason::all().iter().all(|r| r.as_str() != s),
                    "rejected a canonical name: {s:?}"
                ),
            }
        });
    }

    #[test]
    fn unknown_reasons_decode_totally_and_round_trip() {
        assert_eq!(FailureReason::decode("timeout"), FailureReason::Timeout);
        let u = FailureReason::decode("quantum_decoherence");
        assert_eq!(u, FailureReason::Unknown("quantum_decoherence".to_string()));
        assert_eq!(u.as_str(), "quantum_decoherence");
        assert_eq!(FailureReason::decode(u.as_str()), u);
        // The strict parser still rejects it — only `decode` is total.
        assert_eq!(FailureReason::parse("quantum_decoherence"), None);
    }

    #[test]
    fn unknown_prior_reasons_tally_after_known_ones() {
        let mut prior: Vec<Option<VisitOutcome<u64>>> = vec![None; 5];
        prior[1] = Some(VisitOutcome::Failed {
            reason: FailureReason::decode("zz_future_reason"),
            attempts: 2,
        });
        prior[2] = Some(VisitOutcome::Failed { reason: FailureReason::Timeout, attempts: 3 });
        prior[3] = Some(VisitOutcome::Failed {
            reason: FailureReason::decode("aa_future_reason"),
            attempts: 1,
        });
        let out = run_supervised(
            (0..5u64).collect(),
            2,
            SupervisorConfig::default(),
            meta_of,
            |_| (),
            |_, _, item: &u64| *item,
            prior,
            |_, _, _| {},
        );
        assert_eq!(
            out.summary.failures_by_reason,
            vec![
                (FailureReason::Timeout, 1),
                (FailureReason::Unknown("aa_future_reason".to_string()), 1),
                (FailureReason::Unknown("zz_future_reason".to_string()), 1),
            ],
            "known reasons first, unknowns sorted by name"
        );
    }

    #[test]
    fn folding_runner_folds_after_the_completion_hook() {
        let hook_saw = Mutex::new(Vec::new());
        let out = run_supervised_folding(
            (0..10u64).collect(),
            2,
            SupervisorConfig::default(),
            meta_of,
            |_| (),
            |_, _, item: &u64| Ok::<Vec<u64>, FailureReason>(vec![*item; 100]),
            Vec::new(),
            |i, o: &VisitOutcome<Vec<u64>>, _| {
                if let Some(r) = o.completed() {
                    assert_eq!(r.len(), 100, "hook must see the full record");
                    hook_saw.lock().unwrap().push(i);
                }
            },
            |i, r, attempts| {
                assert_eq!(attempts, 1);
                (i as u64, r.len() as u64)
            },
        );
        assert_eq!(out.summary.completed, 10);
        for (i, o) in out.outcomes.iter().enumerate() {
            assert_eq!(o.completed(), Some(&(i as u64, 100)));
        }
        assert_eq!(hook_saw.into_inner().unwrap().len(), 10);
    }

    fn meta_of(x: &u64) -> ItemMeta {
        ItemMeta { label: format!("item-{x}"), fault_key: *x, flaky: false }
    }

    fn run_plain(
        items: Vec<u64>,
        workers: usize,
        cfg: SupervisorConfig,
    ) -> CrawlOutcome<u64> {
        run_supervised(
            items,
            workers,
            cfg,
            meta_of,
            |_| 0u64,
            |state, _, item| {
                *state += 1;
                item * 2
            },
            Vec::new(),
            |_, _, _| {},
        )
    }

    #[test]
    fn clean_run_completes_everything() {
        let out = run_plain((0..100).collect(), 4, SupervisorConfig::default());
        assert_eq!(out.summary.completed, 100);
        assert_eq!(out.summary.failed, 0);
        assert_eq!(out.summary.completion_rate(), 1.0);
        for (i, o) in out.outcomes.iter().enumerate() {
            assert_eq!(o.completed(), Some(&((i as u64) * 2)));
        }
    }

    #[test]
    fn panicking_visits_degrade_to_failed_records() {
        let cfg = SupervisorConfig::default();
        let out = run_supervised(
            (0..50u64).collect(),
            3,
            cfg,
            meta_of,
            |_| (),
            |_, _, item: &u64| {
                if item % 10 == 3 {
                    panic!("visit exploded");
                }
                *item
            },
            Vec::new(),
            |_, _, _| {},
        );
        assert_eq!(out.summary.completed, 45);
        assert_eq!(out.summary.failed, 5);
        assert_eq!(
            out.summary.failures_by_reason,
            vec![(FailureReason::Panic, 5)]
        );
        // Each panicking site burned max_attempts and restarted each time.
        assert_eq!(out.summary.restarts, 5 * cfg.retry.max_attempts as u64);
        for (i, o) in out.outcomes.iter().enumerate() {
            if i % 10 == 3 {
                assert_eq!(
                    *o,
                    VisitOutcome::Failed {
                        reason: FailureReason::Panic,
                        attempts: cfg.retry.max_attempts
                    }
                );
            } else {
                assert!(o.is_completed());
            }
        }
    }

    #[test]
    fn injected_faults_retry_and_mostly_recover() {
        let cfg = SupervisorConfig {
            faults: FaultPlan::adversarial(99),
            ..SupervisorConfig::default()
        };
        let out = run_plain((0..2000).collect(), 4, cfg);
        assert_eq!(out.summary.total, 2000);
        // ~8% of first attempts fault but retries clear most: overall
        // completion must stay high.
        assert!(
            out.summary.completion_rate() > 0.95,
            "completion {:.3}",
            out.summary.completion_rate()
        );
        assert!(out.summary.recovered > 0, "no site ever needed a retry");
        // Completed values are still correct after retries.
        for (i, o) in out.outcomes.iter().enumerate() {
            if let Some(v) = o.completed() {
                assert_eq!(*v, (i as u64) * 2);
            }
        }
    }

    #[test]
    fn outcomes_are_deterministic_across_worker_counts() {
        let cfg = SupervisorConfig {
            faults: FaultPlan::adversarial(7),
            ..SupervisorConfig::default()
        };
        let a = run_plain((0..500).collect(), 1, cfg);
        let b = run_plain((0..500).collect(), 4, cfg);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.summary, b.summary);
    }

    #[test]
    fn hang_charges_timeout_and_restarts() {
        // A plan that only hangs, always.
        let cfg = SupervisorConfig {
            faults: FaultPlan {
                hang_per_mille: 1000,
                seed: 1,
                ..FaultPlan::default()
            },
            retry: RetryPolicy { max_attempts: 2, ..RetryPolicy::default() },
            visit_timeout_ms: 45_000,
            ..SupervisorConfig::default()
        };
        let out = run_plain(vec![1, 2, 3], 1, cfg);
        assert_eq!(out.summary.failed, 3);
        assert_eq!(
            out.summary.failures_by_reason,
            vec![(FailureReason::Timeout, 3)]
        );
        // 2 attempts × 45 s timeout + 1 backoff of 1 s, per item.
        assert_eq!(out.summary.lost_ms, 3 * (2 * 45_000 + 1_000));
        assert_eq!(out.summary.restarts, 6);
    }

    #[test]
    fn tab_crash_discards_work_and_restarts() {
        let cfg = SupervisorConfig {
            faults: FaultPlan {
                tab_crash_per_mille: 1000,
                seed: 1,
                ..FaultPlan::default()
            },
            retry: RetryPolicy::none(),
            ..SupervisorConfig::default()
        };
        let visits = AtomicUsize::new(0);
        let out = run_supervised(
            vec![1u64],
            1,
            cfg,
            meta_of,
            |_| (),
            |_, _, item: &u64| {
                visits.fetch_add(1, Ordering::Relaxed);
                *item
            },
            Vec::new(),
            |_, _, _| {},
        );
        // The visit ran (work happened) but its result was lost.
        assert_eq!(visits.load(Ordering::Relaxed), 1);
        assert_eq!(
            out.outcomes[0],
            VisitOutcome::Failed { reason: FailureReason::TabCrash, attempts: 1 }
        );
        assert_eq!(out.summary.restarts, 1);
    }

    #[test]
    fn backoff_is_bounded_exponential() {
        let p = RetryPolicy { max_attempts: 10, base_backoff_ms: 100, max_backoff_ms: 1_500 };
        assert_eq!(p.backoff_ms(1), 100);
        assert_eq!(p.backoff_ms(2), 200);
        assert_eq!(p.backoff_ms(3), 400);
        assert_eq!(p.backoff_ms(5), 1_500); // capped
        assert_eq!(p.backoff_ms(10), 1_500);
    }

    #[test]
    fn visit_budget_interrupts_the_tail() {
        let cfg = SupervisorConfig {
            visit_budget: Some(30),
            ..SupervisorConfig::default()
        };
        let out = run_plain((0..100).collect(), 4, cfg);
        assert_eq!(out.summary.completed, 30);
        assert_eq!(out.summary.interrupted, 70);
        for (i, o) in out.outcomes.iter().enumerate() {
            if i < 30 {
                assert!(o.is_completed());
            } else {
                assert_eq!(*o, VisitOutcome::Interrupted);
            }
        }
    }

    #[test]
    fn priors_replay_without_revisiting() {
        let visited = Mutex::new(Vec::new());
        let mut prior: Vec<Option<VisitOutcome<u64>>> = vec![None; 10];
        prior[3] = Some(VisitOutcome::Completed(999));
        prior[7] = Some(VisitOutcome::Failed {
            reason: FailureReason::Timeout,
            attempts: 3,
        });
        let out = run_supervised(
            (0..10u64).collect(),
            2,
            SupervisorConfig::default(),
            meta_of,
            |_| (),
            |_, i, item: &u64| {
                visited.lock().unwrap().push(i);
                *item
            },
            prior,
            |_, _, _| {},
        );
        let mut visited = visited.into_inner().unwrap();
        visited.sort_unstable();
        assert_eq!(visited, vec![0, 1, 2, 4, 5, 6, 8, 9]);
        assert_eq!(out.outcomes[3], VisitOutcome::Completed(999));
        assert_eq!(
            out.outcomes[7],
            VisitOutcome::Failed { reason: FailureReason::Timeout, attempts: 3 }
        );
        assert_eq!(out.summary.completed, 9);
        assert_eq!(out.summary.failed, 1);
    }

    #[test]
    fn budget_counts_only_fresh_items() {
        // 5 priors + budget 5 → items 0..10 all determined, rest interrupted.
        let prior: Vec<Option<VisitOutcome<u64>>> =
            (0..20).map(|i| (i < 5).then_some(VisitOutcome::Completed(0))).collect();
        let cfg = SupervisorConfig {
            visit_budget: Some(5),
            ..SupervisorConfig::default()
        };
        let out = run_supervised(
            (0..20u64).collect(),
            2,
            cfg,
            meta_of,
            |_| (),
            |_, _, item: &u64| *item,
            prior,
            |_, _, _| {},
        );
        assert_eq!(out.summary.completed, 10);
        assert_eq!(out.summary.interrupted, 10);
    }

    #[test]
    fn on_complete_fires_for_fresh_items_only() {
        let seen = Mutex::new(Vec::new());
        let mut prior: Vec<Option<VisitOutcome<u64>>> = vec![None; 6];
        prior[0] = Some(VisitOutcome::Completed(0));
        run_supervised(
            (0..6u64).collect(),
            1,
            SupervisorConfig::default(),
            meta_of,
            |_| (),
            |_, _, item: &u64| *item,
            prior,
            |i, _, _| seen.lock().unwrap().push(i),
        );
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn interrupted_then_resumed_equals_uninterrupted() {
        let faulty = SupervisorConfig {
            faults: FaultPlan::adversarial(13),
            ..SupervisorConfig::default()
        };
        let full = run_plain((0..200).collect(), 3, faulty);

        // "Kill" after 80 fresh visits...
        let killed = run_plain(
            (0..200).collect(),
            3,
            SupervisorConfig { visit_budget: Some(80), ..faulty },
        );
        assert_eq!(killed.summary.interrupted, 120);
        // ...checkpoint the determined outcomes, resume with them as prior.
        let prior: Vec<Option<VisitOutcome<u64>>> = killed
            .outcomes
            .iter()
            .map(|o| match o {
                VisitOutcome::Interrupted => None,
                other => Some(other.clone()),
            })
            .collect();
        let resumed = run_supervised(
            (0..200u64).collect(),
            3,
            faulty,
            meta_of,
            |_| 0u64,
            |state, _, item| {
                *state += 1;
                item * 2
            },
            prior,
            |_, _, _| {},
        );
        assert_eq!(resumed.outcomes, full.outcomes);
        assert_eq!(resumed.summary.completed, full.summary.completed);
        assert_eq!(resumed.summary.failed, full.summary.failed);
        assert_eq!(
            resumed.summary.failures_by_reason,
            full.summary.failures_by_reason
        );
    }

    #[test]
    fn coverage_line_reports_breakdown() {
        let mut s = CrawlSummary {
            total: 1000,
            completed: 950,
            failed: 40,
            interrupted: 10,
            ..CrawlSummary::default()
        };
        s.failures_by_reason =
            vec![(FailureReason::BrowserCrash, 30), (FailureReason::Timeout, 10)];
        let line = s.coverage_line();
        assert!(line.contains("950/1000"));
        assert!(line.contains("95.0%"));
        assert!(line.contains("30 browser_crash"));
        assert!(line.contains("10 timeout"));
        assert!(line.contains("10 interrupted"));
    }
}
