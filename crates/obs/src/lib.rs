//! Crawl telemetry for the gullible pipeline: structured spans and a JSONL
//! event journal on the *simulated* crawl clock, a lock-free metrics
//! registry, and provenance reporting for every generated table.
//!
//! Design constraints, in priority order:
//!
//! 1. **Determinism.** A seeded crawl must produce byte-identical journals
//!    and metric snapshots regardless of worker count. Events from worker
//!    threads are buffered in per-thread [`scope`]s and written by the
//!    coordinator in item order; timestamps come from the simulated clock,
//!    never the wall clock (unless explicitly opted in).
//! 2. **Zero cost when off.** With neither `GULLIBLE_TRACE` nor
//!    `GULLIBLE_STATS` set, every instrumentation call is one relaxed
//!    atomic load and a branch.
//! 3. **Zero dependencies.** Rendering, hashing, and validation are all
//!    hand-rolled over `std`.
//!
//! The typical wiring (done by `bench::banner`): call [`set_stats`] and/or
//! [`install_journal`] at startup, instrumented code calls [`add`] /
//! [`observe`] / [`emit`] / [`span`] freely, and the binary prints
//! [`stats::render_summary`] + [`stats::provenance_footer`] at exit.

mod event;
mod journal;
mod metrics;
pub mod prof;
mod scope;
pub mod stats;
pub mod validate;

pub use event::{push_json_string, AttrVal, Event, SpanMark};
pub use journal::Journal;
pub use metrics::{
    bucket_of, Histogram, HistogramSnapshot, Registry, ShardedCounter, Snapshot,
    COUNTER_STRIPES, NONDETERMINISTIC_PREFIXES,
};
pub use scope::{
    begin_scope, clock_advance, clock_ms, decode_scope_metrics, end_scope, scope_active,
    scope_metrics_enabled, set_scope_metrics, take_scope_metrics, ScopeMetrics,
};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// FNV-1a-64 offset basis: the hash of the empty input.
const FNV1A_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over bytes — the repo's standard cheap stable hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV1A_BASIS, bytes)
}

/// Continue an FNV-1a hash `h` over more bytes, so a digest can be built
/// from several pieces without concatenating them:
/// `fnv1a_fold(fnv1a(a), b) == fnv1a(a ++ b)`.
pub fn fnv1a_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

static TRACING: AtomicBool = AtomicBool::new(false);
static STATS: AtomicBool = AtomicBool::new(false);
/// `TRACING || STATS`, kept as its own flag so disabled-path calls load
/// exactly one atomic.
static ENABLED: AtomicBool = AtomicBool::new(false);

static JOURNAL: RwLock<Option<Arc<Journal>>> = RwLock::new(None);

fn global_registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

fn recompute_enabled() {
    ENABLED.store(
        TRACING.load(Ordering::Relaxed) || STATS.load(Ordering::Relaxed),
        Ordering::Relaxed,
    );
}

/// Is any telemetry live? One relaxed load — the disabled-path check.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

#[inline]
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

#[inline]
pub fn stats_enabled() -> bool {
    STATS.load(Ordering::Relaxed)
}

/// Turn metric collection on/off (`GULLIBLE_STATS=1`).
pub fn set_stats(on: bool) {
    STATS.store(on, Ordering::Relaxed);
    recompute_enabled();
}

/// The global metrics registry.
pub fn registry() -> &'static Registry {
    global_registry()
}

/// Install a journal and enable tracing; returns the shared handle.
pub fn install_journal(j: Journal) -> Arc<Journal> {
    let j = Arc::new(j);
    *JOURNAL.write().unwrap() = Some(j.clone());
    TRACING.store(true, Ordering::Relaxed);
    recompute_enabled();
    j
}

/// The installed journal, if tracing is live.
pub fn journal() -> Option<Arc<Journal>> {
    JOURNAL.read().unwrap().clone()
}

/// Remove the installed journal (flushing it) and disable tracing.
pub fn take_journal() -> Option<Arc<Journal>> {
    let j = JOURNAL.write().unwrap().take();
    TRACING.store(false, Ordering::Relaxed);
    recompute_enabled();
    if let Some(j) = &j {
        j.flush();
    }
    j
}

/// Bump a counter (no-op unless telemetry is enabled).
///
/// The handle for each name is cached per thread (keyed by the `'static`
/// string's address), so steady-state increments skip the registry's
/// `RwLock` entirely and land straight on the calling thread's counter
/// stripe. Handles stay valid across [`reset`] — reset zeroes counters in
/// place — so the cache never needs invalidating.
#[inline]
pub fn add(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    scope::record_add(name, delta);
    thread_local! {
        static HANDLES: std::cell::RefCell<Vec<(*const u8, Arc<ShardedCounter>)>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }
    HANDLES.with(|cache| {
        let key = name.as_ptr();
        let mut cache = cache.borrow_mut();
        if let Some((_, c)) = cache.iter().find(|(k, _)| *k == key) {
            c.add(delta);
            return;
        }
        let c = global_registry().counter(name);
        c.add(delta);
        cache.push((key, c));
    });
}

/// Set a gauge (no-op unless telemetry is enabled).
#[inline]
pub fn gauge_set(name: &'static str, v: i64) {
    if enabled() {
        global_registry().gauge_set(name, v);
    }
}

/// Record a histogram observation (no-op unless telemetry is enabled).
#[inline]
pub fn observe(name: &'static str, v: u64) {
    if enabled() {
        scope::record_observe(name, v);
        global_registry().observe(name, v);
    }
}

/// Re-apply a [`ScopeMetrics::encode`]d metric delta to the global
/// registry — the crash-resume path's inverse of per-scope capture. Names
/// arrive as decoded strings, so this goes through the registry's
/// by-name (interning) lookups. Returns `false` (applying nothing) on a
/// malformed encoding; no-op when telemetry is disabled.
pub fn restore_metrics(encoded: &str) -> bool {
    let Some(entries) = decode_scope_metrics(encoded) else {
        return false;
    };
    if !enabled() {
        return true;
    }
    let reg = global_registry();
    for (kind, name, v) in entries {
        match kind {
            'c' => reg.counter_by_name(&name).add(v),
            _ => reg.histogram_by_name(&name).observe(v),
        }
    }
    true
}

/// Emit a journal event (no-op unless tracing). Inside an active visit
/// scope the event is buffered there (stamped on the scope clock);
/// otherwise it goes straight to the journal's crawl scope.
pub fn emit(ev: Event) {
    // The flight recorder sees every event, traced or not: forensic dumps
    // must explain failures in stats-only runs too.
    prof::ring_event(&ev);
    if !tracing_enabled() {
        return;
    }
    if let Some(ev) = scope::push_event(ev) {
        if let Some(j) = journal() {
            j.crawl_event(ev);
        }
    }
}

/// An open span; closes (emitting `span_close`) on drop.
pub enum SpanGuard {
    Inactive,
    Visit(u32),
    Crawl(Arc<Journal>, u32),
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        match self {
            SpanGuard::Inactive => {}
            SpanGuard::Visit(id) => scope::scope_span_close(*id),
            SpanGuard::Crawl(j, id) => j.crawl_span_close(*id),
        }
    }
}

/// Open a span named `name`: in the active visit scope if one exists on
/// this thread, else in the journal's crawl scope. Inert when tracing is
/// off.
pub fn span(name: &'static str) -> SpanGuard {
    if !tracing_enabled() {
        return SpanGuard::Inactive;
    }
    if let Some(id) = scope::scope_span_open(name) {
        return SpanGuard::Visit(id);
    }
    match journal() {
        Some(j) => {
            let id = j.crawl_span_open(name);
            SpanGuard::Crawl(j, id)
        }
        None => SpanGuard::Inactive,
    }
}

/// A named pipeline phase: a crawl-scope span plus a wall-clock timing
/// recorded into the registry on drop (for the `[stats]` summary).
pub struct PhaseGuard {
    name: &'static str,
    started: Instant,
    _span: SpanGuard,
}

/// Begin a phase (scan, classify, compare, report…). Cheap when telemetry
/// is off: one `Instant::now` and two atomic loads.
pub fn phase(name: &'static str) -> PhaseGuard {
    PhaseGuard { name, started: Instant::now(), _span: span(name) }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if enabled() {
            global_registry().record_timing(self.name, self.started.elapsed());
        }
    }
}

/// Reset all global telemetry state: metrics zeroed, journal removed,
/// stats/tracing flags cleared. Tests and multi-run binaries call this at
/// run boundaries.
pub fn reset() {
    global_registry().reset();
    *JOURNAL.write().unwrap() = None;
    TRACING.store(false, Ordering::Relaxed);
    STATS.store(false, Ordering::Relaxed);
    set_scope_metrics(false);
    prof::reset_prof();
    recompute_enabled();
}

// Tests that touch process-global telemetry state (flags, registry, the
// scope-metrics gate) share one process; they serialize on this lock —
// including the scope module's own gate-flipping test.
#[cfg(test)]
pub(crate) static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_calls_are_noops() {
        let _g = locked();
        reset();
        add("noop.counter", 5);
        observe("noop.hist", 1);
        emit(Event::new(0, "dropped"));
        let s = span("dropped");
        assert!(matches!(s, SpanGuard::Inactive));
        drop(s);
        assert_eq!(registry().snapshot().counter("noop.counter"), 0);
        reset();
    }

    #[test]
    fn stats_enable_collects_metrics() {
        let _g = locked();
        reset();
        set_stats(true);
        add("on.counter", 2);
        assert_eq!(registry().snapshot().counter("on.counter"), 2);
        reset();
    }

    #[test]
    fn journal_routes_scope_and_crawl_events() {
        let _g = locked();
        reset();
        let j = install_journal(Journal::buffer(false));
        emit(Event::new(0, "run_start").attr("seed", 42u64));
        {
            let _p = phase("scan");
            begin_scope();
            let _v = span("visit");
            clock_advance(3);
            emit(Event::new(0, "fault").attr("kind", "hang"));
            drop(_v);
            let events = end_scope();
            j.write_visit_events(0, &events);
        }
        take_journal();
        let text = j.buffer_contents().unwrap();
        let summary = validate::validate_journal(&text).unwrap();
        assert_eq!(summary.scopes, 2, "{text}");
        assert!(text.contains(r#""scope":"crawl","ev":"run_start","seed":42"#), "{text}");
        assert!(text.contains(r#""scope":"visit:0","ev":"span_open""#), "{text}");
        assert!(text.contains(r#"{"t":3,"scope":"visit:0","ev":"fault","kind":"hang"}"#), "{text}");
        // Phase timing landed in the registry (tracing implies enabled).
        assert!(registry().timings().iter().any(|(n, _)| n == "scan"));
        reset();
    }

    #[test]
    fn captured_scope_delta_restores_to_identical_registry_state() {
        let _g = locked();
        reset();
        set_stats(true);
        set_scope_metrics(true);

        begin_scope();
        add("restore.counter", 3);
        add("restore.counter", 2);
        observe("restore.hist", 17);
        observe("restore.hist", 1);
        let delta = take_scope_metrics().expect("captured");
        end_scope();
        let live = registry().snapshot();

        // A "fresh process": zeroed registry, delta re-applied by name.
        registry().reset();
        assert!(restore_metrics(&delta.encode()));
        let restored = registry().snapshot();
        assert_eq!(live.counter("restore.counter"), 5);
        assert_eq!(restored.counters, live.counters);
        assert_eq!(restored.histograms, live.histograms);
        assert_eq!(restored.digest(), live.digest());

        assert!(!restore_metrics("garbage-without-structure"));
        reset();
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        let _g = locked();
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_fold(fnv1a(b"fo"), b"obar"), fnv1a(b"foobar"));
    }
}
