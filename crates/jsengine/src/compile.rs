//! Shared script compilation: [`CompiledScript`] handles and the
//! process-wide, content-hash-keyed [`CompileCache`].
//!
//! The scan hot path used to re-lex and re-parse every script body on every
//! visit and every retry, even though the corpus collapses to far fewer
//! unique bodies than delivered scripts (the paper's Sec. 4.2 statistic —
//! 1,535,306 collected scripts dedupe heavily; `ScanReport::script_stats`
//! models it). Since the [`Program`] AST became `Arc`-based it is
//! immutable and `Send + Sync`, so one parse can serve every worker
//! thread for the rest of the process.
//!
//! Keys are `(FNV-64(body), FNV-64(script name))`: the script name is baked
//! into [`FunctionDef::script`](crate::ast::FunctionDef) at parse time and
//! surfaces in `Error.stack` frames, which the detection pipeline reads for
//! originating-script attribution — sharing one `Program` across two URLs
//! with identical bodies would corrupt those stacks. Third-party provider
//! scripts keep both body *and* URL across hundreds of sites, so the
//! dedupe the cache exists for still happens.
//!
//! The cache is mutex-striped ([`CompileCache::with_shards`]) so concurrent
//! scan workers rarely contend, and eviction-free: growth is bounded by the
//! number of unique `(body, name)` pairs in the workload, which the
//! population generator keeps small. Telemetry lands on the
//! `cache.compile.{hit,miss,bytes,race}` counters; those are *excluded*
//! from the snapshot digest (see `obs::metrics`), because the digest must
//! be byte-identical with the cache on and off.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use obs::fnv1a;

use crate::ast::Program;
use crate::error::EngineError;
use crate::parser::parse;

/// An opaque, shared compiled-script handle: the parse artifact and the
/// identity it was compiled under.
///
/// Handles are passed around as `Arc<CompiledScript>` (the cache hands out
/// one `Arc` per unique `(body, name)`), so the AST is shared by every
/// worker in the process.
#[derive(Debug)]
pub struct CompiledScript {
    name: Arc<str>,
    body_hash: u64,
    source_len: usize,
    program: Arc<Program>,
}

impl CompiledScript {
    /// The script name (URL) the source was parsed under.
    pub fn name(&self) -> &Arc<str> {
        &self.name
    }

    /// FNV-64 of the source body.
    pub fn body_hash(&self) -> u64 {
        self.body_hash
    }

    /// Length of the source body in bytes.
    pub fn source_len(&self) -> usize {
        self.source_len
    }

    /// The shared parsed program.
    pub fn ast(&self) -> &Arc<Program> {
        &self.program
    }
}

/// Compile a script without consulting any cache.
pub fn compile(src: &str, name: &str) -> Result<Arc<CompiledScript>, EngineError> {
    let program = Arc::new(parse(src, name)?);
    Ok(Arc::new(CompiledScript {
        name: Arc::from(name),
        body_hash: fnv1a(src.as_bytes()),
        source_len: src.len(),
        program,
    }))
}

/// Point-in-time cache accounting (also mirrored onto the
/// `cache.compile.*` obs counters).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Source bytes compiled and retained (misses only).
    pub bytes: u64,
    pub entries: usize,
}

type Shard = Mutex<HashMap<(u64, u64), Arc<CompiledScript>>>;

/// A sharded (mutex-striped) compilation cache mapping
/// `(FNV-64(body), FNV-64(name))` to the shared [`CompiledScript`] handle.
pub struct CompileCache {
    shards: Box<[Shard]>,
    hits: AtomicU64,
    misses: AtomicU64,
    bytes: AtomicU64,
}

impl CompileCache {
    /// Build a cache with `shards` mutex stripes (clamped to ≥ 1).
    pub fn with_shards(shards: usize) -> CompileCache {
        let n = shards.max(1);
        CompileCache {
            shards: (0..n).map(|_| Shard::default()).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: (u64, u64)) -> &Shard {
        &self.shards[(key.0 as usize) % self.shards.len()]
    }

    /// Look up `(src, name)`; parse and insert on miss. Parsing happens
    /// outside the shard lock, so a pathological script cannot stall other
    /// workers; concurrent first compiles of the same body may both parse,
    /// but only one artifact is retained. Only the thread whose artifact
    /// is inserted counts a miss, so `misses == entries`; a thread that
    /// loses the race is served the winner's handle and counts a hit plus
    /// `cache.compile.race` (its parse was discarded).
    pub fn get_or_compile(&self, src: &str, name: &str) -> Result<Arc<CompiledScript>, EngineError> {
        let key = (fnv1a(src.as_bytes()), fnv1a(name.as_bytes()));
        if let Some(cs) = self.shard(key).lock().unwrap().get(&key).cloned() {
            let _ph = obs::prof::enter(&obs::prof::COMPILE_HIT);
            self.hits.fetch_add(1, Ordering::Relaxed);
            obs::add("cache.compile.hit", 1);
            return Ok(cs);
        }
        let _ph = obs::prof::enter(&obs::prof::COMPILE_MISS);
        let parsed = Arc::new(CompiledScript {
            name: Arc::from(name),
            body_hash: key.0,
            source_len: src.len(),
            program: Arc::new(parse(src, name)?),
        });
        let cs = {
            let mut guard = self.shard(key).lock().unwrap();
            guard.entry(key).or_insert_with(|| parsed.clone()).clone()
        };
        if Arc::ptr_eq(&cs, &parsed) {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.bytes.fetch_add(src.len() as u64, Ordering::Relaxed);
            obs::add("cache.compile.miss", 1);
            obs::add("cache.compile.bytes", src.len() as u64);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
            obs::add("cache.compile.hit", 1);
            obs::add("cache.compile.race", 1);
        }
        Ok(cs)
    }

    /// Number of cached unique `(body, name)` artifacts.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }

    /// Drop every artifact and zero the accounting (run boundaries in
    /// ablation harnesses).
    pub fn clear(&self) {
        for s in self.shards.iter() {
            s.lock().unwrap().clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
    }
}

static CACHE_ENABLED: AtomicBool = AtomicBool::new(true);
static CACHE_SHARDS: AtomicUsize = AtomicUsize::new(16);
static GLOBAL: OnceLock<CompileCache> = OnceLock::new();

/// The process-wide compile cache shared by every scan worker.
pub fn cache() -> &'static CompileCache {
    GLOBAL.get_or_init(|| CompileCache::with_shards(CACHE_SHARDS.load(Ordering::Relaxed)))
}

/// Enable or disable the global cache (the `--no-compile-cache` ablation
/// and the `GULLIBLE_COMPILE_CACHE` knob). Disabled means
/// [`compile_cached`] parses directly; results are identical either way.
pub fn set_cache_enabled(enabled: bool) {
    CACHE_ENABLED.store(enabled, Ordering::Relaxed);
}

pub fn cache_enabled() -> bool {
    CACHE_ENABLED.load(Ordering::Relaxed)
}

/// Set the global cache's shard count (`GULLIBLE_COMPILE_SHARDS`). Takes
/// effect only if called before the cache's first use.
pub fn set_cache_shards(shards: usize) {
    CACHE_SHARDS.store(shards.max(1), Ordering::Relaxed);
}

/// Compile through the global cache when enabled, directly otherwise.
pub fn compile_cached(src: &str, name: &str) -> Result<Arc<CompiledScript>, EngineError> {
    if cache_enabled() {
        cache().get_or_compile(src, name)
    } else {
        compile(src, name)
    }
}

/// A script ready for evaluation: raw source (compiled on the spot, no
/// caching) or a pre-compiled shared artifact. Host APIs take
/// `impl Into<ScriptSource>` so callers opt into the cache by handing over
/// a [`CompiledScript`] instead of text — no duplicate method pairs.
#[derive(Clone)]
pub enum ScriptSource {
    Raw { source: Arc<str>, name: Arc<str> },
    Compiled(Arc<CompiledScript>),
}

impl ScriptSource {
    /// The script name (URL) evaluation will run under.
    pub fn name(&self) -> &str {
        match self {
            ScriptSource::Raw { name, .. } => name,
            ScriptSource::Compiled(cs) => cs.name(),
        }
    }
}

impl<S: Into<Arc<str>>, N: Into<Arc<str>>> From<(S, N)> for ScriptSource {
    fn from((source, name): (S, N)) -> ScriptSource {
        ScriptSource::Raw { source: source.into(), name: name.into() }
    }
}

impl From<Arc<CompiledScript>> for ScriptSource {
    fn from(cs: Arc<CompiledScript>) -> ScriptSource {
        ScriptSource::Compiled(cs)
    }
}

impl From<&Arc<CompiledScript>> for ScriptSource {
    fn from(cs: &Arc<CompiledScript>) -> ScriptSource {
        ScriptSource::Compiled(Arc::clone(cs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiled_script_round_trips_through_eval() {
        let cs = compile("var x = 2; x + 40", "t.js").unwrap();
        assert_eq!(cs.name().as_ref(), "t.js");
        assert_eq!(cs.body_hash(), fnv1a(b"var x = 2; x + 40"));
        let mut it = crate::Interp::new();
        assert_eq!(it.eval_compiled(&cs).unwrap(), crate::Value::Num(42.0));
        // The artifact is reusable: a second realm executes the same parse.
        let mut it2 = crate::Interp::new();
        assert_eq!(it2.eval_compiled(&cs).unwrap(), crate::Value::Num(42.0));
    }

    #[test]
    fn cache_hits_share_one_handle() {
        let cache = CompileCache::with_shards(4);
        let a = cache.get_or_compile("1 + 1", "a.js").unwrap();
        let b = cache.get_or_compile("1 + 1", "a.js").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hits return the same opaque handle");
        assert!(Arc::ptr_eq(a.ast(), b.ast()));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert_eq!(s.bytes, 5);
    }

    #[test]
    fn distinct_names_do_not_share_artifacts() {
        // The script name is baked into stack frames; same body under a
        // different URL must be a distinct artifact.
        let cache = CompileCache::with_shards(4);
        let a = cache.get_or_compile("function f() { return 1; } f()", "a.js").unwrap();
        let b = cache.get_or_compile("function f() { return 1; } f()", "b.js").unwrap();
        assert!(!Arc::ptr_eq(a.ast(), b.ast()));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn racing_first_compiles_count_one_miss() {
        // Threads released together on a cold key may all parse; only the
        // inserted artifact counts as a miss, the rest are served as hits.
        let cache = CompileCache::with_shards(1);
        let barrier = std::sync::Barrier::new(4);
        let handles: Vec<_> = std::thread::scope(|s| {
            let ts: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        cache.get_or_compile("var r = 1; r + 1", "race.js").unwrap()
                    })
                })
                .collect();
            ts.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert!(handles.iter().all(|h| Arc::ptr_eq(h, &handles[0])));
        let s = cache.stats();
        assert_eq!((s.misses, s.hits, s.entries), (1, 3, 1));
        assert_eq!(s.bytes, "var r = 1; r + 1".len() as u64);
    }

    #[test]
    fn parse_errors_are_not_cached() {
        let cache = CompileCache::with_shards(1);
        assert!(cache.get_or_compile("var = ;", "bad.js").is_err());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().misses, 0);
    }

    #[test]
    fn clear_resets_entries_and_accounting() {
        let cache = CompileCache::with_shards(2);
        cache.get_or_compile("1", "a").unwrap();
        cache.get_or_compile("1", "a").unwrap();
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn script_source_conversions() {
        let raw: ScriptSource = ("1 + 1", "r.js").into();
        assert_eq!(raw.name(), "r.js");
        let cs = compile("2 + 2", "c.js").unwrap();
        let by_ref: ScriptSource = (&cs).into();
        assert_eq!(by_ref.name(), "c.js");
        let owned: ScriptSource = cs.into();
        assert!(matches!(owned, ScriptSource::Compiled(_)));
    }

    #[test]
    fn shared_program_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Arc<Program>>();
        assert_send_sync::<CompiledScript>();
        assert_send_sync::<CompileCache>();
    }
}
