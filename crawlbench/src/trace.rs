//! Span recorder for the traced legs.
//!
//! Spans are recorded from the benchmark's own code, around calls into
//! each layer's public functions; the program under test carries no extra
//! tracing. Each thread owns a [`Tracer`] that keeps its spans in memory.
//! A dropped tracer hands its spans to a process-wide sink, so worker
//! threads of `run_parallel` deliver theirs when their state is dropped at
//! the end of the pass. [`collect`] drains the sink once the traced work is
//! done and [`write_jsonl`] writes every span out.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span. `id` is the site's rank, shared by every span of that
/// site; `parent` indexes the enclosing span in the same thread's list.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub thread: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

fn epoch() -> Instant {
    static T0: OnceLock<Instant> = OnceLock::new();
    *T0.get_or_init(Instant::now)
}

/// Nanoseconds since the process's trace epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

static SINK: Mutex<Vec<Vec<Span>>> = Mutex::new(Vec::new());

pub struct Tracer {
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(thread: u32) -> Tracer {
        epoch();
        Tracer {
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enter(&mut self, name: &'static str, id: u32) {
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            id,
            thread: self.thread,
            parent,
            start_ns: now_ns(),
            end_ns: 0,
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn exit(&mut self) {
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx].end_ns = now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, id: u32, f: impl FnOnce() -> R) -> R {
        self.enter(name, id);
        let out = f();
        self.exit();
        out
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        let spans = std::mem::take(&mut self.spans);
        SINK.lock().unwrap_or_else(|e| e.into_inner()).push(spans);
    }
}

/// Every span handed to the sink so far, one list per tracer.
pub fn collect() -> Vec<Vec<Span>> {
    std::mem::take(&mut *SINK.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Per-name totals: span count, summed duration, and summed self time
/// (duration minus the time covered by the span's direct children).
#[derive(Clone, Copy, Debug, Default)]
pub struct NameStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameStats {
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

pub fn by_name(lists: &[Vec<Span>]) -> BTreeMap<&'static str, NameStats> {
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for spans in lists {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        for (s, c) in spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.dur_ns();
            e.self_ns += s.dur_ns().saturating_sub(c);
        }
    }
    out
}

/// Durations (µs) of every span named `name`, sorted.
pub fn durations_us(lists: &[Vec<Span>], name: &str) -> Vec<f64> {
    let mut v: Vec<f64> = lists
        .iter()
        .flatten()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Summed duration of top-level spans (no parent): the time named spans
/// cover.
pub fn root_ns(lists: &[Vec<Span>]) -> u64 {
    lists
        .iter()
        .flatten()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_ns)
        .sum()
}

/// Write every span as one JSON object per line; `parent` indexes the
/// span list named by `list`.
pub fn write_jsonl(path: &std::path::Path, lists: &[Vec<Span>]) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (list, spans) in lists.iter().enumerate() {
        for s in spans {
            let parent = s
                .parent
                .map(|p| p.to_string())
                .unwrap_or_else(|| "null".into());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"id\":{},\"thread\":{},\"list\":{list},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.thread, s.start_ns, s.end_ns
            )?;
        }
    }
    w.flush()
}

/// Quantile of a sorted sample (nearest rank).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}
