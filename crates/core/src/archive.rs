//! Crawl archive: record a scan into a content-addressed bundle and
//! replay the whole measurement pipeline from it.
//!
//! The paper's worry (Sec. 5) is that recorded data silently diverges
//! from what the browser actually executed; its impact evaluation
//! (Sec. 6.3) hinges on re-running the *same* sites under two client
//! configurations. Following Hantke et al.'s *Web Execution Bundles*,
//! this module pins a crawl to disk:
//!
//! * **Record** — `Scan::new(cfg).stream_to(dir)` runs a scan whose
//!   `StreamRecorder` appends, per determined site: every served script
//!   body (deduplicated through the FNV-64 content store), the page
//!   structure (URLs, CSP, dwell, static subresources), the typed
//!   [`VisitOutcome`], the attempt count, and a [`StoreCapture`]
//!   fingerprint of every instrument record the visit produced. Each
//!   append is acknowledged in a checkpoint next to the bundle, so a
//!   killed crawl resumes where it stopped; once every site is determined
//!   the bundle is sealed with a [`CommitInfo`].
//! * **Replay** — `Scan::new(cfg).replay(dir)` re-runs the *entire*
//!   pipeline (jsengine execution, instruments, detect static+dynamic
//!   classification, supervisor fault weather) with `webgen` bypassed:
//!   page content comes from the bundle, not the generator. Every
//!   re-derived outcome is compared field-by-field against the recorded
//!   one; divergences are counted, and the telemetry digest must come
//!   out byte-identical to the recording run's.
//! * **Diff** — [`diff_bundles`] compares two bundles (e.g. a WPM and a
//!   WPM_hide run over the same seed) and reports per-site record
//!   deltas, the Sec. 6.3 comparison pinned to on-disk corpora.
//!
//! All bookkeeping lands in `archive.*` metrics, which are excluded from
//! the telemetry digest — recording must not perturb provenance.

use std::collections::{BTreeSet, HashMap};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ::archive::{BundleReader, BundleWriter};
use browser::CspPolicy;
use netsim::ResourceType;
use openwpm::{
    CrashInjector, CrawlSummary, FailureReason, FaultPlan, KillPoint, PageScript, RetryPolicy,
    StoreCapture, VisitOutcome, VisitSpec,
};
use webgen::{Category, Population};

use crate::scan::{
    decode_site_record, encode_site_record, site_visit, ScanConfig, SiteScanRecord, SiteVisit,
};

// Separators. The bundle layer reserves `\n` and US (`\x1f`); the
// checkpoint encoding inside site records uses RS/GS/FS (`\x1e`..`\x1c`).
// The archive's own nesting levels take the low control characters, which
// cannot occur in generated domains, URLs, script bodies or properties.
const F: char = '\x01'; // between site-entry fields
const PAGE: char = '\x02'; // between pages
const PF: char = '\x03'; // between page fields
const LIST: char = '\x1d'; // between list elements (GS, as elsewhere)
const PAIR: char = '\x1c'; // inside list elements (FS, as elsewhere)

/// Counters describing the bundle a streamed scan sealed; attached to
/// [`ScanReport::archive`](crate::ScanReport::archive). The blob counters
/// cover this run's puts only: a resumed stream's earlier legs are not
/// included.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArchiveStats {
    /// Site entries in the sealed bundle (completed + failed).
    pub sites: u64,
    /// Unique script/resource bodies this run added to the blob store.
    pub blobs_written: u64,
    /// Bytes of unique blob content this run added.
    pub blob_bytes: u64,
    /// Blob puts answered by dedup — for a single-leg stream equals
    /// (bodies served − unique bodies), the corpus-statistics prediction
    /// the property test pins.
    pub dedup_hits: u64,
}

/// Counters describing a replay run; attached to
/// [`ScanReport::replay`](crate::ScanReport::replay).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Sites re-measured from the bundle.
    pub sites: u64,
    /// Sites whose re-derived outcome differed in any field from the
    /// recorded one. Zero is the reproducibility guarantee.
    pub divergences: u64,
}

/// The run summary sealed into a bundle's commit line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommitInfo {
    pub completed: usize,
    pub failed: usize,
    pub interrupted: usize,
    /// Table 5 of the recording run: (static, dynamic, union) ×
    /// (identified, true).
    pub table5: [(u32, u32); 3],
    /// FNV-64 folded over every site entry's line hash in rank order —
    /// order-independent of worker scheduling, sensitive to any byte of
    /// any record.
    pub records_digest: u64,
    /// Telemetry digest of the recording run at commit time
    /// (`obs::Snapshot::digest`, which excludes `cache.*`/`archive.*`).
    pub telemetry_digest: u64,
    /// Whether metrics were armed when recording; the digest is only
    /// comparable between runs with matching telemetry state.
    pub stats_enabled: bool,
}

impl CommitInfo {
    fn encode(&self) -> String {
        let t = self.table5;
        format!(
            "{}{LIST}{}{LIST}{}{LIST}{},{},{},{},{},{}{LIST}{:016x}{LIST}{:016x}{LIST}{}",
            self.completed,
            self.failed,
            self.interrupted,
            t[0].0,
            t[0].1,
            t[1].0,
            t[1].1,
            t[2].0,
            t[2].1,
            self.records_digest,
            self.telemetry_digest,
            self.stats_enabled as u8
        )
    }

    fn decode(s: &str) -> Option<CommitInfo> {
        let parts: Vec<&str> = s.split(LIST).collect();
        let [completed, failed, interrupted, t5, records, telemetry, stats] = parts.as_slice()
        else {
            return None;
        };
        let t: Vec<u32> = t5.split(',').map(|v| v.parse().ok()).collect::<Option<_>>()?;
        let [a, b, c, d, e, f] = t.as_slice() else { return None };
        Some(CommitInfo {
            completed: completed.parse().ok()?,
            failed: failed.parse().ok()?,
            interrupted: interrupted.parse().ok()?,
            table5: [(*a, *b), (*c, *d), (*e, *f)],
            records_digest: u64::from_str_radix(records, 16).ok()?,
            telemetry_digest: u64::from_str_radix(telemetry, 16).ok()?,
            stats_enabled: *stats == "1",
        })
    }
}

// --- per-visit capture hand-off --------------------------------------------
//
// `scan_site_visit` computes the per-site `StoreCapture` on the worker
// thread; the supervisor invokes `on_complete` on that same thread, inside
// the still-open visit scope, immediately after the final attempt. A
// thread-local cell is therefore a race-free channel from the visit body
// to the stream flush or the replay verifier without widening every
// signature in between.

thread_local! {
    static CAPTURE: std::cell::Cell<Option<StoreCapture>> =
        const { std::cell::Cell::new(None) };
}

pub(crate) fn stash_capture(c: Option<StoreCapture>) {
    CAPTURE.with(|cell| cell.set(c));
}

pub(crate) fn take_capture() -> Option<StoreCapture> {
    CAPTURE.with(|cell| cell.take())
}

/// Fold per-page captures into one per-site capture: counts add, digests
/// fold in page order.
pub(crate) fn fold_captures(pages: &[StoreCapture]) -> StoreCapture {
    let mut acc = StoreCapture::default();
    let mut digest = String::new();
    for p in pages {
        acc.js_calls += p.js_calls;
        acc.http_requests += p.http_requests;
        acc.http_responses += p.http_responses;
        acc.saved_scripts += p.saved_scripts;
        acc.cookies += p.cookies;
        acc.crawl_history += p.crawl_history;
        acc.malformed_events += p.malformed_events;
        digest.push_str(&format!("{:016x}", p.digest));
    }
    acc.digest = obs::fnv1a(digest.as_bytes());
    acc
}

// --- encodings -------------------------------------------------------------

fn join_list<T>(items: &[T], f: impl Fn(&T) -> String) -> String {
    items.iter().map(f).collect::<Vec<String>>().join(&LIST.to_string())
}

fn split_list(s: &str) -> Vec<&str> {
    if s.is_empty() { Vec::new() } else { s.split(LIST).collect() }
}

pub(crate) fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn encode_config(cfg: &ScanConfig) -> String {
    let f = &cfg.faults;
    let r = &cfg.retry;
    [
        cfg.n_sites.to_string(),
        cfg.seed.to_string(),
        (cfg.include_subpages as u8).to_string(),
        (cfg.simulate_interaction as u8).to_string(),
        cfg.flaky_sites_per_100k.to_string(),
        cfg.visit_timeout_ms.to_string(),
        format!("{},{},{}", r.max_attempts, r.base_backoff_ms, r.max_backoff_ms),
        format!(
            "{},{},{},{},{},{},{}",
            f.crash_per_mille,
            f.hang_per_mille,
            f.nav_error_per_mille,
            f.tab_crash_per_mille,
            f.http_flaky_per_mille,
            f.flaky_site_boost_pm,
            f.seed
        ),
        cfg.visit_budget.map(|b| b.to_string()).unwrap_or_default(),
    ]
    .join(&PAIR.to_string())
}

/// Inverse of [`encode_config`]; `workers` stays the replaying caller's
/// choice because results are worker-count independent.
fn decode_config(s: &str, workers: usize) -> Option<ScanConfig> {
    let parts: Vec<&str> = s.split(PAIR).collect();
    let [n_sites, seed, subpages, interact, flaky, timeout, retry, faults, budget] =
        parts.as_slice()
    else {
        return None;
    };
    let r: Vec<u64> = retry.split(',').map(|v| v.parse().ok()).collect::<Option<_>>()?;
    let [max_attempts, base_backoff_ms, max_backoff_ms] = r.as_slice() else { return None };
    let fp: Vec<u64> = faults.split(',').map(|v| v.parse().ok()).collect::<Option<_>>()?;
    let [crash, hang, nav, tab, http, boost, fseed] = fp.as_slice() else { return None };
    Some(ScanConfig {
        n_sites: n_sites.parse().ok()?,
        seed: seed.parse().ok()?,
        workers,
        include_subpages: *subpages == "1",
        simulate_interaction: *interact == "1",
        faults: FaultPlan {
            crash_per_mille: *crash as u32,
            hang_per_mille: *hang as u32,
            nav_error_per_mille: *nav as u32,
            tab_crash_per_mille: *tab as u32,
            http_flaky_per_mille: *http as u32,
            flaky_site_boost_pm: *boost as u32,
            seed: *fseed,
        },
        retry: RetryPolicy {
            max_attempts: *max_attempts as u32,
            base_backoff_ms: *base_backoff_ms,
            max_backoff_ms: *max_backoff_ms,
        },
        visit_timeout_ms: timeout.parse().ok()?,
        flaky_sites_per_100k: flaky.parse().ok()?,
        visit_budget: if budget.is_empty() { None } else { Some(budget.parse().ok()?) },
    })
}

/// Encode one page's served content, archiving every body as a blob.
fn encode_page(spec: &VisitSpec, writer: &BundleWriter) -> io::Result<String> {
    let mut scripts = Vec::with_capacity(spec.scripts.len());
    for s in &spec.scripts {
        let hash = writer.put_blob(&s.source)?;
        scripts.push(format!("{}{PAIR}{}{PAIR}{hash:016x}", s.url, s.content_type));
    }
    let mut server = Vec::with_capacity(spec.server_resources.len());
    for (url, ct, body) in &spec.server_resources {
        let hash = writer.put_blob(body)?;
        server.push(format!("{url}{PAIR}{ct}{PAIR}{hash:016x}"));
    }
    let statics = join_list(&spec.static_requests, |(url, rt)| {
        format!("{url}{PAIR}{}", rt.as_str())
    });
    Ok([
        spec.url.clone(),
        spec.dwell_override_s.map(|d| d.to_string()).unwrap_or_default(),
        spec.csp.as_ref().map(CspPolicy::encode).unwrap_or_default(),
        scripts.join(&LIST.to_string()),
        server.join(&LIST.to_string()),
        statics,
    ]
    .join(&PF.to_string()))
}

/// Inverse of [`encode_page`], resolving bodies from the blob store.
fn decode_page(s: &str, reader: &BundleReader) -> Option<VisitSpec> {
    let parts: Vec<&str> = s.split(PF).collect();
    let [url, dwell, csp, scripts, server, statics] = parts.as_slice() else {
        return None;
    };
    let mut spec = VisitSpec {
        url: url.to_string(),
        ..VisitSpec::default()
    };
    if !dwell.is_empty() {
        spec.dwell_override_s = Some(dwell.parse().ok()?);
    }
    if !csp.is_empty() {
        spec.csp = Some(CspPolicy::decode(csp)?);
    }
    for entry in split_list(scripts) {
        let f: Vec<&str> = entry.split(PAIR).collect();
        let [su, ct, hash] = f.as_slice() else { return None };
        let body = reader.blob(u64::from_str_radix(hash, 16).ok()?)?;
        spec.scripts.push(PageScript {
            url: su.to_string(),
            source: body,
            content_type: ct.to_string(),
        });
    }
    for entry in split_list(server) {
        let f: Vec<&str> = entry.split(PAIR).collect();
        let [su, ct, hash] = f.as_slice() else { return None };
        let body = reader.blob(u64::from_str_radix(hash, 16).ok()?)?;
        spec.server_resources.push((su.to_string(), ct.to_string(), body.to_string()));
    }
    for entry in split_list(statics) {
        let (su, rt) = entry.split_once(PAIR)?;
        spec.static_requests.push((su.to_string(), ResourceType::parse(rt)?));
    }
    Some(spec)
}

/// The four result fields a bundle entry records and the Verifier compares
/// a replayed outcome against: `attempts F status F payload F capture`.
fn result_fields(
    outcome: &VisitOutcome<SiteScanRecord>,
    attempts: u32,
    capture: Option<StoreCapture>,
) -> String {
    let (status, payload, cap) = match outcome {
        VisitOutcome::Completed(rec) => (
            "ok",
            encode_site_record(rec),
            capture.unwrap_or_default().encode(),
        ),
        VisitOutcome::Failed { reason, .. } => {
            ("failed", reason.as_str().to_string(), String::new())
        }
        VisitOutcome::Interrupted => ("interrupted", String::new(), String::new()),
    };
    result_fields_of(status, &payload, &cap, attempts)
}

fn result_fields_of(status: &str, payload: &str, cap: &str, attempts: u32) -> String {
    format!("{attempts}{F}{status}{F}{payload}{F}{cap}")
}

// --- streaming -------------------------------------------------------------

/// The determined outcome a stream flush persists: either a completed
/// record (borrowed — it is dropped right after the flush) or a typed
/// failure. Interruptions are never flushed; an interrupted rank simply
/// has no checkpoint line and is re-visited on resume.
pub(crate) enum StreamOutcome<'a> {
    Ok(&'a SiteScanRecord),
    Failed(&'a FailureReason),
}

/// The config identity a stream bundle carries. `visit_budget` is a
/// run-level interruption knob — "stop after N sites this run" — not part
/// of the experiment: a budgeted partial stream must be resumable (and
/// comparable) without it.
fn stream_config(cfg: &ScanConfig) -> String {
    encode_config(&ScanConfig { visit_budget: None, ..*cfg })
}

struct StreamState {
    ckpt: BufWriter<File>,
    line_hashes: Vec<Option<u64>>,
    flushed: u64,
}

/// Crash-consistent incremental recorder: each determined visit is
/// appended to the bundle manifest and then acknowledged with one
/// checkpoint line carrying the manifest high-water mark, so at every
/// instant the durable state is `trusted bundle prefix + (maybe) one torn
/// tail`. Worker threads flush concurrently; the entry-append → line-write
/// pair is serialised so high-water marks are monotone in checkpoint-file
/// order. Locks recover from poisoning (`into_inner`) because an injected
/// crash unwinds through them by design.
pub(crate) struct StreamRecorder {
    writer: BundleWriter,
    pop: Population,
    include_subpages: bool,
    injector: Option<CrashInjector>,
    state: Mutex<StreamState>,
    err: Mutex<Option<io::Error>>,
}

impl StreamRecorder {
    pub(crate) fn create(
        dir: &Path,
        cfg: &ScanConfig,
        ckpt: File,
        injector: Option<CrashInjector>,
    ) -> io::Result<StreamRecorder> {
        let writer = BundleWriter::create(dir, &stream_config(cfg))?;
        Ok(Self::with_writer(writer, cfg, ckpt, vec![None; cfg.n_sites as usize], injector))
    }

    /// Reopen a partial bundle for appending, truncating everything past
    /// the checkpointed high-water mark, with the trusted entries' hashes
    /// pre-seeded so the final commit digest covers replayed ranks too.
    pub(crate) fn resume(
        dir: &Path,
        cfg: &ScanConfig,
        truncate_to: u64,
        ckpt: File,
        line_hashes: Vec<Option<u64>>,
        injector: Option<CrashInjector>,
    ) -> io::Result<StreamRecorder> {
        let writer = BundleWriter::append_to(dir, &stream_config(cfg), truncate_to)?;
        Ok(Self::with_writer(writer, cfg, ckpt, line_hashes, injector))
    }

    fn with_writer(
        writer: BundleWriter,
        cfg: &ScanConfig,
        ckpt: File,
        line_hashes: Vec<Option<u64>>,
        injector: Option<CrashInjector>,
    ) -> StreamRecorder {
        StreamRecorder {
            writer,
            pop: cfg.population(),
            include_subpages: cfg.include_subpages,
            injector,
            state: Mutex::new(StreamState {
                ckpt: BufWriter::new(ckpt),
                line_hashes,
                flushed: 0,
            }),
            err: Mutex::new(None),
        }
    }

    /// Durably persist one determined visit (the `on_complete` hook).
    pub(crate) fn flush(&self, rank: u32, outcome: StreamOutcome<'_>, attempts: u32, delta: &str) {
        if let Err(e) = self.try_flush(rank, outcome, attempts, delta) {
            self.err
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .get_or_insert(e);
        }
    }

    fn try_flush(
        &self,
        rank: u32,
        outcome: StreamOutcome<'_>,
        attempts: u32,
        delta: &str,
    ) -> io::Result<()> {
        let _flush_ph = obs::prof::enter(&obs::prof::ARCHIVE_FLUSH);
        if let Some(inj) = &self.injector {
            // Once any worker has hit its kill point the process is
            // notionally dead: nothing more may reach disk.
            if inj.tripped() {
                inj.die();
            }
        }
        let encode_ph = obs::prof::enter(&obs::prof::ARCHIVE_ENCODE);
        let (status, payload, cap) = match outcome {
            StreamOutcome::Ok(rec) => (
                "ok",
                encode_site_record(rec),
                take_capture().unwrap_or_default().encode(),
            ),
            StreamOutcome::Failed(reason) => ("failed", reason.as_str().to_string(), String::new()),
        };
        let rf = result_fields_of(status, &payload, &cap, attempts);
        // Re-materialise the pages the visit served: generation is
        // deterministic in (population, rank) and bodies are memoised, so
        // this is what the browser saw, at Arc-clone cost. It and the blob
        // writes happen outside the serialising lock — the blob store has
        // its own dedup lock.
        let visit = site_visit(&self.pop.plan(rank), self.include_subpages);
        let mut pages = Vec::with_capacity(visit.pages.len());
        for spec in &visit.pages {
            pages.push(encode_page(spec, &self.writer)?);
        }
        let entry = format!(
            "{rank}{F}{}{F}{}{F}{}{F}{rf}{F}{}",
            visit.domain,
            join_list(&visit.categories, |c| c.name().to_string()),
            visit.flaky as u8,
            pages.join(&PAGE.to_string())
        );
        let hash = obs::fnv1a(entry.as_bytes());
        drop(encode_ph);
        let (line_status, line_payload) = match outcome {
            StreamOutcome::Ok(_) => ("flushed", format!("{hash:016x}")),
            StreamOutcome::Failed(reason) => ("failed", reason.as_str().to_string()),
        };
        // Death is always delivered while still holding the lock: the
        // unwind releases it, and every other worker's next `begin_flush`
        // (also under the lock) dies fast — so, exactly like a SIGKILL,
        // nothing reaches disk after the kill point.
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let action = self.injector.as_ref().and_then(|i| i.begin_flush());
        if let Some(KillPoint::MidBundleAppend(_, keep)) = action {
            self.writer.append_entry_torn(&entry, keep)?;
            self.injector.as_ref().unwrap().die();
        }
        let hwm = self.writer.append_entry(&entry)?;
        st.line_hashes[rank as usize] = Some(hash);
        st.flushed += 1;
        let line =
            crate::scan::stream_checkpoint_line(rank, line_status, attempts, &line_payload, hwm, delta);
        if let Some(KillPoint::MidCheckpointLine(_, keep)) = action {
            let keep = keep.min(line.len());
            st.ckpt.write_all(&line.as_bytes()[..keep])?;
            st.ckpt.flush()?;
            self.injector.as_ref().unwrap().die();
        }
        writeln!(st.ckpt, "{line}")?;
        st.ckpt.flush()?;
        if let Some(KillPoint::AfterVisit(_)) = action {
            self.injector.as_ref().unwrap().die();
        }
        drop(st);
        obs::add("checkpoint.writes", 1);
        obs::emit(obs::Event::new(0, "checkpoint_write").attr("rank", rank as usize));
        Ok(())
    }

    /// Seal the bundle if every rank was flushed or replayed; a
    /// budget-interrupted stream stays uncommitted so a later resume can
    /// complete it. Returns `(archive stats if committed, records flushed
    /// this run)`.
    pub(crate) fn finish(
        self,
        completion: &CrawlSummary,
        table5: [(u32, u32); 3],
    ) -> io::Result<(Option<ArchiveStats>, u64)> {
        if let Some(e) = self.err.into_inner().unwrap_or_else(|e| e.into_inner()) {
            return Err(e);
        }
        let st = self.state.into_inner().unwrap_or_else(|e| e.into_inner());
        let flushed = st.flushed;
        if st.line_hashes.iter().any(|h| h.is_none()) {
            return Ok((None, flushed));
        }
        let mut digest = String::new();
        for h in &st.line_hashes {
            digest.push_str(&format!("{:016x}", h.unwrap()));
        }
        let info = CommitInfo {
            completed: completion.completed,
            failed: completion.failed,
            interrupted: completion.interrupted,
            table5,
            records_digest: obs::fnv1a(digest.as_bytes()),
            telemetry_digest: obs::registry().snapshot().digest(),
            stats_enabled: obs::stats_enabled(),
        };
        let stats = self.writer.commit(&info.encode())?;
        Ok((
            Some(ArchiveStats {
                sites: stats.entries,
                blobs_written: stats.blobs_written,
                blob_bytes: stats.blob_bytes,
                dedup_hits: stats.dedup_hits,
            }),
            flushed,
        ))
    }
}

/// One bundle entry inside the checkpointed (trusted) prefix.
pub(crate) struct TrustedEntry {
    pub(crate) hash: u64,
    pub(crate) status: String,
    pub(crate) payload: String,
}

/// What a partial bundle yields for resume: entries the checkpoint vouches
/// for, ranks whose entries landed but whose checkpoint line did not
/// (orphans — re-visited), and how many tail lines were discarded.
pub(crate) struct StreamHarvest {
    pub(crate) trusted: HashMap<u32, TrustedEntry>,
    pub(crate) orphan_ranks: BTreeSet<u32>,
    pub(crate) tail_dropped: u64,
}

/// Streaming never touches a sealed bundle: re-running a finished crawl
/// must not scribble on its results. The error kind is `AlreadyExists`,
/// so callers can point at replay instead.
fn refuse_sealed(dir: &Path, reader: &BundleReader) -> io::Result<()> {
    match reader.commit {
        Some(_) => Err(io::Error::new(
            io::ErrorKind::AlreadyExists,
            format!(
                "{}: bundle is already committed — streaming refuses to append to a sealed \
                 bundle; replay it instead",
                dir.display()
            ),
        )),
        None => Ok(()),
    }
}

/// [`refuse_sealed`] for a directory nothing in a checkpoint vouches for:
/// a sealed bundle there (say, one recorded by an earlier build, which
/// kept no checkpoint) is refused rather than overwritten; anything
/// unreadable is a stale partial bundle, free to be replaced.
pub(crate) fn refuse_sealed_dir(dir: &Path) -> io::Result<()> {
    match BundleReader::open(dir) {
        Ok(reader) => refuse_sealed(dir, &reader),
        Err(_) => Ok(()),
    }
}

/// Read a partial bundle back for resume. Everything at or below
/// `max_hwm` (the highest manifest offset any surviving checkpoint line
/// acknowledged) must be intact — corruption there means the storage
/// lied about durability and is a hard error, not a recoverable tear.
/// Entries past the mark are unacknowledged: decodable ones surface as
/// orphans to re-visit, torn ones are counted and dropped.
pub(crate) fn harvest_stream(dir: &Path, cfg: &ScanConfig, max_hwm: u64) -> io::Result<StreamHarvest> {
    let reader = BundleReader::open(dir)?;
    refuse_sealed(dir, &reader)?;
    if reader.config != stream_config(cfg) {
        return Err(invalid(format!(
            "{}: bundle was recorded under a different configuration — refusing to resume into it",
            dir.display()
        )));
    }
    if max_hwm > reader.manifest_len {
        return Err(invalid(format!(
            "{}: checkpoint high-water mark {max_hwm} is beyond the manifest ({} bytes) — \
             the bundle was truncated after the checkpoint was written",
            dir.display(),
            reader.manifest_len
        )));
    }
    let mut harvest = StreamHarvest {
        trusted: HashMap::new(),
        orphan_ranks: BTreeSet::new(),
        tail_dropped: reader.dropped_lines as u64,
    };
    for (i, entry) in reader.entries.iter().enumerate() {
        let decoded = decode_entry(entry, &reader);
        if reader.entry_ends[i] <= max_hwm {
            let (rank, site) = decoded.ok_or_else(|| {
                invalid(format!(
                    "{}: corrupt site entry inside the checkpointed prefix",
                    dir.display()
                ))
            })?;
            harvest.trusted.insert(
                rank,
                TrustedEntry {
                    hash: obs::fnv1a(entry.as_bytes()),
                    status: site.status,
                    payload: site.payload,
                },
            );
        } else if let Some((rank, _)) = decoded {
            harvest.tail_dropped += 1;
            harvest.orphan_ranks.insert(rank);
        } else {
            harvest.tail_dropped += 1;
        }
    }
    Ok(harvest)
}

// --- replay ----------------------------------------------------------------

/// One site as recorded in a bundle.
#[derive(Debug)]
pub(crate) struct ReplaySite {
    pub(crate) visit: SiteVisit,
    /// Raw result fields, kept verbatim for exact divergence comparison.
    attempts: String,
    status: String,
    payload: String,
    capture: String,
    /// Raw page encoding, for cheap bundle-to-bundle comparison.
    pages_enc: String,
}

impl ReplaySite {
    fn result_fields(&self) -> String {
        format!(
            "{}{F}{}{F}{}{F}{}",
            self.attempts, self.status, self.payload, self.capture
        )
    }

    pub(crate) fn capture(&self) -> Option<StoreCapture> {
        (self.status == "ok").then(|| StoreCapture::decode(&self.capture)).flatten()
    }
}

fn decode_entry(payload: &str, reader: &BundleReader) -> Option<(u32, ReplaySite)> {
    let parts: Vec<&str> = payload.split(F).collect();
    let [rank, domain, cats, flaky, attempts, status, result, capture, pages_enc] =
        parts.as_slice()
    else {
        return None;
    };
    let rank: u32 = rank.parse().ok()?;
    let categories: Vec<Category> = split_list(cats)
        .into_iter()
        .map(Category::from_name)
        .collect::<Option<_>>()?;
    let _: u32 = attempts.parse().ok()?;
    match *status {
        "ok" => {
            decode_site_record(result)?;
            StoreCapture::decode(capture)?;
        }
        "failed" => {
            FailureReason::parse(result)?;
        }
        // Streams never write interrupted sites, but bundles sealed by
        // earlier builds' batch recorder may carry them; keep those
        // readable.
        "interrupted" => {}
        _ => return None,
    }
    let pages: Vec<VisitSpec> = if pages_enc.is_empty() {
        Vec::new()
    } else {
        pages_enc
            .split(PAGE)
            .map(|p| decode_page(p, reader))
            .collect::<Option<_>>()?
    };
    Some((
        rank,
        ReplaySite {
            visit: SiteVisit {
                rank,
                domain: domain.to_string(),
                categories,
                flaky: *flaky == "1",
                pages,
            },
            attempts: attempts.to_string(),
            status: status.to_string(),
            payload: result.to_string(),
            capture: capture.to_string(),
            pages_enc: pages_enc.to_string(),
        },
    ))
}

/// A committed bundle opened for replay or diffing: the recorded scan
/// configuration, every site's served pages and recorded outcome, and the
/// sealed [`CommitInfo`].
#[derive(Debug)]
pub struct ReplayBundle {
    cfg: ScanConfig,
    pub(crate) sites: Vec<ReplaySite>,
    pub commit: CommitInfo,
}

impl ReplayBundle {
    /// Open and fully validate the bundle at `dir`. Fails with a clear
    /// error on a missing/torn/uncommitted bundle, a format-version
    /// mismatch, a missing site, a missing blob, or a records-digest
    /// mismatch — a replay must never silently run from a damaged corpus.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<ReplayBundle> {
        let dir = dir.as_ref();
        let reader = BundleReader::open(dir)?;
        let commit = reader
            .commit
            .as_deref()
            .ok_or_else(|| {
                invalid(format!(
                    "{}: bundle has no commit line (recording crawl was killed?) — re-record it",
                    dir.display()
                ))
            })
            .and_then(|c| {
                CommitInfo::decode(c)
                    .ok_or_else(|| invalid(format!("{}: corrupt commit line", dir.display())))
            })?;
        if reader.dropped_lines > 0 || reader.torn_blob_tail {
            return Err(invalid(format!(
                "{}: committed bundle has {} dropped manifest lines (torn blob tail: {}) — \
                 the files were damaged after commit",
                dir.display(),
                reader.dropped_lines,
                reader.torn_blob_tail
            )));
        }
        let cfg = decode_config(&reader.config, 4)
            .ok_or_else(|| invalid(format!("{}: corrupt config payload", dir.display())))?;
        let n = cfg.n_sites as usize;
        let mut sites: Vec<Option<ReplaySite>> = (0..n).map(|_| None).collect();
        let mut digest_parts: Vec<Option<String>> = vec![None; n];
        for entry in &reader.entries {
            let (rank, site) = decode_entry(entry, &reader)
                .ok_or_else(|| invalid(format!("{}: corrupt site entry", dir.display())))?;
            if rank as usize >= n {
                return Err(invalid(format!(
                    "{}: site entry rank {rank} out of range for n_sites={n}",
                    dir.display()
                )));
            }
            digest_parts[rank as usize] = Some(format!("{:016x}", obs::fnv1a(entry.as_bytes())));
            sites[rank as usize] = Some(site);
        }
        let mut digest = String::new();
        let mut resolved = Vec::with_capacity(n);
        for (rank, site) in sites.into_iter().enumerate() {
            resolved.push(site.ok_or_else(|| {
                invalid(format!("{}: bundle is missing site {rank}", dir.display()))
            })?);
            digest.push_str(digest_parts[rank].as_ref().unwrap());
        }
        if obs::fnv1a(digest.as_bytes()) != commit.records_digest {
            return Err(invalid(format!(
                "{}: records digest mismatch — entries do not match the commit line",
                dir.display()
            )));
        }
        Ok(ReplayBundle { cfg, sites: resolved, commit })
    }

    /// The recorded scan configuration, with `workers` set by the caller
    /// (results are worker-count independent; parallelism is not part of
    /// the recorded experiment).
    pub fn scan_config(&self, workers: usize) -> ScanConfig {
        ScanConfig { workers, ..self.cfg }
    }

    pub fn n_sites(&self) -> u32 {
        self.cfg.n_sites
    }

    pub(crate) fn site(&self, rank: u32) -> &ReplaySite {
        &self.sites[rank as usize]
    }
}

/// Compares replayed outcomes against recorded ones (the `on_complete`
/// hook of a replay run).
pub(crate) struct Verifier {
    bundle: Arc<ReplayBundle>,
    sites: AtomicU64,
    divergences: AtomicU64,
}

impl Verifier {
    pub(crate) fn new(bundle: Arc<ReplayBundle>) -> Verifier {
        Verifier { bundle, sites: AtomicU64::new(0), divergences: AtomicU64::new(0) }
    }

    pub(crate) fn check(
        &self,
        rank: usize,
        outcome: &VisitOutcome<SiteScanRecord>,
        attempts: u32,
    ) {
        self.sites.fetch_add(1, Ordering::Relaxed);
        obs::add("archive.replay.sites", 1);
        let live = result_fields(outcome, attempts, take_capture());
        let recorded = self.bundle.site(rank as u32).result_fields();
        if live != recorded {
            self.divergences.fetch_add(1, Ordering::Relaxed);
            obs::add("archive.replay.divergences", 1);
            obs::emit(obs::Event::new(0, "archive_replay_divergence").attr("rank", rank));
        }
    }

    pub(crate) fn stats(&self) -> ReplayStats {
        ReplayStats {
            sites: self.sites.load(Ordering::Relaxed),
            divergences: self.divergences.load(Ordering::Relaxed),
        }
    }
}

// --- diffing ---------------------------------------------------------------

/// One site whose records differ between two bundles.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SiteDelta {
    pub rank: u32,
    pub domain: String,
    /// Human-readable field-level differences.
    pub changes: Vec<String>,
}

/// The comparison of two bundles (paper Sec. 6.3: WPM vs WPM_hide runs
/// over the same recorded corpus).
#[derive(Clone, Debug, Default)]
pub struct BundleDiff {
    pub a_commit: CommitInfo,
    pub b_commit: CommitInfo,
    /// The recorded scan configurations differ (expected when diffing an
    /// ablation; suspicious when diffing two same-seed runs).
    pub config_differs: bool,
    pub deltas: Vec<SiteDelta>,
}

impl BundleDiff {
    /// True when the bundles agree site-for-site.
    pub fn is_clean(&self) -> bool {
        self.deltas.is_empty()
    }

    /// Total records in each bundle's capture fingerprints `(a, b)`.
    pub fn record_totals(a: &ReplayBundle, b: &ReplayBundle) -> (u64, u64) {
        let sum = |bundle: &ReplayBundle| {
            bundle.sites.iter().filter_map(|s| s.capture()).map(|c| c.total_records()).sum()
        };
        (sum(a), sum(b))
    }
}

/// Compare two opened bundles site-by-site.
pub fn diff_bundles(a: &ReplayBundle, b: &ReplayBundle) -> BundleDiff {
    let mut diff = BundleDiff {
        a_commit: a.commit,
        b_commit: b.commit,
        config_differs: encode_config(&a.cfg) != encode_config(&b.cfg),
        deltas: Vec::new(),
    };
    let shared = a.sites.len().min(b.sites.len());
    for rank in 0..shared {
        let (sa, sb) = (&a.sites[rank], &b.sites[rank]);
        let mut changes = Vec::new();
        if sa.status != sb.status {
            changes.push(format!("status: {} -> {}", sa.status, sb.status));
        }
        if sa.attempts != sb.attempts {
            changes.push(format!("attempts: {} -> {}", sa.attempts, sb.attempts));
        }
        match (sa.capture(), sb.capture()) {
            (Some(ca), Some(cb)) if ca != cb => {
                for (name, va, vb) in [
                    ("js_calls", ca.js_calls, cb.js_calls),
                    ("http_requests", ca.http_requests, cb.http_requests),
                    ("http_responses", ca.http_responses, cb.http_responses),
                    ("saved_scripts", ca.saved_scripts, cb.saved_scripts),
                    ("cookies", ca.cookies, cb.cookies),
                    ("malformed_events", ca.malformed_events, cb.malformed_events),
                ] {
                    if va != vb {
                        changes.push(format!("records.{name}: {va} -> {vb}"));
                    }
                }
                if ca.digest != cb.digest {
                    changes.push(format!(
                        "records.digest: {:016x} -> {:016x}",
                        ca.digest, cb.digest
                    ));
                }
            }
            _ => {}
        }
        if sa.status == sb.status && sa.payload != sb.payload {
            changes.push("site record fields differ".to_string());
        }
        if sa.pages_enc != sb.pages_enc {
            changes.push("served pages differ".to_string());
        }
        if !changes.is_empty() {
            diff.deltas.push(SiteDelta {
                rank: rank as u32,
                domain: sa.visit.domain.clone(),
                changes,
            });
        }
    }
    for rank in shared..a.sites.len() {
        diff.deltas.push(SiteDelta {
            rank: rank as u32,
            domain: a.sites[rank].visit.domain.clone(),
            changes: vec!["only in first bundle".to_string()],
        });
    }
    for rank in shared..b.sites.len() {
        diff.deltas.push(SiteDelta {
            rank: rank as u32,
            domain: b.sites[rank].visit.domain.clone(),
            changes: vec!["only in second bundle".to_string()],
        });
    }
    diff
}
