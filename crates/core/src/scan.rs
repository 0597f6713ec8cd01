//! The Tranco-100K scan for client-side bot detection (paper Sec. 4).
//!
//! For every site: visit the front page and up to three subpages with the
//! scanning client (vanilla OpenWPM + honey properties + OpenWPM-property
//! watches), save every delivered script, record every JavaScript call,
//! then classify each script with the combined static + dynamic pipeline.
//! The aggregation reproduces Tables 5–7, 11–12 and the data behind
//! Figures 3–5.

use std::collections::{BTreeMap, HashSet};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use detect::DynamicClass;
use netsim::url::etld1_of;
use netsim::Url;
use obs::fnv1a;
use openwpm::{
    run_supervised_folding, Browser, BrowserConfig, CrashInjector, CrashPlan, CrawlHistoryRecord,
    CrawlSummary, FailureReason, FaultPlan, ItemMeta, RetryPolicy, SiteResponse, SupervisorConfig,
    VisitOutcome, VisitSpec,
};
use webgen::{visit_spec, Category, PageKind, Population, SitePlan};

use crate::archive::{
    harvest_stream, invalid, refuse_sealed_dir, ArchiveStats, ReplayBundle, ReplayStats,
    StreamOutcome, StreamRecorder, Verifier,
};

/// Scan configuration.
#[derive(Clone, Copy, Debug)]
pub struct ScanConfig {
    pub n_sites: u32,
    pub seed: u64,
    pub workers: usize,
    /// Also visit up to three subpages (the paper's deep scan).
    pub include_subpages: bool,
    /// Simulate user interaction during the dwell (HLISA-style). The
    /// paper's scan did not; with interaction, hover-gated detectors fire
    /// and become dynamically visible (an ablation of Sec. 4.1's
    /// "code that happens not to be executed" limitation).
    pub simulate_interaction: bool,
    /// Injected crawl weather (crashes, hangs, …). Inert by default, so a
    /// plain scan behaves exactly as an unsupervised one.
    pub faults: FaultPlan,
    /// Retry/backoff policy for failed visits.
    pub retry: RetryPolicy,
    /// Watchdog limit per visit on the simulated clock.
    pub visit_timeout_ms: u64,
    /// Chronically flaky sites per 100K in the population (see
    /// `webgen::Targets::flaky_per_100k`); the fault injector boosts its
    /// rates on these.
    pub flaky_sites_per_100k: u32,
    /// Visit only the first N not-yet-completed sites, marking the rest
    /// interrupted — the deterministic "crawl killed midway" model used
    /// by checkpoint/resume tests.
    pub visit_budget: Option<usize>,
}

impl ScanConfig {
    pub fn new(n_sites: u32, seed: u64) -> ScanConfig {
        ScanConfig {
            n_sites,
            seed,
            workers: 4,
            include_subpages: true,
            simulate_interaction: false,
            faults: FaultPlan::none(),
            retry: RetryPolicy::default(),
            visit_timeout_ms: 60_000,
            flaky_sites_per_100k: 0,
            visit_budget: None,
        }
    }

    pub(crate) fn population(&self) -> Population {
        let mut pop = Population::new(self.n_sites, self.seed);
        pop.targets.flaky_per_100k = self.flaky_sites_per_100k;
        pop
    }

    fn supervisor(&self) -> SupervisorConfig {
        SupervisorConfig {
            retry: self.retry,
            visit_timeout_ms: self.visit_timeout_ms,
            faults: self.faults,
            visit_budget: self.visit_budget,
        }
    }
}

/// Per-page detection flags.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PageFlags {
    /// Naive static pattern matched some script (includes false positives).
    pub static_identified: bool,
    /// Precise static patterns matched (true static finding).
    pub static_true: bool,
    /// Dynamic analysis saw fingerprint-surface access (includes
    /// inconclusive iterators).
    pub dynamic_identified: bool,
    /// Dynamic classification says Detector.
    pub dynamic_true: bool,
}

impl PageFlags {
    pub fn union_true(&self) -> bool {
        self.static_true || self.dynamic_true
    }

    pub fn union_identified(&self) -> bool {
        self.static_identified || self.dynamic_identified
    }

    fn or(&mut self, other: PageFlags) {
        self.static_identified |= other.static_identified;
        self.static_true |= other.static_true;
        self.dynamic_identified |= other.dynamic_identified;
        self.dynamic_true |= other.dynamic_true;
    }
}

/// One site's scan outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SiteScanRecord {
    pub rank: u32,
    pub domain: String,
    pub categories: Vec<Category>,
    pub front: PageFlags,
    /// Front ∪ subpages.
    pub site: PageFlags,
    /// `(provider domain, property)` pairs of OpenWPM-specific probes.
    pub openwpm_probes: Vec<(String, String)>,
    /// Hosting domains (eTLD+1) of third-party detector scripts.
    pub third_party_domains: Vec<String>,
    /// URLs of first-party detector scripts (Table 12 clustering input).
    pub first_party_urls: Vec<String>,
    /// FNV-1a hashes of every script body collected on this site (the
    /// paper's corpus statistic: 1,535,306 unique scripts over 100K sites).
    pub script_hashes: Vec<u64>,
}

/// Everything one site serves for a scan: identity plus the fully
/// materialised page specs the browser will visit, in order (front first).
/// Built from a generated [`SitePlan`] for live scans, or decoded from a
/// crawl bundle for replays — `scan_site_visit` cannot tell the
/// difference, which is what makes archived re-measurement exact.
#[derive(Clone, Debug)]
pub struct SiteVisit {
    pub rank: u32,
    pub domain: String,
    pub categories: Vec<Category>,
    /// Chronically flaky site (boosted fault rates).
    pub flaky: bool,
    pub pages: Vec<VisitSpec>,
}

/// Materialise a site's visit from its generated plan: the front page and
/// (for deep scans) up to three subpages, each with the scan dwell that
/// covers 500 ms-delayed probes plus the 60 s dwell.
pub fn site_visit(plan: &SitePlan, include_subpages: bool) -> SiteVisit {
    let mut kinds = vec![PageKind::Front];
    if include_subpages {
        for i in 0..plan.subpage_count.min(3) {
            kinds.push(PageKind::Subpage(i));
        }
    }
    let pages = kinds
        .into_iter()
        .map(|kind| {
            let mut spec = visit_spec(plan, kind);
            spec.dwell_override_s = Some(61);
            spec
        })
        .collect();
    SiteVisit {
        rank: plan.rank,
        domain: plan.domain.clone(),
        categories: plan.categories.clone(),
        flaky: plan.flaky,
        pages,
    }
}

/// Scan one site with a scanning browser. A visit spec whose URL does not
/// parse surfaces as a typed [`FailureReason`] for the supervisor to
/// record, instead of panicking the worker.
pub fn scan_site(
    browser: &mut Browser,
    plan: &SitePlan,
    include_subpages: bool,
) -> Result<SiteScanRecord, FailureReason> {
    scan_site_visit(browser, &site_visit(plan, include_subpages), false)
}

/// Scan one materialised [`SiteVisit`] (live or replayed). With `capture`
/// set, a folded [`openwpm::StoreCapture`] fingerprint of every record the
/// visit produced is parked in the worker's capture slot for the stream
/// flush or the replay verifier to collect.
pub fn scan_site_visit(
    browser: &mut Browser,
    visit: &SiteVisit,
    capture: bool,
) -> Result<SiteScanRecord, FailureReason> {
    crate::archive::stash_capture(None);
    let mut record = SiteScanRecord {
        rank: visit.rank,
        domain: visit.domain.clone(),
        categories: visit.categories.clone(),
        front: PageFlags::default(),
        site: PageFlags::default(),
        openwpm_probes: Vec::new(),
        third_party_domains: Vec::new(),
        first_party_urls: Vec::new(),
        script_hashes: Vec::new(),
    };
    let mut captures = Vec::new();
    for (i, spec) in visit.pages.iter().enumerate() {
        // Flight-recorder breadcrumb: a forensic dump mid-visit names the
        // exact page in flight (detail allocation gated on the recorder).
        if obs::prof::recorder_armed() {
            obs::prof::ring_record("page", spec.url.clone());
        }
        browser.visit(spec, |_traffic| SiteResponse::default())?;
        let store = browser.take_store();
        if capture {
            captures.push(store.capture());
        }
        let flags = classify_page(&store, &visit.domain, &mut record);
        if i == 0 {
            record.front = flags;
        }
        record.site.or(flags);
    }
    record.third_party_domains.sort();
    record.third_party_domains.dedup();
    record.first_party_urls.sort();
    record.first_party_urls.dedup();
    record.openwpm_probes.sort();
    record.openwpm_probes.dedup();
    if capture {
        crate::archive::stash_capture(Some(crate::archive::fold_captures(&captures)));
    }
    Ok(record)
}

/// Classify one page's records; appends attribution data to `record`.
fn classify_page(
    store: &openwpm::RecordStore,
    domain: &str,
    record: &mut SiteScanRecord,
) -> PageFlags {
    let mut flags = PageFlags::default();
    let site_etld1 = etld1_of(domain);

    // --- static pipeline over saved scripts ---
    // One memoised classification per script body: the FNV-64 hash the
    // record keeps anyway doubles as the verdict-memo key, so a body shared
    // across subpages (or sites) is preprocessed and matched only once per
    // process.
    let mut static_by_url: BTreeMap<&str, detect::StaticFinding> = BTreeMap::new();
    for script in &store.saved_scripts {
        let body_hash = fnv1a(script.body.as_bytes());
        record.script_hashes.push(body_hash);
        let verdict = detect::classify_memo(&script.body, body_hash);
        let finding = verdict.finding;
        if verdict.naive_webdriver || finding.is_detector() {
            flags.static_identified = true;
        }
        if finding.is_detector() {
            flags.static_true = true;
            attribute_script(&script.url, site_etld1.as_str(), record);
        }
        for prop in &finding.openwpm_props {
            if let Some(u) = Url::parse(&script.url) {
                record.openwpm_probes.push((u.etld1(), (*prop).to_owned()));
            }
        }
        static_by_url.insert(script.url.as_str(), finding);
    }

    // --- dynamic pipeline over recorded calls ---
    let honey_total = 10; // the scanner config's honey property count
    for obs in detect::observe(store) {
        let statically_flagged = static_by_url
            .get(obs.script_url.as_str())
            .map(|f| f.selenium)
            .unwrap_or(false);
        let touched = obs.accessed_webdriver || !obs.openwpm_props.is_empty();
        if touched {
            flags.dynamic_identified = true;
        }
        match obs.classify(honey_total, statically_flagged) {
            DynamicClass::Detector => {
                flags.dynamic_true = true;
                attribute_script(&obs.script_url, site_etld1.as_str(), record);
                for prop in &obs.openwpm_props {
                    if let Some(u) = Url::parse(&obs.script_url) {
                        let name = prop.trim_start_matches("window.").to_owned();
                        record.openwpm_probes.push((u.etld1(), name));
                    }
                }
            }
            DynamicClass::Inconclusive | DynamicClass::NotDetector => {}
        }
    }
    flags
}

fn attribute_script(script_url: &str, site_etld1: &str, record: &mut SiteScanRecord) {
    let Some(u) = Url::parse(script_url) else { return };
    let host_etld1 = u.etld1();
    if host_etld1 == site_etld1 {
        record.first_party_urls.push(script_url.to_owned());
    } else {
        record.third_party_domains.push(host_etld1);
    }
}

/// Classify a first-party detector URL into a Table 12 origin cluster by
/// its path pattern (the attribution method of Appx. A).
pub fn first_party_origin_of(url: &str) -> &'static str {
    let path = Url::parse(url).map(|u| u.path).unwrap_or_default();
    if path.starts_with("/akam/11/") {
        "Akamai"
    } else if path.contains("_Incapsula_Resource") {
        "Incapsula"
    } else if path.starts_with("/cdn-cgi/bm/cv/") {
        "Cloudflare"
    } else if path.ends_with("/init.js")
        && path.split('/').nth(1).map(|s| s.len() == 8).unwrap_or(false)
    {
        "PerimeterX"
    } else if path.starts_with("/assets/")
        && path.split('/').nth(2).map(|s| s.len() >= 31 && s.chars().all(|c| c.is_ascii_hexdigit())).unwrap_or(false)
    {
        "Unknown"
    } else {
        "SelfBuilt"
    }
}

/// Whole-scan report.
#[derive(Clone, Debug, Default)]
pub struct ScanReport {
    pub n_sites: u32,
    /// Records of sites whose visits completed, for plain and replayed
    /// scans. Failed or interrupted sites contribute no record — they are
    /// accounted in `completion` and `history` instead, and every printed
    /// table must carry the coverage denominator (the paper's completeness
    /// lesson). A streamed scan flushes each record to its bundle and
    /// drops it, so `sites` stays empty; replay the bundle to get them.
    pub sites: Vec<SiteScanRecord>,
    /// Crawl completeness rollup.
    pub completion: CrawlSummary,
    /// Per-site `crawl_history` rows (ok / failed / interrupted).
    pub history: Vec<CrawlHistoryRecord>,
    /// Bundle statistics when a streamed scan sealed its bundle
    /// ([`Scan::stream_to`]).
    pub archive: Option<ArchiveStats>,
    /// Verification statistics when the scan was replayed (`Scan::replay`).
    pub replay: Option<ReplayStats>,
    /// Table state folded from every completed site; every table method
    /// reads from here, whatever the scan mode.
    pub aggregates: ScanAggregates,
    /// Crash-recovery and memory statistics for a streamed scan.
    pub stream: Option<StreamStats>,
}

impl ScanReport {
    /// Count completed sites whose `(front, site)` flags match `f`.
    pub fn count(&self, f: impl Fn(PageFlags, PageFlags) -> bool) -> u32 {
        self.aggregates.flags.iter().filter(|(_, front, site)| f(*front, *site)).count() as u32
    }

    /// The coverage statement printed under every table.
    pub fn coverage_line(&self) -> String {
        self.completion.coverage_line()
    }

    /// Table 5 rows: (static, dynamic, union) × (identified, true), over
    /// front + subpages.
    pub fn table5(&self) -> [(u32, u32); 3] {
        self.aggregates.table5()
    }

    /// Table 6: OpenWPM-specific probes per provider domain × property.
    pub fn table6(&self) -> BTreeMap<String, BTreeMap<String, u32>> {
        self.aggregates.table6.clone()
    }

    /// Table 7: third-party hosting domains by inclusion count (1/site).
    pub fn table7(&self) -> Vec<(String, u32)> {
        let mut v: Vec<(String, u32)> =
            self.aggregates.table7.iter().map(|(d, n)| (d.clone(), *n)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Table 12: first-party origin clusters.
    pub fn table12(&self) -> BTreeMap<&'static str, u32> {
        self.aggregates.table12.clone()
    }

    /// Fig. 3/4 series: per-1K-rank-bucket counts of
    /// `(front static, front dynamic, site static, site dynamic)`.
    pub fn rank_buckets(&self, bucket: u32) -> Vec<[u32; 4]> {
        let nb = self.n_sites.div_ceil(bucket);
        let mut out = vec![[0u32; 4]; nb as usize];
        for &(rank, front, site) in &self.aggregates.flags {
            let b = (rank / bucket) as usize;
            if front.static_true {
                out[b][0] += 1;
            }
            if front.dynamic_true {
                out[b][1] += 1;
            }
            if site.static_true {
                out[b][2] += 1;
            }
            if site.dynamic_true {
                out[b][3] += 1;
            }
        }
        out
    }

    /// Fig. 5: category tallies for first-party vs third-party detector
    /// sites.
    pub fn category_tallies(&self) -> (BTreeMap<&'static str, u32>, BTreeMap<&'static str, u32>) {
        (self.aggregates.cat_first.clone(), self.aggregates.cat_third.clone())
    }

    /// Corpus statistics: `(scripts collected, unique bodies)` — the paper
    /// collected 1,535,306 unique scripts over its crawl.
    pub fn script_stats(&self) -> (u64, u64) {
        (self.aggregates.scripts_total, self.aggregates.script_hashes.len() as u64)
    }

    /// Total first-party vs third-party detector inclusions (Sec. 4.3).
    pub fn inclusion_totals(&self) -> (u32, u32) {
        (self.aggregates.first_party_inclusions, self.aggregates.third_party_inclusions)
    }
}

/// Table state, folded one completed [`SiteScanRecord`] at a time (with
/// per-site dedup) so a streamed scan can drop each record the moment it
/// is flushed to disk, and a plain or replayed scan of the same config
/// produces identical tables from the same fold.
#[derive(Clone, Debug, Default)]
pub struct ScanAggregates {
    /// Completed-site count (the Table-5 denominator).
    pub completed: u32,
    /// `(rank, front, site)` flags per completed site — 17 bytes/site,
    /// the only per-site residue streaming keeps (for `rank_buckets` and
    /// `count`).
    flags: Vec<(u32, PageFlags, PageFlags)>,
    table6: BTreeMap<String, BTreeMap<String, u32>>,
    table7: BTreeMap<String, u32>,
    table12: BTreeMap<&'static str, u32>,
    cat_first: BTreeMap<&'static str, u32>,
    cat_third: BTreeMap<&'static str, u32>,
    scripts_total: u64,
    script_hashes: HashSet<u64>,
    first_party_inclusions: u32,
    third_party_inclusions: u32,
    table5_identified: [u32; 3],
    table5_true: [u32; 3],
}

impl ScanAggregates {
    /// Fold one completed site into every table.
    pub fn add(&mut self, s: &SiteScanRecord) {
        self.completed += 1;
        self.flags.push((s.rank, s.front, s.site));
        if s.site.static_identified {
            self.table5_identified[0] += 1;
        }
        if s.site.static_true {
            self.table5_true[0] += 1;
        }
        if s.site.dynamic_identified {
            self.table5_identified[1] += 1;
        }
        if s.site.dynamic_true {
            self.table5_true[1] += 1;
        }
        if s.site.union_identified() {
            self.table5_identified[2] += 1;
        }
        if s.site.union_true() {
            self.table5_true[2] += 1;
        }
        let mut per_site: Vec<&(String, String)> = s.openwpm_probes.iter().collect();
        per_site.sort();
        per_site.dedup();
        for (provider, prop) in per_site {
            *self
                .table6
                .entry(provider.clone())
                .or_default()
                .entry(prop.clone())
                .or_insert(0) += 1;
        }
        for d in &s.third_party_domains {
            *self.table7.entry(d.clone()).or_insert(0) += 1;
        }
        let mut origins: Vec<&'static str> =
            s.first_party_urls.iter().map(|u| first_party_origin_of(u)).collect();
        origins.sort();
        origins.dedup();
        for o in origins {
            *self.table12.entry(o).or_insert(0) += 1;
        }
        if s.site.union_true() {
            let target =
                if s.first_party_urls.is_empty() { &mut self.cat_third } else { &mut self.cat_first };
            for c in &s.categories {
                *target.entry(c.name()).or_insert(0) += 1;
            }
        }
        self.scripts_total += s.script_hashes.len() as u64;
        self.script_hashes.extend(s.script_hashes.iter().copied());
        self.first_party_inclusions += s.first_party_urls.len() as u32;
        self.third_party_inclusions += s.third_party_domains.len() as u32;
    }

    pub fn table5(&self) -> [(u32, u32); 3] {
        [
            (self.table5_identified[0], self.table5_true[0]),
            (self.table5_identified[1], self.table5_true[1]),
            (self.table5_identified[2], self.table5_true[2]),
        ]
    }
}

/// Recovery and memory statistics for a streamed scan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// A prior checkpoint was found and at least one line survived.
    pub resumed: bool,
    /// Records adopted from the trusted bundle prefix without re-visiting.
    pub records_replayed: u64,
    /// Records flushed to the bundle by this run.
    pub records_flushed: u64,
    /// Checkpoint lines discarded as torn or corrupt.
    pub checkpoint_lines_dropped: u64,
    /// Bundle manifest lines past the checkpointed high-water mark
    /// (unacknowledged appends, discarded on resume).
    pub bundle_tail_dropped: u64,
    /// Sites whose work was lost in the crash and had to be re-visited
    /// (orphaned bundle entries + trusted entries missing their line).
    pub revisits: u64,
    /// High-water mark of completed records simultaneously alive in
    /// memory — bounded by the worker count, not the site count.
    pub peak_records_in_flight: u64,
    /// The bundle was sealed (every rank determined). `false` means a
    /// budget-limited run left work for a future resume.
    pub committed: bool,
}

/// One configured scan session: a live or replayed source, plus an
/// optional streaming bundle sink.
///
/// ```no_run
/// # use gullible::{Scan, ScanConfig};
/// # fn main() -> std::io::Result<()> {
/// let cfg = ScanConfig::new(1_000, 42);
/// // Plain scan, held in memory:
/// let report = Scan::new(cfg).run()?;
/// // Durable scan: every visit is streamed into the bundle at `run_a`;
/// // re-running the same command after a kill resumes it.
/// let streamed = Scan::new(cfg).stream_to("run_a").run()?;
/// // Re-measure the sealed bundle:
/// let replayed = Scan::new(cfg).replay("run_a").run()?;
/// assert_eq!(replayed.replay.unwrap().divergences, 0);
/// # let _ = (report, streamed);
/// # Ok(())
/// # }
/// ```
///
/// `run` returns `Err` only for bundle/checkpoint I/O failures and the
/// two invalid combinations: `replay` with `stream_to`, and
/// `inject_crash` without `stream_to`.
pub struct Scan {
    cfg: ScanConfig,
    replay_dir: Option<PathBuf>,
    stream_dir: Option<PathBuf>,
    crash: Option<CrashPlan>,
}

impl Scan {
    pub fn new(cfg: ScanConfig) -> Scan {
        Scan { cfg, replay_dir: None, stream_dir: None, crash: None }
    }

    /// Re-run the whole measurement pipeline from the sealed bundle at
    /// `dir` instead of generating sites: the recorded scan configuration
    /// is adopted (only `workers` is kept from this scan's config), pages
    /// are served from the archive, and every re-derived outcome is
    /// verified against the recorded one ([`ScanReport::replay`]).
    pub fn replay(mut self, dir: impl Into<PathBuf>) -> Scan {
        self.replay_dir = Some(dir.into());
        self
    }

    /// Crash-consistent streaming: archive the scan into the bundle at
    /// `dir`, flushing every completed record to disk the moment it is
    /// determined and then *dropping it* — peak record memory is bounded
    /// by the worker count, not the site count. The bundle doubles as the
    /// checkpoint: each flushed record is acknowledged by one line in
    /// `<dir>/scan.ckpt` carrying the bundle's high-water mark, so a
    /// killed (or `visit_budget`-limited) crawl resumes by running again
    /// with the same `dir`: it trusts exactly the acknowledged prefix,
    /// discards any torn tail, and re-visits only in-flight sites. The
    /// resumed run's per-site records, tables and telemetry digest are
    /// byte-identical to an uninterrupted run. Once every site is
    /// determined the bundle is sealed with the run's Table 5 and
    /// telemetry digest, and a further run refuses to touch it.
    pub fn stream_to(mut self, dir: impl Into<PathBuf>) -> Scan {
        self.stream_dir = Some(dir.into());
        self
    }

    /// Chaos testing: kill this process (by unwinding with a recognisable
    /// panic — see [`openwpm::catch_crash`]) at the planned kill point
    /// during streaming flushes. Only meaningful with [`Scan::stream_to`];
    /// `run` rejects the combination otherwise.
    pub fn inject_crash(mut self, plan: CrashPlan) -> Scan {
        self.crash = Some(plan);
        self
    }

    /// Execute the session.
    pub fn run(self) -> io::Result<ScanReport> {
        let invalid_input = |msg| Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
        match (self.replay_dir, self.stream_dir) {
            (Some(_), Some(_)) => invalid_input(
                "Scan::replay cannot be combined with Scan::stream_to (a replay re-measures a \
                 sealed bundle; it writes none)",
            ),
            (_, None) if self.crash.is_some() => invalid_input(
                "Scan::inject_crash requires Scan::stream_to (kill points live in the streaming \
                 flush path)",
            ),
            (Some(dir), None) => run_replay(self.cfg.workers, &dir),
            (None, Some(dir)) => run_stream(self.cfg, &dir, self.crash),
            (None, None) => Ok(run_plain(self.cfg)),
        }
    }
}

/// The report of a plain or replayed scan: `sites` holds every completed
/// record, folded once into the table aggregates.
fn collect_sites(
    cfg: &ScanConfig,
    source: &ScanSource,
    capture: bool,
    on_complete: impl Fn(usize, &VisitOutcome<SiteScanRecord>, u32) + Sync,
) -> ScanReport {
    let mut sites = Vec::new();
    let mut aggregates = ScanAggregates::default();
    let (completion, history) =
        visit_sites(cfg, source, capture, Vec::new(), &[], |r| r, on_complete, |r| r, |rec| {
            aggregates.add(&rec);
            sites.push(rec);
        });
    ScanReport {
        n_sites: cfg.n_sites,
        sites,
        completion,
        history,
        aggregates,
        ..ScanReport::default()
    }
}

fn run_plain(cfg: ScanConfig) -> ScanReport {
    collect_sites(&cfg, &ScanSource::live(&cfg), false, |_, _, _| {})
}

fn run_replay(workers: usize, dir: &Path) -> io::Result<ScanReport> {
    let bundle = Arc::new(ReplayBundle::open(dir)?);
    // The recorded experiment defines the configuration; only the degree
    // of parallelism stays the caller's (results are worker-count
    // independent).
    let cfg = bundle.scan_config(workers);
    let verifier = Verifier::new(Arc::clone(&bundle));
    let mut report = collect_sites(&cfg, &ScanSource::Replay(bundle), true, |rank, outcome, attempts| {
        verifier.check(rank, outcome, attempts)
    });
    report.replay = Some(verifier.stats());
    Ok(report)
}

fn run_stream(cfg: ScanConfig, dir: &Path, crash: Option<CrashPlan>) -> io::Result<ScanReport> {
    let n = cfg.n_sites as usize;
    std::fs::create_dir_all(dir)?;
    let ckpt_path = dir.join(STREAM_CHECKPOINT_FILE);

    // Per-visit registry deltas are captured for the checkpoint lines so a
    // resume can restore exactly the metrics the replayed visits emitted.
    // The guard turns capture back off even when an injected crash unwinds
    // through the scan.
    obs::set_scope_metrics(true);
    let _scope_guard = ScopeMetricsGuard;

    let (lines, ckpt_dropped) = match std::fs::read_to_string(&ckpt_path) {
        Ok(c) => load_stream_checkpoint(checkpoint_body(&c, &ckpt_path)?, cfg.n_sites),
        Err(e) if e.kind() == io::ErrorKind::NotFound => (Vec::new(), 0),
        Err(e) => return Err(e),
    };
    let resumed = !lines.is_empty();
    if ckpt_dropped > 0 {
        obs::add("crash.lines_dropped", ckpt_dropped as u64);
    }

    let mut prior: Vec<Option<VisitOutcome<()>>> = (0..n).map(|_| None).collect();
    let mut prior_attempts = vec![0u32; n];
    let mut line_hashes: Vec<Option<u64>> = vec![None; n];
    let mut agg = ScanAggregates::default();
    let mut stream_stats = StreamStats {
        resumed,
        checkpoint_lines_dropped: ckpt_dropped as u64,
        ..StreamStats::default()
    };
    let injector = crash.map(CrashInjector::new);

    let recorder = if resumed {
        // The highest manifest offset any surviving line acknowledged
        // bounds what the bundle is trusted for; everything past it is an
        // unacknowledged (possibly torn) tail.
        let max_hwm = lines.iter().map(|l| l.hwm).max().expect("resumed => non-empty");
        let harvest = harvest_stream(dir, &cfg, max_hwm)?;
        let mut consumed: HashSet<u32> = HashSet::new();
        for line in &lines {
            let Some(entry) = harvest.trusted.get(&line.rank) else {
                return Err(invalid(format!(
                    "{}: checkpoint line for rank {} has no bundle entry inside the trusted \
                     prefix — checkpoint and bundle disagree",
                    dir.display(),
                    line.rank
                )));
            };
            match (&line.failed, entry.status.as_str()) {
                (None, "ok") => {
                    if line.entry_hash != Some(entry.hash) {
                        return Err(invalid(format!(
                            "{}: bundle entry for rank {} does not match its checkpoint line \
                             (entry hash {:016x}, line acknowledges {:016x})",
                            dir.display(),
                            line.rank,
                            entry.hash,
                            line.entry_hash.unwrap_or(0)
                        )));
                    }
                    let rec = decode_site_record(&entry.payload).ok_or_else(|| {
                        invalid(format!(
                            "{}: corrupt site record for rank {} inside the trusted prefix",
                            dir.display(),
                            line.rank
                        ))
                    })?;
                    agg.add(&rec);
                    prior[line.rank as usize] = Some(VisitOutcome::Completed(()));
                }
                (Some(reason), "failed") => {
                    prior[line.rank as usize] = Some(VisitOutcome::Failed {
                        reason: reason.clone(),
                        attempts: line.attempts,
                    });
                }
                (_, other) => {
                    return Err(invalid(format!(
                        "{}: status mismatch for rank {} — checkpoint says {}, bundle entry \
                         says {other}",
                        dir.display(),
                        line.rank,
                        if line.failed.is_some() { "failed" } else { "flushed" },
                    )));
                }
            }
            prior_attempts[line.rank as usize] = line.attempts;
            line_hashes[line.rank as usize] = Some(entry.hash);
            obs::restore_metrics(&line.delta);
            consumed.insert(line.rank);
            stream_stats.records_replayed += 1;
        }
        let revisits = harvest.orphan_ranks.len() as u64
            + harvest.trusted.keys().filter(|r| !consumed.contains(r)).count() as u64;
        stream_stats.bundle_tail_dropped = harvest.tail_dropped;
        stream_stats.revisits = revisits;
        obs::add("crash.resume", 1);
        obs::add("crash.tail_dropped", harvest.tail_dropped);
        obs::add("crash.revisits", revisits);
        obs::emit(
            obs::Event::new(0, "stream_resume")
                .attr("replayed", stream_stats.records_replayed as usize)
                .attr("lines_dropped", ckpt_dropped)
                .attr("tail_dropped", harvest.tail_dropped as usize)
                .attr("revisits", revisits as usize),
        );
        let ckpt = std::fs::OpenOptions::new().append(true).open(&ckpt_path)?;
        StreamRecorder::resume(dir, &cfg, max_hwm, ckpt, line_hashes, injector)?
    } else {
        // Nothing trusted — a fresh directory, or a checkpoint whose every
        // line was torn. Start clean: recreate both files (the bundle too,
        // so a stale partial bundle can't leak in).
        refuse_sealed_dir(dir)?;
        let ckpt = create_stream_checkpoint(&ckpt_path)?;
        StreamRecorder::create(dir, &cfg, ckpt, injector)?
    };

    let agg = Mutex::new(agg);
    let gauge = Arc::new(InFlight::default());
    let flush = |rank: usize, outcome: &VisitOutcome<TrackedRecord>, attempts: u32| {
        // Capture the visit's registry delta first: everything the visit
        // emitted, and none of the flush's own (digest-excluded)
        // bookkeeping below.
        let delta = obs::take_scope_metrics().map(|m| m.encode()).unwrap_or_default();
        match outcome {
            VisitOutcome::Completed(t) => {
                agg.lock().unwrap_or_else(|e| e.into_inner()).add(&t.rec);
                recorder.flush(rank as u32, StreamOutcome::Ok(&t.rec), attempts, &delta);
            }
            VisitOutcome::Failed { reason, .. } => {
                recorder.flush(rank as u32, StreamOutcome::Failed(reason), attempts, &delta);
            }
            VisitOutcome::Interrupted => {}
        }
    };
    let track = |rec| TrackedRecord::new(rec, Arc::clone(&gauge));
    let source = ScanSource::live(&cfg);
    let (mut completion, history) =
        visit_sites(&cfg, &source, true, prior, &prior_attempts, track, flush, |_| (), |()| {});

    completion.checkpoint_lines_dropped = ckpt_dropped;
    let aggregates = agg.into_inner().unwrap_or_else(|e| e.into_inner());
    let (archive_stats, flushed) = recorder.finish(&completion, aggregates.table5())?;
    stream_stats.records_flushed = flushed;
    stream_stats.peak_records_in_flight = gauge.peak.load(Ordering::Relaxed);
    stream_stats.committed = archive_stats.is_some();
    Ok(ScanReport {
        n_sites: cfg.n_sites,
        sites: Vec::new(),
        completion,
        history,
        archive: archive_stats,
        replay: None,
        aggregates,
        stream: Some(stream_stats),
    })
}

struct ScopeMetricsGuard;

impl Drop for ScopeMetricsGuard {
    fn drop(&mut self) {
        obs::set_scope_metrics(false);
    }
}

/// Where a scan's site content comes from: the deterministic generator
/// (live) or a recorded crawl bundle (replay). `visit_sites` is
/// source-agnostic — the supervisor, browser, instruments and detection
/// pipeline run identically either way.
pub(crate) enum ScanSource {
    Live { pop: Population, include_subpages: bool },
    Replay(Arc<ReplayBundle>),
}

impl ScanSource {
    fn live(cfg: &ScanConfig) -> ScanSource {
        ScanSource::Live { pop: cfg.population(), include_subpages: cfg.include_subpages }
    }

    fn meta(&self, rank: u32) -> ItemMeta {
        match self {
            ScanSource::Live { pop, .. } => {
                let plan = pop.plan(rank);
                ItemMeta {
                    label: plan.front_url().to_string(),
                    fault_key: rank as u64,
                    flaky: plan.flaky,
                }
            }
            ScanSource::Replay(bundle) => {
                let visit = &bundle.site(rank).visit;
                ItemMeta {
                    label: self.front_url(rank),
                    fault_key: rank as u64,
                    flaky: visit.flaky,
                }
            }
        }
    }

    fn front_url(&self, rank: u32) -> String {
        match self {
            ScanSource::Live { pop, .. } => pop.plan(rank).front_url().to_string(),
            ScanSource::Replay(bundle) => bundle
                .site(rank)
                .visit
                .pages
                .first()
                .map(|p| p.url.clone())
                .unwrap_or_default(),
        }
    }

    fn site_visit(&self, rank: u32) -> SiteVisit {
        match self {
            ScanSource::Live { pop, include_subpages } => {
                site_visit(&pop.plan(rank), *include_subpages)
            }
            // Script bodies are `Arc<str>`, so cloning a recorded visit is
            // pointer-cheap.
            ScanSource::Replay(bundle) => bundle.site(rank).visit.clone(),
        }
    }
}

/// The supervised visit loop behind every [`Scan`] mode. Each completed
/// record is `wrap`ped for `on_complete`, then `fold`ed down to what the
/// outcome vector keeps: the record itself for plain and replayed scans,
/// `()` for a stream, whose `on_complete` has already flushed it to disk.
/// `keep` receives the kept value of every completed site in rank order;
/// priors (a stream resume's trusted prefix) arrive already folded, with
/// their original attempt counts in `prior_attempts`.
#[allow(clippy::too_many_arguments)]
fn visit_sites<R: Send, T: Send + Clone>(
    cfg: &ScanConfig,
    source: &ScanSource,
    capture: bool,
    prior: Vec<Option<VisitOutcome<T>>>,
    prior_attempts: &[u32],
    wrap: impl Fn(SiteScanRecord) -> R + Sync,
    on_complete: impl Fn(usize, &VisitOutcome<R>, u32) + Sync,
    fold: impl Fn(R) -> T + Sync,
    mut keep: impl FnMut(T),
) -> (CrawlSummary, Vec<CrawlHistoryRecord>) {
    let ranks: Vec<u32> = (0..cfg.n_sites).collect();
    let seed = cfg.seed;
    let interact = cfg.simulate_interaction;
    let phase = obs::phase("scan.visits");
    let crawl = run_supervised_folding(
        ranks,
        cfg.workers,
        cfg.supervisor(),
        |rank: &u32| source.meta(*rank),
        move |worker| {
            // Every worker gets the *same* config seed: per-visit event-id
            // seeds are keyed by site rank (`set_visit_key` below), so a
            // site's records are identical no matter which worker visits
            // it — the property the telemetry determinism tests pin down.
            let mut config = BrowserConfig::scanner(seed);
            config.simulate_interaction = interact;
            Browser::new(config).with_instance(worker as u32)
        },
        move |browser, _idx, rank: &u32| {
            browser.set_visit_key(*rank as u64);
            let visit = source.site_visit(*rank);
            scan_site_visit(browser, &visit, capture).map(&wrap)
        },
        prior,
        on_complete,
        |_, r, _| fold(r),
    );
    drop(phase);
    let _phase = obs::phase("scan.aggregate");
    let mut history = Vec::with_capacity(crawl.outcomes.len());
    for (i, outcome) in crawl.outcomes.into_iter().enumerate() {
        let rank = i as u32;
        let url = source.front_url(rank);
        // Replayed priors report 0 attempts this run; fall back to the
        // checkpointed count so a resumed history matches the original.
        let attempts = if crawl.attempts[i] > 0 {
            crawl.attempts[i]
        } else {
            prior_attempts.get(i).copied().unwrap_or(1)
        };
        history.push(match outcome {
            VisitOutcome::Completed(kept) => {
                keep(kept);
                CrawlHistoryRecord::ok(rank as u64, &url, attempts)
            }
            VisitOutcome::Failed { reason, attempts } => {
                CrawlHistoryRecord::failed(rank as u64, &url, reason.as_str(), attempts)
            }
            VisitOutcome::Interrupted => CrawlHistoryRecord::interrupted(rank as u64, &url),
        });
    }
    (crawl.summary, history)
}

/// Gauge of completed [`SiteScanRecord`]s currently alive in memory.
/// Streaming's core claim — peak record memory is O(workers), not
/// O(sites) — is asserted against `peak` by the chaos bench.
#[derive(Debug, Default)]
pub(crate) struct InFlight {
    cur: AtomicU64,
    pub(crate) peak: AtomicU64,
}

/// A completed record plus its liveness gauge. The `Drop` impl (rather
/// than an explicit decrement in the fold hook) keeps the gauge exact on
/// every exit path — including the supervisor's tab-crash branch, which
/// discards an `Ok` record without ever reaching the fold.
pub(crate) struct TrackedRecord {
    pub(crate) rec: SiteScanRecord,
    gauge: Arc<InFlight>,
}

impl TrackedRecord {
    fn new(rec: SiteScanRecord, gauge: Arc<InFlight>) -> TrackedRecord {
        let cur = gauge.cur.fetch_add(1, Ordering::Relaxed) + 1;
        gauge.peak.fetch_max(cur, Ordering::Relaxed);
        TrackedRecord { rec, gauge }
    }
}

impl Drop for TrackedRecord {
    fn drop(&mut self) {
        self.gauge.cur.fetch_sub(1, Ordering::Relaxed);
    }
}

// --- checkpoint serialisation ---------------------------------------------
//
// A streamed scan acknowledges every bundle append with one line of
// `<dir>/scan.ckpt`. ASCII control characters separate fields (they cannot
// occur in generated domains, URLs or property names): US (\x1f) between
// top-level fields; a site record (the bundle entry payload) uses RS
// (\x1e) between its fields, GS (\x1d) between list elements and FS
// (\x1c) inside pairs.
//
// v3 lines carry six US-separated body fields plus a checksum:
//
//   <rank> US <status> US <attempts> US <payload> US <hwm> US <delta> US <checksum>
//
// where status/payload is one of
//
//   flushed <fnv1a of the bundle entry, 016x>
//   failed  <failure reason>
//
// `hwm` is the bundle-manifest high-water mark (016x) the line
// acknowledges and `delta` the visit's captured registry metrics.
//
// Interrupted sites are not written — resuming re-visits them. A torn
// final line (crawl killed mid-write) fails its checksum and is skipped,
// so that site is simply re-visited too.

const US: char = '\x1f';
const RS: char = '\x1e';
const GS: char = '\x1d';
const FS: char = '\x1c';

/// Checkpoint file format version. Bumped whenever the line encoding
/// changes incompatibly; v2 introduced the header line itself, v3 the
/// high-water-mark and metrics-delta fields that make streaming resume
/// possible. A version mismatch is a hard error — before the header
/// existed, an old-format file would silently parse as "all lines torn"
/// and the crawl would quietly start over, exactly the kind of silent
/// degradation the paper warns about.
pub const CHECKPOINT_FORMAT_VERSION: u32 = 3;

const CHECKPOINT_MAGIC: &str = "gullible-checkpoint v";

fn checkpoint_header() -> String {
    format!("{CHECKPOINT_MAGIC}{CHECKPOINT_FORMAT_VERSION}")
}

/// Validate a checkpoint file's header line and return the body (the
/// site lines). Empty files are fine (fresh checkpoint); a missing or
/// mismatched header is a hard, descriptive error.
fn checkpoint_body<'s>(contents: &'s str, path: &Path) -> std::io::Result<&'s str> {
    if contents.is_empty() {
        return Ok(contents);
    }
    let (first, body) = contents.split_once('\n').unwrap_or((contents, ""));
    let Some(v) = first.strip_prefix(CHECKPOINT_MAGIC) else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "{}: not a v{CHECKPOINT_FORMAT_VERSION} checkpoint (missing \
                 '{CHECKPOINT_MAGIC}N' header) — written by a pre-versioning build? \
                 Delete it or re-crawl with a matching build.",
                path.display()
            ),
        ));
    };
    let version: u32 = v.trim().parse().map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{}: corrupt checkpoint header {first:?}", path.display()),
        )
    })?;
    if version != CHECKPOINT_FORMAT_VERSION {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "{}: checkpoint format v{version} but this build reads \
                 v{CHECKPOINT_FORMAT_VERSION} — resume with the matching build or re-crawl",
                path.display()
            ),
        ));
    }
    Ok(body)
}

fn flags_encode(f: &PageFlags) -> String {
    [f.static_identified, f.static_true, f.dynamic_identified, f.dynamic_true]
        .iter()
        .map(|b| if *b { '1' } else { '0' })
        .collect()
}

fn flags_decode(s: &str) -> Option<PageFlags> {
    let b: Vec<bool> = s
        .chars()
        .map(|c| match c {
            '1' => Some(true),
            '0' => Some(false),
            _ => None,
        })
        .collect::<Option<Vec<bool>>>()?;
    if b.len() != 4 {
        return None;
    }
    Some(PageFlags {
        static_identified: b[0],
        static_true: b[1],
        dynamic_identified: b[2],
        dynamic_true: b[3],
    })
}

fn join_list<T, F: Fn(&T) -> String>(items: &[T], f: F) -> String {
    items.iter().map(f).collect::<Vec<String>>().join(&GS.to_string())
}

fn split_list(s: &str) -> Vec<&str> {
    if s.is_empty() {
        Vec::new()
    } else {
        s.split(GS).collect()
    }
}

/// Serialise a completed site record (the payload of a bundle entry).
pub fn encode_site_record(r: &SiteScanRecord) -> String {
    let fields = [
        r.rank.to_string(),
        r.domain.clone(),
        join_list(&r.categories, |c| c.name().to_string()),
        flags_encode(&r.front),
        flags_encode(&r.site),
        join_list(&r.openwpm_probes, |(p, n)| format!("{p}{FS}{n}")),
        join_list(&r.third_party_domains, |d| d.clone()),
        join_list(&r.first_party_urls, |u| u.clone()),
        join_list(&r.script_hashes, |h| format!("{h:x}")),
    ];
    fields.join(&RS.to_string())
}

/// Inverse of [`encode_site_record`]. `None` on any malformed input.
pub fn decode_site_record(s: &str) -> Option<SiteScanRecord> {
    let f: Vec<&str> = s.split(RS).collect();
    if f.len() != 9 {
        return None;
    }
    Some(SiteScanRecord {
        rank: f[0].parse().ok()?,
        domain: f[1].to_string(),
        categories: split_list(f[2])
            .into_iter()
            .map(Category::from_name)
            .collect::<Option<Vec<Category>>>()?,
        front: flags_decode(f[3])?,
        site: flags_decode(f[4])?,
        openwpm_probes: split_list(f[5])
            .into_iter()
            .map(|pair| {
                let (p, n) = pair.split_once(FS)?;
                Some((p.to_string(), n.to_string()))
            })
            .collect::<Option<Vec<(String, String)>>>()?,
        third_party_domains: split_list(f[6]).into_iter().map(String::from).collect(),
        first_party_urls: split_list(f[7]).into_iter().map(String::from).collect(),
        script_hashes: split_list(f[8])
            .into_iter()
            .map(|h| u64::from_str_radix(h, 16).ok())
            .collect::<Option<Vec<u64>>>()?,
    })
}

/// One streaming checkpoint line acknowledging the bundle append that
/// ended at manifest offset `hwm`, carrying the visit's captured
/// registry-metrics delta.
pub(crate) fn stream_checkpoint_line(
    rank: u32,
    status: &str,
    attempts: u32,
    payload: &str,
    hwm: u64,
    delta: &str,
) -> String {
    let body = format!("{rank}{US}{status}{US}{attempts}{US}{payload}{US}{hwm:016x}{US}{delta}");
    // A torn write can truncate a line where the prefix still *parses*
    // (e.g. mid-way through the metrics delta), so every line carries
    // its own FNV-1a checksum.
    let sum = fnv1a(body.as_bytes());
    format!("{body}{US}{sum:016x}")
}

/// The six body fields of a checksum-verified v3 checkpoint line. None of
/// the payload encodings ever contain US, so a plain split is exact.
struct CheckpointFields<'s> {
    rank: u32,
    status: &'s str,
    attempts: u32,
    payload: &'s str,
    hwm: &'s str,
    delta: &'s str,
}

fn checkpoint_fields(line: &str) -> Option<CheckpointFields<'_>> {
    let (body, sum) = line.rsplit_once(US)?;
    if u64::from_str_radix(sum, 16).ok()? != fnv1a(body.as_bytes()) {
        return None;
    }
    let parts: Vec<&str> = body.split(US).collect();
    let [rank, status, attempts, payload, hwm, delta] = parts.as_slice() else {
        return None;
    };
    Some(CheckpointFields {
        rank: rank.parse().ok()?,
        status,
        attempts: attempts.parse().ok()?,
        payload,
        hwm,
        delta,
    })
}

/// The checkpoint file a streamed scan keeps inside its bundle directory.
pub const STREAM_CHECKPOINT_FILE: &str = "scan.ckpt";

/// One surviving line of a streaming checkpoint.
struct StreamLine {
    rank: u32,
    /// `None` for a flushed (completed) record, `Some` for a typed failure.
    failed: Option<FailureReason>,
    attempts: u32,
    /// The bundle-entry hash a `flushed` line acknowledges.
    entry_hash: Option<u64>,
    /// Manifest high-water mark after this line's append.
    hwm: u64,
    /// Captured registry-metrics delta of the visit.
    delta: String,
}

/// Load a streaming checkpoint body. Lines that are torn, corrupt,
/// out-of-range, of an unknown status, or carry an undecodable metrics delta
/// are dropped and counted — the affected sites are re-visited; nothing
/// is trusted on spec.
fn load_stream_checkpoint(contents: &str, n_sites: u32) -> (Vec<StreamLine>, usize) {
    let mut lines = Vec::new();
    let mut dropped = 0usize;
    for (lineno, line) in contents.lines().enumerate() {
        let parsed = checkpoint_fields(line).and_then(|f| {
            if f.rank >= n_sites {
                return None;
            }
            let hwm = u64::from_str_radix(f.hwm, 16).ok()?;
            obs::decode_scope_metrics(f.delta)?;
            match f.status {
                "flushed" => Some(StreamLine {
                    rank: f.rank,
                    failed: None,
                    attempts: f.attempts,
                    entry_hash: Some(u64::from_str_radix(f.payload, 16).ok()?),
                    hwm,
                    delta: f.delta.to_string(),
                }),
                "failed" => Some(StreamLine {
                    rank: f.rank,
                    failed: Some(FailureReason::decode(f.payload)),
                    attempts: f.attempts,
                    entry_hash: None,
                    hwm,
                    delta: f.delta.to_string(),
                }),
                _ => None,
            }
        });
        match parsed {
            Some(l) => lines.push(l),
            None => {
                dropped += 1;
                obs::add("checkpoint.lines_dropped", 1);
                obs::add("crash.checkpoint.torn", 1);
                obs::emit(
                    obs::Event::new(0, "checkpoint_dropped_line")
                        .attr("line", lineno + 1)
                        .attr("cause", "torn_or_corrupt"),
                );
            }
        }
    }
    (lines, dropped)
}

/// Write the version header to `<path>.tmp`, sync, and rename into
/// place: after a kill at any instant the file either doesn't exist or
/// has a complete, valid header.
fn write_checkpoint_header_atomic(path: &Path) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    let mut f = std::fs::File::create(&tmp)?;
    writeln!(f, "{}", checkpoint_header())?;
    f.sync_all()?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Create (or reset) a streaming checkpoint and open it for appending.
/// Always truncates: this path is only taken when nothing in the
/// directory is trusted, and a stale torn checkpoint must not survive
/// into the fresh run.
fn create_stream_checkpoint(path: &Path) -> std::io::Result<std::fs::File> {
    write_checkpoint_header_atomic(path)?;
    std::fs::OpenOptions::new().append(true).open(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_scan() -> ScanReport {
        Scan::new(ScanConfig { ..ScanConfig::new(800, 11) }).run().expect("scan")
    }

    #[test]
    fn scan_detects_sites_at_paper_like_rates() {
        let report = small_scan();
        let [(_si, st), (_di, dt), (ui, ut)] = report.table5();
        // At n=800 the paper's rates scale to: static true ≈ 127,
        // dynamic true ≈ 134, union true ≈ 150, identified union ≈ 290.
        assert!((90..=175).contains(&st), "static true = {st}");
        assert!((95..=180).contains(&dt), "dynamic true = {dt}");
        assert!((110..=200).contains(&ut), "union true = {ut}");
        assert!(ui > ut, "identified ({ui}) must exceed true ({ut}) — FP classes exist");
    }

    #[test]
    fn static_and_dynamic_have_exclusive_findings() {
        let report = small_scan();
        let static_only =
            report.count(|_, site| site.static_true && !site.dynamic_true);
        let dynamic_only =
            report.count(|_, site| site.dynamic_true && !site.static_true);
        assert!(static_only > 0, "hover-gated detectors must be static-only");
        assert!(dynamic_only > 0, "constructed probes must be dynamic-only");
    }

    #[test]
    fn subpages_increase_detection() {
        let report = small_scan();
        let front = report.count(|front, _| front.union_true());
        let site = report.count(|_, site| site.union_true());
        assert!(site > front, "subpage scan must add detector sites: {front} vs {site}");
        // Paper: ≥ 37% more sites with active (dynamic) detectors.
        let front_dyn = report.count(|front, _| front.dynamic_true);
        let site_dyn = report.count(|_, site| site.dynamic_true);
        assert!(
            site_dyn as f64 >= front_dyn as f64 * 1.15,
            "dynamic uplift too small: {front_dyn} -> {site_dyn}"
        );
    }

    #[test]
    fn openwpm_specific_probes_found() {
        let report = small_scan();
        let t6 = report.table6();
        // cheqzone is by far the largest provider (331/100K ⇒ ~2-3 at 800).
        assert!(
            t6.contains_key("cheqzone.com"),
            "providers found: {:?}",
            t6.keys().collect::<Vec<_>>()
        );
        let cheq = &t6["cheqzone.com"];
        assert!(cheq.contains_key("jsInstruments"), "cheq probes: {cheq:?}");
    }

    #[test]
    fn third_party_providers_ranked_with_yandex_on_top() {
        let report = small_scan();
        let t7 = report.table7();
        assert!(!t7.is_empty());
        // yandex.ru holds ~18% of inclusions — it must rank in the top 3.
        let top3: Vec<&str> = t7.iter().take(3).map(|(d, _)| d.as_str()).collect();
        assert!(top3.contains(&"yandex.ru"), "top3: {top3:?}");
    }

    #[test]
    fn first_party_clusters_match_table12_patterns() {
        let report = small_scan();
        let t12 = report.table12();
        let total: u32 = t12.values().sum();
        // 3,867/100K ⇒ ~31 at n=800.
        assert!((15..=50).contains(&total), "first-party sites = {total}, {t12:?}");
        assert!(t12.contains_key("Akamai") || t12.contains_key("Incapsula"), "{t12:?}");
    }

    #[test]
    fn first_party_origin_classifier() {
        assert_eq!(first_party_origin_of("https://a.com/akam/11/pixel"), "Akamai");
        assert_eq!(
            first_party_origin_of("https://a.com/_Incapsula_Resource?x=1"),
            "Incapsula"
        );
        assert_eq!(
            first_party_origin_of("https://a.com/cdn-cgi/bm/cv/2172558837/api.js"),
            "Cloudflare"
        );
        assert_eq!(first_party_origin_of("https://a.com/abcdefgh/init.js"), "PerimeterX");
        assert_eq!(
            first_party_origin_of(&format!("https://a.com/assets/{:032x}", 0xabcdu64)),
            "Unknown"
        );
        assert_eq!(first_party_origin_of("https://a.com/js/bot-check.js"), "SelfBuilt");
    }

    #[test]
    fn interaction_surfaces_hover_gated_detectors_dynamically() {
        // Ablation: an HLISA-style interacting crawl executes the
        // hover-gated probes that the paper's non-interacting scan could
        // only find statically.
        let passive = Scan::new(ScanConfig::new(600, 11)).run().expect("scan");
        let active = Scan::new(ScanConfig {
            simulate_interaction: true,
            ..ScanConfig::new(600, 11)
        }).run().expect("scan");
        let passive_dyn = passive.count(|_, site| site.dynamic_true);
        let active_dyn = active.count(|_, site| site.dynamic_true);
        assert!(
            active_dyn > passive_dyn,
            "interaction must add dynamic findings: {passive_dyn} -> {active_dyn}"
        );
        // Static findings are unaffected by interaction.
        assert_eq!(
            passive.count(|_, site| site.static_true),
            active.count(|_, site| site.static_true)
        );
    }

    #[test]
    fn script_stats_count_collected_and_unique() {
        let report = small_scan();
        let (total, unique) = report.script_stats();
        assert!(total > 0);
        assert!(unique > 0 && unique <= total);
        // Shared third-party detector bodies dedupe heavily, per-site
        // scripts stay distinct-ish.
        assert!(unique < total, "shared provider scripts must dedupe");
    }

    #[test]
    fn rank_buckets_cover_all_sites() {
        let report = small_scan();
        let buckets = report.rank_buckets(100);
        assert_eq!(buckets.len(), 8);
        let front_static_total: u32 = buckets.iter().map(|b| b[0]).sum();
        assert_eq!(front_static_total, report.count(|front, _| front.static_true));
    }

    #[test]
    fn clean_scan_has_full_coverage_and_ok_history() {
        let report = small_scan();
        assert_eq!(report.completion.completed, 800);
        assert_eq!(report.completion.failed, 0);
        assert_eq!(report.completion.completion_rate(), 1.0);
        assert_eq!(report.history.len(), 800);
        assert!(report
            .history
            .iter()
            .all(|h| h.status == openwpm::CrawlStatus::Ok && h.attempts == 1));
        assert!(report.coverage_line().contains("800/800"));
    }

    #[test]
    fn faulty_scan_degrades_gracefully_and_reports_failures() {
        let cfg = ScanConfig {
            faults: FaultPlan::adversarial(21),
            ..ScanConfig::new(400, 55)
        };
        let report = Scan::new(cfg).run().expect("scan");
        assert_eq!(report.completion.total, 400);
        assert_eq!(report.sites.len(), report.completion.completed);
        assert_eq!(report.history.len(), 400);
        // Failed sites appear in history with a typed reason.
        for h in &report.history {
            if h.status == openwpm::CrawlStatus::Failed {
                assert!(FailureReason::parse(&h.error).is_some(), "reason {:?}", h.error);
                assert_eq!(h.attempts, cfg.retry.max_attempts);
            }
        }
        assert!(report.completion.completion_rate() > 0.9);
    }

    #[test]
    fn faulty_scan_is_deterministic_across_worker_counts() {
        let base = ScanConfig {
            faults: FaultPlan::adversarial(5),
            ..ScanConfig::new(300, 9)
        };
        let a = Scan::new(ScanConfig { workers: 1, ..base }).run().expect("scan");
        let b = Scan::new(ScanConfig { workers: 4, ..base }).run().expect("scan");
        assert_eq!(a.completion, b.completion);
        assert_eq!(a.history, b.history);
        assert_eq!(a.table5(), b.table5());
        assert_eq!(a.table12(), b.table12());
        // The surviving record set is identical site-for-site in the
        // fields the aggregates read (event-id seeds may differ with
        // worker count; classification flags are robust to that).
        assert_eq!(a.sites.len(), b.sites.len());
        for (x, y) in a.sites.iter().zip(&b.sites) {
            assert_eq!(x.rank, y.rank);
            assert_eq!(x.front, y.front);
            assert_eq!(x.site, y.site);
            assert_eq!(x.third_party_domains, y.third_party_domains);
            assert_eq!(x.first_party_urls, y.first_party_urls);
        }
    }

    #[test]
    fn site_record_roundtrips_through_checkpoint_encoding() {
        let report = small_scan();
        // Exercise a spread of records including detector-rich ones.
        for rec in report.sites.iter().take(200) {
            let enc = encode_site_record(rec);
            let dec = decode_site_record(&enc).expect("roundtrip decode");
            assert_eq!(dec, *rec);
        }
    }

    fn arbitrary_record(rng: &mut proplite::Rng) -> SiteScanRecord {
        let flags = |rng: &mut proplite::Rng| PageFlags {
            static_identified: rng.bool(),
            static_true: rng.bool(),
            dynamic_identified: rng.bool(),
            dynamic_true: rng.bool(),
        };
        let cats = Category::all();
        SiteScanRecord {
            rank: rng.u32_in(0, 100_000),
            domain: format!("{}.com", rng.ascii(1, 24)),
            categories: (0..rng.usize_in(0, 3))
                .map(|_| cats[rng.usize_in(0, cats.len() - 1)])
                .collect(),
            front: flags(rng),
            site: flags(rng),
            openwpm_probes: (0..rng.usize_in(0, 4))
                .map(|_| (rng.ascii(1, 16), rng.ascii(1, 16)))
                .collect(),
            third_party_domains: (0..rng.usize_in(0, 5)).map(|_| rng.ascii(1, 20)).collect(),
            first_party_urls: (0..rng.usize_in(0, 3))
                .map(|_| format!("https://{}/{}.js", rng.ascii(1, 12), rng.ascii(1, 12)))
                .collect(),
            script_hashes: (0..rng.usize_in(0, 8)).map(|_| rng.next_u64()).collect(),
        }
    }

    /// Property: checkpoint serialisation round-trips arbitrary scan
    /// records and whole streaming checkpoint lines exactly; garbage and
    /// torn lines are rejected.
    #[test]
    fn checkpoint_encoding_roundtrips_arbitrary_records() {
        proplite::run_cases(300, 0xC4EC, |rng| {
            let rec = arbitrary_record(rng);
            let encoded = encode_site_record(&rec);
            let decoded = decode_site_record(&encoded).expect("encoded record must decode");
            assert_eq!(decoded, rec);

            let rank = rng.u32_in(0, 100_000);
            let attempts = rng.u32_in(1, 5);
            let hwm = rng.next_u64();
            let entry_hash = format!("{:016x}", fnv1a(encoded.as_bytes()));
            let line = stream_checkpoint_line(rank, "flushed", attempts, &entry_hash, hwm, "");
            let f = checkpoint_fields(&line).expect("line must parse");
            assert_eq!(
                (f.rank, f.status, f.attempts, f.payload, f.hwm, f.delta),
                (rank, "flushed", attempts, entry_hash.as_str(), format!("{hwm:016x}").as_str(), "")
            );
            let torn = &line[..rng.usize_in(0, line.len() - 1)];
            assert!(checkpoint_fields(torn).is_none(), "torn line {torn:?} must not parse");
        });
        assert!(checkpoint_fields("").is_none());
        assert!(checkpoint_fields("garbage").is_none());
    }

    #[test]
    fn stream_checkpoint_load_counts_bad_lines_and_out_of_range_ranks() {
        let good = stream_checkpoint_line(4, "flushed", 1, &format!("{:016x}", 7u64), 0x40, "");
        let failed = stream_checkpoint_line(6, "failed", 3, "panic", 0x80, "");
        let out_of_range = stream_checkpoint_line(500, "failed", 3, "panic", 0xc0, "");
        let unknown_status = stream_checkpoint_line(5, "ok", 1, "payload", 0xd0, "");
        let torn = &good[..good.len() - 3];
        let contents = format!("{good}\nnot a line\n{failed}\n{out_of_range}\n{unknown_status}\n{torn}\n");
        let (lines, dropped) = load_stream_checkpoint(&contents, 20);
        let ranks: Vec<u32> = lines.iter().map(|l| l.rank).collect();
        assert_eq!(ranks, vec![4, 6]);
        assert_eq!((lines[0].entry_hash, lines[0].hwm, lines[0].attempts), (Some(7), 0x40, 1));
        assert_eq!(lines[1].failed, Some(FailureReason::Panic));
        assert_eq!(dropped, 4, "garbage, out-of-range, unknown-status and torn lines must be counted");
    }

    #[test]
    fn dropped_checkpoint_lines_surface_on_the_coverage_line() {
        let mut summary = CrawlSummary {
            total: 10,
            completed: 10,
            checkpoint_lines_dropped: 3,
            ..Default::default()
        };
        assert!(
            summary.coverage_line().ends_with("; 3 checkpoint lines dropped"),
            "{}",
            summary.coverage_line()
        );
        summary.checkpoint_lines_dropped = 0;
        assert!(!summary.coverage_line().contains("checkpoint"));
    }
}
