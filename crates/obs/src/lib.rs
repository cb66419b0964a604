//! Observability for MC-Checker: spans, metrics, and leveled logging.
//!
//! The paper's evaluation is built on *measured* claims — per-phase
//! analysis cost and profiling overhead (Table 3) — so the tool must be
//! able to measure itself. This crate provides the three primitives the
//! rest of the workspace threads through every layer:
//!
//! * **Spans** — [`RecorderHandle::span`] returns a guard that records
//!   name, start, duration, thread, and parent into the recorder when
//!   dropped. The span tree exports as Chrome/Perfetto `trace_event`
//!   JSON via [`RecorderHandle::to_chrome_trace`].
//! * **Metrics** — monotonic counters ([`RecorderHandle::add`]) and
//!   fixed-bucket histograms ([`RecorderHandle::observe`]). A
//!   [`Snapshot`] is deterministic: every name the pipeline emits is
//!   derived from the trace content, never from scheduling, so snapshots
//!   are byte-identical from run to run. Durations deliberately live
//!   only in spans, which are excluded from the snapshot.
//! * **Logging** — the [`log!`] macro, leveled and gated by the
//!   `MCC_LOG` environment variable (off by default, so test output
//!   stays clean).
//!
//! The whole crate is zero-dependency (std only) and cheap to disable:
//! [`RecorderHandle::disabled`] carries no allocation and every
//! operation on it is a single `Option` check — the no-op path the
//! `mcc overhead` report bounds at <5% of analysis time.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Spans kept per recorder before further spans are counted but not
/// stored — a bound so a long-running daemon cannot grow without limit.
pub const MAX_SPANS: usize = 1 << 16;

/// Histogram bucket upper bounds (inclusive, `le`); one overflow bucket
/// follows. Powers of four cover one event to tens of thousands.
pub const HIST_BOUNDS: [u64; 9] = [1, 4, 16, 64, 256, 1024, 4096, 16384, 65536];

/// Well-known counter names for the durability and recovery pipeline.
///
/// Counters are created on first use by name, so nothing *requires*
/// these constants — but the retry/recovery/corruption counters are
/// asserted on by tests and scraped by the chaos-smoke CI job, so their
/// spellings are pinned here in one place instead of scattered across
/// call sites.
pub mod names {
    /// Wire frames rejected for a CRC32 mismatch.
    pub const FRAMES_CORRUPT: &str = "serve_frames_corrupt_total";
    /// Durable sessions parked on disconnect, awaiting a `Resume`.
    pub const SESSIONS_PARKED: &str = "serve_sessions_parked_total";
    /// Parked sessions successfully resumed by a reconnecting client.
    pub const SESSIONS_RESUMED: &str = "serve_sessions_resumed_total";
    /// Sessions rebuilt from journals at daemon startup (`--recover`).
    pub const SESSIONS_RECOVERED: &str = "serve_sessions_recovered_total";
    /// Already-ingested events skipped during an idempotent re-send.
    pub const EVENTS_DUPLICATE: &str = "serve_events_duplicate_total";
    /// Journals whose torn tail was dropped during recovery.
    pub const JOURNAL_TORN: &str = "serve_journal_torn_total";
    /// Journal files recovery could not replay at all.
    pub const JOURNAL_UNREADABLE: &str = "serve_journal_unreadable_total";
    /// Parked sessions that outlived the resume grace and were salvaged.
    pub const SESSIONS_SWEPT: &str = "serve_sessions_swept_total";

    // -- resource governance (admission / quotas / shedding) --

    /// `Hello`s refused by admission control (session cap or pressure).
    pub const HELLOS_BUSY: &str = "serve_hellos_busy_total";
    /// Sessions force-evicted by the supervisor under Critical pressure.
    pub const SESSIONS_SHED: &str = "serve_sessions_shed_total";
    /// Sessions degraded-and-evicted for exceeding a per-session quota.
    pub const QUOTA_EVICTIONS: &str = "serve_quota_evictions_total";
    /// Ingest pauses injected by the token-bucket event-rate limiter.
    pub const THROTTLE_STALLS: &str = "serve_throttle_stalls_total";

    // -- hot-path latency histograms (values in microseconds) --

    /// Ingest→ack latency: first unacked event arrival to the ack write.
    pub const INGEST_ACK_LATENCY_US: &str = "serve_ingest_ack_latency_us";
    /// Duration of one journal fsync performed for an ack.
    pub const JOURNAL_FSYNC_US: &str = "serve_journal_fsync_us";
    /// Duration of one streaming region flush (boundary analysis).
    pub const REGION_FLUSH_US: &str = "stream_region_flush_us";
    /// First event arrival to first finding emission, per session.
    pub const FIRST_FINDING_LATENCY_US: &str = "stream_first_finding_latency_us";

    // -- recovery pipeline (emitted by `mcc-core` recovery analysis) --

    /// Events quarantined because their rank failed mid-epoch.
    pub const RECOVERED_QUARANTINED: &str = "recovered_quarantined_events_total";
    /// Ghost synchronizations synthesized to close orphaned epochs.
    pub const RECOVERED_GHOST_SYNC: &str = "recovered_ghost_sync_total";
    /// Ranks observed to have failed during a recovered run.
    pub const RECOVERED_FAILED_RANKS: &str = "recovered_failed_ranks_total";
    /// Findings carrying Recovered (not Complete) confidence.
    pub const FINDINGS_RECOVERED: &str = "findings_recovered_confidence_total";

    // -- schedule exploration (`mcc explore`) --

    /// Schedules actually executed by the explorer.
    pub const EXPLORE_SCHEDULES_RUN: &str = "explore_schedules_run_total";
    /// Schedules pruned by sleep-set partial-order reduction.
    pub const EXPLORE_SCHEDULES_PRUNED: &str = "explore_schedules_pruned_total";
    /// Schedules skipped because their fingerprint was already seen.
    pub const EXPLORE_SCHEDULES_DEDUPED: &str = "explore_schedules_deduped_total";

    // -- binary codec --

    /// Frames encoded through the unified codec API.
    pub const CODEC_ENCODE_FRAMES: &str = "codec_encode_frames_total";
    /// Bytes produced by codec encodes.
    pub const CODEC_ENCODE_BYTES: &str = "codec_encoded_bytes_total";
    /// Frames decoded through the unified codec API.
    pub const CODEC_DECODE_FRAMES: &str = "codec_decode_frames_total";
    /// Bytes consumed by codec decodes.
    pub const CODEC_DECODE_BYTES: &str = "codec_decoded_bytes_total";
}

/// One finished span, as stored by the recorder.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Recorder-unique span id.
    pub id: u64,
    /// Id of the enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Phase name, e.g. `check.preprocess`.
    pub name: &'static str,
    /// Small dense thread id (not the OS tid).
    pub tid: u32,
    /// Start, microseconds since the recorder was created.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

#[derive(Debug, Clone, Default)]
struct Hist {
    buckets: [u64; HIST_BOUNDS.len() + 1],
    sum: u64,
    count: u64,
}

impl Hist {
    fn observe(&mut self, v: u64) {
        let idx = HIST_BOUNDS.iter().position(|&b| v <= b).unwrap_or(HIST_BOUNDS.len());
        self.buckets[idx] += 1;
        self.sum += v;
        self.count += 1;
    }
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
    hists: Mutex<BTreeMap<&'static str, Hist>>,
    next_span: AtomicU64,
    spans_dropped: AtomicU64,
    ops: AtomicU64,
    /// Trace id for cross-process correlation; 0 = unset.
    trace_id: AtomicU64,
    /// span id → (remote trace id, remote parent span id).
    remote_links: Mutex<BTreeMap<u64, (u64, u64)>>,
}

impl Inner {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
            hists: Mutex::new(BTreeMap::new()),
            next_span: AtomicU64::new(1),
            spans_dropped: AtomicU64::new(0),
            ops: AtomicU64::new(0),
            trace_id: AtomicU64::new(0),
            remote_links: Mutex::new(BTreeMap::new()),
        }
    }

    fn lock_spans(&self) -> std::sync::MutexGuard<'_, Vec<SpanRecord>> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_counters(&self) -> std::sync::MutexGuard<'_, BTreeMap<&'static str, u64>> {
        self.counters.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_hists(&self) -> std::sync::MutexGuard<'_, BTreeMap<&'static str, Hist>> {
        self.hists.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_remote_links(&self) -> std::sync::MutexGuard<'_, BTreeMap<u64, (u64, u64)>> {
        self.remote_links.lock().unwrap_or_else(|e| e.into_inner())
    }
}

static NEXT_TID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// Stack of (recorder identity, span id) for parent attribution.
    static SPAN_STACK: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

fn current_tid() -> u32 {
    TID.with(|t| *t)
}

/// A handle onto a recorder — or onto nothing.
///
/// Cloning is cheap (an `Arc` bump); all clones feed the same recorder.
/// The [`disabled`](RecorderHandle::disabled) handle makes every
/// operation a no-op behind one branch, which is how instrumentation is
/// "compiled out" at runtime without any cfg machinery.
#[derive(Debug, Clone, Default)]
pub struct RecorderHandle(Option<Arc<Inner>>);

impl RecorderHandle {
    /// A live recorder.
    pub fn enabled() -> Self {
        Self(Some(Arc::new(Inner::new())))
    }

    /// The no-op handle: every span/counter call is a single branch.
    pub fn disabled() -> Self {
        Self(None)
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Opens a span; the returned guard records it when dropped.
    #[must_use = "a span measures the scope of its guard"]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let Some(inner) = &self.0 else {
            return SpanGuard { inner: None, name, id: 0, start: None };
        };
        inner.ops.fetch_add(1, Ordering::Relaxed);
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        let key = Arc::as_ptr(inner) as usize;
        SPAN_STACK.with(|s| s.borrow_mut().push((key, id)));
        SpanGuard { inner: Some(Arc::clone(inner)), name, id, start: Some(Instant::now()) }
    }

    /// Adds `n` to the named counter.
    pub fn add(&self, name: &'static str, n: u64) {
        if let Some(inner) = &self.0 {
            inner.ops.fetch_add(1, Ordering::Relaxed);
            *inner.lock_counters().entry(name).or_insert(0) += n;
        }
    }

    /// Records one observation into the named histogram.
    pub fn observe(&self, name: &'static str, v: u64) {
        if let Some(inner) = &self.0 {
            inner.ops.fetch_add(1, Ordering::Relaxed);
            inner.lock_hists().entry(name).or_default().observe(v);
        }
    }

    /// Instrumentation operations performed so far (spans + counter adds
    /// + histogram observations). Feeds the `mcc overhead` bound.
    pub fn ops(&self) -> u64 {
        self.0.as_ref().map_or(0, |i| i.ops.load(Ordering::Relaxed))
    }

    /// Sets the cross-process trace id exported in the Chrome trace and
    /// propagated over the wire via the `tracectx` capability.
    pub fn set_trace_id(&self, id: u64) {
        if let Some(inner) = &self.0 {
            inner.trace_id.store(id, Ordering::Relaxed);
        }
    }

    /// The trace id, if one was set (0 counts as unset).
    pub fn trace_id(&self) -> Option<u64> {
        let id = self.0.as_ref()?.trace_id.load(Ordering::Relaxed);
        (id != 0).then_some(id)
    }

    /// Lazily assigns a process-unique trace id (wall clock ⊕ pid) and
    /// returns it. Idempotent: later calls return the first id.
    pub fn ensure_trace_id(&self) -> Option<u64> {
        let inner = self.0.as_ref()?;
        let cur = inner.trace_id.load(Ordering::Relaxed);
        if cur != 0 {
            return Some(cur);
        }
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5EED);
        let id = (nanos ^ (std::process::id() as u64) << 32).max(1);
        match inner.trace_id.compare_exchange(0, id, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => Some(id),
            Err(prev) => Some(prev),
        }
    }

    /// Links a local span to a parent span in another process's trace.
    /// The link is exported in the span's Chrome-trace `args` as
    /// `remoteTrace`/`remoteParent`, which `mcc trace-merge` rewrites
    /// into a real parent edge.
    pub fn link_remote(&self, span_id: u64, remote_trace: u64, remote_parent: u64) {
        if let Some(inner) = &self.0 {
            if span_id != 0 {
                inner.lock_remote_links().insert(span_id, (remote_trace, remote_parent));
            }
        }
    }

    /// A deterministic snapshot of counters and histograms. Empty for a
    /// disabled handle.
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.0 else { return Snapshot::default() };
        let counters = inner.lock_counters().iter().map(|(k, v)| (k.to_string(), *v)).collect();
        let hists = inner
            .lock_hists()
            .iter()
            .map(|(k, h)| {
                (
                    k.to_string(),
                    HistSnapshot {
                        buckets: HIST_BOUNDS
                            .iter()
                            .copied()
                            .zip(h.buckets.iter().copied())
                            .collect(),
                        overflow: h.buckets[HIST_BOUNDS.len()],
                        sum: h.sum,
                        count: h.count,
                    },
                )
            })
            .collect();
        Snapshot { counters, hists }
    }

    /// All finished spans, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.0.as_ref().map_or_else(Vec::new, |i| i.lock_spans().clone())
    }

    /// Spans that were finished but not stored because [`MAX_SPANS`] was
    /// reached.
    pub fn spans_dropped(&self) -> u64 {
        self.0.as_ref().map_or(0, |i| i.spans_dropped.load(Ordering::Relaxed))
    }

    /// Aggregates spans by name: (name, count, total µs, max µs), sorted
    /// by name.
    pub fn span_summary(&self) -> Vec<SpanAgg> {
        let mut agg: BTreeMap<&'static str, SpanAgg> = BTreeMap::new();
        for s in self.spans() {
            let e = agg.entry(s.name).or_insert(SpanAgg {
                name: s.name,
                count: 0,
                total_us: 0,
                max_us: 0,
            });
            e.count += 1;
            e.total_us += s.dur_us;
            e.max_us = e.max_us.max(s.dur_us);
        }
        agg.into_values().collect()
    }

    /// Renders the recorder as a Chrome/Perfetto `trace_event` document.
    ///
    /// The document is a JSON object with a `traceEvents` array of
    /// complete (`"ph":"X"`) events — timestamps and durations in
    /// microseconds — plus a `metrics` object carrying the deterministic
    /// counter snapshot, which Perfetto ignores but CI baselines read.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",");
        if let Some(id) = self.trace_id() {
            out.push_str(&format!("\"traceId\":{id},"));
        }
        out.push_str("\"traceEvents\":[");
        let links = self.0.as_ref().map_or_else(BTreeMap::new, |i| i.lock_remote_links().clone());
        for (i, s) in self.spans().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let remote = links.get(&s.id).map_or_else(String::new, |(t, p)| {
                format!(",\"remoteTrace\":{t},\"remoteParent\":{p}")
            });
            out.push_str(&format!(
                "{{\"name\":{},\"cat\":\"mcc\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{}{}}}}}",
                json_string(s.name),
                s.start_us,
                s.dur_us,
                s.tid,
                s.id,
                s.parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
                remote,
            ));
        }
        out.push_str("],\"metrics\":{");
        let snap = self.snapshot();
        let mut first = true;
        for (name, v) in &snap.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("{}:{v}", json_string(name)));
        }
        for (name, h) in &snap.hists {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{}:{{\"sum\":{},\"count\":{}}}",
                json_string(&format!("{name}_hist")),
                h.sum,
                h.count
            ));
        }
        out.push_str("}}");
        out
    }
}

/// Aggregate of all spans sharing a name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanAgg {
    /// The span name.
    pub name: &'static str,
    /// How many spans carried it.
    pub count: u64,
    /// Total duration, microseconds.
    pub total_us: u64,
    /// Longest single span, microseconds.
    pub max_us: u64,
}

/// Guard for one open span; records the span into its recorder on drop.
pub struct SpanGuard {
    inner: Option<Arc<Inner>>,
    name: &'static str,
    id: u64,
    start: Option<Instant>,
}

impl SpanGuard {
    /// The span's recorder-unique id (0 on a disabled handle) — what a
    /// client sends over the wire as the remote parent for the daemon's
    /// session span.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else { return };
        let key = Arc::as_ptr(&inner) as usize;
        let parent = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&e| e == (key, self.id)) {
                stack.remove(pos);
            }
            stack.iter().rev().find(|&&(k, _)| k == key).map(|&(_, id)| id)
        });
        let start = self.start.expect("enabled span has a start");
        let record = SpanRecord {
            id: self.id,
            parent,
            name: self.name,
            tid: current_tid(),
            start_us: start.duration_since(inner.epoch).as_micros() as u64,
            dur_us: start.elapsed().as_micros() as u64,
        };
        let mut spans = inner.lock_spans();
        if spans.len() < MAX_SPANS {
            spans.push(record);
        } else {
            drop(spans);
            inner.spans_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One histogram, frozen.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// `(upper bound, observations in bucket)`, non-cumulative.
    pub buckets: Vec<(u64, u64)>,
    /// Observations above the last bound.
    pub overflow: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

impl HistSnapshot {
    /// An upper-bound estimate of the `q`-quantile (0.0 ≤ q ≤ 1.0): the
    /// `le` bound of the bucket the quantile falls in, or `u64::MAX` when
    /// it lands in the overflow bucket. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for &(le, n) in &self.buckets {
            cum += n;
            if cum >= rank {
                return le;
            }
        }
        u64::MAX
    }
}

/// A frozen, deterministic view of a recorder's counters and histograms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter name → value, sorted by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram name → frozen histogram, sorted by name.
    pub hists: BTreeMap<String, HistSnapshot>,
}

impl Snapshot {
    /// Renders the snapshot as Prometheus text exposition. Counter and
    /// histogram names are prefixed `mcc_`; output is sorted by name and
    /// therefore byte-stable for a given set of values.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("# TYPE mcc_{name} counter\nmcc_{name} {v}\n"));
        }
        for (name, h) in &self.hists {
            out.push_str(&format!("# TYPE mcc_{name} histogram\n"));
            let mut cum = 0u64;
            for &(le, n) in &h.buckets {
                cum += n;
                out.push_str(&format!("mcc_{name}_bucket{{le=\"{le}\"}} {cum}\n"));
            }
            cum += h.overflow;
            out.push_str(&format!("mcc_{name}_bucket{{le=\"+Inf\"}} {cum}\n"));
            out.push_str(&format!("mcc_{name}_sum {}\n", h.sum));
            out.push_str(&format!("mcc_{name}_count {}\n", h.count));
        }
        out
    }
}

/// Renders one gauge line in Prometheus text exposition (for values that
/// are not monotonic recorder counters, e.g. live session counts).
pub fn render_gauge(name: &str, value: u64) -> String {
    format!("# TYPE mcc_{name} gauge\nmcc_{name} {value}\n")
}

// ---------------------------------------------------------------------
// Per-session flight recorder.

/// Default capacity of a [`FlightRecorder`] ring.
pub const FLIGHT_RECORDER_CAP: usize = 256;

/// One flight-recorder entry: a timestamped state transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecord {
    /// Monotonic sequence number (never wraps; gaps mean evicted entries).
    pub seq: u64,
    /// Microseconds since the recorder was created.
    pub ts_us: u64,
    /// Short stable kind, e.g. `frame`, `ack`, `evict`, `park`.
    pub kind: &'static str,
    /// Free-form detail for the kind (already formatted).
    pub detail: String,
}

/// A fixed-size ring buffer of session state transitions, kept per
/// session and dumped as JSONL only on salvage/error/`Gone` — postmortem
/// detail without always-on logging. Not thread-safe by itself: each
/// session owns one and records from its connection thread.
#[derive(Debug)]
pub struct FlightRecorder {
    epoch: Instant,
    cap: usize,
    next_seq: u64,
    ring: std::collections::VecDeque<FlightRecord>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::with_capacity(FLIGHT_RECORDER_CAP)
    }
}

impl FlightRecorder {
    /// A recorder holding at most `cap` entries (oldest evicted first).
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            epoch: Instant::now(),
            cap: cap.max(1),
            next_seq: 0,
            ring: std::collections::VecDeque::new(),
        }
    }

    /// Appends one record, evicting the oldest if the ring is full.
    pub fn record(&mut self, kind: &'static str, detail: impl Into<String>) {
        if self.ring.len() == self.cap {
            self.ring.pop_front();
        }
        self.ring.push_back(FlightRecord {
            seq: self.next_seq,
            ts_us: self.epoch.elapsed().as_micros() as u64,
            kind,
            detail: detail.into(),
        });
        self.next_seq += 1;
    }

    /// Records kept (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total records ever appended, including evicted ones.
    pub fn total_recorded(&self) -> u64 {
        self.next_seq
    }

    /// Renders the ring as JSONL, one `{"seq","ts_us","kind","detail"}`
    /// object per line, oldest first.
    pub fn dump_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.ring {
            out.push_str(&format!(
                "{{\"seq\":{},\"ts_us\":{},\"kind\":{},\"detail\":{}}}\n",
                r.seq,
                r.ts_us,
                json_string(r.kind),
                json_string(&r.detail)
            ));
        }
        out
    }
}

static GLOBAL: Mutex<Option<RecorderHandle>> = Mutex::new(None);

/// Installs a process-global recorder, used by layers without an
/// explicit handle (the mpi-sim runner, profiler trace IO, bench bins).
pub fn set_global(handle: RecorderHandle) {
    *GLOBAL.lock().unwrap_or_else(|e| e.into_inner()) = Some(handle);
}

/// The process-global recorder; disabled unless [`set_global`] ran.
pub fn global() -> RecorderHandle {
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner()).clone().unwrap_or_default()
}

// ---------------------------------------------------------------------
// Leveled logging, gated by MCC_LOG.

/// Diagnostic severity for [`log!`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unconditionally interesting failures.
    Error = 1,
    /// Degraded-but-continuing situations.
    Warn = 2,
    /// Lifecycle milestones.
    Info = 3,
    /// Per-frame / per-phase chatter.
    Debug = 4,
}

/// Parses an `MCC_LOG` value into a maximum enabled level (0 = off).
pub fn parse_level(s: &str) -> u8 {
    match s.trim().to_ascii_lowercase().as_str() {
        "" | "0" | "off" | "none" => 0,
        "error" => 1,
        "warn" | "warning" => 2,
        "info" | "1" => 3,
        "debug" | "trace" | "all" => 4,
        _ => 2,
    }
}

fn max_level() -> u8 {
    static LEVEL: OnceLock<u8> = OnceLock::new();
    *LEVEL.get_or_init(|| parse_level(&std::env::var("MCC_LOG").unwrap_or_default()))
}

/// Whether messages at `level` are currently emitted.
pub fn log_enabled(level: Level) -> bool {
    level as u8 <= max_level()
}

/// Emits one structured log line to stderr. Use through [`log!`], which
/// skips the formatting entirely when the level is off.
pub fn log_emit(level: Level, target: &str, msg: &str) {
    log_emit_kv(level, target, msg, &[]);
}

/// Like [`log_emit`] but with extra key/value fields (e.g. a session id)
/// appended to the JSON object. Lines are one JSON object each:
/// `{"ts_us":…,"level":"warn","target":"…","msg":"…","session":"42"}`.
pub fn log_emit_kv(level: Level, target: &str, msg: &str, kv: &[(&str, String)]) {
    let tag = match level {
        Level::Error => "error",
        Level::Warn => "warn",
        Level::Info => "info",
        Level::Debug => "debug",
    };
    let ts_us =
        SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_micros() as u64).unwrap_or(0);
    let mut line = format!(
        "{{\"ts_us\":{ts_us},\"level\":\"{tag}\",\"target\":{},\"msg\":{}",
        json_string(target),
        json_string(msg)
    );
    for (k, v) in kv {
        line.push_str(&format!(",{}:{}", json_string(k), json_string(v)));
    }
    line.push('}');
    eprintln!("{line}");
}

/// Leveled diagnostic, off by default: `log!(Warn, "lost {n} events")`.
///
/// Enabled by the `MCC_LOG` environment variable (`error`, `warn`,
/// `info`, `debug`); when the level is off the arguments are never
/// formatted.
#[macro_export]
macro_rules! log {
    ($lvl:ident, $($arg:tt)*) => {
        if $crate::log_enabled($crate::Level::$lvl) {
            $crate::log_emit($crate::Level::$lvl, module_path!(), &format!($($arg)*));
        }
    };
}

/// [`log!`] with structured key/value fields prepended:
/// `logkv!(Warn, [("session", id)], "gap at {seq}")`. Values are
/// stringified with `Display`; like `log!`, nothing is formatted when
/// the level is off.
#[macro_export]
macro_rules! logkv {
    ($lvl:ident, [$(($k:expr, $v:expr)),* $(,)?], $($arg:tt)*) => {
        if $crate::log_enabled($crate::Level::$lvl) {
            $crate::log_emit_kv(
                $crate::Level::$lvl,
                module_path!(),
                &format!($($arg)*),
                &[$(($k, $v.to_string())),*],
            );
        }
    };
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let h = RecorderHandle::disabled();
        {
            let _s = h.span("x");
            h.add("c", 3);
            h.observe("h", 9);
        }
        assert!(!h.is_enabled());
        assert_eq!(h.ops(), 0);
        assert!(h.spans().is_empty());
        assert_eq!(h.snapshot(), Snapshot::default());
        assert_eq!(
            h.to_chrome_trace(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[],\"metrics\":{}}"
        );
    }

    #[test]
    fn spans_record_nesting_as_parent_links() {
        let h = RecorderHandle::enabled();
        {
            let _outer = h.span("outer");
            {
                let _inner = h.span("inner");
            }
        }
        let spans = h.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(inner.tid, outer.tid);
    }

    #[test]
    fn two_recorders_do_not_cross_parent() {
        let a = RecorderHandle::enabled();
        let b = RecorderHandle::enabled();
        {
            let _oa = a.span("a.outer");
            let _ib = b.span("b.lone");
        }
        assert_eq!(b.spans()[0].parent, None, "span of b must not parent into a");
    }

    #[test]
    fn counters_and_hists_render_deterministically() {
        let h = RecorderHandle::enabled();
        h.add("zebra_total", 2);
        h.add("apple_total", 1);
        h.add("zebra_total", 3);
        h.observe("sizes", 5);
        h.observe("sizes", 100_000);
        let text = h.snapshot().render();
        let apple = text.find("mcc_apple_total 1").unwrap();
        let zebra = text.find("mcc_zebra_total 5").unwrap();
        assert!(apple < zebra, "sorted by name:\n{text}");
        assert!(text.contains("mcc_sizes_bucket{le=\"16\"} 1"), "{text}");
        assert!(text.contains("mcc_sizes_bucket{le=\"+Inf\"} 2"), "{text}");
        assert!(text.contains("mcc_sizes_sum 100005"), "{text}");
        assert!(text.contains("mcc_sizes_count 2"), "{text}");
        // Snapshots of equal content render byte-identically.
        assert_eq!(text, h.snapshot().render());
    }

    #[test]
    fn chrome_trace_shape() {
        let h = RecorderHandle::enabled();
        {
            let _s = h.span("check.preprocess");
        }
        h.add("events_total", 7);
        let doc = h.to_chrome_trace();
        assert!(doc.starts_with('{') && doc.ends_with('}'));
        assert!(doc.contains("\"traceEvents\":["), "{doc}");
        assert!(doc.contains("\"name\":\"check.preprocess\""), "{doc}");
        assert!(doc.contains("\"ph\":\"X\""), "{doc}");
        assert!(doc.contains("\"metrics\":{\"events_total\":7}"), "{doc}");
    }

    #[test]
    fn span_cap_drops_but_counts() {
        let h = RecorderHandle::enabled();
        for _ in 0..(MAX_SPANS + 5) {
            let _s = h.span("tiny");
        }
        assert_eq!(h.spans().len(), MAX_SPANS);
        assert_eq!(h.spans_dropped(), 5);
    }

    #[test]
    fn span_summary_aggregates_by_name() {
        let h = RecorderHandle::enabled();
        for _ in 0..3 {
            let _s = h.span("phase.a");
        }
        {
            let _s = h.span("phase.b");
        }
        let summary = h.span_summary();
        assert_eq!(summary.len(), 2);
        assert_eq!(summary[0].name, "phase.a");
        assert_eq!(summary[0].count, 3);
        assert_eq!(summary[1].name, "phase.b");
        assert_eq!(summary[1].count, 1);
    }

    #[test]
    fn counters_commute_across_threads() {
        let h = RecorderHandle::enabled();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        h.add("n_total", 1);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(h.snapshot().counters["n_total"], 800);
    }

    #[test]
    fn level_parsing() {
        assert_eq!(parse_level(""), 0);
        assert_eq!(parse_level("off"), 0);
        assert_eq!(parse_level("0"), 0);
        assert_eq!(parse_level("error"), 1);
        assert_eq!(parse_level("WARN"), 2);
        assert_eq!(parse_level("info"), 3);
        assert_eq!(parse_level("debug"), 4);
        assert_eq!(parse_level("bogus"), 2);
    }

    #[test]
    fn gauge_rendering() {
        assert_eq!(
            render_gauge("sessions_active", 3),
            "# TYPE mcc_sessions_active gauge\nmcc_sessions_active 3\n"
        );
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn trace_id_round_trip_and_export() {
        let h = RecorderHandle::enabled();
        assert_eq!(h.trace_id(), None);
        assert!(!h.to_chrome_trace().contains("traceId"));
        let id = h.ensure_trace_id().unwrap();
        assert!(id != 0);
        assert_eq!(h.ensure_trace_id(), Some(id), "idempotent");
        assert_eq!(h.trace_id(), Some(id));
        assert!(h.to_chrome_trace().contains(&format!("\"traceId\":{id}")));
        // Disabled handles have no trace id and never will.
        let d = RecorderHandle::disabled();
        assert_eq!(d.ensure_trace_id(), None);
        d.set_trace_id(7);
        assert_eq!(d.trace_id(), None);
    }

    #[test]
    fn remote_links_export_in_span_args() {
        let h = RecorderHandle::enabled();
        let span_id = {
            let s = h.span("serve.session");
            assert!(s.id() != 0);
            s.id()
        };
        h.link_remote(span_id, 0xABCD, 42);
        let doc = h.to_chrome_trace();
        assert!(doc.contains("\"remoteTrace\":43981"), "{doc}");
        assert!(doc.contains("\"remoteParent\":42"), "{doc}");
        // Unlinked spans carry no remote fields.
        {
            let _s = h.span("other");
        }
        let doc = h.to_chrome_trace();
        assert_eq!(doc.matches("remoteParent").count(), 1, "{doc}");
    }

    #[test]
    fn disabled_span_guard_has_zero_id() {
        let h = RecorderHandle::disabled();
        let s = h.span("x");
        assert_eq!(s.id(), 0);
    }

    #[test]
    fn hist_quantiles_pick_bucket_bounds() {
        let mut h = Hist::default();
        for v in [1u64, 2, 3, 10, 50, 200, 100_000] {
            h.observe(v);
        }
        let snap = HistSnapshot {
            buckets: HIST_BOUNDS.iter().copied().zip(h.buckets.iter().copied()).collect(),
            overflow: h.buckets[HIST_BOUNDS.len()],
            sum: h.sum,
            count: h.count,
        };
        assert_eq!(snap.quantile(0.0), 1);
        assert_eq!(snap.quantile(0.5), 16);
        assert_eq!(snap.quantile(0.99), u64::MAX, "overflow bucket");
        assert_eq!(HistSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn flight_recorder_ring_evicts_oldest() {
        let mut fr = FlightRecorder::with_capacity(3);
        assert!(fr.is_empty());
        for i in 0..5 {
            fr.record("frame", format!("seq={i}"));
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.total_recorded(), 5);
        let dump = fr.dump_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"seq\":2"), "{dump}");
        assert!(lines[2].contains("\"seq\":4"), "{dump}");
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"ts_us\":"), "{line}");
            assert!(line.contains("\"kind\":\"frame\""), "{line}");
        }
    }

    #[test]
    fn structured_log_line_shape() {
        // log_emit writes to stderr; exercise the formatting path via a
        // captured variant by checking the pieces that build the line.
        assert_eq!(json_string("serve"), "\"serve\"");
        log_emit_kv(Level::Debug, "mcc_obs::tests", "shape probe", &[("session", "7".into())]);
    }
}
