//! The supervisor's session registry.
//!
//! Every accepted session registers here and is tracked until it ends —
//! completed (client sent `Finish`), salvaged (non-durable client
//! vanished mid-stream, idle timeout, or the connection thread
//! panicked), or *parked*: a durable session whose connection died keeps
//! its live [`StreamingChecker`] (and open journal) in the registry for
//! a grace period, waiting for a `Resume`. The [`SessionGuard`]
//! unregisters on `Drop`, so a session can never leak whatever path its
//! connection thread takes; the `STATS` verb renders the registry as
//! JSON.
//!
//! Completed durable sessions *retire* their report JSON here for a
//! while, so a client whose connection died between the server sending
//! the `Report` and the client reading it can `Resume` and receive the
//! identical report again — report delivery is idempotent.

use crate::journal::Journal;
use crate::report::SessionReport;
use mcc_core::report::Confidence;
use mcc_core::streaming::StreamingChecker;
use mcc_obs::FlightRecorder;
use serde::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How a session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The client finished its stream and received a complete report.
    Completed,
    /// The session was cut short (death mid-stream, idle timeout, panic)
    /// and a degraded report was salvaged from what had arrived.
    Salvaged,
}

/// Progress of one live session, as last reported by its connection
/// thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct Progress {
    /// Events ingested so far.
    pub events: u64,
    /// Events currently buffered in the checker.
    pub buffered: usize,
    /// Estimated bytes currently buffered in the checker (see
    /// [`mcc_core::streaming::event_cost`]) — what the memory accountant
    /// charges against the daemon's ceiling.
    pub buffered_bytes: u64,
    /// Bytes appended to the session's journal so far (its disk-backlog
    /// share of the accountant's charge).
    pub journal_bytes: u64,
    /// Peak buffered events.
    pub peak_buffered: usize,
    /// Regions flushed.
    pub regions_flushed: usize,
    /// Distinct findings so far.
    pub findings: usize,
    /// Whether the session already degraded (eviction at the cap).
    pub degraded: bool,
    /// Whether a survivable rank failure was streamed (failure-aware
    /// analysis; the verdict will be recovered unless it also degrades).
    pub recovered: bool,
}

impl Progress {
    /// A live session's progress: what its checker holds right now,
    /// which is what the memory accountant charges.
    pub fn live(c: &StreamingChecker, events: u64, journal_bytes: u64) -> Self {
        Self {
            events,
            buffered: c.buffered(),
            buffered_bytes: c.buffered_bytes() as u64,
            journal_bytes,
            peak_buffered: c.peak_buffered,
            regions_flushed: c.regions_flushed,
            findings: c.findings_so_far(),
            degraded: c.is_degraded(),
            recovered: c.is_recovered(),
        }
    }

    /// The last progress of a session whose report is built: the totals
    /// stand, nothing is buffered or charged any more.
    pub fn settled(report: &SessionReport) -> Self {
        Self {
            events: report.events_ingested,
            peak_buffered: report.peak_buffered,
            regions_flushed: report.regions_flushed,
            findings: report.findings.len(),
            degraded: report.confidence == Confidence::Degraded,
            recovered: report.confidence == Confidence::Recovered,
            ..Self::default()
        }
    }
}

/// Everything a parked durable session needs to resume exactly where the
/// acknowledged stream left off.
pub struct ParkedSession {
    /// World size from the original `Hello`.
    pub nprocs: usize,
    /// The live checker, mid-stream.
    pub checker: StreamingChecker,
    /// Next sequence number the session expects (= events ingested).
    pub expected_seq: u64,
    /// The session's journal, still open for appending (when the daemon
    /// runs with a journal directory).
    pub journal: Option<Journal>,
    /// Last reported progress.
    pub progress: Progress,
    /// The session's flight recorder, carried across park/resume so a
    /// postmortem dump covers the whole session, not just the last
    /// connection.
    pub flight: FlightRecorder,
    /// Whether the client declared governance support in its `Hello`
    /// (carried across park/resume so typed quota frames stay gated
    /// correctly after a reconnect).
    pub governance: bool,
}

/// How a `Resume{session}` resolves against the registry.
pub enum ResumeOutcome {
    /// The session was parked; here is everything needed to continue.
    /// The guard carries the *original* session id.
    Parked(SessionGuard, Box<ParkedSession>),
    /// The session already completed; its report can be redelivered.
    Retired(String),
    /// The session is still attached to a live connection (the old
    /// connection has not noticed its death yet). Worth retrying.
    Active,
    /// The registry has never heard of it, or it expired.
    Gone,
}

struct SessionState {
    nprocs: usize,
    progress: Progress,
    last_activity: Instant,
}

#[derive(Default)]
struct Totals {
    completed: u64,
    salvaged: u64,
    rejected: u64,
    resumed: u64,
    recovered: u64,
    events: u64,
    findings: u64,
    admitted: u64,
    shed: u64,
    throttled: u64,
}

struct Inner {
    next_id: u64,
    active: BTreeMap<u64, SessionState>,
    parked: BTreeMap<u64, (ParkedSession, Instant)>,
    retired: BTreeMap<u64, String>,
    totals: Totals,
    /// Active sessions the supervisor picked as shed victims; their
    /// connection threads poll [`Registry::shed_requested`] and exit
    /// through the degraded-salvage path. The mark survives a park (a
    /// resumed victim is shed on its first frame).
    shed_requested: BTreeSet<u64>,
    /// Every shed victim in selection order — the record the
    /// shedding-determinism suite asserts on.
    shed_log: Vec<u64>,
    /// Daemon-wide high-water mark of accounted bytes (buffered +
    /// journal backlog), sampled whenever the fleet is aggregated.
    peak_accounted_bytes: u64,
    /// Daemon-wide high-water mark of simultaneously buffered events.
    peak_buffered_events: u64,
}

/// Retired reports kept around for idempotent redelivery (oldest session
/// ids are evicted first past this many).
const RETIRED_REPORTS_CAP: usize = 64;

/// The shared registry. One per server; connection threads hold an
/// `Arc<Registry>`.
pub struct Registry {
    inner: Mutex<Inner>,
    started: Instant,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

/// Aggregate fleet state, as served by the `Health` verb.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetStats {
    /// Sessions attached to a live connection.
    pub active: usize,
    /// Sessions parked awaiting a `Resume`.
    pub parked: usize,
    /// Sessions completed since startup.
    pub completed: u64,
    /// Sessions salvaged since startup.
    pub salvaged: u64,
    /// Sessions resumed since startup.
    pub resumed: u64,
    /// Sessions recovered from journals since startup.
    pub recovered: u64,
    /// Handshakes rejected since startup.
    pub rejected: u64,
    /// Events ingested across finished and live sessions.
    pub events: u64,
    /// Findings across finished and live sessions.
    pub findings: u64,
    /// Events currently buffered across live and parked checkers.
    pub buffered: u64,
    /// Sessions admitted (a `Welcome` answered a `Hello`) since startup.
    pub admitted: u64,
    /// Sessions force-evicted by pressure shedding since startup.
    pub shed: u64,
    /// Sessions that crossed their event-rate quota since startup.
    pub throttled: u64,
    /// Estimated bytes currently buffered across live and parked
    /// checkers — the accountant's in-memory charge.
    pub buffered_bytes: u64,
    /// Journal backlog bytes across live and parked sessions.
    pub journal_bytes: u64,
    /// Daemon-wide high-water mark of accounted bytes (buffered +
    /// journal), as sampled at fleet aggregations.
    pub peak_accounted_bytes: u64,
    /// Daemon-wide high-water mark of simultaneously buffered events.
    pub peak_buffered_events: u64,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(Inner {
                next_id: 1,
                active: BTreeMap::new(),
                parked: BTreeMap::new(),
                retired: BTreeMap::new(),
                totals: Totals::default(),
                shed_requested: BTreeSet::new(),
                shed_log: Vec::new(),
                peak_accounted_bytes: 0,
                peak_buffered_events: 0,
            }),
            started: Instant::now(),
        }
    }

    /// Time since the registry (≈ the daemon) was created.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// A consistent aggregate of the fleet's state. Also advances the
    /// daemon-wide peak gauges, so any caller (janitor tick, `HEALTH`,
    /// `METRICS`) doubles as a sampling point.
    pub fn fleet(&self) -> FleetStats {
        let mut inner = self.lock();
        let mut f = FleetStats {
            active: inner.active.len(),
            parked: inner.parked.len(),
            completed: inner.totals.completed,
            salvaged: inner.totals.salvaged,
            resumed: inner.totals.resumed,
            recovered: inner.totals.recovered,
            rejected: inner.totals.rejected,
            events: inner.totals.events,
            findings: inner.totals.findings,
            buffered: 0,
            admitted: inner.totals.admitted,
            shed: inner.totals.shed,
            throttled: inner.totals.throttled,
            buffered_bytes: 0,
            journal_bytes: 0,
            peak_accounted_bytes: 0,
            peak_buffered_events: 0,
        };
        for s in inner.active.values() {
            f.events += s.progress.events;
            f.findings += s.progress.findings as u64;
            f.buffered += s.progress.buffered as u64;
            f.buffered_bytes += s.progress.buffered_bytes;
            f.journal_bytes += s.progress.journal_bytes;
        }
        for (p, _) in inner.parked.values() {
            f.events += p.progress.events;
            f.findings += p.progress.findings as u64;
            f.buffered += p.progress.buffered as u64;
            f.buffered_bytes += p.progress.buffered_bytes;
            f.journal_bytes += p.progress.journal_bytes;
        }
        inner.peak_accounted_bytes =
            inner.peak_accounted_bytes.max(f.buffered_bytes + f.journal_bytes);
        inner.peak_buffered_events = inner.peak_buffered_events.max(f.buffered);
        f.peak_accounted_bytes = inner.peak_accounted_bytes;
        f.peak_buffered_events = inner.peak_buffered_events;
        f
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned registry mutex would take the whole daemon down for
        // a single panicked connection thread; the state is a plain
        // counter table, safe to keep serving.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Registers a new session and returns its guard. Dropping the guard
    /// without [`SessionGuard::finish`] records the session as salvaged —
    /// the registry can never leak a session.
    pub fn register(self: &Arc<Self>, nprocs: usize) -> SessionGuard {
        let mut inner = self.lock();
        let id = inner.next_id;
        inner.next_id += 1;
        inner.totals.admitted += 1;
        inner.active.insert(
            id,
            SessionState { nprocs, progress: Progress::default(), last_activity: Instant::now() },
        );
        SessionGuard { registry: Arc::clone(self), id, finished: false }
    }

    /// Adopts a session replayed from a journal at startup: parks it
    /// under its *original* id (so the old client's `Resume` finds it)
    /// and advances the id counter past it so new sessions never collide.
    /// Returns `false` if the id is somehow already taken.
    pub fn adopt_parked(&self, id: u64, parked: ParkedSession) -> bool {
        let mut inner = self.lock();
        if inner.active.contains_key(&id) || inner.parked.contains_key(&id) {
            return false;
        }
        inner.next_id = inner.next_id.max(id + 1);
        inner.totals.recovered += 1;
        inner.parked.insert(id, (parked, Instant::now()));
        true
    }

    /// Adopts a *finished* session replayed from a journal at startup:
    /// retires its rebuilt report under the original id for idempotent
    /// redelivery and counts it as completed + recovered.
    pub fn adopt_retired(&self, id: u64, report_json: String, events: u64, findings: u64) {
        let mut inner = self.lock();
        inner.next_id = inner.next_id.max(id + 1);
        inner.totals.recovered += 1;
        inner.totals.completed += 1;
        inner.totals.events += events;
        inner.totals.findings += findings;
        Self::retire_locked(&mut inner, id, report_json);
    }

    /// Records a refused handshake (version mismatch, bad `nprocs`, or
    /// admission control engaged).
    pub fn note_rejected(&self) {
        self.lock().totals.rejected += 1;
    }

    /// Records a session crossing its event-rate quota for the first
    /// time (the session itself continues, paced).
    pub fn note_throttled(&self) {
        self.lock().totals.throttled += 1;
    }

    /// Selects shed victims until at least `bytes_to_free` of accounted
    /// bytes (buffered + journal backlog) are covered, in deterministic
    /// **largest-buffer-first** order (ties broken by ascending session
    /// id). Parked victims are removed and returned — the caller owns
    /// their salvage. Active victims are *marked*: their connection
    /// threads observe the mark via [`Self::shed_requested`] and exit
    /// through the degraded-salvage path. Victims already marked are
    /// never re-selected; every victim is appended to the shed log once.
    pub fn shed_victims(&self, bytes_to_free: u64) -> Vec<(u64, Option<ParkedSession>)> {
        let mut inner = self.lock();
        let mut candidates: Vec<(u64, u64, u64)> = inner
            .active
            .iter()
            .map(|(id, s)| (*id, s.progress.buffered_bytes, s.progress.journal_bytes))
            .chain(
                inner
                    .parked
                    .iter()
                    .map(|(id, (p, _))| (*id, p.progress.buffered_bytes, p.progress.journal_bytes)),
            )
            .filter(|(id, _, _)| !inner.shed_requested.contains(id))
            .collect();
        candidates.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut freed = 0u64;
        let mut out = Vec::new();
        for (id, buffered, journal) in candidates {
            if freed >= bytes_to_free {
                break;
            }
            freed += buffered + journal;
            inner.totals.shed += 1;
            inner.shed_log.push(id);
            if let Some((parked, _)) = inner.parked.remove(&id) {
                inner.totals.salvaged += 1;
                inner.totals.events += parked.progress.events;
                inner.totals.findings += parked.progress.findings as u64;
                out.push((id, Some(parked)));
            } else {
                inner.shed_requested.insert(id);
                out.push((id, None));
            }
        }
        out
    }

    /// Whether `id` carries a pending shed mark. Connection threads poll
    /// this once per frame-loop iteration; `true` means the session must
    /// exit through the degraded-salvage path now. The mark is **not**
    /// consumed here — it is cleared atomically with the session's
    /// accounting when the session finishes, so [`Self::pending_shed_bytes`]
    /// keeps covering the victim's memory for the whole window between
    /// selection and exit.
    pub fn shed_requested(&self, id: u64) -> bool {
        self.lock().shed_requested.contains(&id)
    }

    /// Every shed victim so far, in selection order.
    pub fn shed_log(&self) -> Vec<u64> {
        self.lock().shed_log.clone()
    }

    /// Accounted bytes (buffered + journal backlog) held by victims that
    /// are marked but have not yet exited. Their memory is already
    /// condemned: the janitor subtracts this from the fleet total before
    /// judging pressure, so one shedding pass is given time to take
    /// effect instead of cascading onto innocent sessions at the next
    /// tick.
    pub fn pending_shed_bytes(&self) -> u64 {
        let inner = self.lock();
        inner
            .shed_requested
            .iter()
            .map(|id| {
                inner
                    .active
                    .get(id)
                    .map(|s| &s.progress)
                    .or_else(|| inner.parked.get(id).map(|(p, _)| &p.progress))
                    .map_or(0, |p| p.buffered_bytes + p.journal_bytes)
            })
            .sum()
    }

    /// Sessions currently live (attached to a connection).
    pub fn active_count(&self) -> usize {
        self.lock().active.len()
    }

    /// Sessions currently parked awaiting a `Resume`.
    pub fn parked_count(&self) -> usize {
        self.lock().parked.len()
    }

    /// Stores a completed session's report JSON for idempotent
    /// redelivery to a resuming client.
    pub fn retire_report(&self, id: u64, report_json: String) {
        let mut inner = self.lock();
        Self::retire_locked(&mut inner, id, report_json);
    }

    fn retire_locked(inner: &mut Inner, id: u64, report_json: String) {
        inner.retired.insert(id, report_json);
        while inner.retired.len() > RETIRED_REPORTS_CAP {
            let oldest = *inner.retired.keys().next().unwrap_or(&id);
            inner.retired.remove(&oldest);
        }
    }

    /// Resolves a `Resume{session}` request. A parked session is moved
    /// back to active (same id) and handed to the caller.
    pub fn resume(self: &Arc<Self>, id: u64) -> ResumeOutcome {
        let mut inner = self.lock();
        if let Some((parked, _since)) = inner.parked.remove(&id) {
            inner.totals.resumed += 1;
            inner.active.insert(
                id,
                SessionState {
                    nprocs: parked.nprocs,
                    progress: parked.progress,
                    last_activity: Instant::now(),
                },
            );
            drop(inner);
            let guard = SessionGuard { registry: Arc::clone(self), id, finished: false };
            return ResumeOutcome::Parked(guard, Box::new(parked));
        }
        if let Some(json) = inner.retired.get(&id) {
            return ResumeOutcome::Retired(json.clone());
        }
        if inner.active.contains_key(&id) {
            return ResumeOutcome::Active;
        }
        ResumeOutcome::Gone
    }

    /// Moves a session from active to parked (used via
    /// [`SessionGuard::park`]).
    fn park(&self, id: u64, mut parked: ParkedSession) {
        let mut inner = self.lock();
        if let Some(s) = inner.active.remove(&id) {
            parked.progress = s.progress;
        }
        inner.parked.insert(id, (parked, Instant::now()));
    }

    /// Removes parked sessions older than `grace` and returns them; the
    /// caller salvages each (degraded analysis, journal retirement).
    /// Swept sessions are counted as salvaged.
    pub fn sweep_parked(&self, grace: Duration) -> Vec<(u64, ParkedSession)> {
        let mut inner = self.lock();
        let expired: Vec<u64> = inner
            .parked
            .iter()
            .filter(|(_, (_, since))| since.elapsed() >= grace)
            .map(|(id, _)| *id)
            .collect();
        let mut out = Vec::with_capacity(expired.len());
        for id in expired {
            inner.shed_requested.remove(&id);
            if let Some((parked, _)) = inner.parked.remove(&id) {
                inner.totals.salvaged += 1;
                inner.totals.events += parked.progress.events;
                inner.totals.findings += parked.progress.findings as u64;
                out.push((id, parked));
            }
        }
        out
    }

    fn update(&self, id: u64, progress: Progress) {
        if let Some(s) = self.lock().active.get_mut(&id) {
            s.progress = progress;
            s.last_activity = Instant::now();
        }
    }

    fn finish(&self, id: u64, outcome: Outcome) {
        let mut inner = self.lock();
        inner.shed_requested.remove(&id);
        if let Some(s) = inner.active.remove(&id) {
            match outcome {
                Outcome::Completed => inner.totals.completed += 1,
                Outcome::Salvaged => inner.totals.salvaged += 1,
            }
            inner.totals.events += s.progress.events;
            inner.totals.findings += s.progress.findings as u64;
        }
    }

    /// Renders the supervisor state as JSON — the `STATS` verb's payload.
    pub fn stats_json(&self) -> String {
        let inner = self.lock();
        let obj = |fields: Vec<(&str, Value)>| {
            Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        };
        let int = |n: u64| Value::Int(n as i128);
        let mut events_total = inner.totals.events;
        let mut findings_total = inner.totals.findings;
        let active: Vec<Value> = inner
            .active
            .iter()
            .map(|(id, s)| {
                events_total += s.progress.events;
                findings_total += s.progress.findings as u64;
                obj(vec![
                    ("id", int(*id)),
                    ("nprocs", int(s.nprocs as u64)),
                    ("events", int(s.progress.events)),
                    ("buffered", int(s.progress.buffered as u64)),
                    ("buffered_bytes", int(s.progress.buffered_bytes)),
                    ("journal_bytes", int(s.progress.journal_bytes)),
                    ("peak_buffered", int(s.progress.peak_buffered as u64)),
                    ("regions_flushed", int(s.progress.regions_flushed as u64)),
                    ("findings", int(s.progress.findings as u64)),
                    ("degraded", Value::Bool(s.progress.degraded)),
                    ("recovered", Value::Bool(s.progress.recovered)),
                    ("idle_ms", int(s.last_activity.elapsed().as_millis() as u64)),
                ])
            })
            .collect();
        let parked: Vec<Value> = inner
            .parked
            .iter()
            .map(|(id, (p, since))| {
                events_total += p.progress.events;
                findings_total += p.progress.findings as u64;
                obj(vec![
                    ("id", int(*id)),
                    ("nprocs", int(p.nprocs as u64)),
                    ("events", int(p.progress.events)),
                    ("findings", int(p.progress.findings as u64)),
                    ("parked_ms", int(since.elapsed().as_millis() as u64)),
                ])
            })
            .collect();
        let doc = obj(vec![
            ("schema_version", Value::Int(1)),
            ("sessions_active", int(inner.active.len() as u64)),
            ("sessions_parked", int(inner.parked.len() as u64)),
            ("sessions_completed", int(inner.totals.completed)),
            ("sessions_salvaged", int(inner.totals.salvaged)),
            ("sessions_resumed", int(inner.totals.resumed)),
            ("sessions_recovered", int(inner.totals.recovered)),
            ("sessions_admitted", int(inner.totals.admitted)),
            ("sessions_shed", int(inner.totals.shed)),
            ("sessions_throttled", int(inner.totals.throttled)),
            ("hellos_rejected", int(inner.totals.rejected)),
            ("events_ingested", int(events_total)),
            ("findings", int(findings_total)),
            ("sessions", Value::Arr(active)),
            ("parked", Value::Arr(parked)),
        ]);
        struct Doc(Value);
        impl serde::Serialize for Doc {
            fn to_value(&self) -> Value {
                self.0.clone()
            }
        }
        // A rendering failure must never take down the STATS verb; fall
        // back to a minimal-but-valid document.
        serde_json::to_string(&Doc(doc)).unwrap_or_else(|_| {
            "{\"schema_version\":1,\"error\":\"stats rendering failed\"}".into()
        })
    }
}

/// Registration handle of one session. `Drop` without an explicit
/// [`finish`](SessionGuard::finish) records the session as salvaged.
pub struct SessionGuard {
    registry: Arc<Registry>,
    id: u64,
    finished: bool,
}

impl SessionGuard {
    /// The server-assigned session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Publishes the session's current progress (and refreshes its
    /// activity timestamp).
    pub fn report_progress(&self, progress: Progress) {
        self.registry.update(self.id, progress);
    }

    /// Ends the session with an explicit outcome.
    pub fn finish(mut self, outcome: Outcome) {
        self.finished = true;
        self.registry.finish(self.id, outcome);
    }

    /// Parks the session: its checker (and journal) stay in the registry
    /// under the same id, awaiting a `Resume`. Neither completed nor
    /// salvaged is counted yet — the outcome is decided by the resume or
    /// the sweep.
    pub fn park(mut self, parked: ParkedSession) {
        self.finished = true;
        self.registry.park(self.id, parked);
    }
}

impl Drop for SessionGuard {
    fn drop(&mut self) {
        if !self.finished {
            self.registry.finish(self.id, Outcome::Salvaged);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checker(nprocs: usize) -> StreamingChecker {
        StreamingChecker::new(nprocs).unwrap()
    }

    fn parked(nprocs: usize) -> ParkedSession {
        ParkedSession {
            nprocs,
            checker: checker(nprocs),
            expected_seq: 0,
            journal: None,
            progress: Progress::default(),
            flight: FlightRecorder::default(),
            governance: false,
        }
    }

    #[test]
    fn register_progress_finish() {
        let reg = Arc::new(Registry::new());
        let g = reg.register(4);
        assert_eq!(reg.active_count(), 1);
        g.report_progress(Progress { events: 10, findings: 2, ..Default::default() });
        let stats = reg.stats_json();
        assert!(stats.contains("\"sessions_active\":1"), "{stats}");
        assert!(stats.contains("\"events\":10"), "{stats}");
        g.finish(Outcome::Completed);
        assert_eq!(reg.active_count(), 0);
        let stats = reg.stats_json();
        assert!(stats.contains("\"sessions_completed\":1"), "{stats}");
        assert!(stats.contains("\"events_ingested\":10"), "{stats}");
    }

    #[test]
    fn dropped_guard_counts_as_salvaged_never_leaks() {
        let reg = Arc::new(Registry::new());
        {
            let _g = reg.register(2);
            assert_eq!(reg.active_count(), 1);
            // Connection thread dies without calling finish().
        }
        assert_eq!(reg.active_count(), 0, "no leaked session");
        assert!(reg.stats_json().contains("\"sessions_salvaged\":1"));
    }

    #[test]
    fn panicking_holder_still_unregisters() {
        let reg = Arc::new(Registry::new());
        let reg2 = Arc::clone(&reg);
        let _ = std::thread::spawn(move || {
            let _g = reg2.register(2);
            panic!("connection thread blew up");
        })
        .join();
        assert_eq!(reg.active_count(), 0);
        assert!(reg.stats_json().contains("\"sessions_salvaged\":1"));
    }

    #[test]
    fn rejections_counted() {
        let reg = Registry::new();
        reg.note_rejected();
        assert!(reg.stats_json().contains("\"hellos_rejected\":1"));
    }

    #[test]
    fn parked_session_resumes_under_the_same_id() {
        let reg = Arc::new(Registry::new());
        let g = reg.register(2);
        let id = g.id();
        g.report_progress(Progress { events: 7, ..Default::default() });
        let mut p = parked(2);
        p.expected_seq = 7;
        g.park(p);
        assert_eq!(reg.active_count(), 0);
        assert_eq!(reg.parked_count(), 1);
        assert!(reg.stats_json().contains("\"sessions_parked\":1"));

        match reg.resume(id) {
            ResumeOutcome::Parked(g2, p2) => {
                assert_eq!(g2.id(), id);
                assert_eq!(p2.expected_seq, 7);
                assert_eq!(p2.progress.events, 7, "park preserved the reported progress");
                g2.finish(Outcome::Completed);
            }
            _ => panic!("expected a parked session"),
        }
        assert_eq!(reg.parked_count(), 0);
        assert!(reg.stats_json().contains("\"sessions_resumed\":1"));
        assert!(reg.stats_json().contains("\"sessions_completed\":1"));
    }

    #[test]
    fn resume_distinguishes_active_retired_and_gone() {
        let reg = Arc::new(Registry::new());
        let g = reg.register(2);
        let id = g.id();
        assert!(matches!(reg.resume(id), ResumeOutcome::Active));
        g.finish(Outcome::Completed);
        assert!(matches!(reg.resume(id), ResumeOutcome::Gone), "completed but not retired");
        reg.retire_report(id, "{\"r\":1}".into());
        match reg.resume(id) {
            ResumeOutcome::Retired(json) => assert_eq!(json, "{\"r\":1}"),
            _ => panic!("expected the retired report"),
        }
        // Redelivery is idempotent: the report survives being read.
        assert!(matches!(reg.resume(id), ResumeOutcome::Retired(_)));
        assert!(matches!(reg.resume(9999), ResumeOutcome::Gone));
    }

    #[test]
    fn sweep_salvages_only_expired_parked_sessions() {
        let reg = Arc::new(Registry::new());
        let g = reg.register(2);
        let id = g.id();
        g.report_progress(Progress { events: 3, findings: 1, ..Default::default() });
        g.park(parked(2));
        assert!(reg.sweep_parked(Duration::from_secs(60)).is_empty(), "grace not reached");
        let swept = reg.sweep_parked(Duration::ZERO);
        assert_eq!(swept.len(), 1);
        assert_eq!(swept[0].0, id);
        assert_eq!(reg.parked_count(), 0);
        let stats = reg.stats_json();
        assert!(stats.contains("\"sessions_salvaged\":1"), "{stats}");
        assert!(stats.contains("\"events_ingested\":3"), "{stats}");
    }

    #[test]
    fn adopted_sessions_never_collide_with_new_ids() {
        let reg = Arc::new(Registry::new());
        assert!(reg.adopt_parked(17, parked(2)));
        assert!(!reg.adopt_parked(17, parked(2)), "double adoption refused");
        reg.adopt_retired(23, "{}".into(), 5, 0);
        let g = reg.register(2);
        assert!(g.id() > 23, "fresh ids skip past adopted ones, got {}", g.id());
        assert!(matches!(reg.resume(17), ResumeOutcome::Parked(..)));
        assert!(matches!(reg.resume(23), ResumeOutcome::Retired(_)));
        let stats = reg.stats_json();
        assert!(stats.contains("\"sessions_recovered\":2"), "{stats}");
    }

    /// Shed selection is largest-buffer-first with ascending-id
    /// tiebreak, skips already-marked victims, stops once enough bytes
    /// are covered, and logs every victim exactly once in order.
    #[test]
    fn shed_victims_are_selected_largest_buffer_first() {
        let reg = Arc::new(Registry::new());
        let g1 = reg.register(1); // 100 bytes
        let g2 = reg.register(1); // 900 bytes
        let g3 = reg.register(1); // 900 bytes (tie with g2 — lower id wins)
        g1.report_progress(Progress { buffered_bytes: 100, ..Default::default() });
        g2.report_progress(Progress { buffered_bytes: 900, ..Default::default() });
        g3.report_progress(Progress { buffered_bytes: 900, ..Default::default() });
        let (id1, id2, id3) = (g1.id(), g2.id(), g3.id());

        let victims = reg.shed_victims(1000);
        let ids: Vec<u64> = victims.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![id2, id3], "two 900-byte sessions cover the 1000-byte target");
        assert!(victims.iter().all(|(_, p)| p.is_none()), "active victims are marked, not taken");
        assert!(reg.shed_requested(id2));
        assert!(reg.shed_requested(id2), "the mark persists until the session exits");
        assert!(!reg.shed_requested(id1), "unselected sessions carry no mark");

        // A second round never re-selects the still-marked id3; it moves
        // on to the smallest remainder.
        let more = reg.shed_victims(1);
        assert_eq!(more.iter().map(|(id, _)| *id).collect::<Vec<_>>(), vec![id1]);
        assert_eq!(reg.shed_log(), vec![id2, id3, id1]);
        assert!(reg.stats_json().contains("\"sessions_shed\":3"));
        drop((g1, g2, g3));
    }

    /// A parked victim is removed outright (the caller salvages it); a
    /// shed mark survives a park so a resumed victim still exits.
    #[test]
    fn shed_takes_parked_sessions_and_marks_survive_parking() {
        let reg = Arc::new(Registry::new());
        let g = reg.register(1);
        let id = g.id();
        g.report_progress(Progress { buffered_bytes: 500, ..Default::default() });
        let mut p = parked(1);
        p.progress.buffered_bytes = 500;
        g.park(p);
        let victims = reg.shed_victims(1);
        assert_eq!(victims.len(), 1);
        assert_eq!(victims[0].0, id);
        assert!(victims[0].1.is_some(), "parked victim handed to the caller");
        assert_eq!(reg.parked_count(), 0);
        assert!(reg.stats_json().contains("\"sessions_salvaged\":1"));

        // Active victim that parks before polling: the mark persists and
        // fires on resume.
        let g = reg.register(1);
        let id = g.id();
        g.report_progress(Progress { buffered_bytes: 700, ..Default::default() });
        let victims = reg.shed_victims(1);
        assert_eq!(victims[0].0, id);
        assert!(victims[0].1.is_none());
        g.park(parked(1));
        match reg.resume(id) {
            ResumeOutcome::Parked(guard, _parked) => {
                assert!(reg.shed_requested(id), "mark survived park + resume");
                drop(guard);
            }
            _ => panic!("resume of a parked victim must hand the session back"),
        }
        assert!(!reg.shed_requested(id), "the victim's exit clears its mark");
    }

    /// While a marked victim is still draining, its bytes stay covered
    /// by `pending_shed_bytes`; the cover lifts atomically with the
    /// session's accounting when it finishes, so the janitor never
    /// double-counts the same pressure into a second shedding pass.
    #[test]
    fn pending_shed_bytes_cover_marked_victims_until_exit() {
        let reg = Arc::new(Registry::new());
        let g1 = reg.register(1);
        let g2 = reg.register(1);
        g1.report_progress(Progress {
            buffered_bytes: 700,
            journal_bytes: 50,
            ..Default::default()
        });
        g2.report_progress(Progress { buffered_bytes: 100, ..Default::default() });
        assert_eq!(reg.pending_shed_bytes(), 0);

        let victims = reg.shed_victims(500);
        assert_eq!(victims.len(), 1, "the 750-byte session alone covers the target");
        assert_eq!(reg.pending_shed_bytes(), 750);
        // Polling the mark does not lift the cover...
        assert!(reg.shed_requested(g1.id()));
        assert_eq!(reg.pending_shed_bytes(), 750);
        // ...the session's exit does, together with its fleet bytes.
        drop(g1);
        assert_eq!(reg.pending_shed_bytes(), 0);
        assert_eq!(reg.fleet().buffered_bytes, 100);
        drop(g2);
    }

    #[test]
    fn fleet_aggregates_bytes_and_tracks_peaks() {
        let reg = Arc::new(Registry::new());
        let g1 = reg.register(1);
        let g2 = reg.register(1);
        g1.report_progress(Progress {
            buffered: 10,
            buffered_bytes: 4096,
            journal_bytes: 100,
            ..Default::default()
        });
        g2.report_progress(Progress { buffered: 5, buffered_bytes: 1024, ..Default::default() });
        let f = reg.fleet();
        assert_eq!(f.buffered, 15);
        assert_eq!(f.buffered_bytes, 5120);
        assert_eq!(f.journal_bytes, 100);
        assert_eq!(f.peak_accounted_bytes, 5220);
        assert_eq!(f.peak_buffered_events, 15);
        assert_eq!(f.admitted, 2);
        g1.finish(Outcome::Completed);
        g2.finish(Outcome::Completed);
        let f = reg.fleet();
        assert_eq!(f.buffered_bytes, 0, "finished sessions release their charge");
        assert_eq!(f.peak_accounted_bytes, 5220, "the peak is sticky");
        reg.note_throttled();
        assert_eq!(reg.fleet().throttled, 1);
    }

    /// Hammers the registry (and a shared recorder) from many threads and
    /// checks every total is exact afterwards — no lost updates, no leaked
    /// sessions, recorder counters in lockstep with the registry.
    #[test]
    fn concurrent_sessions_keep_exact_totals() {
        const THREADS: u64 = 8;
        const SESSIONS_PER_THREAD: u64 = 25;
        let reg = Arc::new(Registry::new());
        let obs = mcc_obs::RecorderHandle::enabled();
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let reg = Arc::clone(&reg);
                let obs = obs.clone();
                std::thread::spawn(move || {
                    for s in 0..SESSIONS_PER_THREAD {
                        let g = reg.register(4);
                        obs.add("serve_sessions_started_total", 1);
                        let events = t * SESSIONS_PER_THREAD + s + 1;
                        g.report_progress(Progress { events, findings: 1, ..Default::default() });
                        obs.add("serve_events_total", events);
                        if s % 3 == 0 {
                            drop(g); // salvaged path
                            obs.add("serve_sessions_salvaged_total", 1);
                        } else {
                            g.finish(Outcome::Completed);
                            obs.add("serve_sessions_completed_total", 1);
                        }
                        if s % 5 == 0 {
                            reg.note_rejected();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        let total = THREADS * SESSIONS_PER_THREAD;
        let salvaged = THREADS * SESSIONS_PER_THREAD.div_ceil(3);
        let completed = total - salvaged;
        let rejected = THREADS * SESSIONS_PER_THREAD.div_ceil(5);
        // Each session s on thread t reported t*S + s + 1 events: the grand
        // total is the sum 1..=THREADS*SESSIONS_PER_THREAD.
        let events = total * (total + 1) / 2;

        assert_eq!(reg.active_count(), 0, "no leaked sessions");
        let stats = reg.stats_json();
        assert!(stats.contains(&format!("\"sessions_completed\":{completed}")), "{stats}");
        assert!(stats.contains(&format!("\"sessions_salvaged\":{salvaged}")), "{stats}");
        assert!(stats.contains(&format!("\"hellos_rejected\":{rejected}")), "{stats}");
        assert!(stats.contains(&format!("\"events_ingested\":{events}")), "{stats}");
        assert!(stats.contains(&format!("\"findings\":{total}")), "{stats}");

        let snap = obs.snapshot();
        assert_eq!(snap.counters["serve_sessions_started_total"], total);
        assert_eq!(snap.counters["serve_sessions_completed_total"], completed);
        assert_eq!(snap.counters["serve_sessions_salvaged_total"], salvaged);
        assert_eq!(snap.counters["serve_events_total"], events);
    }
}
