//! The daemon: accept loop, per-connection session handling, supervisor
//! policies (backpressure, hard caps, idle salvage, durability).
//!
//! The server is plain `std::net` + one thread per connection — no async
//! runtime. A connection's session loop (`run_session`) reads frames and
//! hands every event — a `Batch` frame as is, an `Event` frame as a
//! batch of one — to the single `ingest` step, which answers with what
//! the loop should do next. Bounded memory is enforced in two stages:
//! past the *soft* watermark the connection thread pauses briefly before
//! the next socket read (backpressure — the kernel socket buffer, and
//! eventually the client, absorb the stall), and at the *hard* watermark
//! the session's [`StreamingChecker`] evicts, trading the report down to
//! [`Confidence::Degraded`] instead of growing without bound.
//!
//! Sessions end in one of three ways. A non-durable session that goes
//! quiet for the idle timeout, or whose client vanishes mid-stream, is
//! *salvaged*: whatever arrived is analyzed in degraded mode, a degraded
//! report is offered to the (possibly gone) client, and the registry
//! records the session as salvaged — never leaked. A *durable* session
//! (`SessionOpts::durable`) is instead *parked*: its live checker (and
//! its journal, when the daemon runs with a journal directory) stays in
//! the registry for the resume grace period, and a reconnecting client's
//! `Resume` continues the stream exactly where the last `Ack` left it.
//! A parked session nobody resumes is swept and salvaged by the janitor.
//!
//! With a journal directory configured, every durable session's events
//! are appended to a per-session write-ahead journal before they are
//! acknowledged, and `--recover` replays those journals at startup: a
//! daemon killed outright comes back holding the same parked sessions
//! (and retired reports) it had, and the eventual reports are
//! byte-identical to an uninterrupted run.
//!
//! On top of the per-session watermarks sits daemon-wide *resource
//! governance*: a memory accountant sums every session's buffered event
//! bytes and journal backlog against [`ServeConfig::mem_ceiling`] and
//! classifies the total into a [`PressureLevel`]. At `Elevated` pressure
//! (or with [`ServeConfig::max_sessions`] reached) new `Hello`s are
//! refused with a typed `Busy` carrying a retry hint; at `Critical`
//! pressure the janitor sheds sessions in deterministic
//! largest-buffer-first order until the accountant is back under 3/4 of
//! the ceiling. Per-session quotas (event count, event rate, buffered
//! bytes, wall-clock deadline) throttle or degrade-then-evict individual
//! sessions with typed `Throttled`/`QuotaExceeded` frames instead of
//! dropping their connections. Clients that did not negotiate the
//! `governance` capability see plain `Error` frames instead.

use crate::journal::{scan_dir, FsyncPolicy, Journal};
use crate::pacing::TokenBucket;
use crate::proto::{
    write_frame_with, EventBatch, Frame, FrameReader, ProtoError, SessionOpts, CAP_BINARY,
    CAP_TRACECTX, MAX_RANKS, PROTOCOL_VERSION, SERVER_CAPABILITIES,
};
use crate::registry::{Outcome, ParkedSession, Progress, Registry, ResumeOutcome, SessionGuard};
use crate::report::{SessionReport, REPORT_SCHEMA_VERSION};
use mcc_codec::CodecKind;
use mcc_core::report::Confidence;
use mcc_core::session::AnalysisSession;
use mcc_core::streaming::{StreamError, StreamingChecker};
use mcc_obs::{log, logkv, names, render_gauge, FlightRecorder, RecorderHandle};
use mcc_types::Rank;
use serde::Value;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Supervisor policy knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Buffered events per session above which the connection thread
    /// pauses before reading more (backpressure).
    pub soft_watermark: usize,
    /// Hard cap on buffered events per session; reaching it forces a
    /// degraded eviction instead of unbounded growth. A client may
    /// request a *lower* cap in its `Hello`, never a higher one.
    pub hard_watermark: usize,
    /// A session silent for this long is salvaged (non-durable) or
    /// parked (durable) and its connection closed.
    pub idle_timeout: Duration,
    /// Socket read timeout — the granularity at which idle sessions and
    /// shutdown are noticed.
    pub tick: Duration,
    /// Socket write timeout — bounds how long a reply to a stalled peer
    /// can block a connection thread. `None` blocks forever.
    pub write_timeout: Option<Duration>,
    /// How long a backpressured connection thread sleeps per pause.
    pub backpressure_pause: Duration,
    /// On durable sessions, send an `Ack` (after syncing the journal)
    /// every this many events.
    pub ack_interval: u64,
    /// Directory for per-session write-ahead journals. `None` disables
    /// journaling; durable sessions then survive connection drops (they
    /// park in memory) but not daemon crashes.
    pub journal_dir: Option<PathBuf>,
    /// When journal writes reach the disk.
    pub fsync: FsyncPolicy,
    /// How long a parked session waits for a `Resume` before the janitor
    /// sweeps and salvages it.
    pub resume_grace: Duration,
    /// Scan `journal_dir` at startup and rebuild the sessions found
    /// there (`mcc serve --recover`).
    pub recover: bool,
    /// Refuse binary-codec payloads and drop the `binary` capability
    /// from the `Welcome` (`mcc serve --no-binary`): clients fall back
    /// to per-event JSON, which is the interop escape hatch when a
    /// codec bug needs ruling out.
    pub no_binary: bool,
    /// Drop the `tracectx` capability from the `Welcome` and refuse
    /// `TraceCtx` frames (`mcc serve --no-tracectx`), making this server
    /// behave like a pre-tracectx build: clients stay silent and traces
    /// remain per-process.
    pub no_tracectx: bool,
    /// The daemon's observability recorder. Every session's pipeline
    /// counters and the serve-layer counters flow into it; the `Metrics`
    /// verb renders its snapshot. Enabled by default — a long-running
    /// service should be introspectable out of the box (span storage is
    /// capped at [`mcc_obs::MAX_SPANS`], counters are O(#names)).
    pub recorder: RecorderHandle,
    /// Cap on concurrently held sessions (active + parked). A `Hello`
    /// past the cap is refused with a typed `Busy`; `Resume` is exempt
    /// (refusing it would strand parked memory). `0` = unlimited
    /// (`mcc serve --max-sessions`).
    pub max_sessions: usize,
    /// Daemon-wide memory ceiling in bytes for the accountant's total
    /// (buffered event bytes + journal backlog across all sessions).
    /// Crossing 75% refuses new `Hello`s; crossing 90% makes the
    /// janitor shed sessions largest-buffer-first until the total is
    /// back under 3/4 of the ceiling. `0` = unlimited
    /// (`mcc serve --mem-ceiling`).
    pub mem_ceiling: usize,
    /// Per-session cap on total ingested events; exceeding it
    /// degrade-then-evicts with a typed `QuotaExceeded`. `0` = unlimited
    /// (`mcc serve --quota-events`).
    pub quota_max_events: u64,
    /// Per-session sustained event-rate cap (events/second, token
    /// bucket with a one-second burst allowance). A session over the
    /// rate is paced with read stalls and told once per crossing via a
    /// typed `Throttled`; it is never evicted for rate alone. `0` =
    /// unlimited (`mcc serve --quota-rate`).
    pub quota_event_rate: u64,
    /// Per-session cap on buffered event *bytes* (as accounted by the
    /// checker); exceeding it degrade-then-evicts with a typed
    /// `QuotaExceeded`. `0` = unlimited (`mcc serve --quota-bytes`).
    pub quota_max_bytes: usize,
    /// Wall-clock deadline for a session; one still running past it
    /// degrade-then-evicts with a typed `QuotaExceeded`. `None` =
    /// unlimited (`mcc serve --deadline`).
    pub session_deadline: Option<Duration>,
    /// Retry hint carried in `Busy` refusals; the durable client honors
    /// it in its backoff loop (`mcc serve --busy-retry-ms`).
    pub busy_retry_after: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            soft_watermark: 8192,
            hard_watermark: 65536,
            idle_timeout: Duration::from_secs(30),
            tick: Duration::from_millis(200),
            write_timeout: Some(Duration::from_secs(30)),
            backpressure_pause: Duration::from_millis(2),
            ack_interval: 256,
            journal_dir: None,
            fsync: FsyncPolicy::EveryAck,
            resume_grace: Duration::from_secs(120),
            recover: false,
            no_binary: false,
            no_tracectx: false,
            recorder: RecorderHandle::enabled(),
            max_sessions: 0,
            mem_ceiling: 0,
            quota_max_events: 0,
            quota_event_rate: 0,
            quota_max_bytes: 0,
            session_deadline: None,
            busy_retry_after: Duration::from_millis(500),
        }
    }
}

/// Memory-pressure band of the daemon-wide accountant, computed from
/// accounted bytes against [`ServeConfig::mem_ceiling`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PressureLevel {
    /// Below 75% of the ceiling (or no ceiling configured).
    Normal,
    /// At or above 75% of the ceiling: new `Hello`s are refused.
    Elevated,
    /// At or above 90% of the ceiling: the janitor sheds sessions in
    /// largest-buffer-first order until back under 3/4 of the ceiling.
    Critical,
}

impl PressureLevel {
    /// Stable lowercase name, as rendered by `HEALTH` and `mcc top`.
    pub fn as_str(self) -> &'static str {
        match self {
            PressureLevel::Normal => "normal",
            PressureLevel::Elevated => "elevated",
            PressureLevel::Critical => "critical",
        }
    }

    /// Numeric form for the `serve_pressure_level` gauge (0/1/2).
    pub fn as_gauge(self) -> u64 {
        self as u64
    }
}

/// Classifies `accounted` bytes against a `ceiling` (`0` = unlimited,
/// always [`PressureLevel::Normal`]). Thresholds are exact integer
/// fractions — 3/4 for `Elevated`, 9/10 for `Critical` — so the bands
/// are deterministic across platforms.
pub fn pressure_of(accounted: u64, ceiling: u64) -> PressureLevel {
    if ceiling == 0 {
        return PressureLevel::Normal;
    }
    if accounted.saturating_mul(10) >= ceiling.saturating_mul(9) {
        PressureLevel::Critical
    } else if accounted.saturating_mul(4) >= ceiling.saturating_mul(3) {
        PressureLevel::Elevated
    } else {
        PressureLevel::Normal
    }
}

/// Buffered-byte growth between unscheduled progress reports: a session
/// ingesting large events reports every ~1 MiB of growth in addition to
/// the every-256-events cadence, so the accountant tracks byte floods
/// that cross the ceiling long before the event-count cadence fires.
const BYTES_REPORT_DELTA: usize = 1 << 20;

/// Renders the daemon's live metrics: the recorder's deterministic
/// snapshot plus registry gauges — the `Metrics` verb's payload.
fn metrics_text(registry: &Registry, cfg: &ServeConfig) -> String {
    let fleet = registry.fleet();
    let accounted = fleet.buffered_bytes + fleet.journal_bytes;
    let level = pressure_of(accounted, cfg.mem_ceiling as u64);
    let mut text = cfg.recorder.snapshot().render();
    text.push_str(&render_gauge("serve_sessions_active", fleet.active as u64));
    text.push_str(&render_gauge("serve_sessions_parked", fleet.parked as u64));
    text.push_str(&render_gauge("serve_buffered_events", fleet.buffered));
    text.push_str(&render_gauge("serve_buffered_bytes", fleet.buffered_bytes));
    text.push_str(&render_gauge("serve_journal_bytes", fleet.journal_bytes));
    text.push_str(&render_gauge("serve_accounted_bytes", accounted));
    text.push_str(&render_gauge("serve_peak_accounted_bytes", fleet.peak_accounted_bytes));
    text.push_str(&render_gauge("serve_peak_buffered_events", fleet.peak_buffered_events));
    text.push_str(&render_gauge("serve_mem_ceiling_bytes", cfg.mem_ceiling as u64));
    text.push_str(&render_gauge("serve_pressure_level", level.as_gauge()));
    text.push_str(&render_gauge("serve_sessions_admitted", fleet.admitted));
    text.push_str(&render_gauge("serve_sessions_shed", fleet.shed));
    text.push_str(&render_gauge("serve_sessions_throttled", fleet.throttled));
    text
}

/// Renders the daemon's fleet-health summary — the `Health` verb's
/// payload, polled by `mcc top`. Schema version 2 (v2 added the
/// `pressure` and `admission` sections); all values integers except
/// `pressure.level`.
fn health_json(registry: &Registry, cfg: &ServeConfig) -> String {
    let f = registry.fleet();
    let snap = cfg.recorder.snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let uptime_ms = registry.uptime().as_millis() as u64;
    let events_per_sec = f.events.saturating_mul(1000).checked_div(uptime_ms).unwrap_or(0);
    let accounted = f.buffered_bytes + f.journal_bytes;
    let level = pressure_of(accounted, cfg.mem_ceiling as u64);
    let obj = |fields: Vec<(&str, Value)>| {
        Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    let int = |n: u64| Value::Int(n as i128);
    let doc = obj(vec![
        ("schema_version", Value::Int(2)),
        ("uptime_ms", int(uptime_ms)),
        (
            "sessions",
            obj(vec![
                ("active", int(f.active as u64)),
                ("parked", int(f.parked as u64)),
                ("completed", int(f.completed)),
                ("salvaged", int(f.salvaged)),
                ("resumed", int(f.resumed)),
                ("recovered", int(f.recovered)),
                ("rejected", int(f.rejected)),
            ]),
        ),
        (
            "pressure",
            obj(vec![
                ("level", Value::Str(level.as_str().to_string())),
                ("accounted_bytes", int(accounted)),
                ("buffered_bytes", int(f.buffered_bytes)),
                ("journal_bytes", int(f.journal_bytes)),
                ("peak_accounted_bytes", int(f.peak_accounted_bytes)),
                ("mem_ceiling_bytes", int(cfg.mem_ceiling as u64)),
            ]),
        ),
        (
            "admission",
            obj(vec![
                ("admitted", int(f.admitted)),
                ("rejected", int(f.rejected)),
                ("shed", int(f.shed)),
                ("throttled", int(f.throttled)),
                ("max_sessions", int(cfg.max_sessions as u64)),
            ]),
        ),
        ("events_ingested", int(f.events)),
        ("events_per_sec", int(events_per_sec)),
        ("findings", int(f.findings)),
        ("buffered_events", int(f.buffered)),
        ("evictions", int(counter("stream_evictions_total"))),
        ("backpressure_stalls", int(counter("serve_backpressure_stalls_total"))),
        ("frames_corrupt", int(counter(names::FRAMES_CORRUPT))),
    ]);
    serde_json::to_string(&doc)
        .unwrap_or_else(|_| "{\"schema_version\":2,\"error\":\"health rendering failed\"}".into())
}

/// Dumps a finished-badly session's flight recorder: to
/// `journal_dir/flight-<id>.jsonl` when the daemon has a journal
/// directory, to the structured log otherwise. No-op for an empty ring.
fn dump_flight(cfg: &ServeConfig, id: u64, flight: &FlightRecorder) {
    if flight.is_empty() {
        return;
    }
    cfg.recorder.add("serve_flight_dumps_total", 1);
    let jsonl = flight.dump_jsonl();
    if let Some(dir) = cfg.journal_dir.as_deref() {
        let path = dir.join(format!("flight-{id}.jsonl"));
        if std::fs::write(&path, &jsonl).is_ok() {
            logkv!(Info, [("session", id)], "flight recorder dumped to {}", path.display());
            return;
        }
    }
    for line in jsonl.lines() {
        logkv!(Warn, [("session", id)], "flight: {line}");
    }
}

/// A bidirectional connection the server can serve.
trait Conn: Read + Write + Send {
    fn set_read_timeout_(&self, d: Option<Duration>) -> io::Result<()>;
    fn set_write_timeout_(&self, d: Option<Duration>) -> io::Result<()>;
}

impl Conn for TcpStream {
    fn set_read_timeout_(&self, d: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(d)
    }
    fn set_write_timeout_(&self, d: Option<Duration>) -> io::Result<()> {
        self.set_write_timeout(d)
    }
}

#[cfg(unix)]
impl Conn for UnixStream {
    fn set_read_timeout_(&self, d: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(d)
    }
    fn set_write_timeout_(&self, d: Option<Duration>) -> io::Result<()> {
        self.set_write_timeout(d)
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, String),
}

/// Where a server listens, as given to [`Server::bind`].
///
/// A string containing a `/` is a Unix socket path; anything else is a
/// TCP address like `127.0.0.1:9477`.
fn is_unix_addr(addr: &str) -> bool {
    addr.contains('/')
}

/// Handle for stopping a running server from another thread.
#[derive(Clone)]
pub struct ServerHandle {
    addr: String,
    unix: bool,
    shutdown: Arc<AtomicBool>,
}

impl ServerHandle {
    /// Asks the accept loop to exit, unblocking it with a throwaway
    /// connection.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Nudge the (blocking) accept call.
        if self.unix {
            #[cfg(unix)]
            {
                let _ = UnixStream::connect(&self.addr);
            }
        } else if let Ok(addrs) = self.addr.to_socket_addrs() {
            for a in addrs {
                let _ = TcpStream::connect_timeout(&a, Duration::from_millis(200));
            }
        }
    }
}

/// The checker daemon.
pub struct Server {
    listener: Listener,
    registry: Arc<Registry>,
    cfg: ServeConfig,
    shutdown: Arc<AtomicBool>,
    addr: String,
}

impl Server {
    /// Binds to `addr` — a TCP address (`host:port`, port `0` picks a
    /// free one) or, on Unix, a socket path (recognized by a `/`).
    ///
    /// With [`ServeConfig::recover`] set and a journal directory
    /// configured, the directory is scanned before the server starts
    /// accepting: finished journals are rebuilt into retired reports,
    /// unfinished ones into parked sessions awaiting their client's
    /// `Resume`.
    pub fn bind(addr: &str, cfg: ServeConfig) -> io::Result<Self> {
        let (listener, bound) = if is_unix_addr(addr) {
            #[cfg(unix)]
            {
                // A stale socket file from a dead daemon would make bind
                // fail forever; remove it first.
                let _ = std::fs::remove_file(addr);
                (Listener::Unix(UnixListener::bind(addr)?, addr.to_string()), addr.to_string())
            }
            #[cfg(not(unix))]
            {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "unix socket paths are not supported on this platform",
                ));
            }
        } else {
            let l = TcpListener::bind(addr)?;
            let bound = l.local_addr()?.to_string();
            (Listener::Tcp(l), bound)
        };
        let registry = Arc::new(Registry::new());
        if cfg.recover {
            if let Some(dir) = cfg.journal_dir.clone() {
                recover_dir(&registry, &dir, &cfg);
            }
        }
        Ok(Self {
            listener,
            registry,
            cfg,
            shutdown: Arc::new(AtomicBool::new(false)),
            addr: bound,
        })
    }

    /// The bound address (with the actual port when `:0` was requested).
    pub fn local_addr(&self) -> &str {
        &self.addr
    }

    /// The supervisor's session registry.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// A handle that can stop [`run`](Server::run) from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.addr.clone(),
            unix: !matches!(self.listener, Listener::Tcp(_)),
            shutdown: Arc::clone(&self.shutdown),
        }
    }

    /// Serves until [`ServerHandle::shutdown`]. Each connection gets its
    /// own thread; all are joined before returning, so no session
    /// outlives the server. A janitor thread sweeps parked sessions that
    /// outlive the resume grace.
    pub fn run(self) -> io::Result<()> {
        let janitor = {
            let registry = Arc::clone(&self.registry);
            let cfg = self.cfg.clone();
            let shutdown = Arc::clone(&self.shutdown);
            thread::spawn(move || {
                while !shutdown.load(Ordering::SeqCst) {
                    thread::sleep(cfg.tick);
                    for (id, parked) in registry.sweep_parked(cfg.resume_grace) {
                        cfg.recorder.add(names::SESSIONS_SWEPT, 1);
                        discard_parked(&cfg, id, parked, "sweep", "resume grace expired");
                    }
                    shed_under_pressure(&registry, &cfg);
                }
            })
        };
        let mut workers: Vec<JoinHandle<()>> = Vec::new();
        loop {
            let accepted: io::Result<Box<dyn Conn>> = match &self.listener {
                Listener::Tcp(l) => l.accept().map(|(s, _)| Box::new(s) as _),
                #[cfg(unix)]
                Listener::Unix(l, _) => l.accept().map(|(s, _)| Box::new(s) as _),
            };
            let conn = match accepted {
                Ok(conn) => conn,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let registry = Arc::clone(&self.registry);
            let cfg = self.cfg.clone();
            workers.retain(|w| !w.is_finished());
            workers.push(thread::spawn(move || handle_conn(conn, registry, &cfg)));
        }
        for w in workers {
            let _ = w.join();
        }
        let _ = janitor.join();
        #[cfg(unix)]
        if let Listener::Unix(_, path) = &self.listener {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

/// One janitor tick of priority load shedding: at `Critical` pressure,
/// picks victims in deterministic largest-buffer-first order (ties by
/// session id) until the accountant projects the total back under 3/4
/// of the ceiling. Parked victims are salvaged here; active victims are
/// marked in the registry and evict themselves at their connection
/// thread's next loop iteration.
fn shed_under_pressure(registry: &Arc<Registry>, cfg: &ServeConfig) {
    if cfg.mem_ceiling == 0 {
        return;
    }
    let f = registry.fleet();
    // Bytes held by already-marked victims are condemned but not yet
    // released; judging pressure without subtracting them would cascade
    // a second shedding pass onto innocent sessions while the first one
    // is still taking effect.
    let accounted =
        (f.buffered_bytes + f.journal_bytes).saturating_sub(registry.pending_shed_bytes());
    if pressure_of(accounted, cfg.mem_ceiling as u64) != PressureLevel::Critical {
        return;
    }
    let target = (cfg.mem_ceiling as u64 / 4).saturating_mul(3);
    let to_free = accounted.saturating_sub(target);
    logkv!(
        Warn,
        [("accounted", accounted), ("ceiling", cfg.mem_ceiling as u64)],
        "critical memory pressure; shedding to free {to_free} byte(s)"
    );
    for (id, parked) in registry.shed_victims(to_free) {
        cfg.recorder.add(names::SESSIONS_SHED, 1);
        match parked {
            Some(p) => discard_parked(cfg, id, p, "shed", "critical memory pressure"),
            None => {
                logkv!(Warn, [("session", id)], "shed under memory pressure (active); marked");
            }
        }
    }
}

/// Salvages a parked session nobody will resume (`why` says who decided
/// so): dumps its flight recorder, releases its checker and journal.
fn discard_parked(
    cfg: &ServeConfig,
    id: u64,
    mut parked: ParkedSession,
    kind: &'static str,
    why: &str,
) {
    logkv!(Warn, [("session", id)], "parked session discarded ({why}); salvaging");
    parked.flight.record(kind, format!("{why}; salvaging"));
    dump_flight(cfg, id, &parked.flight);
    let _ = parked.checker.finish_degraded();
    if let Some(j) = parked.journal {
        let _ = j.retire();
    }
}

/// Rebuilds sessions from a journal directory at startup.
fn recover_dir(registry: &Arc<Registry>, dir: &std::path::Path, cfg: &ServeConfig) {
    let obs = &cfg.recorder;
    let (sessions, unreadable) = match scan_dir(dir) {
        Ok(x) => x,
        Err(e) => {
            log!(Warn, "journal recovery: cannot scan {}: {e}", dir.display());
            return;
        }
    };
    for path in &unreadable {
        obs.add(names::JOURNAL_UNREADABLE, 1);
        log!(Warn, "journal recovery: {} is unreadable; leaving it in place", path.display());
    }
    for rs in sessions {
        if rs.torn {
            obs.add(names::JOURNAL_TORN, 1);
            log!(Warn, "journal recovery: session {} had a torn tail; dropped", rs.session);
        }
        let session = AnalysisSession::builder().recorder(obs.clone()).build();
        let mut checker = match StreamingChecker::with_session(rs.nprocs as usize, session) {
            Ok(c) => c,
            Err(e) => {
                log!(Warn, "journal recovery: session {} refused: {e}", rs.session);
                continue;
            }
        };
        // Same watermark before replay ⇒ same flushes and evictions ⇒
        // the byte-identical report the uninterrupted run would produce.
        // A journaled cap of 0 gets the same reading as a Hello's: the
        // server's hard watermark.
        let cap = match rs.cap {
            0 => cfg.hard_watermark,
            n => n as usize,
        };
        checker.set_high_watermark(Some(cap));
        let expected_seq = rs.events.last().map(|(s, _, _, _)| s + 1).unwrap_or(0);
        let replay = checker.replay(rs.events.into_iter().map(|(_, r, k, l)| (Rank(r), k, l)));
        if let Err(e) = replay {
            obs.add(names::JOURNAL_UNREADABLE, 1);
            log!(Warn, "journal recovery: session {} replay failed: {e}", rs.session);
            continue;
        }
        obs.add(names::SESSIONS_RECOVERED, 1);
        if rs.finished {
            // The client finished before the crash; rebuild and retire
            // the report so a Resume redelivers it idempotently.
            let report = match conclude(checker, expected_seq, false) {
                Ok(report) => report,
                Err(e) => {
                    log!(Warn, "journal recovery: session {} refused: {e}", rs.session);
                    let _ = std::fs::remove_file(&rs.path);
                    continue;
                }
            };
            let nfindings = report.findings.len() as u64;
            registry.adopt_retired(rs.session, report.to_json(), expected_seq, nfindings);
            let _ = std::fs::remove_file(&rs.path);
            log!(Info, "recovered session {} (finished, {expected_seq} event(s))", rs.session);
        } else {
            let journal = Journal::open_append(&rs.path, rs.intact_len, cfg.fsync)
                .map_err(|e| {
                    log!(Warn, "journal recovery: cannot reopen {}: {e}", rs.path.display());
                    e
                })
                .ok();
            let id = rs.session;
            let mut flight = FlightRecorder::default();
            flight.record("recover", format!("rebuilt from journal at seq {expected_seq}"));
            let adopted = registry.adopt_parked(
                id,
                ParkedSession {
                    nprocs: rs.nprocs as usize,
                    expected_seq,
                    journal,
                    progress: Progress::live(&checker, expected_seq, rs.intact_len),
                    checker,
                    flight,
                    governance: rs.opts.governance,
                },
            );
            if adopted {
                log!(Info, "recovered session {id} (parked at seq {expected_seq})");
            }
        }
    }
}

// Server replies are control frames (Welcome, Ack, Report, Error...):
// small, rare, and part of the handshake surface old clients must be
// able to read, so they stay JSON regardless of negotiation.
fn send(conn: &mut impl Write, f: &Frame) -> bool {
    write_frame_with(conn, f, CodecKind::Json).is_ok()
}

/// Answers with a plain `Error` frame — what every client version reads.
fn refuse(conn: &mut impl Write, message: impl Into<String>) {
    send(conn, &Frame::Error { message: message.into() });
}

/// Validates a `Hello`; `Err` is the refusal message for the client.
fn vet_hello(version: u32, nprocs: u32) -> Result<(), String> {
    if version != PROTOCOL_VERSION {
        return Err(format!(
            "protocol version {version} not supported (server speaks {PROTOCOL_VERSION})"
        ));
    }
    if nprocs == 0 {
        return Err("a session must cover at least one rank".into());
    }
    if nprocs > MAX_RANKS {
        return Err(format!("nprocs {nprocs} exceeds the server cap of {MAX_RANKS} ranks"));
    }
    Ok(())
}

fn welcome_frame(session: u64, cfg: &ServeConfig) -> Frame {
    Frame::Welcome {
        version: PROTOCOL_VERSION,
        session,
        capabilities: SERVER_CAPABILITIES
            .iter()
            .filter(|&&c| !(cfg.no_binary && c == CAP_BINARY))
            .filter(|&&c| !(cfg.no_tracectx && c == CAP_TRACECTX))
            .map(|s| s.to_string())
            .collect(),
    }
}

/// Answers a query verb — valid both before a session and during one.
fn query_reply(verb: &Frame, registry: &Registry, cfg: &ServeConfig) -> Frame {
    match verb {
        Frame::Stats => Frame::StatsReport { json: registry.stats_json() },
        Frame::Metrics => Frame::MetricsReport { text: metrics_text(registry, cfg) },
        Frame::Health => Frame::HealthReport { json: health_json(registry, cfg) },
        other => Frame::Error { message: format!("not a query verb: {other:?}") },
    }
}

/// Finishes a session's checker into its report — strictly, or in
/// degraded mode for a salvage (which cannot fail). The only place a
/// report is built, so a completed, a recovered and a salvaged session
/// cannot disagree on what one contains.
fn conclude(
    c: StreamingChecker,
    events_ingested: u64,
    degraded: bool,
) -> Result<SessionReport, StreamError> {
    let (regions_flushed, peak_buffered, evictions) =
        (c.regions_flushed, c.peak_buffered, c.evictions);
    let (confidence, findings) = if degraded {
        (Confidence::Degraded, c.finish_degraded())
    } else {
        (c.confidence(), c.try_finish()?)
    };
    Ok(SessionReport {
        schema_version: REPORT_SCHEMA_VERSION,
        confidence,
        findings,
        events_ingested,
        regions_flushed,
        peak_buffered,
        evictions,
    })
}

/// Everything one running session's loop needs.
struct SessionCtx {
    guard: SessionGuard,
    checker: StreamingChecker,
    journal: Option<Journal>,
    durable: bool,
    /// Events ingested == the next sequence number expected.
    events: u64,
    /// Sequence through which the last `Ack` was sent.
    last_ack: u64,
    nprocs: usize,
    /// Arrival time of the oldest event not yet covered by an `Ack`
    /// (feeds the ingest→ack latency histogram).
    pending_since: Option<Instant>,
    /// Whether the session is currently past the soft watermark, so
    /// the flight recorder logs the crossing, not every stalled read.
    stalled: bool,
    /// Ring buffer of state transitions, dumped on salvage/error.
    flight: FlightRecorder,
    /// Whether the client negotiated the `governance` capability in its
    /// `Hello`: typed `Busy`/`Throttled`/`QuotaExceeded` frames go only
    /// to clients that can read them; others get plain `Error`s.
    governance: bool,
    /// When the session opened (or resumed) — the clock the wall-clock
    /// deadline quota runs against.
    opened_at: Instant,
    /// Pacing bucket for the per-session event-rate quota.
    bucket: Option<TokenBucket>,
    /// Buffered bytes at the last progress report, for the ~1 MiB
    /// byte-growth report trigger.
    last_report_bytes: usize,
}

impl SessionCtx {
    /// Attaches a connection to a session's state — a parked session's,
    /// or a fresh one's (which is a parked session at seq 0). The
    /// connection-scoped clocks start here: the deadline quota bounds
    /// one connection's wall-clock, not the session's lifetime across
    /// reconnects (parked time has its own bound in the resume grace).
    fn attach(guard: SessionGuard, s: ParkedSession, durable: bool, cfg: &ServeConfig) -> Self {
        let now = Instant::now();
        Self {
            guard,
            checker: s.checker,
            journal: s.journal,
            durable,
            events: s.expected_seq,
            last_ack: s.expected_seq,
            nprocs: s.nprocs,
            pending_since: None,
            stalled: false,
            flight: s.flight,
            governance: s.governance,
            opened_at: now,
            bucket: (cfg.quota_event_rate > 0).then(|| TokenBucket::new(cfg.quota_event_rate, now)),
            last_report_bytes: 0,
        }
    }

    /// Bytes in the session's journal — its disk-backlog charge.
    fn journal_bytes(&self) -> u64 {
        self.journal.as_ref().map_or(0, |j| j.bytes_appended())
    }

    /// Syncs the journal for an ack, timing the fsync into the
    /// [`names::JOURNAL_FSYNC_US`] histogram. A failed sync downgrades
    /// durability to in-memory parking (journal dropped).
    fn sync_journal_for_ack(&mut self, obs: &RecorderHandle) {
        if let Some(j) = self.journal.as_mut() {
            let t0 = Instant::now();
            let result = j.sync_for_ack();
            let us = t0.elapsed().as_micros() as u64;
            obs.observe(names::JOURNAL_FSYNC_US, us);
            self.flight.record("fsync", format!("{us}us at seq {}", self.events));
            if let Err(e) = result {
                logkv!(Warn, [("session", self.guard.id())], "journal sync failed: {e}");
                self.flight.record("journal_lost", e.to_string());
                self.journal = None;
            }
        }
    }

    /// Sends the periodic `Ack`, observing ingest→ack latency. Returns
    /// `false` when the client is gone (the durable session then parks).
    fn send_ack(&mut self, conn: &mut impl Write, obs: &RecorderHandle) -> bool {
        let through = self.events;
        if !send(conn, &Frame::Ack { through }) {
            return false;
        }
        if let Some(since) = self.pending_since.take() {
            let us = since.elapsed().as_micros() as u64;
            obs.observe(names::INGEST_ACK_LATENCY_US, us);
            self.flight.record("ack", format!("through {through} ({us}us)"));
        } else {
            self.flight.record("ack", format!("through {through}"));
        }
        self.last_ack = through;
        true
    }
}

fn handle_conn(conn: Box<dyn Conn>, registry: Arc<Registry>, cfg: &ServeConfig) {
    let _ = conn.set_read_timeout_(Some(cfg.tick));
    let _ = conn.set_write_timeout_(cfg.write_timeout);
    let mut reader = FrameReader::new(conn);
    reader.set_allow_binary(!cfg.no_binary);
    let obs = &cfg.recorder;

    // Pre-session: answer query verbs, wait for Hello or Resume.
    let started = Instant::now();
    enum Opened {
        New { nprocs: usize, opts: SessionOpts },
        Resumed { guard: SessionGuard, parked: Box<ParkedSession> },
    }
    let opened = loop {
        match reader.next_frame() {
            Ok(Some(verb @ (Frame::Stats | Frame::Metrics | Frame::Health))) => {
                if !send(reader.get_mut(), &query_reply(&verb, &registry, cfg)) {
                    return;
                }
            }
            Ok(Some(Frame::Hello { version, nprocs, opts })) => {
                if let Err(message) = vet_hello(version, nprocs) {
                    registry.note_rejected();
                    obs.add("serve_hellos_rejected_total", 1);
                    log!(Warn, "hello rejected: {message}");
                    refuse(reader.get_mut(), message);
                    return;
                }
                // Admission control: a full house or elevated memory
                // pressure refuses new work before it costs anything.
                // `Resume` is exempt — refusing one would strand the
                // very parked memory the daemon wants freed.
                let f = registry.fleet();
                let level = pressure_of(f.buffered_bytes + f.journal_bytes, cfg.mem_ceiling as u64);
                let at_capacity = cfg.max_sessions > 0 && f.active + f.parked >= cfg.max_sessions;
                if at_capacity || level >= PressureLevel::Elevated {
                    registry.note_rejected();
                    obs.add(names::HELLOS_BUSY, 1);
                    let message = if at_capacity {
                        format!("server at capacity ({} session(s)); retry later", cfg.max_sessions)
                    } else {
                        format!("server under {} memory pressure; retry later", level.as_str())
                    };
                    log!(Warn, "hello refused: {message}");
                    let retry_after_ms = cfg.busy_retry_after.as_millis() as u64;
                    let reply = if opts.governance {
                        Frame::Busy { retry_after_ms, message }
                    } else {
                        Frame::Error { message }
                    };
                    send(reader.get_mut(), &reply);
                    return;
                }
                break Opened::New { nprocs: nprocs as usize, opts };
            }
            Ok(Some(Frame::Resume { session, from_seq })) => {
                // The old connection may not have noticed its death yet;
                // give it a moment to park before giving up.
                let deadline = Instant::now() + cfg.resume_grace.min(Duration::from_secs(2));
                let outcome = loop {
                    match registry.resume(session) {
                        ResumeOutcome::Active => {
                            if Instant::now() >= deadline {
                                break ResumeOutcome::Active;
                            }
                            thread::sleep(cfg.tick);
                        }
                        other => break other,
                    }
                };
                match outcome {
                    ResumeOutcome::Parked(guard, parked) => {
                        if from_seq > parked.expected_seq {
                            // The client lost events the server never
                            // acked; the stream cannot be stitched.
                            let message = format!(
                                "cannot resume session {session}: server holds seq \
                                 {} but client can only re-send from {from_seq}",
                                parked.expected_seq
                            );
                            log!(Warn, "{message}");
                            guard.park(*parked);
                            refuse(reader.get_mut(), message);
                            return;
                        }
                        break Opened::Resumed { guard, parked };
                    }
                    ResumeOutcome::Retired(json) => {
                        // Completed while the client was away: redeliver.
                        obs.add(names::SESSIONS_RESUMED, 1);
                        log!(Info, "session {session} resumed into its retired report");
                        if send(reader.get_mut(), &welcome_frame(session, cfg)) {
                            send(reader.get_mut(), &Frame::Report { json });
                        }
                        return;
                    }
                    ResumeOutcome::Active => {
                        refuse(
                            reader.get_mut(),
                            format!("session {session} is still attached to another connection"),
                        );
                        return;
                    }
                    ResumeOutcome::Gone => {
                        log!(Warn, "resume refused: session {session} is gone");
                        send(reader.get_mut(), &Frame::Gone { session });
                        return;
                    }
                }
            }
            Ok(Some(_)) => {
                refuse(reader.get_mut(), "expected Hello, Resume, Stats, Metrics, or Health");
                return;
            }
            Ok(None) => return,
            Err(ProtoError::Idle) => {
                if started.elapsed() >= cfg.idle_timeout {
                    return;
                }
            }
            Err(
                e @ (ProtoError::Corrupt { .. }
                | ProtoError::Malformed(_)
                | ProtoError::TooLarge(_)),
            ) => {
                if !matches!(e, ProtoError::TooLarge(_)) {
                    obs.add(names::FRAMES_CORRUPT, 1);
                }
                refuse(reader.get_mut(), e.to_string());
                return;
            }
            Err(_) => return,
        }
    };

    let ctx = match opened {
        Opened::New { nprocs, opts } => {
            let session = AnalysisSession::builder().recorder(obs.clone()).build();
            let mut checker = match StreamingChecker::with_session(nprocs, session) {
                Ok(c) => c,
                Err(e) => {
                    registry.note_rejected();
                    obs.add("serve_hellos_rejected_total", 1);
                    log!(Warn, "session refused: {e}");
                    refuse(reader.get_mut(), e.to_string());
                    return;
                }
            };
            let cap = match opts.max_buffered {
                0 => cfg.hard_watermark,
                n => (n as usize).min(cfg.hard_watermark),
            };
            checker.set_high_watermark(Some(cap));

            let guard = registry.register(nprocs);
            obs.add("serve_sessions_started_total", 1);
            log!(Info, "session {} opened: {nprocs} rank(s)", guard.id());
            let id = guard.id();
            let journal = cfg.journal_dir.as_deref().filter(|_| opts.durable).and_then(|dir| {
                // A dead disk downgrades durability to in-memory
                // parking; the session still runs.
                Journal::create(dir, id, nprocs as u32, &opts, cap as u32, cfg.fsync)
                    .map_err(|e| log!(Warn, "session {id}: cannot create journal: {e}"))
                    .ok()
            });
            if !send(reader.get_mut(), &welcome_frame(guard.id(), cfg)) {
                // Client is already gone; the guard's Drop records the
                // salvage (nothing ingested yet, nothing to park).
                if let Some(j) = journal {
                    let _ = j.retire();
                }
                return;
            }
            let mut flight = FlightRecorder::default();
            flight.record("open", format!("nprocs={nprocs} durable={}", opts.durable));
            let fresh = ParkedSession {
                nprocs,
                checker,
                expected_seq: 0,
                journal,
                progress: Progress::default(),
                flight,
                governance: opts.governance,
            };
            SessionCtx::attach(guard, fresh, opts.durable, cfg)
        }
        Opened::Resumed { guard, parked } => {
            obs.add(names::SESSIONS_RESUMED, 1);
            let id = guard.id();
            let through = parked.expected_seq;
            logkv!(Info, [("session", id)], "resumed at seq {through}");
            let mut ctx = SessionCtx::attach(guard, *parked, true, cfg);
            ctx.flight.record("resume", format!("at seq {through}"));
            if !send(reader.get_mut(), &welcome_frame(id, cfg))
                || !send(reader.get_mut(), &Frame::Ack { through })
            {
                // Died again before the handshake finished: re-park.
                park(ctx, obs);
                return;
            }
            ctx
        }
    };

    run_session(&mut reader, &registry, cfg, ctx);
}

/// What the session loop does after handling one frame (or one
/// frameless governance check).
enum Next {
    /// Keep reading.
    Continue,
    /// The connection or the stream is no longer usable: park a durable
    /// session (awaiting a `Resume`), salvage any other.
    Abandon,
    /// Degrade-then-evict under a governance limit.
    Evict { quota: &'static str, limit: u64, observed: u64 },
}

fn run_session(
    reader: &mut FrameReader<Box<dyn Conn>>,
    registry: &Arc<Registry>,
    cfg: &ServeConfig,
    mut ctx: SessionCtx,
) {
    let obs = &cfg.recorder;
    let session_span = obs.span("serve.session");
    let mut last_activity = Instant::now();
    loop {
        // Governance checks that do not need a frame to fire: a shed
        // mark left by the janitor, or the wall-clock deadline. Both
        // are noticed at worst one read-timeout tick late.
        let overdue = cfg
            .session_deadline
            .map(|deadline| (deadline, ctx.opened_at.elapsed()))
            .filter(|(deadline, elapsed)| elapsed >= deadline);
        let next = if registry.shed_requested(ctx.guard.id()) {
            ctx.flight.record("shed", "critical memory pressure; evicting");
            Next::Evict {
                quota: "memory-pressure",
                limit: cfg.mem_ceiling as u64,
                observed: ctx.checker.buffered_bytes() as u64 + ctx.journal_bytes(),
            }
        } else if let Some((deadline, elapsed)) = overdue {
            obs.add(names::QUOTA_EVICTIONS, 1);
            Next::Evict {
                quota: "deadline",
                limit: deadline.as_millis() as u64,
                observed: elapsed.as_millis() as u64,
            }
        } else {
            match reader.next_frame() {
                // An Event is a Batch of one on arrival: both wire
                // shapes take the same ingest step.
                Ok(Some(Frame::Event { seq, rank, kind, loc })) => {
                    last_activity = Instant::now();
                    let mut one = EventBatch::new(seq);
                    one.push(rank, kind, &loc);
                    ingest(&mut ctx, &one, registry, reader.get_mut(), cfg)
                }
                Ok(Some(Frame::Batch(batch))) => {
                    last_activity = Instant::now();
                    ingest(&mut ctx, &batch, registry, reader.get_mut(), cfg)
                }
                Ok(Some(Frame::TraceCtx { trace_id, parent_span })) if !cfg.no_tracectx => {
                    last_activity = Instant::now();
                    obs.link_remote(session_span.id(), trace_id, parent_span);
                    ctx.flight.record(
                        "tracectx",
                        format!("trace {trace_id:#x} parent span {parent_span}"),
                    );
                    Next::Continue
                }
                Ok(Some(Frame::Finish)) => return complete(ctx, registry, reader.get_mut(), cfg),
                Ok(Some(verb @ (Frame::Stats | Frame::Metrics | Frame::Health))) => {
                    if send(reader.get_mut(), &query_reply(&verb, registry, cfg)) {
                        Next::Continue
                    } else {
                        Next::Abandon
                    }
                }
                // Includes a TraceCtx on an opted-out server: the
                // capability was not announced, so the frame is as
                // unknown as it is to a pre-tracectx build.
                Ok(Some(_)) => {
                    refuse(reader.get_mut(), "unexpected frame mid-session");
                    Next::Abandon
                }
                // Clean EOF without Finish, truncation, or transport
                // errors: the client died mid-stream.
                Ok(None) | Err(ProtoError::Truncated { .. }) | Err(ProtoError::Io(_)) => {
                    ctx.flight.record("disconnect", "stream ended without Finish");
                    Next::Abandon
                }
                Err(ProtoError::Idle) if last_activity.elapsed() < cfg.idle_timeout => {
                    Next::Continue
                }
                Err(ProtoError::Idle) => {
                    logkv!(
                        Warn,
                        [("session", ctx.guard.id())],
                        "idle for {:?}; closing",
                        cfg.idle_timeout
                    );
                    ctx.flight.record("idle", format!("idle past {:?}", cfg.idle_timeout));
                    Next::Abandon
                }
                Err(e @ (ProtoError::Corrupt { .. } | ProtoError::Malformed(_))) => {
                    // The transport corrupted a frame: answer with a
                    // typed Error (the stream can no longer be trusted),
                    // then park or salvage. A durable client reconnects
                    // and resumes from its last Ack.
                    obs.add(names::FRAMES_CORRUPT, 1);
                    logkv!(Warn, [("session", ctx.guard.id())], "{e}");
                    ctx.flight.record("corrupt", e.to_string());
                    refuse(reader.get_mut(), e.to_string());
                    Next::Abandon
                }
                Err(_) => Next::Abandon,
            }
        };
        match next {
            Next::Continue => {}
            Next::Abandon if ctx.durable => return park(ctx, obs),
            Next::Abandon => return salvage(ctx, registry, reader.get_mut(), cfg),
            Next::Evict { quota, limit, observed } => {
                return quota_evict(ctx, registry, reader.get_mut(), cfg, quota, limit, observed)
            }
        }
    }
}

/// The one ingest step. Both wire shapes arrive here as an
/// [`EventBatch`] (an `Event` frame as a batch of one), so validation,
/// the durable duplicate-prefix skip and gap check, the push into the
/// checker, the journal append, progress reporting, quotas, the ack,
/// rate pacing and backpressure happen in one order for every event.
fn ingest(
    ctx: &mut SessionCtx,
    batch: &EventBatch,
    registry: &Arc<Registry>,
    conn: &mut impl Write,
    cfg: &ServeConfig,
) -> Next {
    let obs = &cfg.recorder;
    if let Err(message) = batch.validate() {
        obs.add(names::FRAMES_CORRUPT, 1);
        ctx.flight.record("batch_invalid", message.clone());
        refuse(conn, message);
        return Next::Abandon;
    }
    // A durable stream is sequence-checked: a re-sent prefix the checker
    // already holds is skipped (redelivery after a resume is
    // idempotent), while a hole cannot be stitched.
    let mut skip = 0usize;
    if ctx.durable {
        if batch.first_seq > ctx.events {
            let message =
                format!("event gap: expected seq {}, got {}", ctx.events, batch.first_seq);
            ctx.flight.record("gap", message.clone());
            refuse(conn, message);
            return Next::Abandon;
        }
        skip = ((ctx.events - batch.first_seq) as usize).min(batch.len());
        if skip > 0 {
            obs.add(names::EVENTS_DUPLICATE, skip as u64);
        }
    }
    if skip == batch.len() {
        return Next::Continue;
    }

    // Push, then journal exactly what was pushed: a refused event ends
    // the run, and the prefix before it is ingested like any other.
    let events_before = ctx.events;
    let evictions_before = ctx.checker.evictions;
    let mut refused = None;
    for i in skip..batch.len() {
        let (rank, kind, loc) = batch.event(i);
        if let Err(e) = ctx.checker.push(Rank(rank), kind.clone(), loc.clone()) {
            refused = Some(e);
            break;
        }
        ctx.events += 1;
    }
    let ingested = ctx.events - events_before;
    if ingested > 0 {
        ctx.pending_since.get_or_insert_with(Instant::now);
        obs.add("serve_events_total", ingested);
    }
    if ctx.checker.evictions > evictions_before {
        ctx.flight.record(
            "evict",
            format!(
                "{} eviction(s) in batch at seq {}",
                ctx.checker.evictions - evictions_before,
                batch.first_seq
            ),
        );
    }
    if let Some(j) = ctx.journal.as_mut().filter(|_| ingested > 0) {
        let appended = j.append_batch(&batch.slice(skip..skip + ingested as usize));
        if let Err(e) = appended {
            // Journal failure downgrades durability to in-memory
            // parking; the stream continues.
            logkv!(Warn, [("session", ctx.guard.id())], "journal write failed: {e}");
            ctx.flight.record("journal_lost", e.to_string());
            ctx.journal = None;
        }
    }
    // Progress once per 256-event boundary crossed, and additionally on
    // every ~1 MiB of buffered-byte growth — a flood of huge events must
    // reach the accountant before it reaches the event-count cadence.
    let buffered_bytes = ctx.checker.buffered_bytes();
    if events_before / 256 != ctx.events / 256
        || buffered_bytes.abs_diff(ctx.last_report_bytes) >= BYTES_REPORT_DELTA
    {
        ctx.last_report_bytes = buffered_bytes;
        ctx.guard.report_progress(Progress::live(&ctx.checker, ctx.events, ctx.journal_bytes()));
        ctx.flight.record("frame", format!("batch of {} at seq {}", batch.len(), batch.first_seq));
    }
    if let Some(e) = refused {
        // A client feeding invalid events — a rank outside the session,
        // or a region that does not resolve — has no coherent stream
        // left.
        ctx.flight.record("push_error", e.to_string());
        refuse(conn, e.to_string());
        // The invalid region has left the checker, so a resume could
        // only continue past it: even a durable session ends here.
        ctx.durable &= !matches!(e, StreamError::Trace(_));
        return Next::Abandon;
    }

    if cfg.quota_max_events > 0 && ctx.events > cfg.quota_max_events {
        obs.add(names::QUOTA_EVICTIONS, 1);
        return Next::Evict {
            quota: "max-events",
            limit: cfg.quota_max_events,
            observed: ctx.events,
        };
    }
    if cfg.quota_max_bytes > 0 && buffered_bytes > cfg.quota_max_bytes {
        obs.add(names::QUOTA_EVICTIONS, 1);
        return Next::Evict {
            quota: "max-buffered-bytes",
            limit: cfg.quota_max_bytes as u64,
            observed: buffered_bytes as u64,
        };
    }
    if ctx.durable && ctx.events - ctx.last_ack >= cfg.ack_interval {
        ctx.sync_journal_for_ack(obs);
        if !ctx.send_ack(conn, obs) {
            return Next::Abandon;
        }
    }
    throttle(ctx, registry, conn, cfg, ingested);
    let buffered = ctx.checker.buffered();
    if buffered >= cfg.soft_watermark {
        obs.add("serve_backpressure_stalls_total", 1);
        if !ctx.stalled {
            ctx.stalled = true;
            ctx.flight
                .record("backpressure", format!("buffered {buffered} crossed soft watermark"));
        }
        thread::sleep(cfg.backpressure_pause);
    } else if ctx.stalled {
        ctx.stalled = false;
        ctx.flight.record("backpressure", format!("cleared at {buffered}"));
    }
    Next::Continue
}

/// Ends a session on its client's `Finish`: builds the report, settles
/// the registry, then delivers.
fn complete(
    mut ctx: SessionCtx,
    registry: &Arc<Registry>,
    conn: &mut impl Write,
    cfg: &ServeConfig,
) {
    let obs = &cfg.recorder;
    // Short sessions never reach the progress cadence; charge what the
    // stream ended with before it is released.
    ctx.guard.report_progress(Progress::live(&ctx.checker, ctx.events, ctx.journal_bytes()));
    let report = match conclude(ctx.checker, ctx.events, false) {
        Ok(report) => report,
        Err(e) => {
            // The final region does not resolve: refuse it as `ingest`
            // refuses an invalid region mid-stream. Dropping the guard
            // settles the session as salvaged.
            ctx.flight.record("push_error", e.to_string());
            refuse(conn, e.to_string());
            if let Some(j) = ctx.journal.take() {
                let _ = j.retire();
            }
            return;
        }
    };
    if let Some(j) = ctx.journal.as_mut() {
        // Mark completion in the journal before the report is retired
        // and handed over.
        let _ = j.append_finish();
    }
    obs.add("serve_sessions_completed_total", 1);
    // The Report acknowledges everything still pending, so it closes
    // the ingest→ack window for short sessions that never crossed the
    // ack interval.
    if let Some(since) = ctx.pending_since.take() {
        obs.observe(names::INGEST_ACK_LATENCY_US, since.elapsed().as_micros() as u64);
    }
    logkv!(
        Info,
        [("session", ctx.guard.id())],
        "completed: {} event(s), {} finding(s)",
        ctx.events,
        report.findings.len()
    );
    if deliver(ctx.guard, ctx.durable, &report, Outcome::Completed, registry, conn) {
        // The journal has served its purpose; the in-memory retired
        // report covers a redelivery race. An undelivered report keeps
        // its journal so a daemon crash can still rebuild it.
        if let Some(j) = ctx.journal.take() {
            let _ = j.retire();
        }
    }
}

/// Settles a session whose report is built, then offers the report to
/// its client; returns whether the client took it. The registry comes
/// first: a client that reads its Report and immediately asks for STATS
/// must not find its own session active. A durable session's report is
/// retired for idempotent redelivery — a client that reconnects after
/// its session completed (or salvaged) gets the report, not a `Gone`.
fn deliver(
    guard: SessionGuard,
    durable: bool,
    report: &SessionReport,
    outcome: Outcome,
    registry: &Registry,
    conn: &mut impl Write,
) -> bool {
    guard.report_progress(Progress::settled(report));
    let json = report.to_json();
    if durable {
        registry.retire_report(guard.id(), json.clone());
    }
    guard.finish(outcome);
    send(conn, &Frame::Report { json })
}

/// Paces a session against its event-rate quota: consumes `n` tokens
/// and, when over rate, stalls the connection thread for the deficit
/// (the kernel socket buffer, and eventually the client, absorb the
/// stall — same mechanism as backpressure). The first stall of a
/// crossing also tells a governance-aware client via `Throttled`; rate
/// pacing never evicts.
fn throttle(
    ctx: &mut SessionCtx,
    registry: &Arc<Registry>,
    conn: &mut impl Write,
    cfg: &ServeConfig,
    n: u64,
) {
    let Some(bucket) = ctx.bucket.as_mut() else { return };
    let (stall, crossed) = bucket.consume(Instant::now(), n);
    if stall.is_zero() {
        return;
    }
    cfg.recorder.add(names::THROTTLE_STALLS, 1);
    if crossed {
        registry.note_throttled();
        ctx.flight.record(
            "throttle",
            format!(
                "rate quota {} ev/s crossed; stalling {}ms",
                cfg.quota_event_rate,
                stall.as_millis()
            ),
        );
        if ctx.governance {
            send(conn, &Frame::Throttled { retry_after_ms: stall.as_millis() as u64 });
        }
    }
    thread::sleep(stall);
}

/// Degrade-then-evict for a governance limit (hard quota, deadline, or
/// pressure shed): answers with the typed `QuotaExceeded` — or a plain
/// `Error` for clients that did not negotiate `governance` — then
/// salvages the session, durable or not. Salvage is the point: the
/// degraded report is offered over the still-open connection and the
/// session's memory (checker and journal) is released immediately.
/// Parking a quota violator would keep the very bytes the limit exists
/// to bound.
fn quota_evict(
    mut ctx: SessionCtx,
    registry: &Arc<Registry>,
    conn: &mut (impl Read + Write),
    cfg: &ServeConfig,
    quota: &str,
    limit: u64,
    observed: u64,
) {
    ctx.flight.record("quota", format!("{quota}: {observed} over limit {limit}"));
    logkv!(
        Warn,
        [("session", ctx.guard.id())],
        "quota {quota} exceeded ({observed} over {limit}); evicting"
    );
    let notice = if ctx.governance {
        Frame::QuotaExceeded { quota: quota.to_string(), limit, observed }
    } else {
        Frame::Error { message: format!("quota {quota} exceeded: {observed} over limit {limit}") }
    };
    send(conn, &notice);
    salvage(ctx, registry, conn, cfg);
    // The peer may still have events in flight; dropping the socket with
    // unread data pending turns the close into an RST, which can destroy
    // the notice and report just written before the peer reads them.
    // Draining briefly converts the close into a clean FIN for any
    // modest backlog — a peer that keeps flooding past the allowance
    // still gets cut off hard.
    drain_inbound(conn, Duration::from_millis(200));
}

/// Reads and discards inbound bytes until EOF, an error, or the
/// allowance elapses (the connection's read timeout, `cfg.tick`, bounds
/// each wait).
fn drain_inbound(conn: &mut impl Read, allowance: Duration) {
    let deadline = Instant::now() + allowance;
    let mut sink = [0u8; 16 * 1024];
    while Instant::now() < deadline {
        match conn.read(&mut sink) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {}
            Err(_) => return,
        }
    }
}

/// Parks a durable session: sync the journal, move the live checker into
/// the registry, wait for a `Resume`.
fn park(mut ctx: SessionCtx, obs: &RecorderHandle) {
    if let Some(j) = ctx.journal.as_mut() {
        let t0 = Instant::now();
        let _ = j.sync_for_ack();
        obs.observe(names::JOURNAL_FSYNC_US, t0.elapsed().as_micros() as u64);
    }
    obs.add(names::SESSIONS_PARKED, 1);
    logkv!(Info, [("session", ctx.guard.id())], "parked at seq {}", ctx.events);
    ctx.flight.record("park", format!("at seq {}", ctx.events));
    ctx.guard.park(ParkedSession {
        nprocs: ctx.nprocs,
        checker: ctx.checker,
        expected_seq: ctx.events,
        journal: ctx.journal,
        progress: Progress::default(), // replaced by the registry's copy
        flight: ctx.flight,
        governance: ctx.governance,
    });
}

/// Ends an abnormal session for good: analyzes whatever arrived in
/// degraded mode, offers the degraded report to the (possibly gone)
/// client, and records the session as salvaged.
fn salvage(
    mut ctx: SessionCtx,
    registry: &Arc<Registry>,
    conn: &mut impl Write,
    cfg: &ServeConfig,
) {
    cfg.recorder.add("serve_sessions_salvaged_total", 1);
    logkv!(Warn, [("session", ctx.guard.id())], "salvaged after {} event(s)", ctx.events);
    ctx.flight.record("salvage", format!("after {} event(s)", ctx.events));
    dump_flight(cfg, ctx.guard.id(), &ctx.flight);
    if let Some(j) = ctx.journal.take() {
        let _ = j.retire();
    }
    let Ok(report) = conclude(ctx.checker, ctx.events, true) else { return };
    // The client is usually gone, and a failed write changes nothing.
    deliver(ctx.guard, ctx.durable, &report, Outcome::Salvaged, registry, conn);
}
