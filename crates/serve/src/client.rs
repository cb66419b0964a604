//! A blocking client for the checker daemon.
//!
//! Streams a recorded [`Trace`] to a running `mcc serve` daemon event by
//! event — ranks interleaved round-robin, the order events would arrive
//! from live instrumentation — and returns the daemon's
//! [`SessionReport`].
//!
//! Two submission modes:
//!
//! * [`submit_over`] / [`submit_tcp`] — one shot: any transport failure
//!   is the caller's problem.
//! * [`submit_durable_tcp`] — resilient: opens a *durable* session,
//!   tracks the server's `Ack` offsets, and on any transport failure
//!   reconnects with exponential backoff + deterministic jitter and a
//!   `Resume{session, from_seq}`, re-sending only unacknowledged events.
//!   Re-sent events the server already ingested are skipped server-side
//!   (sequence numbers make redelivery idempotent), so the final report
//!   is byte-identical to an uninterrupted run. If the server no longer
//!   knows the session (`Gone`), the client falls back to a fresh
//!   submission of the full trace — same report either way.
//!
//! Both modes negotiate the event-stream shape from the server's
//! `Welcome` capabilities ([`SubmitCfg`]): against a server announcing
//! `binary`, events go out as columnar
//! [`EventBatch`](crate::proto::EventBatch) frames in the compact binary
//! codec; otherwise (or with `prefer_binary` off) they fall back to
//! per-event JSON frames, which every server understands. Handshake and
//! control frames are always JSON.

pub use crate::proto::MAX_BATCH_EVENTS;
use crate::proto::{
    write_all_vectored, write_frame_with, Frame, FrameReader, ProtoError, SessionOpts,
    StreamEncoder, CAP_BINARY, CAP_TRACECTX, PROTOCOL_VERSION,
};
use crate::report::SessionReport;
use mcc_codec::CodecKind;
use mcc_core::preprocess::HEADLINES;
use mcc_types::{EventKind, SourceLoc, Trace};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

// Control frames (Hello, Resume, Finish, Stats, Metrics) stay JSON: they
// are the handshake surface every server version must parse.
const CONTROL: CodecKind = CodecKind::Json;

/// Why a submission failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server sent bytes that are not a valid frame.
    Proto(ProtoError),
    /// The server refused the session (version mismatch, bad `nprocs`).
    Rejected(String),
    /// The server sent a frame that makes no sense at this point.
    UnexpectedFrame(String),
    /// The `Report` payload did not parse as a [`SessionReport`].
    BadReport(String),
    /// No complete reply arrived within the read deadline.
    TimedOut,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Rejected(m) => write!(f, "server rejected the session: {m}"),
            ClientError::UnexpectedFrame(m) => write!(f, "unexpected frame from server: {m}"),
            ClientError::BadReport(m) => write!(f, "unparseable session report: {m}"),
            ClientError::TimedOut => f.write_str("timed out waiting for the server's reply"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        match e {
            ProtoError::Io(e) => ClientError::Io(e),
            other => ClientError::Proto(other),
        }
    }
}

/// Default bound on how long [`read_reply`] waits for a complete frame.
const DEFAULT_REPLY_DEADLINE: Duration = Duration::from_secs(30);

/// Longest single pause between reply-read retries.
const MAX_IDLE_PAUSE: Duration = Duration::from_millis(50);

/// Reads the next meaningful frame, skipping `Ack`s (they are progress,
/// not replies) and the governance advisories — see [`await_frame`].
fn read_reply<S: Read>(
    reader: &mut FrameReader<S>,
    deadline: Duration,
) -> Result<Frame, ClientError> {
    await_frame(reader, deadline, false)
}

/// Reads the next frame that is not a governance advisory: `Throttled`
/// (pacing notice) and `QuotaExceeded` (always followed by the degraded
/// `Report` the caller is waiting for) carry nothing to act on. `Ack`s
/// are returned only when `want_acks` (the post-resume handshake needs
/// the offset). Idle reads — a socket read timeout before a complete
/// frame — back off with a bounded sleep instead of busy-spinning, and
/// give up with [`ClientError::TimedOut`] once `deadline` has elapsed.
/// The deadline and the backoff span the whole wait: a skipped frame
/// restarts neither.
fn await_frame<S: Read>(
    reader: &mut FrameReader<S>,
    deadline: Duration,
    want_acks: bool,
) -> Result<Frame, ClientError> {
    let started = Instant::now();
    let mut pause = Duration::from_millis(1);
    loop {
        match reader.next_frame() {
            Ok(Some(Frame::Ack { .. })) if !want_acks => {}
            Ok(Some(Frame::Throttled { .. } | Frame::QuotaExceeded { .. })) => {}
            Ok(Some(f)) => return Ok(f),
            Ok(None) => {
                return Err(ClientError::UnexpectedFrame(
                    "server closed the connection without replying".into(),
                ))
            }
            Err(ProtoError::Idle) => {
                if started.elapsed() >= deadline {
                    return Err(ClientError::TimedOut);
                }
                thread::sleep(pause);
                pause = (pause * 2).min(MAX_IDLE_PAUSE);
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// How the event stream is shaped on the wire.
#[derive(Debug, Clone)]
pub struct SubmitCfg {
    /// Events per `Batch` frame when the binary codec is negotiated
    /// (capped at [`MAX_BATCH_EVENTS`]); `0` or `1` sends per-event
    /// frames even over binary.
    pub batch_size: usize,
    /// Negotiate the binary codec when the server offers it. Off forces
    /// the per-event JSON fallback regardless of the server.
    pub prefer_binary: bool,
}

impl Default for SubmitCfg {
    fn default() -> Self {
        Self { batch_size: 256, prefer_binary: true }
    }
}

/// Accumulate roughly this many bytes of encoded frames per socket
/// write.
const FLUSH_BYTES: usize = 1 << 18;

/// What one submission did on the wire (for benchmarks and diagnostics).
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitInfo {
    /// The negotiated event-stream codec.
    pub codec: CodecKind,
    /// Bytes of event frames written (headers included; handshake and
    /// Finish excluded).
    pub bytes_sent: u64,
    /// Event/batch frames written.
    pub frames_sent: u64,
    /// Wall-clock spent encoding event frames.
    pub encode: Duration,
    /// Wall-clock spent writing them to the socket.
    pub io: Duration,
}

/// Flattens a trace into stream order: ranks interleaved round-robin, the
/// order events would arrive from live instrumentation. Index `i` of the
/// result is the event with `seq == i`, so a resume from `Ack{through}`
/// is just a slice from `through`.
pub fn flatten_events(trace: &Trace) -> Vec<(u32, EventKind, SourceLoc)> {
    let mut out = Vec::with_capacity(trace.total_events());
    out.extend(trace.stream_order().map(|(rank, kind, loc)| (rank.0, kind, loc)));
    out
}

/// Picks the event-stream codec from the server's `Welcome` capabilities.
fn negotiated_codec(capabilities: &[String], prefer_binary: bool) -> CodecKind {
    if prefer_binary && capabilities.iter().any(|c| c == CAP_BINARY) {
        CodecKind::Binary
    } else {
        CodecKind::Json
    }
}

/// Stamps the session with this process's trace context when the server
/// negotiated `tracectx` and the global recorder is live. Sent right
/// after `Welcome` — never speculatively, so a `tracectx`-unaware server
/// (old build, or `--no-tracectx`) is never shown a frame it cannot
/// decode. Returns the frame written, if any.
fn send_trace_ctx<S: Read + Write>(
    reader: &mut FrameReader<S>,
    capabilities: &[String],
    parent_span: u64,
) -> Result<bool, ProtoError> {
    if !capabilities.iter().any(|c| c == CAP_TRACECTX) {
        return Ok(false);
    }
    let Some(trace_id) = mcc_obs::global().ensure_trace_id() else {
        return Ok(false);
    };
    write_frame_with(reader.get_mut(), &Frame::TraceCtx { trace_id, parent_span }, CONTROL)?;
    Ok(true)
}

/// Encodes `events[from..]` into wire frames through a
/// [`StreamEncoder`]: columnar `Batch` frames when the binary codec is
/// negotiated and batching is on, per-event frames otherwise.
pub fn encode_stream(
    events: &[(u32, EventKind, SourceLoc)],
    from: u64,
    codec: CodecKind,
    batch_size: usize,
) -> Vec<Vec<u8>> {
    let mut encoder = StreamEncoder::new(from, codec, batch_size);
    let mut out = Vec::new();
    for (rank, kind, loc) in &events[(from as usize).min(events.len())..] {
        out.extend(encoder.push(*rank, kind.clone(), loc));
    }
    out.extend(encoder.flush());
    out
}

/// The one send loop: writes `frames` with vectored writes (neither one
/// syscall per frame nor a concatenation copy), flushing whenever
/// `flush_bytes` have accumulated and at the end, and calls
/// `after_write` after every socket write. `bytes_sent` advances per
/// completed write, so it stays truthful when a later write fails.
fn send_frames<S: Read + Write>(
    reader: &mut FrameReader<S>,
    frames: &[Vec<u8>],
    flush_bytes: usize,
    bytes_sent: &mut u64,
    mut after_write: impl FnMut(&mut FrameReader<S>) -> Result<(), ClientError>,
) -> Result<(), ClientError> {
    let mut pending: Vec<&[u8]> = Vec::new();
    let mut pending_bytes = 0usize;
    for (i, bytes) in frames.iter().enumerate() {
        pending.push(bytes);
        pending_bytes += bytes.len();
        if pending_bytes >= flush_bytes || i + 1 == frames.len() {
            write_all_vectored(reader.get_mut(), &pending)?;
            *bytes_sent += pending_bytes as u64;
            pending.clear();
            pending_bytes = 0;
            after_write(reader)?;
        }
    }
    Ok(())
}

/// Streams `trace` over an established connection and returns the
/// server's report. Works over any `Read + Write` stream — TCP, Unix
/// socket, or an in-memory pair in tests. One shot: transport failures
/// are returned, not retried (see [`submit_durable_tcp`] for the
/// resilient path).
pub fn submit_over<S: Read + Write>(
    stream: S,
    trace: &Trace,
    opts: &SessionOpts,
) -> Result<SessionReport, ClientError> {
    submit_over_cfg(stream, trace, opts, &SubmitCfg::default()).map(|(report, _)| report)
}

/// [`submit_over`] with an explicit wire shape, also returning what the
/// submission did on the wire.
pub fn submit_over_cfg<S: Read + Write>(
    stream: S,
    trace: &Trace,
    opts: &SessionOpts,
    cfg: &SubmitCfg,
) -> Result<(SessionReport, SubmitInfo), ClientError> {
    let submit_span = mcc_obs::global().span("client.submit");
    let mut reader = FrameReader::new(stream);
    // This build understands Busy/Throttled/QuotaExceeded, so tell the
    // server it may use them instead of plain Errors.
    let mut opts = opts.clone();
    opts.governance = true;
    write_frame_with(
        reader.get_mut(),
        &Frame::Hello { version: PROTOCOL_VERSION, nprocs: trace.nprocs() as u32, opts },
        CONTROL,
    )?;
    let capabilities = match read_reply(&mut reader, DEFAULT_REPLY_DEADLINE)? {
        Frame::Welcome { capabilities, .. } => capabilities,
        Frame::Busy { retry_after_ms, message } => {
            return Err(ClientError::Rejected(format!(
                "{message} (server busy; retry after {retry_after_ms}ms)"
            )))
        }
        Frame::Error { message } => return Err(ClientError::Rejected(message)),
        other => return Err(ClientError::UnexpectedFrame(format!("{other:?}"))),
    };
    send_trace_ctx(&mut reader, &capabilities, submit_span.id())?;
    let codec = negotiated_codec(&capabilities, cfg.prefer_binary);
    let mut info = SubmitInfo { codec, ..Default::default() };

    let events = flatten_events(trace);
    let t = Instant::now();
    let encoded = encode_stream(&events, 0, codec, cfg.batch_size);
    info.encode = t.elapsed();
    info.frames_sent = encoded.len() as u64;

    let t = Instant::now();
    send_frames(&mut reader, &encoded, FLUSH_BYTES, &mut info.bytes_sent, |_| Ok(()))?;
    info.io = t.elapsed();
    write_frame_with(reader.get_mut(), &Frame::Finish, CONTROL)?;

    match read_reply(&mut reader, DEFAULT_REPLY_DEADLINE)? {
        Frame::Report { json } => {
            SessionReport::from_json(&json).map(|r| (r, info)).map_err(ClientError::BadReport)
        }
        Frame::Error { message } => Err(ClientError::Rejected(message)),
        other => Err(ClientError::UnexpectedFrame(format!("{other:?}"))),
    }
}

/// Reconnect/backoff policy for [`submit_durable_tcp`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Reconnect attempts after the first connection (the retry budget).
    pub retries: u32,
    /// First backoff before a reconnect; doubles per retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// How long to wait for any single server reply.
    pub reply_deadline: Duration,
    /// Seed for the deterministic backoff jitter.
    pub jitter_seed: u64,
    /// Optional pacing: sleep this long after every event frame (written
    /// unbatched). Slows the stream down deliberately — e.g. so a test
    /// harness has a window to kill the daemon mid-session.
    pub throttle: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            retries: 8,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
            reply_deadline: Duration::from_secs(30),
            jitter_seed: 0x5EED,
            throttle: None,
        }
    }
}

/// What a durable submission went through to get its report.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitStats {
    /// Connections opened (1 for an undisturbed run).
    pub attempts: u32,
    /// Successful `Resume` handshakes.
    pub resumes: u32,
    /// Events re-sent beyond the first transmission.
    pub events_resent: u64,
    /// Wall-clock time of the whole submission.
    pub wall: Duration,
    /// Event-frame bytes written across all attempts.
    pub bytes_sent: u64,
    /// The event-stream codec the last attempt negotiated.
    pub codec: CodecKind,
}

/// How one connection attempt ended.
enum Attempt {
    /// The report arrived.
    Done(SessionReport),
    /// Transport trouble — reconnect and resume.
    Retry(ClientError),
    /// No point retrying (the server said no, or sent nonsense).
    Fatal(ClientError),
}

/// The attempt a server `Error` frame ends. A trace the resolver refuses
/// ([`mcc_core::preprocess::HEADLINES`]) is refused again on every
/// resend, so it is final; anything else (a corrupt frame, a gap, a
/// refused handshake that may be a corrupted echo) can clear on retry.
fn on_error_frame(message: String) -> Attempt {
    let refusal =
        HEADLINES.iter().any(|h| message.strip_prefix(h).is_some_and(|m| m.starts_with(':')));
    let e = ClientError::Rejected(message);
    if refusal {
        Attempt::Fatal(e)
    } else {
        Attempt::Retry(e)
    }
}

/// Streams `trace` to a TCP daemon as a durable session, riding out
/// connection drops, resets, and corrupt transports by resuming with
/// exponential backoff + jitter under `policy`'s retry budget. Returns
/// the report and what it took to get it.
pub fn submit_durable_tcp(
    addr: &str,
    trace: &Trace,
    opts: &SessionOpts,
    policy: &RetryPolicy,
) -> Result<(SessionReport, SubmitStats), ClientError> {
    submit_durable_tcp_cfg(addr, trace, opts, policy, &SubmitCfg::default())
}

/// [`submit_durable_tcp`] with an explicit wire shape.
pub fn submit_durable_tcp_cfg(
    addr: &str,
    trace: &Trace,
    opts: &SessionOpts,
    policy: &RetryPolicy,
    cfg: &SubmitCfg,
) -> Result<(SessionReport, SubmitStats), ClientError> {
    let tick = Duration::from_millis(5);
    submit_durable_with_cfg(
        || {
            let s = TcpStream::connect(addr)?;
            // A short read timeout keeps ack-draining cheap and lets the
            // reply deadline fire; the write timeout bounds a black hole.
            s.set_read_timeout(Some(tick))?;
            s.set_write_timeout(Some(Duration::from_secs(10)))?;
            Ok(s)
        },
        trace,
        opts,
        policy,
        cfg,
    )
}

/// [`submit_durable_tcp_cfg`] over an arbitrary connector — each call
/// must yield a fresh connection to the same server, configured with a
/// small read timeout (so idle reads surface instead of blocking
/// forever).
pub fn submit_durable_with_cfg<S, C>(
    mut connect: C,
    trace: &Trace,
    opts: &SessionOpts,
    policy: &RetryPolicy,
    cfg: &SubmitCfg,
) -> Result<(SessionReport, SubmitStats), ClientError>
where
    S: Read + Write,
    C: FnMut() -> io::Result<S>,
{
    let started = Instant::now();
    let mut opts = opts.clone();
    opts.durable = true;
    opts.governance = true;
    let events = flatten_events(trace);
    let mut stats = SubmitStats::default();
    let mut rng = StdRng::seed_from_u64(policy.jitter_seed);
    let mut session: Option<u64> = None;
    let mut acked: u64 = 0;
    let mut backoff = policy.base_backoff;
    let mut retries_left = policy.retries;

    loop {
        stats.attempts += 1;
        let outcome = match connect() {
            Ok(stream) => one_attempt(
                stream,
                trace,
                &opts,
                policy,
                cfg,
                &events,
                &mut session,
                &mut acked,
                &mut stats,
            ),
            Err(e) => Attempt::Retry(ClientError::Io(e)),
        };
        match outcome {
            Attempt::Done(report) => {
                stats.wall = started.elapsed();
                return Ok((report, stats));
            }
            Attempt::Fatal(e) => return Err(e),
            Attempt::Retry(e) => {
                if retries_left == 0 {
                    return Err(e);
                }
                retries_left -= 1;
                let jitter_ms = rng.gen_range(0..(backoff.as_millis() as u64).max(1));
                thread::sleep(backoff + Duration::from_millis(jitter_ms));
                backoff = (backoff * 2).min(policy.max_backoff);
            }
        }
    }
}

/// One connection's worth of the durable protocol: handshake (Hello or
/// Resume), stream unacked events, Finish, wait for the Report.
#[allow(clippy::too_many_arguments)]
fn one_attempt<S: Read + Write>(
    stream: S,
    trace: &Trace,
    opts: &SessionOpts,
    policy: &RetryPolicy,
    cfg: &SubmitCfg,
    events: &[(u32, EventKind, SourceLoc)],
    session: &mut Option<u64>,
    acked: &mut u64,
    stats: &mut SubmitStats,
) -> Attempt {
    let submit_span = mcc_obs::global().span("client.submit");
    let mut reader = FrameReader::new(stream);

    // Handshake. Each attempt re-negotiates the event-stream codec from
    // the Welcome it receives — a resume may land on a differently
    // configured server.
    let capabilities;
    if let Some(id) = *session {
        if let Err(e) = write_frame_with(
            reader.get_mut(),
            &Frame::Resume { session: id, from_seq: *acked },
            CONTROL,
        ) {
            return Attempt::Retry(e.into());
        }
        match read_reply(&mut reader, policy.reply_deadline) {
            Ok(Frame::Welcome { capabilities: caps, .. }) => capabilities = caps,
            Ok(Frame::Gone { .. }) => {
                // The server lost the session (expired, or a crash with
                // no journal); start over with the full trace.
                *session = None;
                *acked = 0;
                return Attempt::Retry(ClientError::Rejected(format!(
                    "session {id} is gone; resubmitting from scratch"
                )));
            }
            // An `Error` here can be the server genuinely refusing — or
            // the echo of a transport-corrupted `Resume`. Durable mode
            // retries either way; the budget bounds a hard refusal.
            Ok(Frame::Error { message }) => return Attempt::Retry(ClientError::Rejected(message)),
            Ok(other) => return Attempt::Fatal(ClientError::UnexpectedFrame(format!("{other:?}"))),
            Err(e @ ClientError::BadReport(_)) => return Attempt::Fatal(e),
            Err(e) => return Attempt::Retry(e),
        }
        stats.resumes += 1;
        // Welcome after a Resume is followed by the server's Ack offset
        // — or directly by the Report if the session already completed.
        match await_frame(&mut reader, policy.reply_deadline, true) {
            Ok(Frame::Ack { through }) => *acked = (*acked).max(through),
            Ok(Frame::Report { json }) => {
                return match SessionReport::from_json(&json) {
                    Ok(r) => Attempt::Done(r),
                    Err(m) => Attempt::Fatal(ClientError::BadReport(m)),
                }
            }
            Ok(Frame::Error { message }) => return Attempt::Retry(ClientError::Rejected(message)),
            Ok(other) => return Attempt::Fatal(ClientError::UnexpectedFrame(format!("{other:?}"))),
            Err(e) => return Attempt::Retry(e),
        }
    } else {
        let hello = Frame::Hello {
            version: PROTOCOL_VERSION,
            nprocs: trace.nprocs() as u32,
            opts: opts.clone(),
        };
        if let Err(e) = write_frame_with(reader.get_mut(), &hello, CONTROL) {
            return Attempt::Retry(e.into());
        }
        match read_reply(&mut reader, policy.reply_deadline) {
            Ok(Frame::Welcome { session: id, capabilities: caps, .. }) => {
                *session = Some(id);
                capabilities = caps;
            }
            // The server is over capacity or under memory pressure:
            // honor its retry hint (bounded — the hint is advisory, not
            // a lever a hostile server may pull), then burn one retry.
            Ok(Frame::Busy { retry_after_ms, message }) => {
                thread::sleep(Duration::from_millis(retry_after_ms.min(5_000)));
                return Attempt::Retry(ClientError::Rejected(message));
            }
            // Could be a real refusal (bad version) or the echo of a
            // `Hello` the transport corrupted — retry; the budget
            // bounds a hard refusal.
            Ok(Frame::Error { message }) => return Attempt::Retry(ClientError::Rejected(message)),
            Ok(other) => return Attempt::Fatal(ClientError::UnexpectedFrame(format!("{other:?}"))),
            Err(e @ ClientError::BadReport(_)) => return Attempt::Fatal(e),
            Err(e) => return Attempt::Retry(e),
        }
    }

    if let Err(e) = send_trace_ctx(&mut reader, &capabilities, submit_span.id()) {
        return Attempt::Retry(e.into());
    }

    // Stream every event the server has not acknowledged.
    let from = *acked;
    if stats.attempts > 1 {
        stats.events_resent += (events.len() as u64).saturating_sub(from);
    }
    let codec = negotiated_codec(&capabilities, cfg.prefer_binary);
    stats.codec = codec;
    let sent = if let Some(pace) = policy.throttle {
        // Paced mode: one per-event frame per write, so the stream has a
        // steady, interruptible cadence.
        let encoded = encode_stream(events, from, codec, 1);
        send_frames(&mut reader, &encoded, 0, &mut stats.bytes_sent, |r| {
            r.get_mut().flush()?;
            thread::sleep(pace);
            Ok(())
        })
    } else {
        // Drain any Acks the server pushed while we were writing — both
        // to advance the resume offset and to keep the socket from
        // filling up in either direction.
        let encoded = encode_stream(events, from, codec, cfg.batch_size);
        send_frames(&mut reader, &encoded, FLUSH_BYTES, &mut stats.bytes_sent, |r| {
            drain_acks(r, acked)
        })
    };
    match sent {
        Ok(()) => {}
        Err(ClientError::Rejected(message)) => return on_error_frame(message),
        Err(e) => return Attempt::Retry(e),
    }
    if let Err(e) = write_frame_with(reader.get_mut(), &Frame::Finish, CONTROL) {
        return Attempt::Retry(e.into());
    }

    // Wait for the report, skipping stray Acks.
    match read_reply(&mut reader, policy.reply_deadline) {
        Ok(Frame::Report { json }) => match SessionReport::from_json(&json) {
            Ok(r) => Attempt::Done(r),
            Err(m) => Attempt::Fatal(ClientError::BadReport(m)),
        },
        // The server closed the session on us. After a corrupt frame or
        // a gap it parked or retired it, so a resume can still succeed.
        Ok(Frame::Error { message }) => on_error_frame(message),
        Ok(other) => Attempt::Fatal(ClientError::UnexpectedFrame(format!("{other:?}"))),
        Err(e @ (ClientError::Rejected(_) | ClientError::BadReport(_))) => Attempt::Fatal(e),
        Err(e) => Attempt::Retry(e),
    }
}

/// Consumes whatever frames are already readable without blocking past
/// one idle read. `Ack`s advance the resume offset; a server `Error` or
/// a closed/corrupt stream aborts the attempt (retryably).
fn drain_acks<S: Read>(reader: &mut FrameReader<S>, acked: &mut u64) -> Result<(), ClientError> {
    loop {
        match reader.next_frame() {
            Ok(Some(Frame::Ack { through })) => *acked = (*acked).max(through),
            Ok(Some(Frame::Error { message })) => return Err(ClientError::Rejected(message)),
            Ok(Some(_)) => {} // nothing else mid-stream is actionable
            Ok(None) => {
                return Err(ClientError::UnexpectedFrame(
                    "server closed the connection mid-stream".into(),
                ))
            }
            Err(ProtoError::Idle) => return Ok(()),
            Err(e) => return Err(e.into()),
        }
    }
}

/// Connects to a TCP daemon and submits `trace`.
pub fn submit_tcp(
    addr: &str,
    trace: &Trace,
    opts: &SessionOpts,
) -> Result<SessionReport, ClientError> {
    submit_over(TcpStream::connect(addr)?, trace, opts)
}

/// [`submit_tcp`] with an explicit [`SubmitCfg`]; also returns the
/// [`SubmitInfo`] transfer accounting (negotiated codec, bytes, layer
/// times) the bench and CLI report.
pub fn submit_tcp_cfg(
    addr: &str,
    trace: &Trace,
    opts: &SessionOpts,
    cfg: &SubmitCfg,
) -> Result<(SessionReport, SubmitInfo), ClientError> {
    submit_over_cfg(TcpStream::connect(addr)?, trace, opts, cfg)
}

/// Sends one query verb — [`Frame::Stats`], [`Frame::Metrics`] or
/// [`Frame::Health`] — over an established connection and returns the
/// matching reply's payload: the supervisor JSON, the Prometheus-style
/// text exposition, or the fleet-health JSON. Works over any
/// `Read + Write` stream (TCP, a Unix socket, an in-memory pair).
pub fn query_over<S: Read + Write>(stream: S, verb: Frame) -> Result<String, ClientError> {
    let mut reader = FrameReader::new(stream);
    write_frame_with(reader.get_mut(), &verb, CONTROL)?;
    match (verb, read_reply(&mut reader, DEFAULT_REPLY_DEADLINE)?) {
        (Frame::Stats, Frame::StatsReport { json })
        | (Frame::Health, Frame::HealthReport { json }) => Ok(json),
        (Frame::Metrics, Frame::MetricsReport { text }) => Ok(text),
        (_, Frame::Error { message }) => Err(ClientError::Rejected(message)),
        (_, other) => Err(ClientError::UnexpectedFrame(format!("{other:?}"))),
    }
}

/// The `STATS` verb via TCP: the supervisor's state as raw JSON.
pub fn stats_tcp(addr: &str) -> Result<String, ClientError> {
    query_over(TcpStream::connect(addr)?, Frame::Stats)
}

/// The `METRICS` verb via TCP: the Prometheus-style text exposition.
pub fn metrics_tcp(addr: &str) -> Result<String, ClientError> {
    query_over(TcpStream::connect(addr)?, Frame::Metrics)
}

/// The `HEALTH` verb via TCP: the fleet health snapshot as raw JSON.
pub fn health_tcp(addr: &str) -> Result<String, ClientError> {
    query_over(TcpStream::connect(addr)?, Frame::Health)
}
