//! The wire protocol of the checker daemon.
//!
//! Frames are length-prefixed and checksummed: a 4-byte little-endian
//! payload length, a 4-byte little-endian CRC32 over the length bytes
//! plus the payload, then one serde-serialized [`Frame`] in either
//! [`mcc_codec`] format. The length prefix makes truncation detectable
//! (a stream that ends inside a frame is a protocol error, not a silent
//! partial parse) and caps per-frame memory at [`MAX_FRAME_LEN`] before
//! any payload byte is even read; the checksum makes *corruption*
//! detectable — a flipped bit anywhere in the header or payload surfaces
//! as [`ProtoError::Corrupt`], answered by the server with a typed
//! `Error` frame, never a parse failure.
//!
//! # Payload codecs
//!
//! The payload inside the framing is one [`Frame`] encoded by either
//! codec from [`mcc_codec`]: JSON text (the handshake/control format
//! and the universal fallback) or the compact binary format (first byte
//! [`mcc_codec::BINARY_MAGIC`]). The two are distinguishable from the
//! payload's first byte, so the decoder accepts both unconditionally —
//! *sending* binary is what gets negotiated: a server that announces the
//! `binary` capability in its `Welcome` accepts binary payloads and
//! [`Frame::Batch`] frames; clients fall back to per-event JSON against
//! servers that do not. `PROTOCOL_VERSION` is unchanged — an old JSON
//! client and a new binary-capable server interoperate, as do a new
//! client and an old server.
//!
//! Grammar of a session, client side:
//!
//! ```text
//! Hello{version, nprocs, opts}          →
//!                                       ← Welcome{version, session} | Error{message}
//! Event{seq, rank, kind, loc}
//!   | Batch{first_seq, columns} ...     →
//!                                       ← Ack{through}   (durable sessions, periodic)
//! Finish                                →
//!                                       ← Report{json}
//! ```
//!
//! The two event shapes are one thing on arrival: the server turns a
//! decoded `Event` into an [`EventBatch`] of one and feeds both through
//! the same ingest step, so duplicate-skip, gap detection, journaling,
//! acknowledgement, quotas and backpressure cannot differ between them.
//! On the sending side [`StreamEncoder`] is the only code that numbers
//! events and builds either shape.
//!
//! A client that lost its connection mid-session reopens one and sends
//! `Resume{session, from_seq}` instead of `Hello`; the server answers
//! `Welcome` followed by `Ack{through}` naming the number of events it
//! has durably ingested, and the client re-sends only events with
//! `seq >= through`. Re-sent events the server already holds are skipped
//! (`seq` makes redelivery idempotent), so a client may always replay
//! from its last known offset. A `Resume` naming a session the server
//! no longer holds draws a typed `Gone` frame. If the session had
//! already completed, the server replies `Welcome` then the cached
//! `Report` immediately — report delivery is idempotent too.
//!
//! `Stats` may be sent instead of (or during) a session and is answered
//! with `StatsReport{json}`; likewise `Metrics` is answered with
//! `MetricsReport{text}` (Prometheus text exposition). The handshake is
//! versioned: a `Hello` whose `version` differs from
//! [`PROTOCOL_VERSION`], or whose `nprocs` is zero or absurd, is
//! answered with an `Error` frame — never a silently dropped connection.
//!
//! Extension verbs beyond the version-1 core are negotiated by
//! *capability*, not by version bump: the `Welcome` frame lists the
//! server's [`SERVER_CAPABILITIES`], and a client simply avoids verbs the
//! server did not announce. This keeps old clients working against new
//! servers and vice versa (an unknown verb still draws an `Error` frame,
//! never a closed connection). `resume` covers `Resume`/`Ack`/`Gone`.

use mcc_codec::{encode_with, CodecKind};
use mcc_types::{EventKind, SourceLoc};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{self, IoSlice, Read, Write};

/// Version carried in (and required of) every `Hello`.
pub const PROTOCOL_VERSION: u32 = 1;

/// The capability string that announces binary-codec and `Batch` frame
/// support (see [`SERVER_CAPABILITIES`]).
pub const CAP_BINARY: &str = "binary";

/// The capability string that announces `TraceCtx` frame support: a
/// client that sees it in the `Welcome` may send one [`Frame::TraceCtx`]
/// so the daemon's session span parent-links into the client's trace.
/// Negotiated exactly like `binary` — a server run with `--no-tracectx`
/// drops it and clients stay silent, so `tracectx`-unaware peers
/// round-trip cleanly in both directions.
pub const CAP_TRACECTX: &str = "tracectx";

/// The capability string that announces the `Health` verb, answered with
/// [`Frame::HealthReport`] (a JSON fleet-health document).
pub const CAP_HEALTH: &str = "health";

/// The capability string that announces resource governance: the server
/// may answer a `Hello` with a typed [`Frame::Busy`] (instead of a plain
/// `Error`) and may send [`Frame::Throttled`]/[`Frame::QuotaExceeded`]
/// advisories mid-session — but only to clients that themselves declared
/// `governance: true` in their [`SessionOpts`], so governance-unaware
/// peers keep seeing plain `Error` frames in both directions.
pub const CAP_GOVERNANCE: &str = "governance";

/// Capabilities this server build announces in its `Welcome` frame.
/// `metrics` means the `Metrics` verb is answered with `MetricsReport`;
/// `resume` means durable sessions, `Resume`, `Ack`, and `Gone` are
/// understood; `crc32` means every frame carries the checksummed header;
/// `binary` means the server accepts binary-codec payloads and `Batch`
/// frames (a server run with `--no-binary` drops it, and clients fall
/// back to per-event JSON); `tracectx` means the server accepts a
/// [`Frame::TraceCtx`] stamp after the handshake; `health` means the
/// `Health` verb is answered with `HealthReport`; `governance` means the
/// server runs admission control and quotas and speaks the typed
/// `Busy`/`Throttled`/`QuotaExceeded` frames to clients that opt in.
pub const SERVER_CAPABILITIES: &[&str] =
    &["metrics", "resume", "crc32", CAP_BINARY, CAP_TRACECTX, CAP_HEALTH, CAP_GOVERNANCE];

/// Hard cap on a single frame's payload, applied before reading it.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Bytes of frame header: 4-byte length, 4-byte CRC32.
pub const FRAME_HEADER_LEN: usize = 8;

/// Hard cap on events per `Batch` frame, keeping even pathological
/// payloads far from [`MAX_FRAME_LEN`].
pub const MAX_BATCH_EVENTS: usize = 4096;

/// Largest world size a `Hello` may announce.
pub const MAX_RANKS: u32 = 4096;

/// Per-session options a client may request in its `Hello`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionOpts {
    /// Ignored since PR 17 (one analysis runs on one thread); kept for v1
    /// peers and on-disk journals. Still always written — a
    /// [`PROTOCOL_VERSION`] 1 daemon's decoder requires the key — and
    /// still decoded from `Hello` frames and journal `Open` records.
    pub threads: u32,
    /// Requested buffered-event cap; `0` accepts the server default. The
    /// server never raises its own hard cap for a client.
    pub max_buffered: u32,
    /// Ask the server to keep the session resumable: a dropped
    /// connection *parks* the session (journaled to disk when the daemon
    /// runs with a journal directory) instead of salvaging it, and a
    /// later `Resume` picks up exactly where the acknowledged stream
    /// left off.
    pub durable: bool,
    /// The client understands the typed governance frames
    /// ([`Frame::Busy`], [`Frame::Throttled`], [`Frame::QuotaExceeded`]).
    /// Servers only send those frames to sessions that set this; old
    /// clients (whose `Hello` omits the field entirely — see the
    /// hand-written `Deserialize` below) get plain `Error` frames.
    pub governance: bool,
}

impl Default for SessionOpts {
    fn default() -> Self {
        Self { threads: 1, max_buffered: 0, durable: false, governance: false }
    }
}

// Serde is hand-written (not derived) for exactly one reason: the derive
// treats every named field as required, so a version-1 `Hello` — whose
// opts object has no `governance` key — would be refused as malformed by
// a new server. Encoding always writes all fields (old servers ignore
// unknown keys); decoding defaults `governance` to `false` when absent,
// in both payload codecs, keeping the mixed-version matrix green.
impl Serialize for SessionOpts {
    fn to_value(&self) -> serde::Value {
        serde::Value::Obj(vec![
            ("threads".to_string(), self.threads.to_value()),
            ("max_buffered".to_string(), self.max_buffered.to_value()),
            ("durable".to_string(), self.durable.to_value()),
            ("governance".to_string(), self.governance.to_value()),
        ])
    }
}

impl Deserialize for SessionOpts {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Self {
            threads: Deserialize::from_value(serde::__private::field(v, "threads")?)?,
            max_buffered: Deserialize::from_value(serde::__private::field(v, "max_buffered")?)?,
            durable: Deserialize::from_value(serde::__private::field(v, "durable")?)?,
            governance: match v.get("governance") {
                Some(g) => Deserialize::from_value(g)?,
                None => false,
            },
        })
    }
}

/// A run of consecutive events under one frame header and one CRC32,
/// stored columnar: sequence numbers are dense (only `first_seq` is
/// carried), source locations are interned into a per-batch table, and
/// the per-event columns (`ranks`, `loc_idx`, `kinds`) sit in parallel
/// arrays — the shape the binary codec's integer columns and string
/// interning compress best, though a batch is equally valid JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventBatch {
    /// Sequence number of the first event; event `i` has
    /// `seq == first_seq + i`.
    pub first_seq: u64,
    /// Originating rank per event.
    pub ranks: Vec<u32>,
    /// Index into [`locs`](Self::locs) per event.
    pub loc_idx: Vec<u32>,
    /// The events themselves.
    pub kinds: Vec<EventKind>,
    /// The batch's source-location table, first-appearance order.
    pub locs: Vec<SourceLoc>,
}

impl EventBatch {
    /// An empty batch starting at `first_seq`.
    pub fn new(first_seq: u64) -> Self {
        Self {
            first_seq,
            ranks: Vec::new(),
            loc_idx: Vec::new(),
            kinds: Vec::new(),
            locs: Vec::new(),
        }
    }

    /// Events in the batch.
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// Whether the batch carries no events.
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }

    /// Appends one event, interning its location. Consecutive events
    /// usually share a location, so the table is scanned from the most
    /// recent entry backwards.
    pub fn push(&mut self, rank: u32, kind: EventKind, loc: &SourceLoc) {
        let idx = match self.locs.iter().rposition(|l| l == loc) {
            Some(i) => i as u32,
            None => {
                self.locs.push(loc.clone());
                (self.locs.len() - 1) as u32
            }
        };
        self.ranks.push(rank);
        self.loc_idx.push(idx);
        self.kinds.push(kind);
    }

    /// Checks the batch's internal consistency — a decoded batch must
    /// pass before its columns are indexed. `Err` carries the refusal
    /// message for the peer.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.ranks.len();
        if self.loc_idx.len() != n || self.kinds.len() != n {
            return Err(format!(
                "batch columns disagree: {n} rank(s), {} loc index(es), {} kind(s)",
                self.loc_idx.len(),
                self.kinds.len()
            ));
        }
        if let Some(&bad) = self.loc_idx.iter().find(|&&i| i as usize >= self.locs.len()) {
            return Err(format!(
                "batch loc index {bad} points past its {}-entry table",
                self.locs.len()
            ));
        }
        if self.first_seq.checked_add(n as u64).is_none() {
            return Err("batch sequence range overflows".into());
        }
        Ok(())
    }

    /// Events `range` of the batch as a batch of their own (used to
    /// journal only the events actually ingested: not the duplicates of
    /// an earlier delivery, not the ones after a refused event). The
    /// location table is kept whole; unreferenced entries are harmless.
    pub fn slice(&self, range: std::ops::Range<usize>) -> EventBatch {
        EventBatch {
            first_seq: self.first_seq + range.start as u64,
            ranks: self.ranks[range.clone()].to_vec(),
            loc_idx: self.loc_idx[range.clone()].to_vec(),
            kinds: self.kinds[range].to_vec(),
            locs: self.locs.clone(),
        }
    }

    /// Borrows event `i` as `(rank, kind, loc)`. Call
    /// [`validate`](Self::validate) first; out-of-range indices panic.
    pub fn event(&self, i: usize) -> (u32, &EventKind, &SourceLoc) {
        (self.ranks[i], &self.kinds[i], &self.locs[self.loc_idx[i] as usize])
    }
}

/// One protocol frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Frame {
    /// Opens a session: protocol version, world size, session options.
    Hello {
        /// Must equal [`PROTOCOL_VERSION`].
        version: u32,
        /// Number of ranks whose events will follow (1..=[`MAX_RANKS`]).
        nprocs: u32,
        /// Requested session options.
        opts: SessionOpts,
    },
    /// Accepts a `Hello` or a `Resume`.
    Welcome {
        /// The server's protocol version.
        version: u32,
        /// Server-assigned session id (shows up in `STATS`).
        session: u64,
        /// Extension verbs this server answers (see
        /// [`SERVER_CAPABILITIES`]); clients skip verbs not listed.
        capabilities: Vec<String>,
    },
    /// One trace event from one rank's instrumentation stream.
    Event {
        /// Position of this event in the session's whole stream,
        /// starting at 0 and dense. The server skips events it already
        /// ingested (`seq` below the ack offset), which makes re-sending
        /// after a reconnect idempotent.
        seq: u64,
        /// The originating rank.
        rank: u32,
        /// The event.
        kind: EventKind,
        /// Its source location.
        loc: SourceLoc,
    },
    /// A run of consecutive events under one header and CRC32. Requires
    /// the `binary` capability in the server's `Welcome` (the batch
    /// itself may be encoded by either codec). Event `i` of the batch is
    /// exactly equivalent to an `Event` frame with
    /// `seq == first_seq + i` — by construction: the server ingests an
    /// `Event` as a batch of one — including duplicate-skip semantics on
    /// resume: a server that already ingested a prefix of the batch
    /// skips it.
    Batch(EventBatch),
    /// Ends the stream; the server answers with `Report`.
    Finish,
    /// Server → client: all events with `seq < through` are durably
    /// ingested (journaled, when the daemon has a journal directory) and
    /// need never be re-sent. Sent periodically on durable sessions and
    /// once immediately after the `Welcome` that answers a `Resume`.
    Ack {
        /// Count of durably ingested events.
        through: u64,
    },
    /// Client → server on a fresh connection: reattach to a parked
    /// session instead of opening a new one.
    Resume {
        /// The session id from the original `Welcome`.
        session: u64,
        /// Lowest sequence number the client can still re-send (0 for a
        /// client holding its full trace).
        from_seq: u64,
    },
    /// The server no longer holds the session a `Resume` named (it was
    /// salvaged, expired, or never existed).
    Gone {
        /// The session id the client asked for.
        session: u64,
    },
    /// Requests the supervisor's state; answered with `StatsReport`.
    Stats,
    /// The final (or salvaged) session report.
    Report {
        /// A serialized [`crate::report::SessionReport`].
        json: String,
    },
    /// The supervisor's state.
    StatsReport {
        /// A JSON document (see [`crate::registry::Registry::stats_json`]).
        json: String,
    },
    /// Requests live metrics (capability `metrics`); answered with
    /// `MetricsReport`.
    Metrics,
    /// The server's metrics in Prometheus text exposition format.
    MetricsReport {
        /// Counter/histogram/gauge lines (`mcc_*`).
        text: String,
    },
    /// Client → server, after the handshake and only when the server's
    /// `Welcome` listed the `tracectx` capability: names the client's
    /// trace so the daemon's `serve.session` span parent-links into it.
    /// `mcc trace-merge` later stitches the two Chrome traces into one
    /// tree. Servers without the capability never see this frame.
    TraceCtx {
        /// The client recorder's trace id (nonzero).
        trace_id: u64,
        /// Span id of the client's `submit` span, the remote parent for
        /// the daemon's session span.
        parent_span: u64,
    },
    /// Requests fleet health (capability `health`); answered with
    /// `HealthReport`. Like `Stats`/`Metrics`, valid both before a
    /// session and during one.
    Health,
    /// The server's health summary: a JSON document with uptime, session
    /// counts by state, event totals, and buffering/eviction pressure —
    /// what `mcc top` polls.
    HealthReport {
        /// The JSON health document (`schema_version` 2).
        json: String,
    },
    /// The server refuses a `Hello` because admission control is engaged
    /// — the session cap is reached or memory pressure is above Normal.
    /// Only sent to clients that declared `governance: true` in their
    /// [`SessionOpts`]; other clients get a plain `Error` carrying the
    /// same message. The durable client honors `retry_after_ms` in its
    /// backoff loop and tries again.
    Busy {
        /// How long the client should wait before retrying its `Hello`.
        retry_after_ms: u64,
        /// Human-readable reason (which limit refused the session).
        message: String,
    },
    /// Advisory, server → governance-aware client: the session crossed
    /// its token-bucket event-rate quota and ingest is being paced. The
    /// session continues; the client may slow down voluntarily. Sent at
    /// most once per crossing.
    Throttled {
        /// The pause the server is injecting per excess event.
        retry_after_ms: u64,
    },
    /// The session exceeded a hard per-session quota (max events, max
    /// buffered bytes, wall-clock deadline) or was shed under Critical
    /// memory pressure. The server degrades-then-evicts: this frame is
    /// followed by a salvaged `Report` with Degraded confidence, then the
    /// connection closes. Only sent to governance-aware clients; others
    /// get a plain `Error` before the same salvaged report.
    QuotaExceeded {
        /// Which quota tripped (`"max-events"`, `"max-buffered-bytes"`,
        /// `"deadline"`, `"memory-pressure"`).
        quota: String,
        /// The configured limit.
        limit: u64,
        /// The observed value that crossed it.
        observed: u64,
    },
    /// The server refuses a frame or a session.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum ProtoError {
    /// Transport failure.
    Io(io::Error),
    /// The stream ended inside a frame.
    Truncated {
        /// Bytes the frame needed.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    TooLarge(usize),
    /// The frame's CRC32 does not match its contents — the transport
    /// corrupted it (or the stream lost frame synchronization). After
    /// this the stream cannot be trusted; the connection must be
    /// re-established.
    Corrupt {
        /// Checksum the header announced.
        expected: u32,
        /// Checksum of the bytes actually received.
        got: u32,
    },
    /// The payload is not a valid frame.
    Malformed(String),
    /// A read timed out before a complete frame arrived; buffered partial
    /// bytes are kept, so the read can be retried.
    Idle,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "i/o error: {e}"),
            ProtoError::Truncated { needed, got } => {
                write!(f, "stream ended inside a frame ({got} of {needed} bytes)")
            }
            ProtoError::TooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            ProtoError::Corrupt { expected, got } => {
                write!(f, "corrupt frame: CRC32 {got:#010x} != announced {expected:#010x}")
            }
            ProtoError::Malformed(m) => write!(f, "malformed frame: {m}"),
            ProtoError::Idle => f.write_str("read timed out before a complete frame"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// Wraps an arbitrary payload in the wire framing: 4-byte little-endian
/// length, 4-byte little-endian CRC32 over length-bytes + payload, then
/// the payload. Shared by the socket protocol and the on-disk journal.
pub fn frame_payload(payload: &[u8]) -> Vec<u8> {
    let len_bytes = (payload.len() as u32).to_le_bytes();
    let mut c = crate::crc::Crc32::new();
    c.update(&len_bytes);
    c.update(payload);
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&len_bytes);
    out.extend_from_slice(&c.finish().to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Attempts to extract the framed payload at the head of `buf`.
/// `Ok(None)` means more bytes are needed; `Ok(Some((payload, used)))`
/// consumed `used` bytes. Oversized headers and checksum mismatches are
/// errors — garbage can never decode as a payload.
pub fn try_decode_payload(buf: &[u8]) -> Result<Option<(&[u8], usize)>, ProtoError> {
    if buf.len() < FRAME_HEADER_LEN {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(ProtoError::TooLarge(len));
    }
    if buf.len() < FRAME_HEADER_LEN + len {
        return Ok(None);
    }
    let expected = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    let payload = &buf[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len];
    let mut c = crate::crc::Crc32::new();
    c.update(&buf[0..4]);
    c.update(payload);
    let got = c.finish();
    if got != expected {
        return Err(ProtoError::Corrupt { expected, got });
    }
    Ok(Some((payload, FRAME_HEADER_LEN + len)))
}

/// Encodes one frame in the given payload codec, wrapped in the
/// length + CRC32 header.
pub fn encode_frame_with(f: &Frame, codec: CodecKind) -> Vec<u8> {
    // Serializing our own enum through the in-repo serde shim cannot
    // fail, but a typed fallback beats aborting a daemon thread if that
    // ever changes: an undecodable frame still reaches the peer as a
    // well-formed Error frame.
    let payload = encode_with(codec, f);
    if payload.is_empty() {
        let err = Frame::Error { message: "unencodable frame".into() };
        return frame_payload(&encode_with(codec, &err));
    }
    frame_payload(&payload)
}

/// Writes one frame in the given payload codec and flushes.
pub fn write_frame_with(w: &mut impl Write, f: &Frame, codec: CodecKind) -> io::Result<()> {
    w.write_all(&encode_frame_with(f, codec))?;
    w.flush()
}

/// The sending side of the event stream: numbers events with the
/// session's dense sequence and encodes them in the negotiated shape —
/// columnar [`Frame::Batch`] frames of `batch_size` events over the
/// binary codec, per-event [`Frame::Event`] frames when `batch_size` is
/// `0` or `1` or the codec is JSON (the shape every server understands).
/// Incremental, so it serves a live instrumentation stream and a
/// recorded trace alike.
pub struct StreamEncoder {
    codec: CodecKind,
    /// Events per `Batch` frame; `1` means per-event frames.
    batch_size: usize,
    next_seq: u64,
    /// Events accepted towards the next `Batch` frame.
    pending: EventBatch,
}

impl StreamEncoder {
    /// An encoder whose first event is numbered `first_seq` (`0` for a
    /// fresh session, the acknowledged offset for a resume).
    /// `batch_size` is clamped to [`MAX_BATCH_EVENTS`].
    pub fn new(first_seq: u64, codec: CodecKind, batch_size: usize) -> Self {
        let batch_size = match codec {
            CodecKind::Binary => batch_size.clamp(1, MAX_BATCH_EVENTS),
            CodecKind::Json => 1,
        };
        Self { codec, batch_size, next_seq: first_seq, pending: EventBatch::new(first_seq) }
    }

    /// The sequence number the next event will get — equally, the count
    /// of events accepted (encoded or pending) when numbering from `0`.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Accepts one event; returns the encoded frame it completed, if
    /// any. With batching on, events sit in the encoder until the batch
    /// fills or [`flush`](Self::flush) is called.
    pub fn push(&mut self, rank: u32, kind: EventKind, loc: &SourceLoc) -> Option<Vec<u8>> {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.batch_size == 1 {
            let frame = Frame::Event { seq, rank, kind, loc: loc.clone() };
            return Some(encode_frame_with(&frame, self.codec));
        }
        self.pending.push(rank, kind, loc);
        if self.pending.len() >= self.batch_size {
            self.flush()
        } else {
            None
        }
    }

    /// Encodes whatever is pending as a (short) `Batch` frame.
    pub fn flush(&mut self) -> Option<Vec<u8>> {
        if self.pending.is_empty() {
            return None;
        }
        let batch = std::mem::replace(&mut self.pending, EventBatch::new(self.next_seq));
        Some(encode_frame_with(&Frame::Batch(batch), self.codec))
    }
}

/// Writes every buffer in `bufs` in order with as few syscalls as the
/// platform allows (vectored I/O), retrying on `Interrupted` and short
/// writes. Used by batching senders to emit header + payload pairs
/// without concatenating them first.
pub fn write_all_vectored(w: &mut impl Write, bufs: &[&[u8]]) -> io::Result<()> {
    let total: usize = bufs.iter().map(|b| b.len()).sum();
    let mut written = 0usize;
    while written < total {
        // Rebuild the IoSlice list past the bytes already written.
        let mut slices = Vec::with_capacity(bufs.len());
        let mut skip = written;
        for buf in bufs {
            if skip >= buf.len() {
                skip -= buf.len();
            } else {
                slices.push(IoSlice::new(&buf[skip..]));
                skip = 0;
            }
        }
        match w.write_vectored(&slices) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write whole frame batch",
                ))
            }
            Ok(n) => written += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// How many bytes the frame at the head of `buf` needs in total.
fn needed(buf: &[u8]) -> usize {
    if buf.len() < 4 {
        FRAME_HEADER_LEN
    } else {
        FRAME_HEADER_LEN + u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize
    }
}

/// Attempts to decode the frame at the head of `buf`. `Ok(None)` means
/// more bytes are needed; `Ok(Some((frame, used)))` consumed `used`
/// bytes. Oversized, corrupt, or malformed frames are errors — garbage
/// can never decode as a frame. Accepts both payload codecs.
pub fn try_decode(buf: &[u8]) -> Result<Option<(Frame, usize)>, ProtoError> {
    try_decode_with(buf, true)
}

/// [`try_decode`] with the binary payload codec optionally gated off
/// (`mcc serve --no-binary`): a binary payload behind an intact CRC is
/// then refused as [`ProtoError::Malformed`] rather than decoded.
pub fn try_decode_with(
    buf: &[u8],
    allow_binary: bool,
) -> Result<Option<(Frame, usize)>, ProtoError> {
    let Some((payload, used)) = try_decode_payload(buf)? else {
        return Ok(None);
    };
    if !allow_binary && mcc_codec::detect(payload) == CodecKind::Binary {
        return Err(ProtoError::Malformed(
            "binary-codec payload refused: this server only accepts JSON frames".into(),
        ));
    }
    let frame =
        mcc_codec::decode_auto(payload).map_err(|e| ProtoError::Malformed(e.to_string()))?;
    Ok(Some((frame, used)))
}

/// Decodes one complete frame from `buf`, rejecting truncation: a buffer
/// that holds less than one whole frame is [`ProtoError::Truncated`].
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), ProtoError> {
    match try_decode(buf)? {
        Some(x) => Ok(x),
        None => Err(ProtoError::Truncated { needed: needed(buf), got: buf.len() }),
    }
}

/// Incremental frame reader over any byte stream.
///
/// Keeps partially received frames across reads, so it composes with
/// socket read timeouts: a timeout mid-frame surfaces as
/// [`ProtoError::Idle`] and the next call resumes where the bytes left
/// off — the caller's idle-timeout policy lives outside the decoder.
pub struct FrameReader<R> {
    inner: R,
    buf: Vec<u8>,
    /// Consumed prefix of `buf`. Advancing a cursor instead of draining
    /// per frame keeps decoding linear when a peer's batched write lands
    /// many frames in one buffer; the consumed prefix is compacted away
    /// once it passes [`Self::COMPACT_AT`].
    pos: usize,
    eof: bool,
    allow_binary: bool,
}

impl<R: Read> FrameReader<R> {
    /// Consumed-prefix size that triggers buffer compaction.
    const COMPACT_AT: usize = 1 << 16;

    /// Wraps a stream.
    pub fn new(inner: R) -> Self {
        Self { inner, buf: Vec::new(), pos: 0, eof: false, allow_binary: true }
    }

    /// The underlying stream (for writing responses).
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    /// Gates the binary payload codec (see [`try_decode_with`]). On by
    /// default; a `--no-binary` server turns it off.
    pub fn set_allow_binary(&mut self, allow: bool) {
        self.allow_binary = allow;
    }

    fn consume(&mut self, used: usize) {
        self.pos += used;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= Self::COMPACT_AT {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    /// Reads the next frame. `Ok(None)` is clean end-of-stream at a frame
    /// boundary; ending inside a frame is [`ProtoError::Truncated`].
    pub fn next_frame(&mut self) -> Result<Option<Frame>, ProtoError> {
        loop {
            if let Some((frame, used)) = try_decode_with(&self.buf[self.pos..], self.allow_binary)?
            {
                self.consume(used);
                return Ok(Some(frame));
            }
            if self.eof {
                let pending = self.buf.len() - self.pos;
                return if pending == 0 {
                    Ok(None)
                } else {
                    Err(ProtoError::Truncated {
                        needed: needed(&self.buf[self.pos..]),
                        got: pending,
                    })
                };
            }
            let mut chunk = [0u8; 4096];
            match self.inner.read(&mut chunk) {
                Ok(0) => self.eof = true,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    return Err(ProtoError::Idle)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ProtoError::Io(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_types::{CommId, WinId};

    fn sample_batch() -> EventBatch {
        let mut b = EventBatch::new(100);
        let loc_a = SourceLoc::new("app.c", 12, "main");
        let loc_b = SourceLoc::new("app.c", 30, "worker");
        b.push(0, EventKind::Barrier { comm: CommId::WORLD }, &loc_a);
        b.push(1, EventKind::Barrier { comm: CommId::WORLD }, &loc_b);
        b.push(2, EventKind::Barrier { comm: CommId::WORLD }, &loc_a);
        b
    }

    fn frames() -> Vec<Frame> {
        vec![
            Frame::Hello { version: PROTOCOL_VERSION, nprocs: 4, opts: SessionOpts::default() },
            Frame::Welcome {
                version: PROTOCOL_VERSION,
                session: 7,
                capabilities: SERVER_CAPABILITIES.iter().map(|s| s.to_string()).collect(),
            },
            Frame::Event {
                seq: 42,
                rank: 2,
                kind: EventKind::WinCreate {
                    win: WinId(0),
                    base: 64,
                    len: 64,
                    comm: CommId::WORLD,
                },
                loc: SourceLoc::new("app.c", 12, "main"),
            },
            Frame::Batch(sample_batch()),
            Frame::Finish,
            Frame::Ack { through: 1024 },
            Frame::Resume { session: 7, from_seq: 256 },
            Frame::Gone { session: 9 },
            Frame::Stats,
            Frame::Report { json: "{\"x\":1}".into() },
            Frame::StatsReport { json: "{}".into() },
            Frame::Metrics,
            Frame::MetricsReport { text: "# TYPE mcc_x counter\nmcc_x 1\n".into() },
            Frame::TraceCtx { trace_id: 0xDEAD_BEEF, parent_span: 12 },
            Frame::Health,
            Frame::HealthReport { json: "{\"schema_version\":2}".into() },
            Frame::Busy { retry_after_ms: 250, message: "session cap reached".into() },
            Frame::Throttled { retry_after_ms: 10 },
            Frame::QuotaExceeded { quota: "max-events".into(), limit: 1000, observed: 1001 },
            Frame::Error { message: "nope".into() },
        ]
    }

    #[test]
    fn frames_round_trip_in_both_codecs() {
        for codec in [CodecKind::Json, CodecKind::Binary] {
            for f in frames() {
                let bytes = encode_frame_with(&f, codec);
                let (back, used) = decode_frame(&bytes).unwrap();
                assert_eq!(used, bytes.len());
                assert_eq!(back, f, "codec {codec}");
            }
        }
    }

    #[test]
    fn binary_frames_are_smaller_for_event_batches() {
        let f = Frame::Batch(sample_batch());
        let json = encode_frame_with(&f, CodecKind::Json);
        let binary = encode_frame_with(&f, CodecKind::Binary);
        assert!(binary.len() < json.len(), "binary {} >= json {}", binary.len(), json.len());
    }

    #[test]
    fn no_binary_gate_refuses_binary_payloads_as_malformed() {
        let bytes = encode_frame_with(&Frame::Finish, CodecKind::Binary);
        assert!(matches!(try_decode_with(&bytes, false), Err(ProtoError::Malformed(_))));
        // The same bytes decode fine with the gate open, and JSON frames
        // pass regardless.
        assert!(try_decode_with(&bytes, true).unwrap().is_some());
        let json = encode_frame_with(&Frame::Finish, CodecKind::Json);
        assert!(try_decode_with(&json, false).unwrap().is_some());
    }

    #[test]
    fn every_strict_prefix_is_truncated_never_a_frame() {
        for codec in [CodecKind::Json, CodecKind::Binary] {
            for f in frames() {
                let bytes = encode_frame_with(&f, codec);
                for cut in 0..bytes.len() {
                    match decode_frame(&bytes[..cut]) {
                        Err(ProtoError::Truncated { got, .. }) => assert_eq!(got, cut),
                        other => panic!("prefix of {cut} bytes decoded as {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn oversized_length_prefix_rejected_before_payload() {
        let mut bytes = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 16]);
        assert!(matches!(decode_frame(&bytes), Err(ProtoError::TooLarge(_))));
    }

    #[test]
    fn garbage_payload_is_corrupt_not_malformed() {
        // Four bytes that were never framed: the CRC stage rejects them
        // before the JSON parser ever runs.
        let mut bytes = 4u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 4]); // wrong CRC
        bytes.extend_from_slice(b"!!!!");
        assert!(matches!(decode_frame(&bytes), Err(ProtoError::Corrupt { .. })));
    }

    #[test]
    fn valid_checksum_over_non_frame_json_is_malformed() {
        // A correctly framed payload that is not a Frame: the CRC passes,
        // the parse is the typed failure.
        let bytes = frame_payload(b"{\"NotAFrame\":1}");
        assert!(matches!(decode_frame(&bytes), Err(ProtoError::Malformed(_))));
    }

    /// Flip any single bit of an encoded frame: the decode must fail with
    /// a typed error (corrupt, oversized, or truncated-after-length-grew)
    /// — never decode to a different frame, never panic.
    #[test]
    fn any_single_bit_flip_is_detected() {
        let original = Frame::Event {
            seq: 3,
            rank: 1,
            kind: EventKind::Barrier { comm: CommId::WORLD },
            loc: SourceLoc::new("flip.c", 9, "main"),
        };
        for codec in [CodecKind::Json, CodecKind::Binary] {
            let bytes = encode_frame_with(&original, codec);
            for pos in 0..bytes.len() {
                for bit in 0..8 {
                    let mut copy = bytes.clone();
                    copy[pos] ^= 1 << bit;
                    match try_decode(&copy) {
                        Ok(Some((frame, _))) => {
                            panic!("flip at {pos}.{bit} ({codec}) decoded as {frame:?}")
                        }
                        // A flip in the length prefix can make the frame
                        // *appear* longer than the buffer (needs more
                        // bytes) or oversized; everything else is a CRC
                        // mismatch.
                        Ok(None)
                        | Err(ProtoError::Corrupt { .. })
                        | Err(ProtoError::TooLarge(_)) => {}
                        Err(other) => {
                            panic!("flip at {pos}.{bit} ({codec}): unexpected error {other}")
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn reader_reassembles_frames_split_across_reads() {
        struct DribbleReader {
            bytes: Vec<u8>,
            pos: usize,
        }
        impl Read for DribbleReader {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                if self.pos >= self.bytes.len() {
                    return Ok(0);
                }
                out[0] = self.bytes[self.pos]; // one byte at a time
                self.pos += 1;
                Ok(1)
            }
        }
        let mut bytes = Vec::new();
        // Alternate codecs frame to frame: the reader's auto-detection
        // must handle an interleaved stream.
        for (i, f) in frames().iter().enumerate() {
            let codec = if i % 2 == 0 { CodecKind::Json } else { CodecKind::Binary };
            bytes.extend_from_slice(&encode_frame_with(f, codec));
        }
        let mut reader = FrameReader::new(DribbleReader { bytes, pos: 0 });
        let mut got = Vec::new();
        while let Some(f) = reader.next_frame().unwrap() {
            got.push(f);
        }
        assert_eq!(got, frames());
    }

    #[test]
    fn reader_reports_truncation_at_eof_inside_frame() {
        let bytes = encode_frame_with(&Frame::Finish, CodecKind::Json);
        let cut = &bytes[..bytes.len() - 1];
        let mut reader = FrameReader::new(cut);
        assert!(matches!(reader.next_frame(), Err(ProtoError::Truncated { .. })));
    }

    #[test]
    fn reader_cursor_survives_many_small_frames_and_compaction() {
        // Push enough frames through one buffer to cross COMPACT_AT
        // several times; every frame must come back in order.
        let one = encode_frame_with(&Frame::Ack { through: 7 }, CodecKind::Binary);
        let n = (FrameReader::<&[u8]>::COMPACT_AT * 3) / one.len() + 5;
        let mut bytes = Vec::new();
        for _ in 0..n {
            bytes.extend_from_slice(&one);
        }
        let mut reader = FrameReader::new(&bytes[..]);
        let mut got = 0usize;
        while let Some(f) = reader.next_frame().unwrap() {
            assert_eq!(f, Frame::Ack { through: 7 });
            got += 1;
        }
        assert_eq!(got, n);
    }

    /// A version-1 `Hello` whose opts object predates the `governance`
    /// field must still decode (defaulting to `false`), and a new opts
    /// object must survive both codecs with the flag intact — this is
    /// what keeps the mixed-version client/server matrix green.
    #[test]
    fn session_opts_without_governance_field_decode_with_default() {
        let old_shape = serde::Value::Obj(vec![
            ("threads".to_string(), 2u32.to_value()),
            ("max_buffered".to_string(), 512u32.to_value()),
            ("durable".to_string(), true.to_value()),
        ]);
        let opts = SessionOpts::from_value(&old_shape).unwrap();
        assert_eq!(
            opts,
            SessionOpts { threads: 2, max_buffered: 512, durable: true, governance: false }
        );
        // And the modern shape round-trips through both codecs.
        let new = SessionOpts { governance: true, ..SessionOpts::default() };
        for codec in [CodecKind::Json, CodecKind::Binary] {
            let bytes = mcc_codec::encode_with(codec, &new);
            let back: SessionOpts = mcc_codec::decode_auto(&bytes).unwrap();
            assert_eq!(back, new, "codec {codec}");
        }
    }

    #[test]
    fn batch_validate_catches_lying_columns() {
        let mut b = sample_batch();
        assert!(b.validate().is_ok());
        b.loc_idx[1] = 99; // points past the table
        assert!(b.validate().is_err());
        let mut b = sample_batch();
        b.ranks.pop(); // columns disagree
        assert!(b.validate().is_err());
        let mut b = sample_batch();
        b.first_seq = u64::MAX; // seq range overflow
        assert!(b.validate().is_err());
    }

    #[test]
    fn batch_slice_keeps_only_the_named_events() {
        let b = sample_batch();
        let tail = b.slice(2..3);
        assert_eq!(tail.first_seq, 102);
        assert_eq!(tail.len(), 1);
        let (rank, _, loc) = tail.event(0);
        assert_eq!(rank, 2);
        assert_eq!(loc, &SourceLoc::new("app.c", 12, "main"));
        let head = b.slice(0..2);
        assert_eq!((head.first_seq, head.len()), (100, 2));
        assert!(head.validate().is_ok());
    }

    #[test]
    fn stream_encoder_numbers_events_and_picks_the_shape() {
        let loc = SourceLoc::new("app.c", 12, "main");
        let kind = || EventKind::Barrier { comm: CommId::WORLD };
        let decode = |bytes: Vec<u8>| decode_frame(&bytes).unwrap().0;

        // Binary batches of 2, resuming at seq 10: full batches come out
        // of push, the short tail out of flush, seq-contiguous.
        let mut enc = StreamEncoder::new(10, CodecKind::Binary, 2);
        assert!(enc.push(0, kind(), &loc).is_none());
        let Frame::Batch(b) = decode(enc.push(1, kind(), &loc).unwrap()) else { panic!() };
        assert_eq!((b.first_seq, b.len()), (10, 2));
        assert!(enc.push(0, kind(), &loc).is_none());
        let Frame::Batch(b) = decode(enc.flush().unwrap()) else { panic!() };
        assert_eq!((b.first_seq, b.len()), (12, 1));
        assert!(enc.flush().is_none());
        assert_eq!(enc.next_seq(), 13);

        // JSON, or a batch size of 0/1, means per-event frames.
        for (codec, batch_size) in
            [(CodecKind::Json, 256), (CodecKind::Binary, 1), (CodecKind::Binary, 0)]
        {
            let mut enc = StreamEncoder::new(4, codec, batch_size);
            let frame = decode(enc.push(3, kind(), &loc).unwrap());
            assert_eq!(frame, Frame::Event { seq: 4, rank: 3, kind: kind(), loc: loc.clone() });
            assert!(enc.flush().is_none());
        }
    }

    #[test]
    fn write_all_vectored_handles_short_writes() {
        // A writer that accepts at most 3 bytes per call exercises the
        // resume-past-written-prefix logic.
        struct Choppy(Vec<u8>);
        impl Write for Choppy {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let n = buf.len().min(3);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
                let first = bufs.iter().find(|b| !b.is_empty()).map(|b| &b[..]).unwrap_or(&[]);
                self.write(first)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let parts: [&[u8]; 4] = [b"header01", b"payload-one", b"h2", b"payload-two-longer"];
        let mut w = Choppy(Vec::new());
        write_all_vectored(&mut w, &parts).unwrap();
        let expect: Vec<u8> = parts.concat();
        assert_eq!(w.0, expect);
    }
}
