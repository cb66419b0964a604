//! `mcc-serve` — the MC-Checker daemon.
//!
//! The paper's analyses are batch: record a trace, run the checker over
//! it. This crate turns the PR-2 [`mcc_core::AnalysisSession`] /
//! [`mcc_core::StreamingChecker`] stack into a long-running service: many
//! concurrent clients each open a framed connection ([`proto`]), stream
//! their trace events live, and get back the same findings — byte for
//! byte — that a batch run over the recorded trace would have produced.
//!
//! PR-5 makes sessions durable: every wire frame carries a CRC32,
//! durable sessions journal their events to a write-ahead log
//! ([`journal`]) and survive daemon crashes (`--recover` replays the
//! journal through the same [`mcc_core::StreamingChecker`]), and clients
//! resume interrupted streams idempotently from the last acknowledged
//! sequence number ([`client::submit_durable_tcp`]).
//!
//! Layers:
//!
//! * [`crc`] — the CRC32 (IEEE) used by both the wire and the journal;
//! * [`proto`] — length-prefixed, CRC-guarded JSON frames, versioned
//!   handshake, sequence-numbered events, incremental
//!   [`proto::FrameReader`];
//! * [`journal`] — the per-session write-ahead log and its tolerant
//!   reader;
//! * [`registry`] — the supervisor's session table behind the `STATS`
//!   verb, leak-proof via guard `Drop`, with parking/retiring for
//!   resumable sessions;
//! * `pacing` — the token bucket behind the event-rate quota: pure
//!   decision logic over caller-supplied instants;
//! * [`server`] — accept loop, per-connection checking, backpressure,
//!   idle/death salvage-or-park policies, startup recovery, the
//!   parked-session janitor, and resource governance (admission
//!   control, per-session quotas, and priority load shedding under a
//!   daemon-wide memory ceiling);
//! * [`client`] — a blocking submit/stats client plus the retrying
//!   durable submitter;
//! * [`chaos`] — an in-process TCP fault-injection proxy for the chaos
//!   test suite;
//! * [`report`] — the versioned JSON session report.

#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod crc;
pub mod journal;
mod pacing;
pub mod proto;
pub mod registry;
pub mod report;
pub mod server;

pub use chaos::{ChaosProxy, FaultKind, FaultSchedule};
pub use client::{
    stats_tcp, submit_durable_tcp, submit_tcp, ClientError, RetryPolicy, SubmitStats,
};
pub use crc::crc32;
pub use journal::{read_journal, scan_dir, FsyncPolicy, Journal, JournalError, ReplayedSession};
pub use mcc_codec::{Codec, CodecKind};
pub use proto::{Frame, FrameReader, ProtoError, SessionOpts, MAX_RANKS, PROTOCOL_VERSION};
pub use registry::{Outcome, ParkedSession, Progress, Registry, ResumeOutcome, SessionGuard};
pub use report::{SessionReport, REPORT_SCHEMA_VERSION};
pub use server::{pressure_of, PressureLevel, ServeConfig, Server, ServerHandle};
