//! Per-session write-ahead journal.
//!
//! A durable session appends every accepted run of events — one
//! columnar [`JournalRecord::Batch`] per ingested wire frame, a batch of
//! one for a per-event frame — to
//! `<journal_dir>/session-<id>.mccj` *before* acknowledging it, so a
//! daemon killed mid-session can replay the journal through the same
//! [`mcc_core::StreamingChecker`] on restart and end up in exactly the
//! state the acknowledged stream had reached. Records reuse the wire
//! framing ([`crate::proto::frame_payload`]): 4-byte length, 4-byte
//! CRC32, then one payload in either [`mcc_codec`] format. New journals
//! are written in the compact binary codec; the reader auto-detects each
//! record's codec from its first byte, so journals written by older
//! (JSON-only) builds — and mixed files that an upgrade appended binary
//! records to — replay without any flag. A torn tail — the partial
//! record a `kill -9` leaves behind — fails its checksum (or its length)
//! and the reader stops at the last intact record instead of erroring
//! out: a journal always replays to a consistent prefix of the stream.
//!
//! The fsync policy trades durability for throughput:
//! [`FsyncPolicy::EveryAck`] (the default) syncs once per acknowledgement
//! batch, so an `Ack{through}` the client saw is a promise that survives
//! power loss; `Always` syncs per record; `Never` leaves flushing to the
//! OS (a daemon crash still loses nothing — page cache survives the
//! process — only a machine crash can).

use crate::proto::{frame_payload, try_decode_payload, EventBatch, ProtoError, SessionOpts};
use mcc_codec::{encode_with, CodecKind};
use mcc_types::{EventKind, SourceLoc};
use serde::{Deserialize, Serialize};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// When journal writes reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Never fsync; the OS flushes when it pleases. Survives daemon
    /// crashes (the page cache belongs to the kernel), not power loss.
    Never,
    /// Fsync once per acknowledgement batch, before the `Ack` goes out.
    EveryAck,
    /// Fsync after every record.
    Always,
}

impl FsyncPolicy {
    /// Parses a CLI spelling (`never` | `ack` | `always`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "never" => Some(Self::Never),
            "ack" => Some(Self::EveryAck),
            "always" => Some(Self::Always),
            _ => None,
        }
    }
}

/// One journal record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalRecord {
    /// First record of every journal: the session's shape.
    Open {
        /// Server-assigned session id (matches the filename).
        session: u64,
        /// World size.
        nprocs: u32,
        /// The options the session was opened with.
        opts: SessionOpts,
        /// The event-buffer cap the server actually applied (so replay
        /// evicts at exactly the same points the live run did).
        cap: u32,
    },
    /// One ingested event, in stream order. No longer written — every
    /// ingest is journaled as a [`Batch`](Self::Batch) — but journals on
    /// disk are outside input, so old ones keep replaying.
    Event {
        /// Stream position (dense, from 0).
        seq: u64,
        /// Originating rank.
        rank: u32,
        /// The event.
        kind: EventKind,
        /// Its source location.
        loc: SourceLoc,
    },
    /// A run of consecutive ingested events, columnar (see
    /// [`EventBatch`]): the non-duplicate tail of one wire frame, so the
    /// journal keeps the wire's compression. Replay expands it to
    /// individual events.
    Batch(EventBatch),
    /// The client sent `Finish`; the report was (or was about to be)
    /// built. A journal ending in `Finish` replays to a *completed*
    /// session.
    Finish,
}

/// An open, appendable session journal.
pub struct Journal {
    file: File,
    path: PathBuf,
    policy: FsyncPolicy,
    dirty: bool,
    /// Bytes written to the journal so far (framed records, including
    /// the `Open` header) — the session's disk-backlog share of the
    /// memory accountant's charge.
    bytes: u64,
}

impl Journal {
    /// Creates `<dir>/session-<id>.mccj` (truncating any stale file of
    /// the same name) and writes the `Open` record.
    pub fn create(
        dir: &Path,
        session: u64,
        nprocs: u32,
        opts: &SessionOpts,
        cap: u32,
        policy: FsyncPolicy,
    ) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("session-{session}.mccj"));
        let file = OpenOptions::new().write(true).create(true).truncate(true).open(&path)?;
        let mut j = Self { file, path, policy, dirty: false, bytes: 0 };
        j.append(&JournalRecord::Open { session, nprocs, opts: opts.clone(), cap })?;
        // The Open record is the session's existence proof; make it
        // durable immediately regardless of policy.
        j.file.sync_data()?;
        j.dirty = false;
        Ok(j)
    }

    /// Reopens an existing journal for appending, truncating any torn
    /// tail so new records start at a clean boundary.
    pub fn open_append(path: &Path, intact_len: u64, policy: FsyncPolicy) -> io::Result<Self> {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(intact_len)?;
        let mut file = file;
        use std::io::Seek;
        file.seek(io::SeekFrom::End(0))?;
        Ok(Self { file, path: path.to_path_buf(), policy, dirty: false, bytes: intact_len })
    }

    /// Appends one record (framed + checksummed) in the compact binary
    /// codec. The reader auto-detects record codecs, so appending binary
    /// records to a journal an older build started in JSON is fine.
    pub fn append(&mut self, rec: &JournalRecord) -> io::Result<()> {
        let payload = encode_with(CodecKind::Binary, rec);
        let framed = frame_payload(&payload);
        self.file.write_all(&framed)?;
        self.bytes += framed.len() as u64;
        self.dirty = true;
        if self.policy == FsyncPolicy::Always {
            self.file.sync_data()?;
            self.dirty = false;
        }
        Ok(())
    }

    /// Appends one columnar batch record (the non-duplicate tail of a
    /// wire frame) — the only event writer.
    pub fn append_batch(&mut self, batch: &EventBatch) -> io::Result<()> {
        self.append(&JournalRecord::Batch(batch.clone()))
    }

    /// Appends the `Finish` marker and syncs it down.
    pub fn append_finish(&mut self) -> io::Result<()> {
        self.append(&JournalRecord::Finish)?;
        self.file.sync_data()?;
        self.dirty = false;
        Ok(())
    }

    /// Makes everything appended so far durable, honoring the policy
    /// (no-op for [`FsyncPolicy::Never`] or when nothing is pending).
    pub fn sync_for_ack(&mut self) -> io::Result<()> {
        if self.dirty && self.policy != FsyncPolicy::Never {
            self.file.sync_data()?;
            self.dirty = false;
        }
        Ok(())
    }

    /// The journal's path on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes appended (or reopened onto) so far — O(1), no stat call.
    pub fn bytes_appended(&self) -> u64 {
        self.bytes
    }

    /// Deletes the journal (the session reached a final state and its
    /// report is retired elsewhere). Removal failures are reported but
    /// harmless — a leftover journal just replays to a finished session.
    pub fn retire(self) -> io::Result<()> {
        drop(self.file);
        fs::remove_file(&self.path)
    }
}

/// A journal read back from disk: the intact prefix of one session.
#[derive(Debug)]
pub struct ReplayedSession {
    /// Session id from the `Open` record.
    pub session: u64,
    /// World size from the `Open` record.
    pub nprocs: u32,
    /// The session's options.
    pub opts: SessionOpts,
    /// The buffer cap the live run used.
    pub cap: u32,
    /// Every intact event, in journal (= stream) order.
    pub events: Vec<(u64, u32, EventKind, SourceLoc)>,
    /// Whether the intact prefix includes the `Finish` marker.
    pub finished: bool,
    /// Whether a torn/corrupt tail was dropped while reading.
    pub torn: bool,
    /// Byte length of the intact prefix (for [`Journal::open_append`]).
    pub intact_len: u64,
    /// Where the journal lives.
    pub path: PathBuf,
}

/// Why a journal could not be replayed at all.
#[derive(Debug)]
pub enum JournalError {
    /// Transport failure reading the file.
    Io(io::Error),
    /// The file does not begin with an intact `Open` record, so nothing
    /// about the session is known.
    NoHeader,
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o error: {e}"),
            JournalError::NoHeader => f.write_str("journal has no intact Open record"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// Reads a journal tolerantly: decodes records until the first torn,
/// corrupt, or malformed one, then stops — the intact prefix is the
/// session. Records *after* a `Finish` marker are ignored.
pub fn read_journal(path: &Path) -> Result<ReplayedSession, JournalError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;

    let mut offset = 0usize;
    let mut header: Option<(u64, u32, SessionOpts, u32)> = None;
    let mut events = Vec::new();
    let mut finished = false;
    let mut torn = false;

    while offset < bytes.len() {
        match try_decode_payload(&bytes[offset..]) {
            Ok(Some((payload, used))) => {
                // Each record's codec is detected from its first payload
                // byte, so JSON journals from older builds and binary
                // journals from this one replay through the same loop.
                match mcc_codec::decode_auto::<JournalRecord>(payload) {
                    Ok(JournalRecord::Open { session, nprocs, opts, cap }) if header.is_none() => {
                        header = Some((session, nprocs, opts, cap));
                    }
                    Ok(JournalRecord::Open { .. }) => {
                        // A second Open means the file was reused out from
                        // under us; trust only the prefix before it.
                        torn = true;
                        break;
                    }
                    Ok(JournalRecord::Event { seq, rank, kind, loc }) => {
                        events.push((seq, rank, kind, loc));
                    }
                    Ok(JournalRecord::Batch(batch)) => {
                        if batch.validate().is_err() {
                            torn = true;
                            break;
                        }
                        for i in 0..batch.len() {
                            let (rank, kind, loc) = batch.event(i);
                            events.push((
                                batch.first_seq + i as u64,
                                rank,
                                kind.clone(),
                                loc.clone(),
                            ));
                        }
                    }
                    Ok(JournalRecord::Finish) => {
                        finished = true;
                        offset += used;
                        break;
                    }
                    Err(_) => {
                        torn = true;
                        break;
                    }
                }
                offset += used;
            }
            // Incomplete final record (kill -9 mid-write) or a record
            // whose checksum/length no longer holds: the tail is torn.
            Ok(None) | Err(ProtoError::Corrupt { .. }) | Err(ProtoError::TooLarge(_)) => {
                torn = true;
                break;
            }
            Err(_) => {
                torn = true;
                break;
            }
        }
    }

    let (session, nprocs, opts, cap) = header.ok_or(JournalError::NoHeader)?;
    Ok(ReplayedSession {
        session,
        nprocs,
        opts,
        cap,
        events,
        finished,
        torn,
        intact_len: offset as u64,
        path: path.to_path_buf(),
    })
}

/// Scans a journal directory for `session-*.mccj` files and replays each
/// tolerantly. Unreadable or headerless files are returned by path so the
/// caller can count and report them instead of silently skipping.
pub fn scan_dir(dir: &Path) -> io::Result<(Vec<ReplayedSession>, Vec<PathBuf>)> {
    let mut sessions = Vec::new();
    let mut unreadable = Vec::new();
    if !dir.exists() {
        return Ok((sessions, unreadable));
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !(name.starts_with("session-") && name.ends_with(".mccj")) {
            continue;
        }
        match read_journal(&path) {
            Ok(s) => sessions.push(s),
            Err(_) => unreadable.push(path),
        }
    }
    // Deterministic recovery order regardless of directory iteration.
    sessions.sort_by_key(|s| s.session);
    Ok((sessions, unreadable))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_types::WinId;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mcc-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    /// Appends event `i` the way pre-unification builds did: one
    /// `JournalRecord::Event` per event. Keeps read-compat covered.
    fn append_old_event(j: &mut Journal, i: u64) {
        let (seq, rank, kind, loc) = ev(i);
        j.append(&JournalRecord::Event { seq, rank, kind, loc }).unwrap();
    }

    fn ev(i: u64) -> (u64, u32, EventKind, SourceLoc) {
        (
            i,
            (i % 2) as u32,
            EventKind::Fence { win: WinId(0) },
            SourceLoc::new("j.c", 10 + i as u32, "main"),
        )
    }

    #[test]
    fn journal_round_trips_open_events_finish() {
        let dir = tmpdir("roundtrip");
        let opts = SessionOpts { threads: 2, max_buffered: 64, durable: true, governance: true };
        let mut j = Journal::create(&dir, 9, 2, &opts, 64, FsyncPolicy::EveryAck).unwrap();
        for i in 0..5 {
            append_old_event(&mut j, i);
        }
        j.sync_for_ack().unwrap();
        j.append_finish().unwrap();
        let path = j.path().to_path_buf();

        let replay = read_journal(&path).unwrap();
        assert_eq!(replay.session, 9);
        assert_eq!(replay.nprocs, 2);
        assert_eq!(replay.opts, opts);
        assert_eq!(replay.cap, 64);
        assert_eq!(replay.events.len(), 5);
        assert!(replay.finished);
        assert!(!replay.torn);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let dir = tmpdir("torn");
        let opts = SessionOpts::default();
        let mut j = Journal::create(&dir, 1, 2, &opts, 0, FsyncPolicy::Never).unwrap();
        for i in 0..4 {
            append_old_event(&mut j, i);
        }
        let path = j.path().to_path_buf();
        drop(j);

        // Simulate a kill -9 mid-write: chop bytes off the tail.
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 3]).unwrap();

        let replay = read_journal(&path).unwrap();
        assert_eq!(replay.events.len(), 3, "last (torn) event dropped");
        assert!(replay.torn);
        assert!(!replay.finished);

        // Reopening for append truncates to the intact prefix, and new
        // records land cleanly after it.
        let mut j = Journal::open_append(&path, replay.intact_len, FsyncPolicy::Never).unwrap();
        append_old_event(&mut j, 3);
        drop(j);
        let replay = read_journal(&path).unwrap();
        assert_eq!(replay.events.len(), 4);
        assert!(!replay.torn);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_records_replay_as_individual_events() {
        let dir = tmpdir("batch");
        let opts = SessionOpts::default();
        let mut j = Journal::create(&dir, 5, 2, &opts, 0, FsyncPolicy::Never).unwrap();
        append_old_event(&mut j, 0);
        let mut b = EventBatch::new(1);
        for i in 1..4u64 {
            let (_, rank, kind, loc) = ev(i);
            b.push(rank, kind, &loc);
        }
        j.append_batch(&b).unwrap();
        let path = j.path().to_path_buf();
        drop(j);

        let replay = read_journal(&path).unwrap();
        assert_eq!(replay.events.len(), 4);
        for (i, e) in replay.events.iter().enumerate() {
            assert_eq!(*e, ev(i as u64));
        }
        assert!(!replay.torn);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_journals_from_older_builds_replay_without_a_flag() {
        // Hand-write a journal exactly as the previous (JSON-only) build
        // did: frame_payload over serde_json::to_vec per record.
        let dir = tmpdir("oldjson");
        let path = dir.join("session-11.mccj");
        let mut bytes = Vec::new();
        let recs = [
            JournalRecord::Open {
                session: 11,
                nprocs: 2,
                opts: SessionOpts {
                    threads: 1,
                    max_buffered: 0,
                    durable: true,
                    ..Default::default()
                },
                cap: 512,
            },
            {
                let (seq, rank, kind, loc) = ev(0);
                JournalRecord::Event { seq, rank, kind, loc }
            },
            {
                let (seq, rank, kind, loc) = ev(1);
                JournalRecord::Event { seq, rank, kind, loc }
            },
        ];
        for rec in &recs {
            bytes.extend_from_slice(&frame_payload(&serde_json::to_vec(rec).unwrap()));
        }
        fs::write(&path, &bytes).unwrap();

        let replay = read_journal(&path).unwrap();
        assert_eq!(replay.session, 11);
        assert_eq!(replay.events.len(), 2);
        assert!(!replay.finished);
        assert!(!replay.torn);

        // An upgraded daemon appends binary records to that same file;
        // the mixed journal still replays whole.
        let mut j = Journal::open_append(&path, replay.intact_len, FsyncPolicy::Never).unwrap();
        append_old_event(&mut j, 2);
        j.append_finish().unwrap();
        drop(j);
        let replay = read_journal(&path).unwrap();
        assert_eq!(replay.events.len(), 3);
        assert!(replay.finished);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_batch_record_tears_the_tail() {
        let dir = tmpdir("badbatch");
        let opts = SessionOpts::default();
        let mut j = Journal::create(&dir, 6, 2, &opts, 0, FsyncPolicy::Never).unwrap();
        append_old_event(&mut j, 0);
        // A structurally valid record whose columns lie: loc_idx points
        // past the table.
        let bad = EventBatch {
            first_seq: 1,
            ranks: vec![0],
            loc_idx: vec![9],
            kinds: vec![EventKind::Fence { win: WinId(0) }],
            locs: vec![],
        };
        j.append(&JournalRecord::Batch(bad)).unwrap();
        let path = j.path().to_path_buf();
        drop(j);

        let replay = read_journal(&path).unwrap();
        assert_eq!(replay.events.len(), 1, "bad batch dropped, prefix kept");
        assert!(replay.torn);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn headerless_file_is_a_typed_error() {
        let dir = tmpdir("headerless");
        let path = dir.join("session-3.mccj");
        fs::write(&path, b"not a journal at all").unwrap();
        assert!(matches!(read_journal(&path), Err(JournalError::NoHeader)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_finds_sessions_and_reports_unreadable_files() {
        let dir = tmpdir("scan");
        let opts = SessionOpts::default();
        for id in [4u64, 2] {
            let mut j = Journal::create(&dir, id, 2, &opts, 0, FsyncPolicy::Never).unwrap();
            append_old_event(&mut j, 0);
        }
        fs::write(dir.join("session-99.mccj"), b"garbage").unwrap();
        fs::write(dir.join("unrelated.txt"), b"ignored").unwrap();

        let (sessions, unreadable) = scan_dir(&dir).unwrap();
        assert_eq!(sessions.iter().map(|s| s.session).collect::<Vec<_>>(), vec![2, 4]);
        assert_eq!(unreadable.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
