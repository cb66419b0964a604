//! The `mcc serve` path: two closed-loop clients submit sessions back to
//! back to one in-process daemon over TCP (binary codec, 256-event
//! batches), plain or durable.

use crate::gen::{rounds_trace, verify_findings, Plant, RoundShape};
use crate::metrics::{median, quantile, ratio, Ledger};
use crate::rng::SplitMix64;
use crate::section::Section;
use crate::spans::Tracer;
use mcc_core::{AnalysisSession, Confidence, ConsistencyError, StreamingChecker};
use mcc_serve::client::{self, SubmitCfg};
use mcc_serve::proto::{encode_frame_with, EventBatch, Frame, FrameReader, SessionOpts};
use mcc_serve::{
    read_journal, CodecKind, FsyncPolicy, Journal, RetryPolicy, ServeConfig, Server, ServerHandle,
    SessionReport,
};
use mcc_types::{Rank, Trace};
use std::hint::black_box;
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Closed-loop clients; also the host's core count the issue sizes for.
pub const CLIENTS: usize = 2;
/// Events per `Batch` frame.
const BATCH: usize = 256;

/// One session's input and expected output.
#[derive(Debug, Clone)]
pub struct SessionCase {
    /// The trace the client streams.
    pub trace: Trace,
    /// Events in it.
    pub events: usize,
    /// The planted conflicts — the ground truth.
    pub plants: Vec<Plant>,
    /// What the batch checker reports for the same trace; a streamed
    /// session must agree with it finding for finding.
    pub batch: Vec<ConsistencyError>,
}

/// Generates `count` session traces and their batch findings.
pub fn prepare_cases(shape: &RoundShape, seed: u64, count: usize) -> Vec<SessionCase> {
    (0..count)
        .map(|i| {
            let g = rounds_trace(shape, SplitMix64::fork(seed, i as u64).next_u64());
            let batch = AnalysisSession::new().run(&g.trace).diagnostics;
            SessionCase { events: g.trace.total_events(), trace: g.trace, plants: g.plants, batch }
        })
        .collect()
}

/// An in-process daemon on a loopback port.
pub struct Daemon {
    addr: String,
    handle: ServerHandle,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    /// Binds and starts serving. With a journal directory the daemon
    /// journals durable sessions there, fsync per ack (the default).
    pub fn start(journal_dir: Option<PathBuf>) -> std::io::Result<Self> {
        let cfg =
            ServeConfig { journal_dir, fsync: FsyncPolicy::EveryAck, ..ServeConfig::default() };
        let server = Server::bind("127.0.0.1:0", cfg)?;
        let addr = server.local_addr().to_string();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Self { addr, handle, thread: Some(thread) })
    }

    /// The bound address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Stops the daemon and waits for every connection thread.
    pub fn stop(mut self) -> Result<(), String> {
        self.handle.shutdown();
        match self.thread.take().expect("daemon thread is joined once").join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon stopped with {e}")),
            Err(_) => Err("daemon thread panicked".into()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(t) = self.thread.take() {
            self.handle.shutdown();
            let _ = t.join();
        }
    }
}

/// One session: submit, wait for the report, compare with the plants
/// and with batch. Any resume or reconnect is a failure: nothing here
/// injects a fault, so one means the daemon dropped a healthy client.
fn session_op(
    addr: &str,
    case: &SessionCase,
    durable: bool,
    tr: &mut Tracer,
) -> Result<SessionReport, String> {
    let cfg = SubmitCfg { batch_size: BATCH, prefer_binary: true };
    let opts = SessionOpts { durable, ..SessionOpts::default() };
    let root = tr.enter("serve.op");
    let result = (|| {
        let report: SessionReport = tr.span("serve.submit", || {
            if durable {
                let (report, stats) = client::submit_durable_tcp_cfg(
                    addr,
                    &case.trace,
                    &opts,
                    &RetryPolicy::default(),
                    &cfg,
                )
                .map_err(|e| format!("durable submit: {e}"))?;
                if stats.resumes > 0 || stats.attempts != 1 {
                    return Err(format!(
                        "{} resume(s) over {} connection(s) without an injected fault",
                        stats.resumes, stats.attempts
                    ));
                }
                Ok(report)
            } else {
                client::submit_tcp_cfg(addr, &case.trace, &opts, &cfg)
                    .map(|(report, _)| report)
                    .map_err(|e| format!("submit: {e}"))
            }
        })?;
        tr.span("harness.verify", || {
            verify_findings(&report.findings, &case.plants)?;
            if report.findings != case.batch {
                return Err("streamed findings differ from the batch findings".to_string());
            }
            if report.confidence != Confidence::Complete || report.evictions > 0 {
                return Err(format!(
                    "verdict {:?} with {} eviction(s)",
                    report.confidence, report.evictions
                ));
            }
            if report.events_ingested != case.events as u64 {
                return Err(format!(
                    "{} of {} events ingested",
                    report.events_ingested, case.events
                ));
            }
            Ok(())
        })?;
        Ok(report)
    })();
    tr.exit(root);
    result
}

/// What the sessions of one pass (untraced or traced) added up to.
#[derive(Debug, Default)]
struct ServeRun {
    /// Submit→Report wall time of every session, ms.
    session_ms: Vec<f64>,
    /// Events per second of every slice, first `Hello` to last `Report`.
    slice_events_per_s: Vec<f64>,
    /// Sessions that failed, with the reason.
    failures: Vec<String>,
    /// Largest `SessionReport.peak_buffered` seen.
    peak_buffered: usize,
}

/// The serve path of a run: the daemon, the sessions to submit, and what
/// was measured so far.
pub struct ServeSection {
    daemon: Option<Daemon>,
    cases: Vec<SessionCase>,
    durable: bool,
    /// Sessions each client has submitted; cases go round-robin across
    /// slices.
    cursor: [usize; CLIENTS],
    scratch: PathBuf,
    plain: ServeRun,
    traced: ServeRun,
}

impl ServeSection {
    /// Binds a daemon (journaling under `scratch` when `durable`) for
    /// `cases`, at least one per client.
    pub fn start(cases: Vec<SessionCase>, durable: bool, scratch: &Path) -> Result<Self, String> {
        assert!(cases.len() >= CLIENTS, "every client needs a case of its own");
        let daemon = Daemon::start(durable.then(|| scratch.join("journal")))
            .map_err(|e| format!("binding the daemon: {e}"))?;
        Ok(Self {
            daemon: Some(daemon),
            cases,
            durable,
            cursor: [0; CLIENTS],
            scratch: scratch.to_path_buf(),
            plain: ServeRun::default(),
            traced: ServeRun::default(),
        })
    }

    /// The sessions this section submits.
    pub fn cases(&self) -> &[SessionCase] {
        &self.cases
    }

    /// Test hook: falsifies the first case's expected findings.
    pub fn corrupt_truth(&mut self) {
        self.cases[0].plants.pop();
    }

    /// Stops the daemon and waits for its threads.
    pub fn stop(&mut self) -> Result<(), String> {
        self.daemon.take().map_or(Ok(()), Daemon::stop)
    }

    fn addr(&self) -> &str {
        self.daemon.as_ref().expect("the daemon runs until stop()").addr()
    }

    /// [`CLIENTS`] closed-loop clients for `budget`. Client `c` cycles
    /// through cases `c, c + CLIENTS, ...` and submits at least
    /// `min_sessions`.
    fn clients(&mut self, budget: Duration, min_sessions: usize, tr: &mut Tracer) -> ServeRun {
        let traced = tr.is_enabled();
        let (addr, cases, durable, cursor) = (self.addr(), &self.cases, self.durable, self.cursor);
        let origin = tr.origin();
        let start = Instant::now();
        let per_client: Vec<(ServeRun, Tracer, usize, u64)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    scope.spawn(move || {
                        let mut tr =
                            if traced { Tracer::enabled(origin) } else { Tracer::disabled() };
                        let mine: Vec<&SessionCase> =
                            cases.iter().skip(c).step_by(CLIENTS).collect();
                        let mut run = ServeRun::default();
                        let (mut done, mut events) = (0usize, 0u64);
                        while done < min_sessions || start.elapsed() < budget {
                            let case = mine[(cursor[c] + done) % mine.len()];
                            done += 1;
                            let t = Instant::now();
                            match session_op(addr, case, durable, &mut tr) {
                                Ok(report) => {
                                    run.session_ms.push(t.elapsed().as_secs_f64() * 1e3);
                                    events += case.events as u64;
                                    run.peak_buffered = run.peak_buffered.max(report.peak_buffered);
                                }
                                Err(e) => run.failures.push(e),
                            }
                        }
                        (run, tr, done, events)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("client thread")).collect()
        });
        let elapsed = start.elapsed().as_secs_f64();
        let mut total = ServeRun::default();
        let mut events = 0u64;
        for (c, (run, client_tr, done, client_events)) in per_client.into_iter().enumerate() {
            self.cursor[c] += done;
            events += client_events;
            total.session_ms.extend(run.session_ms);
            total.failures.extend(run.failures);
            total.peak_buffered = total.peak_buffered.max(run.peak_buffered);
            if traced {
                tr.absorb(client_tr);
            }
        }
        total.slice_events_per_s.push(events as f64 / elapsed);
        total
    }
}

impl Section for ServeSection {
    fn warm_up(&mut self) -> Result<(), String> {
        let warm = self.clients(Duration::ZERO, 1, &mut Tracer::disabled());
        self.cursor = [0; CLIENTS];
        warm.failures.first().map_or(Ok(()), |f| Err(f.clone()))
    }

    fn slice(&mut self, budget: Duration, tr: &mut Tracer) {
        let slice = self.clients(budget, 1, tr);
        let run = if tr.is_enabled() { &mut self.traced } else { &mut self.plain };
        run.session_ms.extend(slice.session_ms);
        run.slice_events_per_s.extend(slice.slice_events_per_s);
        run.failures.extend(slice.failures);
        run.peak_buffered = run.peak_buffered.max(slice.peak_buffered);
    }

    fn ops(&self) -> (u64, Vec<String>) {
        let failures: Vec<String> =
            self.plain.failures.iter().chain(&self.traced.failures).cloned().collect();
        let done = self.plain.session_ms.len() + self.traced.session_ms.len();
        ((done + failures.len()) as u64, failures)
    }

    /// Throughput is the median over slices and latency the median over
    /// sessions, so a stall of the host during one slice moves neither.
    fn end_to_end(&self, ledger: &mut Ledger) -> Result<(), String> {
        if self.plain.session_ms.is_empty() {
            return Err("no session got its report".into());
        }
        ledger.set("serve_events_per_s", median(&self.plain.slice_events_per_s));
        ledger.set("serve_session_p50_ms", median(&self.plain.session_ms));
        Ok(())
    }

    fn layers(&mut self, tr: &mut Tracer, ledger: &mut Ledger) -> Result<f64, String> {
        if self.traced.session_ms.is_empty() {
            return Err("no traced session got its report".into());
        }
        layers(self.addr(), &self.cases, &self.traced, self.durable, &self.scratch, tr, ledger)?;
        Ok((median(&self.traced.session_ms) / median(&self.plain.session_ms) - 1.0) * 100.0)
    }
}

fn ns_per(total: Duration, events: u64) -> f64 {
    total.as_nanos() as f64 / events as f64
}

/// The per-layer numbers of the serve path. The daemon's inner layers
/// are timed from outside by driving the same public functions the
/// connection thread calls — frame codec, `StreamingChecker`, journal —
/// over the sessions' own events; what the session takes beyond their
/// sum is the residual (socket, handshake, registry, thread handoff).
fn layers(
    addr: &str,
    cases: &[SessionCase],
    traced: &ServeRun,
    durable: bool,
    scratch: &Path,
    tr: &mut Tracer,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let session_p50 = median(&traced.session_ms);
    ledger.set("serve.session_p95_ms", quantile(&traced.session_ms, 0.95));
    ledger.set("serve.sessions_failed", traced.failures.len() as f64);
    // `session_op` fails a session on its first resume, so every resume
    // there was is among the failures.
    let resumed = traced.failures.iter().filter(|f| f.contains("resume(s)")).count();
    ledger.set("serve.resumes", resumed as f64);
    ledger.set("serve.peak_buffered_events", traced.peak_buffered as f64);

    let mut events = 0u64;
    let (mut encode, mut decode, mut wire_bytes) = (Duration::ZERO, Duration::ZERO, 0u64);
    let (mut push, mut finish, mut first_finding) = (Duration::ZERO, Vec::new(), Vec::new());
    let (mut flushed, mut peak_events, mut peak_bytes) = (0usize, 0usize, 0usize);
    let (mut append, mut syncs, mut replay, mut journal_bytes) =
        (Duration::ZERO, Vec::new(), Duration::ZERO, 0u64);
    let (mut client_encode, mut client_io) = (Vec::new(), Vec::new());
    let journal_dir = scratch.join("layer-journal");

    for (i, case) in cases.iter().enumerate() {
        events += case.events as u64;
        let flat = client::flatten_events(&case.trace);
        let frames: Vec<Frame> = flat
            .chunks(BATCH)
            .enumerate()
            .map(|(b, chunk)| {
                let mut batch = EventBatch::new((b * BATCH) as u64);
                for (rank, kind, loc) in chunk {
                    batch.push(*rank, kind.clone(), loc);
                }
                Frame::Batch(batch)
            })
            .collect();

        // codec + proto: frames to bytes and back, no socket.
        let root = tr.enter("codec.op");
        let t = Instant::now();
        let wire: Vec<u8> = tr.span("codec.encode", || {
            frames.iter().flat_map(|f| encode_frame_with(f, CodecKind::Binary)).collect()
        });
        encode += t.elapsed();
        wire_bytes += wire.len() as u64;
        let t = Instant::now();
        let decoded = tr.span("codec.decode", || {
            let mut reader = FrameReader::new(Cursor::new(&wire));
            let mut n = 0usize;
            while let Some(frame) = reader.next_frame().map_err(|e| e.to_string())? {
                black_box(&frame);
                n += 1;
            }
            Ok::<usize, String>(n)
        })?;
        decode += t.elapsed();
        tr.exit(root);
        if decoded != frames.len() {
            return Err(format!("{decoded} of {} frames decoded", frames.len()));
        }

        // core streaming: what the connection thread does per event.
        let root = tr.enter("stream.op");
        let mut checker = StreamingChecker::new(case.trace.nprocs()).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let open = tr.enter("stream.push");
        let mut first = None;
        for (rank, kind, loc) in &flat {
            checker.push(Rank(*rank), kind.clone(), loc.clone()).map_err(|e| e.to_string())?;
            if first.is_none() && checker.findings_so_far() > 0 {
                first = Some(t.elapsed());
            }
        }
        tr.exit(open);
        push += t.elapsed();
        flushed = checker.regions_flushed;
        peak_events = peak_events.max(checker.peak_buffered);
        peak_bytes = peak_bytes.max(checker.peak_buffered_bytes);
        let t = Instant::now();
        let findings = tr.span("stream.finish", || checker.finish());
        finish.push(t.elapsed().as_secs_f64() * 1e3);
        tr.exit(root);
        verify_findings(&findings, &case.plants)?;
        first_finding.push(first.ok_or("no finding before the stream ended")?.as_secs_f64() * 1e3);

        // journal: append per batch, sync per ack, replay.
        let root = tr.enter("journal.op");
        let opts = SessionOpts { durable: true, ..SessionOpts::default() };
        let mut journal = tr
            .span("serve.journal_create", || {
                Journal::create(
                    &journal_dir,
                    i as u64,
                    case.trace.nprocs() as u32,
                    &opts,
                    0,
                    FsyncPolicy::EveryAck,
                )
            })
            .map_err(|e| e.to_string())?;
        for frame in &frames {
            let Frame::Batch(batch) = frame else { unreachable!("only batches were built") };
            let t = Instant::now();
            tr.span("serve.journal_append", || journal.append_batch(batch))
                .map_err(|e| e.to_string())?;
            append += t.elapsed();
            let t = Instant::now();
            tr.span("serve.journal_sync", || journal.sync_for_ack()).map_err(|e| e.to_string())?;
            syncs.push(t.elapsed().as_secs_f64() * 1e6);
        }
        journal.append_finish().map_err(|e| e.to_string())?;
        journal_bytes += journal.bytes_appended();
        let t = Instant::now();
        let replayed = tr
            .span("serve.journal_replay", || read_journal(journal.path()))
            .map_err(|e| e.to_string())?;
        replay += t.elapsed();
        tr.exit(root);
        if replayed.events.len() != case.events || !replayed.finished || replayed.torn {
            return Err("the journal did not replay to the session it recorded".into());
        }
        journal.retire().map_err(|e| e.to_string())?;

        // client: one plain submission for SubmitInfo's encode/io split.
        let cfg = SubmitCfg { batch_size: BATCH, prefer_binary: true };
        let (_, info) = tr
            .span("serve.client_probe", || {
                client::submit_tcp_cfg(addr, &case.trace, &SessionOpts::default(), &cfg)
            })
            .map_err(|e| e.to_string())?;
        client_encode.push(info.encode.as_secs_f64() * 1e3);
        client_io.push(info.io.as_secs_f64() * 1e3);
    }
    let _ = std::fs::remove_dir_all(&journal_dir);

    ledger.set("codec.encode_ns_per_event", ns_per(encode, events));
    ledger.set("codec.decode_ns_per_event", ns_per(decode, events));
    ledger.set("codec.wire_bytes_per_event", ratio(wire_bytes, events));
    ledger.set("stream.push_ns_per_event", ns_per(push, events));
    ledger.set("stream.first_finding_ms", median(&first_finding));
    ledger.set("stream.finish_ms", median(&finish));
    ledger.set("stream.regions_flushed", flushed as f64);
    ledger.set("stream.peak_buffered_events", peak_events as f64);
    ledger.set("stream.peak_buffered_bytes", peak_bytes as f64);
    ledger.set("serve.journal_append_ns_per_event", ns_per(append, events));
    ledger.set("serve.journal_sync_us", median(&syncs));
    ledger.set("serve.journal_bytes_per_event", ratio(journal_bytes, events));
    ledger.set("serve.journal_replay_ns_per_event", ns_per(replay, events));
    ledger.set("serve.client_encode_ms_per_session", median(&client_encode));
    ledger.set("serve.client_io_ms_per_session", median(&client_io));

    // Per-session cost of the parts measured above, in ms.
    let per_session = |d: Duration| d.as_secs_f64() * 1e3 / cases.len() as f64;
    let mut accounted =
        median(&client_encode) + per_session(decode) + per_session(push) + median(&finish);
    if durable {
        accounted += per_session(append) + syncs.iter().sum::<f64>() / 1e3 / cases.len() as f64;
    }
    ledger.set("serve.residual_ms_per_session", session_p50 - accounted);
    Ok(())
}
