//! Helpers shared by the suites that drive an in-process `mcc serve`
//! daemon (`serve_e2e`, `chaos_recovery`, `serve_overload`, `serve_fuzz`,
//! `codec_roundtrip`, `differential`), the chaos harness, the
//! suites' scratch directories and the differential matrix's cells and
//! per-path checks (`matrix`).

// Each suite uses a subset.
#![allow(dead_code)]

pub mod matrix;

use mc_checker::apps::{bugs, case};
use mc_checker::core::AnalysisSession;
use mc_checker::serve::client::{self, SubmitCfg};
use mc_checker::serve::proto::{write_frame_with, Frame, SessionOpts};
use mc_checker::serve::{ChaosProxy, CodecKind, FaultSchedule, Registry};
use mc_checker::serve::{ServeConfig, Server, ServerHandle};
use mc_checker::types::Trace;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Starts an in-process daemon on an ephemeral port. Returns its
/// address, the shutdown handle, its registry (so a test can read the
/// fleet and the shed log directly) and the serve thread to join after
/// `shutdown()`.
pub fn start_server(
    cfg: ServeConfig,
) -> (String, ServerHandle, Arc<Registry>, thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind an ephemeral port");
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let registry = server.registry();
    let join = thread::spawn(move || server.run().expect("serve loop"));
    (addr, handle, registry, join)
}

/// Polls `f` every 20 ms until it holds; `false` once `timeout` has
/// passed without it holding.
pub fn wait_until(mut f: impl FnMut() -> bool, timeout: Duration) -> bool {
    let start = Instant::now();
    loop {
        if f() {
            return true;
        }
        if start.elapsed() >= timeout {
            return false;
        }
        thread::sleep(Duration::from_millis(20));
    }
}

/// Reads the integer value of `"key":N` out of a stats/health document.
pub fn json_field(doc: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle)? + needle.len();
    let digits: String = doc[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Handshake and control traffic written by hand is always JSON on the
/// wire.
pub fn write_json(w: &mut impl std::io::Write, f: &Frame) -> std::io::Result<()> {
    write_frame_with(w, f, CodecKind::Json)
}

/// A scratch directory under the target dir, private to one test and
/// emptied on entry.
pub fn scratch(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Per-event JSON frames.
pub const JSON_CFG: SubmitCfg = SubmitCfg { batch_size: 1, prefer_binary: false };
/// Binary batches of 64 events, where the daemon offers them.
pub const BINARY_CFG: SubmitCfg = SubmitCfg { batch_size: 64, prefer_binary: true };

/// Daemon config for chaos runs: quick ticks, frequent acks, generous
/// resume grace (the client's retry budget decides, not the janitor).
pub fn chaos_cfg() -> ServeConfig {
    ServeConfig {
        tick: Duration::from_millis(20),
        idle_timeout: Duration::from_secs(5),
        ack_interval: 8,
        resume_grace: Duration::from_secs(60),
        ..ServeConfig::default()
    }
}

/// Client policy for chaos runs: fast, deterministic backoff.
pub fn chaos_policy(seed: u64) -> client::RetryPolicy {
    client::RetryPolicy {
        retries: 12,
        base_backoff: Duration::from_millis(10),
        max_backoff: Duration::from_millis(200),
        reply_deadline: Duration::from_secs(10),
        jitter_seed: seed,
        throttle: None,
    }
}

/// Total client→server bytes of a durable submission — the space the
/// fault position is drawn from.
pub fn wire_len(trace: &Trace) -> u64 {
    client::encode_stream(&client::flatten_events(trace), 0, CodecKind::Json, 1)
        .iter()
        .map(|f| f.len() as u64)
        .sum()
}

/// Streams `trace` durably through a chaos proxy carrying `schedule` and
/// asserts the final report is exactly the batch report.
pub fn run_through_fault(name: &str, trace: &Trace, schedule: FaultSchedule, seed: u64) {
    let batch = AnalysisSession::new().run(trace);
    let (addr, handle, _, join) = start_server(chaos_cfg());
    let mut proxy = ChaosProxy::start(&addr, schedule).expect("start chaos proxy");

    let (report, stats) = client::submit_durable_tcp(
        proxy.addr(),
        trace,
        &SessionOpts::default(),
        &chaos_policy(seed),
    )
    .unwrap_or_else(|e| {
        panic!("{name}/{}/seed{seed}: durable submit failed: {e}", schedule.kind.name())
    });

    let tag = format!("{name}/{}/seed{seed} ({stats:?})", schedule.kind.name());
    assert_eq!(report.confidence, batch.confidence, "{tag}");
    assert_eq!(report.events_ingested, trace.total_events() as u64, "{tag}");
    assert_eq!(report.findings, batch.diagnostics, "{tag}: findings diverge from batch");
    let a = serde_json::to_string(&report.findings).unwrap();
    let b = serde_json::to_string(&batch.diagnostics).unwrap();
    assert_eq!(a, b, "{tag}: serialized findings diverge from batch");

    proxy.stop();
    handle.shutdown();
    join.join().unwrap();
}

/// The eight-case sample the codec event pool and the metric-snapshot
/// tests draw from: registry names, at the rank counts their traces were
/// pinned with.
pub const SAMPLE: [(&str, u32); 8] = [
    ("adlb", 4),
    ("mpi3-queue", 4),
    ("bt-broadcast", 4),
    ("emulate", 4),
    ("jacobi", 4),
    ("lockopts", 4),
    ("ping-pong", 2),
    ("fig2c", 3),
];

/// The buggy body of sample case `i`, traced at `seed`.
pub fn sample_trace(i: usize, seed: u64) -> (&'static str, Trace) {
    let (name, nprocs) = SAMPLE[i];
    (name, bugs::trace_of(nprocs, seed, case(name).expect("a registry case").buggy))
}
