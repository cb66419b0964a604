//! `mcc` — the MC-Checker command line.
//!
//! ```text
//! mcc check <trace-dir> [--threads N] [--engine sweep|naive]
//!           [--format text|json] [--timings] [--profile out.json]
//!           [--streaming] [--tolerate-truncation]
//!     Analyze a trace directory written by the Profiler
//!     (mcc_profiler::write_trace_dir) and print the findings.
//!     --threads runs the sharded conflict engine on N OS threads (the
//!     report is identical at every thread count); --engine selects the
//!     sharded sweep engine (default) or the all-pairs baseline;
//!     --format json prints the stable schema_version-1 report document
//!     (--timings adds the per-phase `timings` object to it).
//!     --profile records phase spans and pipeline metrics and writes
//!     them as Chrome trace_event JSON — open the file in Perfetto
//!     (ui.perfetto.dev) or chrome://tracing.
//!     --tolerate-truncation reads the directory with the tolerant
//!     reader (torn lines, missing ranks) and checks in degraded mode.
//!     (--json, --naive and --parallel are kept as aliases for
//!     --format json, --engine naive and --threads 4.)
//!
//! mcc demo <case> [--fixed] [--procs N] [--trace-out DIR]
//!          [--abort R:N] [--hang R:N] [--recover-policy P]
//!          [--seed N] [--seed-sweep N] [--profile out.json]
//!     Run one of the built-in bug cases under the Profiler and check it.
//!     Cases: emulate, bt-broadcast, lockopts, ping-pong, jacobi, adlb,
//!     adlb-crash, mpi3-queue, fig2a, fig2b, fig2c, fig2d, plus the
//!     recovery gallery: jacobi-ckpt, pingpong-reexpose, adlb-failure,
//!     notify-race (each ships its own fault plan).
//!     --abort R:N injects a failure of rank R after N events; --hang
//!     R:N hangs rank R at its Nth synchronization call (caught by the
//!     watchdog). --recover-policy <abort|notify|checkpoint> chooses
//!     what --abort means: `abort` (the default) kills the process and
//!     degrades the analysis; `notify` and `checkpoint` make the
//!     failure survivable — the run keeps going, survivors observe the
//!     death, and the checker routes through the failure-aware
//!     (recovered) pipeline instead of degrading.
//!     --seed N runs the case once under the seeded *adversarial*
//!     delivery policy instead of the deterministic worst case;
//!     --seed-sweep N tries N consecutive seeds and reports the first
//!     one whose trace checks dirty — the random-search baseline that
//!     `mcc explore` replaces with systematic enumeration.
//!
//! mcc explore <case> [--fixed] [--procs N] [--max-schedules N]
//!             [--max-depth N] [--threads N] [--format text|json]
//!             [--replay WITNESS]
//!     Systematically enumerate the case's RMA delivery schedules with
//!     partial-order reduction: every run is driven by an explicit
//!     per-operation eager/at-close decision vector, only decisions the
//!     happens-before analysis marks as racing are ever flipped, and
//!     trace-equivalent schedules are deduplicated. Each finding carries
//!     a witness decision vector (`ec/-` style: one `e`/`c` string per
//!     rank); --replay WITNESS re-runs that exact schedule. Schedules
//!     that deadlock under some delivery timing are recorded as such
//!     (watchdog-bounded) instead of hanging. --threads shards the
//!     search; the report is byte-identical at every thread count.
//!     Exits 1 when any schedule has errors, 7 when the --max-schedules
//!     budget ran out before the space was covered, 0 on full coverage.
//!
//! Exit codes:
//!   0  complete analysis, no errors
//!   1  complete analysis, errors found
//!   2  usage or I/O error
//!   3  degraded analysis, errors found
//!   4  degraded analysis, no errors
//!   5  recovered analysis (rank failure modeled), errors found
//!   6  recovered analysis (rank failure modeled), no errors
//!   7  exploration: schedule budget exhausted before covering the space (no errors found)
//!
//! mcc serve [--listen ADDR] [--max-buffer N] [--soft-watermark N]
//!           [--idle-timeout-ms N] [--write-timeout-ms N] [--tick-ms N]
//!           [--max-threads N] [--ack-interval N] [--journal-dir DIR]
//!           [--fsync never|ack|always] [--resume-grace-ms N] [--recover]
//!           [--no-binary] [--no-tracectx] [--profile out.json]
//!           [--max-sessions N] [--mem-ceiling MIB] [--quota-events N]
//!           [--quota-rate N] [--quota-bytes N] [--deadline-s N]
//!           [--busy-retry-ms N]
//!     Run the checker daemon. ADDR is a TCP address (default
//!     127.0.0.1:9477; port 0 picks a free port) or, on Unix, a socket
//!     path (recognized by a `/`). Each client connection is a session
//!     checked online with bounded memory: --max-buffer caps buffered
//!     events per session (eviction past the cap degrades that session's
//!     report instead of growing without bound), --soft-watermark sets
//!     the backpressure threshold, and sessions idle for
//!     --idle-timeout-ms are salvaged with a degraded report.
//!     --journal-dir enables per-session write-ahead journals for
//!     durable sessions (--fsync picks the sync policy); with --recover
//!     the daemon scans that directory at startup and rebuilds the
//!     sessions it finds, so clients can resume across a crash.
//!     Parked durable sessions wait --resume-grace-ms for a `Resume`
//!     before the janitor salvages them.
//!     --no-binary makes the daemon JSON-only: it stops announcing the
//!     `binary` capability and refuses binary-codec payloads, for
//!     mixed-version fleets where some peer can't speak the compact
//!     wire format. --no-tracectx likewise drops the `tracectx`
//!     capability, making the daemon behave like a pre-tracectx build.
//!     --profile enables the daemon-side recorder and writes its
//!     Chrome trace on exit, for `mcc trace-merge` against a client
//!     `mcc submit --profile` trace.
//!     Resource governance (all off by default): --max-sessions caps
//!     concurrently held sessions; --mem-ceiling MIB bounds the
//!     daemon-wide accountant (buffered event bytes + journal backlog)
//!     — past 75% new sessions are refused with a typed `Busy`
//!     carrying the --busy-retry-ms hint, past 90% the janitor sheds
//!     sessions largest-buffer-first to degraded reports until back
//!     under 3/4 of the ceiling. Per-session quotas: --quota-events
//!     and --quota-bytes cap a session's total events and buffered
//!     bytes (exceeding either degrades-then-evicts with a typed
//!     `QuotaExceeded`), --quota-rate paces a session to N events/s
//!     (token bucket; over-rate sessions are stalled and told once per
//!     crossing via `Throttled`, never evicted), and --deadline-s
//!     bounds a session's wall-clock time.
//!
//! mcc submit <trace-dir> [--addr ADDR] [--threads N] [--max-buffer N]
//!            [--format text|json] [--durable] [--retries N]
//!            [--backoff-ms N] [--throttle-ms N] [--codec json|binary]
//!            [--batch-size N] [--profile out.json]
//!     Stream a recorded trace directory to a running daemon and print
//!     the returned session report. Exit codes as for `mcc check`.
//!     --durable opens a resumable session and retries through
//!     connection drops and daemon restarts (--retries attempts,
//!     exponential backoff from --backoff-ms with jitter); --throttle-ms
//!     paces the stream one frame at a time (chaos/CI use).
//!     --codec picks the event-stream encoding (default binary, used
//!     only when the daemon's Welcome announces the `binary`
//!     capability; the handshake and the daemon's replies stay JSON);
//!     --batch-size groups N events per columnar Batch frame
//!     (default 256, 1 disables batching).
//!     --profile records the client-side submit spans as a Chrome
//!     trace and — when the daemon's Welcome lists the `tracectx`
//!     capability — stamps the session with this process's trace id,
//!     so a daemon `--profile` trace can be re-parented onto this one
//!     with `mcc trace-merge`.
//!
//! mcc stats [--addr ADDR] [--metrics]
//!     Print a running daemon's supervisor state as JSON. With
//!     --metrics, print the daemon's live pipeline counters as
//!     Prometheus-style text exposition instead (the `METRICS` verb).
//!
//! mcc top [--addr ADDR] [--interval-ms N] [--once]
//!     Live fleet view of a running daemon: polls the `HEALTH` and
//!     `METRICS` verbs and renders sessions by state, events/s,
//!     buffered events, evictions, and the hot-path latency
//!     histograms (ingest→ack, journal fsync, first finding) as
//!     p50/p99. --once prints a single snapshot and exits (CI use);
//!     otherwise the screen refreshes every --interval-ms (default
//!     1000) until interrupted.
//!
//! mcc trace-merge <client.json> <daemon.json> [-o merged.json]
//!     Merge a client-side `--profile` Chrome trace with the daemon's
//!     `mcc serve --profile` trace into one document. Daemon span ids
//!     are shifted past the client's, and daemon spans that carry a
//!     `remoteTrace` link matching the client's `traceId` are
//!     re-parented onto the client span that sent the `TraceCtx`
//!     frame, so Perfetto shows client encode → wire → daemon flush →
//!     analysis as a single tree.
//!
//! mcc overhead [--reps N]
//!     Reproduce the paper's Table-3-style profiling-overhead study
//!     over the bug gallery (native vs. profiled wall time, best of N
//!     reps), then bound the cost of this build's own observability
//!     layer: estimate what the disabled instrumentation hooks cost
//!     during analysis and fail if the estimate exceeds 5% of the
//!     analysis wall time.
//!
//! mcc demo ... --submit ADDR
//!     Instead of checking in-process, ship the demo's events to a
//!     daemon via the live frame encoder and print its report.
//!
//! mcc table1
//!     Print the RMA compatibility matrix (paper Table I).
//!
//! mcc list
//!     List the available demo cases.
//! ```

use mc_checker::apps::bugs;
use mc_checker::core::streaming::StreamingChecker;
use mc_checker::core::CheckReport;
use mc_checker::mpi_sim::{Fault, FaultPlan, RecoveryPolicy, SimError};
use mc_checker::prelude::*;
use mc_checker::profiler::{read_trace_dir, read_trace_dir_tolerant, write_trace_dir};
use mc_checker::serve::proto::{Frame, FrameReader, SessionOpts};
use mc_checker::serve::{client, ServeConfig, Server, SessionReport};
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

/// Default daemon address for `serve`, `submit`, and `stats`.
const DEFAULT_ADDR: &str = "127.0.0.1:9477";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => cmd_check(&args[1..]),
        Some("demo") => cmd_demo(&args[1..]),
        Some("explore") => cmd_explore(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some("trace-merge") => cmd_trace_merge(&args[1..]),
        Some("overhead") => cmd_overhead(&args[1..]),
        Some("table1") => {
            print!("{}", mc_checker::types::compat::render_table1());
            ExitCode::SUCCESS
        }
        Some("list") => {
            println!("Bug-case demos (each has a buggy and a --fixed variant):");
            for (spec, _) in bugs::table2_cases() {
                println!(
                    "  {:<14} {:>3} procs  {:<18} {}",
                    spec.name, spec.nprocs, spec.error_location, spec.root_cause
                );
            }
            for (spec, _, _) in bugs::extension_cases() {
                println!(
                    "  {:<14} {:>3} procs  {:<18} {}",
                    spec.name, spec.nprocs, spec.error_location, spec.root_cause
                );
            }
            println!("  fig2a / fig2b / fig2c / fig2d   the Figure 2 archetypes");
            println!("Recovery gallery (survivable rank failures; fault plan built in):");
            for (spec, _, _) in bugs::recovery_gallery::gallery() {
                println!(
                    "  {:<18} {:>3} procs  rank {} fails after {} epoch(s)",
                    spec.name.replace('_', "-"),
                    spec.nprocs,
                    spec.failed_rank,
                    spec.epochs_completed
                );
            }
            println!(
                "Run one with `mcc demo <case>`; enumerate its delivery schedules with \
                 `mcc explore <case>` (recovery-gallery cases are demo-only)."
            );
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!(
                "usage: mcc <check|demo|explore|serve|submit|stats|top|trace-merge|overhead|table1|list> ...  \
                 (see `src/bin/mcc.rs` docs)\nexit codes:\n{}",
                mc_checker::EXIT_CODE_TABLE
            );
            ExitCode::from(2)
        }
    }
}

/// The value following `flag`, if any.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

/// `--profile out.json` support: a recorder that is enabled only when
/// the flag is present, installed as the process-global handle so the
/// simulator and trace IO report into it too, and flushed to a Chrome
/// trace_event file when the command finishes.
struct ProfileSink {
    path: Option<String>,
    obs: RecorderHandle,
}

impl ProfileSink {
    fn from_args(args: &[String]) -> Self {
        let path = flag_value(args, "--profile").map(str::to_string);
        let obs =
            if path.is_some() { RecorderHandle::enabled() } else { RecorderHandle::disabled() };
        if obs.is_enabled() {
            // Mint the process trace id up front so the written trace is
            // self-identifying even when no daemon ever negotiated
            // `tracectx` (trace-merge keys the parent rewrite on it).
            obs.ensure_trace_id();
            mc_checker::obs::set_global(obs.clone());
        }
        Self { path, obs }
    }

    /// Writes the trace file (if requested); IO failure trumps `code`.
    fn finish(&self, code: ExitCode) -> ExitCode {
        let Some(path) = &self.path else { return code };
        match std::fs::write(path, self.obs.to_chrome_trace()) {
            Ok(()) => {
                eprintln!("profile written to {path} (open in ui.perfetto.dev)");
                code
            }
            Err(e) => {
                eprintln!("mcc: cannot write profile `{path}`: {e}");
                ExitCode::from(2)
            }
        }
    }
}

/// Builds the analysis session from the shared `check` flags.
fn session_from_args(args: &[String], obs: &RecorderHandle) -> Result<AnalysisSession, ExitCode> {
    let has = |f: &str| args.iter().any(|a| a == f);
    let threads = match flag_value(args, "--threads") {
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("mcc: --threads expects a positive integer, got `{v}`");
                return Err(ExitCode::from(2));
            }
        },
        None if has("--parallel") => 4,
        None => 1,
    };
    let engine = match flag_value(args, "--engine") {
        Some(v) => match v.parse::<Engine>() {
            Ok(e) => e,
            Err(e) => {
                eprintln!("mcc: {e}");
                return Err(ExitCode::from(2));
            }
        },
        None if has("--naive") => Engine::Naive,
        None => Engine::Sweep,
    };
    Ok(AnalysisSession::builder().threads(threads).engine(engine).recorder(obs.clone()).build())
}

/// Resolves `--format text|json` (with `--json` as an alias).
fn json_from_args(args: &[String]) -> Result<bool, ExitCode> {
    match flag_value(args, "--format") {
        Some("json") => Ok(true),
        Some("text") | None => Ok(args.iter().any(|a| a == "--json")),
        Some(other) => {
            eprintln!("mcc: unknown format `{other}` (expected 'text' or 'json')");
            Err(ExitCode::from(2))
        }
    }
}

fn cmd_check(args: &[String]) -> ExitCode {
    let Some(dir) = args.first() else {
        eprintln!(
            "usage: mcc check <trace-dir> [--threads N] [--engine sweep|naive] \
             [--format text|json] [--timings] [--profile out.json] \
             [--streaming] [--tolerate-truncation]"
        );
        return ExitCode::from(2);
    };
    for flag in ["--seed", "--seed-sweep"] {
        if args.iter().any(|a| a == flag) {
            eprintln!(
                "mcc: `{flag}` is a simulator knob: `mcc check` analyzes a recorded trace and \
                 cannot re-run it under a different schedule. Re-record the trace with \
                 `mcc demo <case> {flag} N --trace-out DIR`, or enumerate delivery schedules \
                 systematically with `mcc explore <case>`."
            );
            return ExitCode::from(2);
        }
    }
    let has = |f: &str| args.iter().any(|a| a == f);
    let json = match json_from_args(args) {
        Ok(j) => j,
        Err(code) => return code,
    };
    let sink = ProfileSink::from_args(args);

    if has("--tolerate-truncation") {
        return sink.finish(cmd_check_tolerant(dir, args, json, &sink.obs));
    }
    let trace = match read_trace_dir(Path::new(dir)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("mcc: cannot read trace directory `{dir}`: {e}");
            eprintln!(
                "mcc: (a damaged directory may still be readable with --tolerate-truncation)"
            );
            return sink.finish(ExitCode::from(2));
        }
    };

    if has("--streaming") {
        let (findings, stats) = StreamingChecker::run_over(&trace);
        eprintln!(
            "streaming: {} events, {} regions flushed, peak buffer {} events",
            stats.total_events, stats.regions_flushed, stats.peak_buffered
        );
        return sink.finish(render_findings(&findings, json));
    }

    let session = match session_from_args(args, &sink.obs) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let report = session.run(&trace);
    eprintln!(
        "analyzed {} events: {} DAG nodes, {} regions, {} epochs ({} unmatched sync) \
         [engine {}, {} thread(s)]",
        report.stats.total_events,
        report.stats.dag_nodes,
        report.stats.regions,
        report.stats.epochs,
        report.stats.unmatched_sync,
        session.engine(),
        session.threads(),
    );
    sink.finish(report_exit(&report, json, has("--timings")))
}

/// `mcc check --tolerate-truncation`: tolerant read, degraded check.
fn cmd_check_tolerant(dir: &str, args: &[String], json: bool, obs: &RecorderHandle) -> ExitCode {
    let (trace, health) = match read_trace_dir_tolerant(Path::new(dir)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("mcc: cannot read trace directory `{dir}`: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!("trace health: {}", health.summary());
    let session = match session_from_args(args, obs) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let (mut report, info) = session.run_with_repair(&trace);
    if !health.is_complete() {
        // The reader lost data even if every surviving event resolved.
        report.mark_degraded();
    }
    eprintln!("degraded-mode repair: {}", info.summary());
    report_exit(&report, json, args.iter().any(|a| a == "--timings"))
}

/// Prints a report and maps it to the documented exit codes (0/1
/// complete, 4/3 degraded, 6/5 recovered — `mc_checker::EXIT_CODE_TABLE`).
/// `timings` switches the JSON rendering to the additive
/// per-phase-timings variant.
fn report_exit(report: &CheckReport, json: bool, timings: bool) -> ExitCode {
    if json {
        if timings {
            print!("{}", report.to_json_with_timings());
        } else {
            print!("{}", report.to_json());
        }
    } else {
        print!("{}", report.render());
    }
    ExitCode::from(mc_checker::exit_code_for(report.confidence, report.has_errors()))
}

fn render_findings(findings: &[ConsistencyError], json: bool) -> ExitCode {
    if json {
        match serde_json::to_string_pretty(findings) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("mcc: serialization failed: {e}");
                return ExitCode::from(2);
            }
        }
    } else if findings.is_empty() {
        println!("MC-Checker: no memory consistency errors detected.");
    } else {
        for (i, e) in findings.iter().enumerate() {
            println!("--- finding {} ---\n{e}\n", i + 1);
        }
    }
    if findings.iter().any(|e| e.severity == Severity::Error) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Shared by `submit` and `demo --submit`: print a daemon session report
/// and map it to the documented exit codes.
fn session_report_exit(report: &SessionReport, json: bool) -> ExitCode {
    eprintln!(
        "session: {} events ingested, {} regions flushed, peak buffer {} events, \
         {} eviction(s), confidence {}",
        report.events_ingested,
        report.regions_flushed,
        report.peak_buffered,
        report.evictions,
        report.confidence,
    );
    if json {
        println!("{}", report.to_json());
    } else if report.findings.is_empty() {
        println!("MC-Checker: no memory consistency errors detected.");
    } else {
        for (i, e) in report.findings.iter().enumerate() {
            println!("--- finding {} ---\n{e}\n", i + 1);
        }
    }
    ExitCode::from(mc_checker::exit_code_for(report.confidence, report.has_errors()))
}

/// Parses a positive-integer flag, reporting a uniform usage error.
fn positive_flag<T: std::str::FromStr + PartialOrd + From<u8>>(
    args: &[String],
    flag: &str,
) -> Result<Option<T>, ExitCode> {
    match flag_value(args, flag) {
        None => Ok(None),
        Some(v) => match v.parse::<T>() {
            Ok(n) if n >= T::from(1u8) => Ok(Some(n)),
            _ => {
                eprintln!("mcc: {flag} expects a positive integer, got `{v}`");
                Err(ExitCode::from(2))
            }
        },
    }
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let addr = flag_value(args, "--listen").unwrap_or(DEFAULT_ADDR);
    let mut cfg = ServeConfig::default();
    macro_rules! take {
        ($flag:literal, $ty:ty, $set:expr) => {
            match positive_flag::<$ty>(args, $flag) {
                Ok(Some(v)) =>
                {
                    #[allow(clippy::redundant_closure_call)]
                    ($set)(&mut cfg, v)
                }
                Ok(None) => {}
                Err(code) => return code,
            }
        };
    }
    take!("--max-buffer", usize, |c: &mut ServeConfig, n| c.hard_watermark = n);
    take!("--soft-watermark", usize, |c: &mut ServeConfig, n| c.soft_watermark = n);
    take!("--idle-timeout-ms", u64, |c: &mut ServeConfig, n| c.idle_timeout =
        Duration::from_millis(n));
    take!("--write-timeout-ms", u64, |c: &mut ServeConfig, n| c.write_timeout =
        Some(Duration::from_millis(n)));
    take!("--tick-ms", u64, |c: &mut ServeConfig, n| c.tick = Duration::from_millis(n));
    take!("--max-threads", usize, |c: &mut ServeConfig, n| c.max_threads = n);
    take!("--ack-interval", u64, |c: &mut ServeConfig, n| c.ack_interval = n);
    take!("--resume-grace-ms", u64, |c: &mut ServeConfig, n| c.resume_grace =
        Duration::from_millis(n));
    take!("--max-sessions", usize, |c: &mut ServeConfig, n| c.max_sessions = n);
    take!("--mem-ceiling", usize, |c: &mut ServeConfig, n| c.mem_ceiling = n << 20);
    take!("--quota-events", u64, |c: &mut ServeConfig, n| c.quota_max_events = n);
    take!("--quota-rate", u64, |c: &mut ServeConfig, n| c.quota_event_rate = n);
    take!("--quota-bytes", usize, |c: &mut ServeConfig, n| c.quota_max_bytes = n);
    take!("--deadline-s", u64, |c: &mut ServeConfig, n| c.session_deadline =
        Some(Duration::from_secs(n)));
    take!("--busy-retry-ms", u64, |c: &mut ServeConfig, n| c.busy_retry_after =
        Duration::from_millis(n));
    cfg.soft_watermark = cfg.soft_watermark.min(cfg.hard_watermark);
    if let Some(dir) = flag_value(args, "--journal-dir") {
        cfg.journal_dir = Some(std::path::PathBuf::from(dir));
    }
    if let Some(v) = flag_value(args, "--fsync") {
        match mc_checker::serve::FsyncPolicy::parse(v) {
            Some(p) => cfg.fsync = p,
            None => {
                eprintln!("mcc: --fsync expects never|ack|always, got `{v}`");
                return ExitCode::from(2);
            }
        }
    }
    cfg.recover = args.iter().any(|a| a == "--recover");
    cfg.no_binary = args.iter().any(|a| a == "--no-binary");
    cfg.no_tracectx = args.iter().any(|a| a == "--no-tracectx");
    if cfg.recover && cfg.journal_dir.is_none() {
        eprintln!("mcc: --recover requires --journal-dir");
        return ExitCode::from(2);
    }
    // `--profile` turns on the daemon-side recorder; its Chrome trace —
    // session spans carrying `remoteTrace` links back to the submitting
    // clients — is written when the server exits, ready for
    // `mcc trace-merge` against a client-side profile.
    let profile = flag_value(args, "--profile").map(str::to_string);
    if profile.is_some() {
        cfg.recorder = RecorderHandle::enabled();
        mc_checker::obs::set_global(cfg.recorder.clone());
    }
    let obs = cfg.recorder.clone();
    let recover = cfg.recover;
    let server = match Server::bind(addr, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mcc: cannot bind `{addr}`: {e}");
            return ExitCode::from(2);
        }
    };
    // Parsed by the serve-smoke CI job and the `submit --addr` examples.
    println!("mcc serve: listening on {}", server.local_addr());
    if recover {
        // Parsed by the chaos-smoke CI job.
        println!(
            "mcc serve: recovered {} parked session(s) from the journal",
            server.registry().parked_count()
        );
    }
    // SIGINT/SIGTERM ask the accept loop to exit instead of killing the
    // process, so `run` returns, journals close, and the `--profile`
    // trace below actually gets written.
    install_shutdown_handler(server.handle());
    let code = match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mcc: serve failed: {e}");
            ExitCode::from(2)
        }
    };
    if let Some(path) = profile {
        match std::fs::write(&path, obs.to_chrome_trace()) {
            Ok(()) => eprintln!("profile written to {path} (open in ui.perfetto.dev)"),
            Err(e) => {
                eprintln!("mcc: cannot write profile `{path}`: {e}");
                return ExitCode::from(2);
            }
        }
    }
    code
}

/// Set from the SIGINT/SIGTERM handler; a watcher thread turns it into
/// a clean [`mc_checker::serve::ServerHandle::shutdown`].
static SERVE_STOP: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Routes SIGINT and SIGTERM into a graceful server shutdown. The
/// handler itself only stores a flag (the only async-signal-safe thing
/// it may do); a watcher thread notices and pokes the accept loop.
/// Declared against the C library the Rust runtime already links, so no
/// new dependency is involved.
#[cfg(unix)]
fn install_shutdown_handler(handle: mc_checker::serve::ServerHandle) {
    use std::sync::atomic::Ordering;
    extern "C" fn on_signal(_sig: i32) {
        SERVE_STOP.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    // POSIX-mandated numbers: SIGINT = 2, SIGTERM = 15.
    let handler = on_signal as *const () as usize;
    unsafe {
        signal(2, handler);
        signal(15, handler);
    }
    std::thread::spawn(move || loop {
        if SERVE_STOP.load(Ordering::SeqCst) {
            handle.shutdown();
            return;
        }
        std::thread::sleep(Duration::from_millis(100));
    });
}

#[cfg(not(unix))]
fn install_shutdown_handler(_handle: mc_checker::serve::ServerHandle) {}

fn cmd_submit(args: &[String]) -> ExitCode {
    let Some(dir) = args.first() else {
        eprintln!(
            "usage: mcc submit <trace-dir> [--addr ADDR] [--threads N] [--max-buffer N] \
             [--format text|json] [--codec json|binary] [--batch-size N] [--profile out.json]"
        );
        return ExitCode::from(2);
    };
    let json = match json_from_args(args) {
        Ok(j) => j,
        Err(code) => return code,
    };
    // The global recorder the sink installs is what the client reads to
    // stamp the session with a trace context (see `client::send_trace_ctx`).
    let sink = ProfileSink::from_args(args);
    let mut opts = SessionOpts::default();
    if let Some(v) = flag_value(args, "--threads") {
        match v.parse::<u32>() {
            Ok(n) if n >= 1 => opts.threads = n,
            _ => {
                eprintln!("mcc: --threads expects a positive integer, got `{v}`");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(v) = flag_value(args, "--max-buffer") {
        match v.parse::<u32>() {
            Ok(n) if n >= 1 => opts.max_buffered = n,
            _ => {
                eprintln!("mcc: --max-buffer expects a positive integer, got `{v}`");
                return ExitCode::from(2);
            }
        }
    }
    let trace = match read_trace_dir(Path::new(dir)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("mcc: cannot read trace directory `{dir}`: {e}");
            return ExitCode::from(2);
        }
    };
    let addr = flag_value(args, "--addr").unwrap_or(DEFAULT_ADDR);
    let mut submit_cfg = client::SubmitCfg::default();
    if let Some(v) = flag_value(args, "--codec") {
        match v {
            "json" => submit_cfg.prefer_binary = false,
            "binary" => submit_cfg.prefer_binary = true,
            _ => {
                eprintln!("mcc: --codec expects json|binary, got `{v}`");
                return ExitCode::from(2);
            }
        }
    }
    match positive_flag::<usize>(args, "--batch-size") {
        Ok(Some(n)) => submit_cfg.batch_size = n,
        Ok(None) => {}
        Err(code) => return code,
    }
    if args.iter().any(|a| a == "--durable") {
        let mut policy = client::RetryPolicy::default();
        match positive_flag::<u32>(args, "--retries") {
            Ok(Some(n)) => policy.retries = n,
            Ok(None) => {}
            Err(code) => return code,
        }
        match positive_flag::<u64>(args, "--backoff-ms") {
            Ok(Some(ms)) => policy.base_backoff = Duration::from_millis(ms),
            Ok(None) => {}
            Err(code) => return code,
        }
        match positive_flag::<u64>(args, "--throttle-ms") {
            Ok(Some(ms)) => policy.throttle = Some(Duration::from_millis(ms)),
            Ok(None) => {}
            Err(code) => return code,
        }
        return sink.finish(
            match client::submit_durable_tcp_cfg(addr, &trace, &opts, &policy, &submit_cfg) {
                Ok((report, stats)) => {
                    eprintln!(
                        "durable submit: {} attempt(s), {} resume(s), {} event(s) re-sent, \
                         {} byte(s) over {} codec, {:.1?}",
                        stats.attempts,
                        stats.resumes,
                        stats.events_resent,
                        stats.bytes_sent,
                        stats.codec,
                        stats.wall
                    );
                    session_report_exit(&report, json)
                }
                Err(e) => {
                    eprintln!("mcc: durable submit to `{addr}` failed: {e}");
                    ExitCode::from(2)
                }
            },
        );
    }
    sink.finish(match client::submit_tcp_cfg(addr, &trace, &opts, &submit_cfg) {
        Ok((report, info)) => {
            eprintln!(
                "submit: {} frame(s), {} byte(s) over {} codec",
                info.frames_sent, info.bytes_sent, info.codec
            );
            session_report_exit(&report, json)
        }
        Err(e) => {
            eprintln!("mcc: submit to `{addr}` failed: {e}");
            ExitCode::from(2)
        }
    })
}

fn cmd_stats(args: &[String]) -> ExitCode {
    let addr = flag_value(args, "--addr").unwrap_or(DEFAULT_ADDR);
    if args.iter().any(|a| a == "--metrics") {
        return match client::metrics_tcp(addr) {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("mcc: metrics from `{addr}` failed: {e}");
                ExitCode::from(2)
            }
        };
    }
    match client::stats_tcp(addr) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("mcc: stats from `{addr}` failed: {e}");
            ExitCode::from(2)
        }
    }
}

/// Walks nested object keys in a parsed JSON document; absent or
/// non-integer paths read as 0, so a newer/older daemon never crashes
/// the view.
fn int_at(doc: &serde::Value, keys: &[&str]) -> i128 {
    let mut v = doc;
    for k in keys {
        match v.get(k) {
            Some(next) => v = next,
            None => return 0,
        }
    }
    match v {
        serde::Value::Int(n) => *n,
        _ => 0,
    }
}

/// Like [`int_at`] for string leaves (e.g. HEALTH's `pressure.level`).
fn str_at<'a>(doc: &'a serde::Value, keys: &[&str]) -> Option<&'a str> {
    let mut v = doc;
    for k in keys {
        v = v.get(k)?;
    }
    match v {
        serde::Value::Str(s) => Some(s),
        _ => None,
    }
}

/// Human-scale byte count for `mcc top` (10 MiB reads better than
/// 10485760).
fn fmt_bytes(n: i128) -> String {
    let n = n.max(0) as u64;
    if n >= 1 << 20 {
        format!("{:.1}MiB", n as f64 / (1u64 << 20) as f64)
    } else if n >= 1 << 10 {
        format!("{:.1}KiB", n as f64 / 1024.0)
    } else {
        format!("{n}B")
    }
}

/// Reads one histogram family out of the Prometheus exposition:
/// `(count, p50, p99)` in the family's unit, quantiles resolved to the
/// cumulative bucket bound they fall in (`u64::MAX` = overflow bucket).
fn hist_from_metrics(text: &str, family: &str) -> Option<(u64, u64, u64)> {
    let bucket_prefix = format!("mcc_{family}_bucket{{le=\"");
    let count_prefix = format!("mcc_{family}_count ");
    let mut buckets: Vec<(u64, u64)> = Vec::new();
    let mut count = 0u64;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(&bucket_prefix) {
            let (le, tail) = rest.split_once("\"}")?;
            let bound = if le == "+Inf" { u64::MAX } else { le.parse().ok()? };
            buckets.push((bound, tail.trim().parse().ok()?));
        } else if let Some(rest) = line.strip_prefix(&count_prefix) {
            count = rest.trim().parse().ok()?;
        }
    }
    if count == 0 || buckets.is_empty() {
        return None;
    }
    let quantile = |q: f64| -> u64 {
        let rank = ((q * count as f64).ceil() as u64).max(1);
        for &(bound, cum) in &buckets {
            if cum >= rank {
                return bound;
            }
        }
        u64::MAX
    };
    Some((count, quantile(0.5), quantile(0.99)))
}

/// One `mcc top` latency row; the overflow bucket prints as `>last`.
fn top_latency_row(label: &str, metrics: &str, family: &str) {
    let fmt = |v: u64| {
        if v == u64::MAX {
            ">65536".to_string()
        } else {
            v.to_string()
        }
    };
    match hist_from_metrics(metrics, family) {
        Some((count, p50, p99)) => {
            println!("   {:<14} {:>8} {:>8}   {:>8}", label, fmt(p50), fmt(p99), count);
        }
        None => println!("   {label:<14} {:>8} {:>8}   {:>8}", "-", "-", "-"),
    }
}

fn cmd_top(args: &[String]) -> ExitCode {
    let addr = flag_value(args, "--addr").unwrap_or(DEFAULT_ADDR);
    let once = args.iter().any(|a| a == "--once");
    let interval = match positive_flag::<u64>(args, "--interval-ms") {
        Ok(v) => v.unwrap_or(1000),
        Err(code) => return code,
    };
    loop {
        let health = match client::health_tcp(addr) {
            Ok(h) => h,
            Err(e) => {
                eprintln!("mcc: health from `{addr}` failed: {e}");
                return ExitCode::from(2);
            }
        };
        let metrics = match client::metrics_tcp(addr) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("mcc: metrics from `{addr}` failed: {e}");
                return ExitCode::from(2);
            }
        };
        let doc = match serde_json::parse_value_str(&health) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("mcc: unparseable HEALTH document from `{addr}`: {e}");
                return ExitCode::from(2);
            }
        };
        if !once {
            // Clear and home, as `top` does, so the view refreshes in place.
            print!("\x1b[2J\x1b[H");
        }
        let uptime_ms = int_at(&doc, &["uptime_ms"]);
        println!("mcc top — {addr} — uptime {:.1}s", uptime_ms as f64 / 1e3);
        println!(
            " sessions  active {}  parked {}  completed {}  salvaged {}  resumed {}  \
             recovered {}  rejected {}",
            int_at(&doc, &["sessions", "active"]),
            int_at(&doc, &["sessions", "parked"]),
            int_at(&doc, &["sessions", "completed"]),
            int_at(&doc, &["sessions", "salvaged"]),
            int_at(&doc, &["sessions", "resumed"]),
            int_at(&doc, &["sessions", "recovered"]),
            int_at(&doc, &["sessions", "rejected"]),
        );
        println!(
            " events    {} ingested  {}/s  findings {}  buffered {}",
            int_at(&doc, &["events_ingested"]),
            int_at(&doc, &["events_per_sec"]),
            int_at(&doc, &["findings"]),
            int_at(&doc, &["buffered_events"]),
        );
        println!(
            " pressure  evictions {}  backpressure stalls {}  corrupt frames {}",
            int_at(&doc, &["evictions"]),
            int_at(&doc, &["backpressure_stalls"]),
            int_at(&doc, &["frames_corrupt"]),
        );
        // Governance sections are schema v2; a v1 daemon just shows
        // zeros / "-" here.
        let ceiling = int_at(&doc, &["pressure", "mem_ceiling_bytes"]);
        println!(
            " memory    {}  accounted {}  ceiling {}  peak {}",
            str_at(&doc, &["pressure", "level"]).unwrap_or("-"),
            fmt_bytes(int_at(&doc, &["pressure", "accounted_bytes"])),
            if ceiling == 0 { "unlimited".to_string() } else { fmt_bytes(ceiling) },
            fmt_bytes(int_at(&doc, &["pressure", "peak_accounted_bytes"])),
        );
        println!(
            " admission admitted {}  rejected {}  shed {}  throttled {}",
            int_at(&doc, &["admission", "admitted"]),
            int_at(&doc, &["admission", "rejected"]),
            int_at(&doc, &["admission", "shed"]),
            int_at(&doc, &["admission", "throttled"]),
        );
        println!(" latency (µs)       p50      p99      count");
        top_latency_row("ingest→ack", &metrics, "serve_ingest_ack_latency_us");
        top_latency_row("journal fsync", &metrics, "serve_journal_fsync_us");
        top_latency_row("region flush", &metrics, "stream_region_flush_us");
        top_latency_row("first finding", &metrics, "stream_first_finding_latency_us");
        if once {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(Duration::from_millis(interval));
    }
}

/// Replaces (or inserts) `key` in an object value.
fn obj_set(v: &mut serde::Value, key: &str, val: serde::Value) {
    if let serde::Value::Obj(fields) = v {
        for (k, slot) in fields.iter_mut() {
            if k == key {
                *slot = val;
                return;
            }
        }
        fields.push((key.to_string(), val));
    }
}

fn as_int(v: Option<&serde::Value>) -> Option<i128> {
    match v {
        Some(serde::Value::Int(n)) => Some(*n),
        _ => None,
    }
}

fn cmd_trace_merge(args: &[String]) -> ExitCode {
    let (Some(client_path), Some(daemon_path)) = (args.first(), args.get(1)) else {
        eprintln!("usage: mcc trace-merge <client.json> <daemon.json> [-o merged.json]");
        return ExitCode::from(2);
    };
    let out_path =
        flag_value(args, "-o").or_else(|| flag_value(args, "--out")).unwrap_or("merged.json");
    let mut docs = Vec::new();
    for path in [client_path, daemon_path] {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("mcc: cannot read trace `{path}`: {e}");
                return ExitCode::from(2);
            }
        };
        match serde_json::parse_value_str(&text) {
            Ok(d) => docs.push(d),
            Err(e) => {
                eprintln!("mcc: `{path}` is not a Chrome trace document: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let daemon_doc = docs.pop().expect("two docs parsed");
    let client_doc = docs.pop().expect("two docs parsed");
    let trace_id = as_int(client_doc.get("traceId"));
    if trace_id.is_none() {
        eprintln!(
            "mcc: `{client_path}` carries no traceId (was it recorded with --profile against a \
             tracectx-capable daemon?); merging without parent links"
        );
    }
    let events_of = |doc: &serde::Value| -> Vec<serde::Value> {
        match doc.get("traceEvents") {
            Some(serde::Value::Arr(evs)) => evs.clone(),
            _ => Vec::new(),
        }
    };
    let client_events = events_of(&client_doc);
    let daemon_events = events_of(&daemon_doc);
    // Shift daemon span ids past the client's so the merged id space
    // stays collision-free; remote links then resolve in client ids.
    let offset = client_events
        .iter()
        .filter_map(|e| as_int(e.get("args").and_then(|a| a.get("id"))))
        .max()
        .unwrap_or(0)
        + 1;
    let mut merged = client_events;
    let mut links = 0usize;
    for ev in daemon_events {
        let mut ev = ev.clone();
        obj_set(&mut ev, "pid", serde::Value::Int(2));
        let Some(serde::Value::Obj(_)) = ev.get("args") else {
            merged.push(ev);
            continue;
        };
        let id = as_int(ev.get("args").and_then(|a| a.get("id"))).unwrap_or(0);
        let parent = as_int(ev.get("args").and_then(|a| a.get("parent"))).unwrap_or(0);
        let remote_trace = as_int(ev.get("args").and_then(|a| a.get("remoteTrace")));
        let remote_parent = as_int(ev.get("args").and_then(|a| a.get("remoteParent")));
        let new_parent = match (remote_trace, remote_parent) {
            // The daemon span was explicitly linked (via a TraceCtx
            // frame) to a span of *this* client trace: re-parent it
            // there, in unshifted client ids.
            (Some(rt), Some(rp)) if trace_id == Some(rt) => {
                links += 1;
                rp
            }
            _ if parent != 0 => parent + offset,
            _ => 0,
        };
        if let serde::Value::Obj(fields) = &mut ev {
            for (k, v) in fields.iter_mut() {
                if k == "args" {
                    if id != 0 {
                        obj_set(v, "id", serde::Value::Int(id + offset));
                    }
                    obj_set(v, "parent", serde::Value::Int(new_parent));
                }
            }
        }
        merged.push(ev);
    }
    let mut out = Vec::new();
    out.push(("displayTimeUnit".to_string(), serde::Value::Str("ms".into())));
    if let Some(id) = trace_id {
        out.push(("traceId".to_string(), serde::Value::Int(id)));
    }
    out.push(("traceEvents".to_string(), serde::Value::Arr(merged)));
    out.push((
        "metrics".to_string(),
        serde::Value::Obj(vec![
            (
                "client".to_string(),
                client_doc.get("metrics").cloned().unwrap_or(serde::Value::Obj(Vec::new())),
            ),
            (
                "daemon".to_string(),
                daemon_doc.get("metrics").cloned().unwrap_or(serde::Value::Obj(Vec::new())),
            ),
        ]),
    ));
    let doc = serde::Value::Obj(out);
    let rendered = match serde_json::to_string(&doc) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mcc: cannot render the merged trace: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::write(out_path, rendered) {
        eprintln!("mcc: cannot write `{out_path}`: {e}");
        return ExitCode::from(2);
    }
    // Parsed by the obs-smoke CI job.
    println!(
        "trace-merge: {links} daemon span(s) parent-linked into the client trace, \
         written to {out_path}"
    );
    ExitCode::SUCCESS
}

/// One bug-gallery entry: name, rank count, program body.
type GalleryCase = (&'static str, u32, fn(&mut Proc));

/// `mcc overhead`: the paper's Table-3-style overhead study, plus a
/// bound on the cost of this build's own (disabled) instrumentation.
fn cmd_overhead(args: &[String]) -> ExitCode {
    let reps = match flag_value(args, "--reps") {
        Some(v) => match v.parse::<u32>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("mcc: --reps expects a positive integer, got `{v}`");
                return ExitCode::from(2);
            }
        },
        None => 3,
    };

    let mut cases: Vec<GalleryCase> = Vec::new();
    for (spec, body) in bugs::table2_cases() {
        cases.push((spec.name, spec.nprocs, body));
    }
    for (spec, body, _) in bugs::extension_cases() {
        cases.push((spec.name, spec.nprocs, body));
    }

    println!("Profiling overhead over the bug gallery (best of {reps} rep(s) per mode):");
    println!(
        "{:<14} {:>5} {:>12} {:>12} {:>8} {:>9}",
        "app", "procs", "native", "profiled", "norm", "overhead"
    );
    for &(name, nprocs, body) in &cases {
        let base = SimConfig::new(nprocs).with_seed(0xC11);
        let rep =
            match mc_checker::profiler::profile_run(name, base, Instrument::Relevant, reps, body) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("mcc: profiling `{name}` failed: {e}");
                    return ExitCode::from(2);
                }
            };
        println!(
            "{:<14} {:>5} {:>10.3}ms {:>10.3}ms {:>7.2}x {:>8.1}%",
            rep.name,
            rep.nprocs,
            rep.native.as_secs_f64() * 1e3,
            rep.profiled.as_secs_f64() * 1e3,
            rep.normalized,
            rep.overhead_pct,
        );
    }

    // Bound the observability layer's own cost. Every hook in the
    // analysis pipeline goes through RecorderHandle, which counts its
    // invocations even when disabled; multiply that count by the
    // microbenchmarked per-call cost of the disabled path and compare
    // against the analysis wall time.
    let mut total_ops = 0u64;
    let mut total_wall = std::time::Duration::ZERO;
    for &(name, nprocs, body) in &cases {
        let trace = bugs::trace_of(nprocs, 0xC11, body);
        let counting = RecorderHandle::enabled();
        AnalysisSession::builder().recorder(counting.clone()).build().run(&trace);
        total_ops += counting.ops();

        let disabled = RecorderHandle::disabled();
        let session = AnalysisSession::builder().recorder(disabled).build();
        let mut best = std::time::Duration::MAX;
        for _ in 0..reps {
            let t = std::time::Instant::now();
            std::hint::black_box(session.run(&trace));
            best = best.min(t.elapsed());
        }
        total_wall += best;
        let _ = name;
    }

    // Per-call cost of a disabled hook, measured on this machine.
    let probe = RecorderHandle::disabled();
    const PROBE_CALLS: u64 = 1 << 22;
    let t = std::time::Instant::now();
    for i in 0..PROBE_CALLS {
        std::hint::black_box(&probe).add(std::hint::black_box("overhead_probe_total"), i);
    }
    let per_call = t.elapsed().as_secs_f64() / PROBE_CALLS as f64;

    let instr_cost = total_ops as f64 * per_call;
    let pct = 100.0 * instr_cost / total_wall.as_secs_f64().max(1e-9);
    println!();
    println!(
        "Disabled-instrumentation bound: {total_ops} hook call(s) across the gallery, \
         {:.1} ns/call disabled, ~{pct:.3}% of {:.3} ms analysis wall time (limit 5%)",
        per_call * 1e9,
        total_wall.as_secs_f64() * 1e3,
    );
    if pct >= 5.0 {
        eprintln!("mcc: disabled instrumentation overhead {pct:.3}% exceeds the 5% budget");
        return ExitCode::from(1);
    }
    println!("OK: instrumentation is free when disabled (within budget).");
    ExitCode::SUCCESS
}

/// `mcc demo ... --submit ADDR`: ship the demo's events to a daemon with
/// the live frame encoder and print the daemon's verdict.
fn submit_demo_trace(trace: &Trace, addr: &str) -> ExitCode {
    let stream = match std::net::TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mcc: cannot connect to daemon at `{addr}`: {e}");
            return ExitCode::from(2);
        }
    };
    // Read the daemon's side on a clone of the socket so the `Welcome`
    // (and its capability list) arrives before we pick an event codec.
    let read_half = match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mcc: cannot clone the daemon socket: {e}");
            return ExitCode::from(2);
        }
    };
    let mut reader = FrameReader::new(read_half);
    let mut writer = match mc_checker::profiler::TraceFrameWriter::new(
        stream,
        trace.nprocs(),
        SessionOpts::default(),
    ) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("mcc: shipping events to `{addr}` failed: {e}");
            return ExitCode::from(2);
        }
    };
    match reader.next_frame() {
        Ok(Some(Frame::Welcome { capabilities, .. })) => {
            if capabilities.iter().any(|c| c == "binary") {
                if let Err(e) = writer.set_batching(mc_checker::serve::CodecKind::Binary, 256) {
                    eprintln!("mcc: shipping events to `{addr}` failed: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        Ok(Some(Frame::Error { message })) => {
            eprintln!("mcc: daemon refused the session: {message}");
            return ExitCode::from(2);
        }
        Ok(Some(_)) | Ok(None) => {
            eprintln!("mcc: daemon closed the connection without a welcome");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("mcc: reading the daemon's welcome failed: {e}");
            return ExitCode::from(2);
        }
    }
    let shipped = (|| {
        for (rank, kind, loc) in trace.stream_order() {
            writer.event(rank, kind, loc)?;
        }
        writer.finish()
    })();
    if let Err(e) = shipped {
        eprintln!("mcc: shipping events to `{addr}` failed: {e}");
        return ExitCode::from(2);
    }
    loop {
        match reader.next_frame() {
            Ok(Some(Frame::Welcome { .. })) => {}
            Ok(Some(Frame::Ack { .. })) => {}
            Ok(Some(Frame::Report { json })) => {
                return match SessionReport::from_json(&json) {
                    Ok(report) => session_report_exit(&report, false),
                    Err(e) => {
                        eprintln!("mcc: unparseable session report: {e}");
                        ExitCode::from(2)
                    }
                };
            }
            Ok(Some(Frame::Error { message })) => {
                eprintln!("mcc: daemon refused the session: {message}");
                return ExitCode::from(2);
            }
            Ok(Some(_)) | Ok(None) => {
                eprintln!("mcc: daemon closed the connection without a report");
                return ExitCode::from(2);
            }
            Err(e) => {
                eprintln!("mcc: reading the daemon's report failed: {e}");
                return ExitCode::from(2);
            }
        }
    }
}

/// Parses a `R:N` pair (rank, count) as used by `--abort` and `--hang`.
fn parse_rank_count(v: &str) -> Option<(u32, u64)> {
    let (r, n) = v.split_once(':')?;
    Some((r.parse().ok()?, n.parse().ok()?))
}

/// A demo case resolved to its default process count and body.
type ResolvedCase = (u32, fn(&mut Proc));

/// The non-gallery demo cases: default process count and body for a case
/// name and variant. The recovery gallery resolves separately because
/// its cases carry their own fault plans.
fn resolve_case(name: &str, fixed: bool) -> Option<ResolvedCase> {
    Some(match (name, fixed) {
        ("emulate", false) => (2, bugs::emulate::buggy),
        ("emulate", true) => (2, bugs::emulate::fixed),
        ("bt-broadcast", false) => (2, bugs::bt_broadcast::buggy),
        ("bt-broadcast", true) => (2, bugs::bt_broadcast::fixed),
        ("lockopts", false) => (64, bugs::lockopts::buggy),
        ("lockopts", true) => (64, bugs::lockopts::fixed),
        ("ping-pong", false) => (2, bugs::pingpong::buggy),
        ("ping-pong", true) => (2, bugs::pingpong::fixed),
        ("jacobi", false) => (4, bugs::jacobi::buggy),
        ("jacobi", true) => (4, bugs::jacobi::fixed),
        ("adlb", false) => (2, bugs::adlb::buggy),
        ("adlb", true) => (2, bugs::adlb::fixed),
        ("adlb-crash", _) => (2, bugs::adlb::buggy),
        ("mpi3-queue", false) => (4, bugs::mpi3_queue::buggy),
        ("mpi3-queue", true) => (4, bugs::mpi3_queue::fixed),
        ("fig2a", _) => (2, bugs::archetypes::fig2a),
        ("fig2b", _) => (3, bugs::archetypes::fig2b),
        ("fig2c", _) => (3, bugs::archetypes::fig2c),
        ("fig2d", _) => (2, bugs::archetypes::fig2d),
        _ => return None,
    })
}

fn cmd_demo(args: &[String]) -> ExitCode {
    let Some(name) = args.first().map(String::as_str) else {
        eprintln!(
            "usage: mcc demo <case> [--fixed] [--procs N] [--trace-out DIR] \
             [--abort R:N] [--hang R:N] [--recover-policy abort|notify|checkpoint] \
             [--seed N] [--seed-sweep N] [--submit ADDR] [--profile out.json]"
        );
        return ExitCode::from(2);
    };
    let sink = ProfileSink::from_args(args);
    let fixed = args.iter().any(|a| a == "--fixed");
    let procs_override = flag_value(args, "--procs").and_then(|v| v.parse::<u32>().ok());

    let policy = match flag_value(args, "--recover-policy") {
        None | Some("abort") => None,
        Some("notify") => Some(RecoveryPolicy::Notify),
        Some("checkpoint") => Some(RecoveryPolicy::Checkpoint),
        Some(other) => {
            eprintln!("mcc: --recover-policy expects abort, notify or checkpoint, got `{other}`");
            return ExitCode::from(2);
        }
    };
    let mut faults = FaultPlan::none();
    for (flag, is_abort) in [("--abort", true), ("--hang", false)] {
        if let Some(v) = flag_value(args, flag) {
            let Some((rank, n)) = parse_rank_count(v) else {
                eprintln!("mcc: {flag} expects R:N (e.g. {flag} 1:6)");
                return ExitCode::from(2);
            };
            faults = faults.with(match (is_abort, policy) {
                // A survivable failure: the run continues, survivors
                // observe the death, and the analysis recovers.
                (true, Some(recover)) => Fault::RankFailure { rank, after_events: n, recover },
                (true, None) => Fault::RankAbort { rank, after_events: n },
                (false, _) => Fault::HangAtSync { rank, nth_sync: n },
            });
        }
    }
    if name == "adlb-crash" {
        faults = bugs::adlb::crash_mid_epoch_faults();
    }
    // The recovery gallery ships its own fault plan (a survivable rank
    // failure) unless the command line overrides it.
    let gallery_case = bugs::recovery_gallery::gallery()
        .into_iter()
        .find(|(spec, _, _)| spec.name.replace('_', "-") == name);
    if let Some((_, gallery_faults, _)) = &gallery_case {
        if faults.is_empty() {
            faults = gallery_faults();
        }
    }

    let (default_procs, body): (u32, fn(&mut Proc)) = if let Some((spec, _, gbody)) = gallery_case {
        (spec.nprocs, gbody)
    } else {
        match resolve_case(name, fixed) {
            Some(case) => case,
            None => {
                eprintln!("mcc: unknown demo `{name}` (try `mcc list`)");
                return ExitCode::from(2);
            }
        }
    };
    let procs = procs_override.unwrap_or(default_procs);

    let seed = match flag_value(args, "--seed") {
        None => None,
        Some(v) => match v.parse::<u64>() {
            Ok(n) => Some(n),
            Err(_) => {
                eprintln!("mcc: --seed expects an unsigned integer, got `{v}`");
                return ExitCode::from(2);
            }
        },
    };
    let sweep = match positive_flag::<u64>(args, "--seed-sweep") {
        Ok(v) => v,
        Err(code) => return code,
    };
    if (seed.is_some() || sweep.is_some()) && !faults.is_empty() {
        eprintln!(
            "mcc: --seed/--seed-sweep pick adversarial delivery schedules and cannot be \
             combined with fault injection (or a case that ships a fault plan)"
        );
        return ExitCode::from(2);
    }
    if let Some(n) = sweep {
        for flag in ["--trace-out", "--submit"] {
            if args.iter().any(|a| a == flag) {
                eprintln!("mcc: {flag} is per-run and cannot be combined with --seed-sweep");
                return ExitCode::from(2);
            }
        }
        // Random-search baseline: try N consecutive seeds under the
        // adversarial delivery policy, stop at the first dirty trace.
        let base = seed.unwrap_or(0xC11);
        eprintln!(
            "running {name}{} with {procs} ranks, sweeping {n} seed(s) from {base}...",
            if fixed { " (fixed)" } else { "" }
        );
        let session = AnalysisSession::builder().recorder(sink.obs.clone()).build();
        for s in base..base.saturating_add(n) {
            let report = session.run(&bugs::trace_adversarial(procs, s, body));
            if report.has_errors() {
                eprintln!(
                    "seed sweep: error first exposed at seed {s} ({} of {n} seed(s) tried); \
                     `mcc explore {name}` enumerates schedules instead of sampling them",
                    s - base + 1
                );
                return sink.finish(report_exit(&report, false, false));
            }
        }
        println!("seed sweep: no consistency error in {n} seed(s) (base seed {base})");
        return sink.finish(ExitCode::SUCCESS);
    }
    eprintln!("running {name}{} with {procs} ranks...", if fixed { " (fixed)" } else { "" });

    let (trace, sim_error): (Trace, Option<SimError>) = if faults.is_empty() {
        let trace = match seed {
            // The opted-in random baseline: one adversarial schedule.
            Some(s) => bugs::trace_adversarial(procs, s, body),
            None => bugs::trace_of(procs, 0xC11, body),
        };
        (trace, None)
    } else {
        // Rank deaths are the point of this run; keep their panic
        // backtraces out of the report.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let (trace, error) = bugs::trace_under_faults(procs, 0xC11, faults, body);
        std::panic::set_hook(prev);
        if let Some(e) = &error {
            eprintln!("simulator: {e}");
        }
        (trace, error)
    };

    if let Some(dir) = flag_value(args, "--trace-out") {
        if let Err(e) = write_trace_dir(&trace, Path::new(dir)) {
            eprintln!("mcc: cannot write trace: {e}");
            return sink.finish(ExitCode::from(2));
        }
        eprintln!("trace written to {dir}");
    }

    if let Some(addr) = flag_value(args, "--submit") {
        return sink.finish(submit_demo_trace(&trace, addr));
    }

    let session = AnalysisSession::builder().recorder(sink.obs.clone()).build();
    if sim_error.is_none() {
        // A survivable rank failure leaves no simulator error; `run`
        // notices the failure markers and recovers (exit 5/6).
        let report = session.run(&trace);
        return sink.finish(report_exit(&report, false, false));
    }
    // The run was cut short: the trace may stop mid-epoch, so only the
    // degraded path is safe.
    let (mut report, info) = session.run_with_repair(&trace);
    report.mark_degraded();
    eprintln!("degraded-mode repair: {}", info.summary());
    sink.finish(report_exit(&report, false, false))
}

fn cmd_explore(args: &[String]) -> ExitCode {
    let Some(name) = args.first().map(String::as_str) else {
        eprintln!(
            "usage: mcc explore <case> [--fixed] [--procs N] [--max-schedules N] \
             [--max-depth N] [--threads N] [--format text|json] [--replay WITNESS]"
        );
        return ExitCode::from(2);
    };
    let json = match json_from_args(args) {
        Ok(j) => j,
        Err(code) => return code,
    };
    let fixed = args.iter().any(|a| a == "--fixed");
    let is_gallery = bugs::recovery_gallery::gallery()
        .into_iter()
        .any(|(spec, _, _)| spec.name.replace('_', "-") == name);
    if is_gallery || name == "adlb-crash" {
        eprintln!(
            "mcc: `{name}` ships a fault plan; `mcc explore` enumerates the delivery \
             schedules of fault-free runs (run it with `mcc demo {name}` instead)"
        );
        return ExitCode::from(2);
    }
    let Some((default_procs, body)) = resolve_case(name, fixed) else {
        eprintln!("mcc: unknown case `{name}` (try `mcc list`)");
        return ExitCode::from(2);
    };
    let procs =
        flag_value(args, "--procs").and_then(|v| v.parse::<u32>().ok()).unwrap_or(default_procs);
    let max_schedules = match positive_flag::<u64>(args, "--max-schedules") {
        Ok(v) => v.unwrap_or(256),
        Err(code) => return code,
    };
    let max_depth = match positive_flag::<usize>(args, "--max-depth") {
        Ok(v) => v.unwrap_or(64),
        Err(code) => return code,
    };
    let threads = match positive_flag::<usize>(args, "--threads") {
        Ok(v) => v.unwrap_or(1),
        Err(code) => return code,
    };
    let explorer = mc_checker::explore::Explorer::new(procs)
        .with_max_schedules(max_schedules)
        .with_max_depth(max_depth)
        .with_threads(threads);

    // Deadlocking and crashing schedules are expected outcomes of the
    // enumeration; keep their rank panics out of the output.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let code = if let Some(witness) = flag_value(args, "--replay") {
        match explorer.replay(witness, body) {
            Err(e) => {
                eprintln!("mcc: {e}");
                ExitCode::from(2)
            }
            Ok(outcome) => {
                eprintln!("replayed witness {} with {procs} rank(s)", outcome.witness);
                if let Some(e) = &outcome.sim_error {
                    eprintln!("simulator: {e}");
                }
                let findings_code = render_findings(&outcome.findings, json);
                if outcome.sim_error.is_some() {
                    // The witness reproduced a deadlock or crash.
                    ExitCode::from(1)
                } else {
                    findings_code
                }
            }
        }
    } else {
        eprintln!(
            "exploring {name}{} with {procs} rank(s), budget {max_schedules} schedule(s), \
             {threads} thread(s)...",
            if fixed { " (fixed)" } else { "" }
        );
        let report = explorer.run(body);
        if json {
            print!("{}", report.to_json());
        } else {
            print!("{}", report.render());
        }
        ExitCode::from(report.exit_code())
    };
    std::panic::set_hook(prev);
    code
}
