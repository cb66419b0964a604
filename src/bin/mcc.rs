//! `mcc` — the MC-Checker command line.
//!
//! Every subcommand, operand and flag is a row of
//! [`mc_checker::cli::COMMANDS`]; `mcc help` prints that table and the
//! exit-code contract. The handlers below read their flags only through
//! the typed getters of [`Args`], so a flag the table does not declare
//! never reaches them.

use mc_checker::apps::{self, bugs, cases, Body, Case, Source};
use mc_checker::cli::{self, Args};
use mc_checker::core::streaming::StreamingChecker;
use mc_checker::core::CheckReport;
use mc_checker::mpi_sim::{Fault, FaultPlan, RecoveryPolicy, SimError};
use mc_checker::prelude::*;
use mc_checker::profiler::{read_trace_dir, read_trace_dir_tolerant, write_trace_dir};
use mc_checker::serve::proto::{Frame, FrameReader, SessionOpts};
use mc_checker::serve::{client, ServeConfig, Server, SessionReport};
use std::fmt::Display;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

/// Default daemon address for `serve`, `submit`, and `stats`.
const DEFAULT_ADDR: &str = "127.0.0.1:9477";

/// A command's exit code, or the already-worded reason there is none —
/// a usage error or an I/O, protocol or input failure; `mcc` prints it
/// and exits 2.
type Outcome = Result<ExitCode, String>;

/// Words an error as that reason: `f().map_err(failed("cannot x"))?`.
fn failed<E: Display>(what: impl Display) -> impl FnOnce(E) -> String {
    move |e| format!("{what}: {e}")
}

fn fail<T>(message: impl Into<String>) -> Result<T, String> {
    Err(message.into())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first().and_then(|name| cli::command(name)) else {
        eprintln!("{}", cli::synopsis());
        return ExitCode::from(2);
    };
    let outcome = cli::parse(cmd, &argv[1..]).map_err(String::from).and_then(|args| {
        if args.wants_help() {
            print!("{}", cli::help(cmd));
            return Ok(ExitCode::SUCCESS);
        }
        match cmd.name {
            "check" => cmd_check(&args),
            "demo" => cmd_demo(&args),
            "explore" => cmd_explore(&args),
            "serve" => cmd_serve(&args),
            "submit" => cmd_submit(&args),
            "stats" => cmd_stats(&args),
            "top" => cmd_top(&args),
            "trace-merge" => cmd_trace_merge(&args),
            "overhead" => cmd_overhead(&args),
            "table1" => cmd_table1(),
            "list" => cmd_list(),
            "help" => cmd_help(&args),
            other => unreachable!("`{other}` is in the command table but has no handler"),
        }
    });
    outcome.unwrap_or_else(|reason| {
        eprintln!("mcc: {reason}");
        ExitCode::from(2)
    })
}

fn cmd_help(args: &Args) -> Outcome {
    let Some(name) = args.operands().first() else {
        print!("{}", cli::reference());
        return Ok(ExitCode::SUCCESS);
    };
    let Some(cmd) = cli::command(name) else {
        return fail(format!("no such command `{name}` (try `mcc help`)"));
    };
    print!("{}", cli::help(cmd));
    Ok(ExitCode::SUCCESS)
}

fn cmd_table1() -> Outcome {
    print!("{}", mc_checker::types::compat::render_table1());
    Ok(ExitCode::SUCCESS)
}

fn cmd_list() -> Outcome {
    println!("Bug-case demos (each has a buggy and a --fixed variant):");
    for case in cases() {
        let Some(spec) = case.bug_spec() else { continue };
        println!(
            "  {:<14} {:>3} procs  {:<18} {}",
            spec.name, case.procs, spec.error_location, spec.root_cause
        );
    }
    let figure2: Vec<&str> =
        cases().iter().filter(|c| matches!(c.source, Source::Figure2(_))).map(|c| c.name).collect();
    println!("  {}   the Figure 2 archetypes", figure2.join(" / "));
    println!("Recovery gallery (survivable rank failures; fault plan built in):");
    for case in cases() {
        let Source::Recovery(spec) = case.source else { continue };
        println!(
            "  {:<18} {:>3} procs  rank {} fails after {} epoch(s)",
            case.name, case.procs, spec.failed_rank, spec.epochs_completed
        );
    }
    println!(
        "Run one with `mcc demo <case>`; enumerate its delivery schedules with \
         `mcc explore <case>` (recovery-gallery cases are demo-only)."
    );
    Ok(ExitCode::SUCCESS)
}

/// `--profile FILE` support: a recorder that is enabled only when the
/// flag was given, installed as the process-global handle so the
/// simulator and trace IO report into it too, and flushed to a Chrome
/// trace_event file when the command finishes.
struct ProfileSink {
    path: Option<String>,
    obs: RecorderHandle,
}

impl ProfileSink {
    fn new(path: Option<&str>) -> Self {
        let obs =
            if path.is_some() { RecorderHandle::enabled() } else { RecorderHandle::disabled() };
        if obs.is_enabled() {
            // Mint the process trace id up front so the written trace is
            // self-identifying even when no daemon ever negotiated
            // `tracectx` (trace-merge keys the parent rewrite on it).
            obs.ensure_trace_id();
            mc_checker::obs::set_global(obs.clone());
        }
        Self { path: path.map(str::to_string), obs }
    }

    /// Writes the trace file (if requested); IO failure trumps `code`.
    fn finish(&self, code: ExitCode) -> Outcome {
        let Some(path) = &self.path else { return Ok(code) };
        std::fs::write(path, self.obs.to_chrome_trace())
            .map_err(failed(format!("cannot write profile `{path}`")))?;
        eprintln!("profile written to {path} (open in ui.perfetto.dev)");
        Ok(code)
    }
}

/// The `check` flags, read once for the strict and the tolerant path.
struct CheckArgs {
    json: bool,
    timings: bool,
    session: AnalysisSession,
}

fn cmd_check(args: &Args) -> Outcome {
    let dir = args.operands()[0];
    let sink = ProfileSink::new(args.str("--profile"));
    let check = CheckArgs {
        json: args.one_of("--format")? == Some("json"),
        timings: args.has("--timings"),
        session: AnalysisSession::builder().recorder(sink.obs.clone()).build(),
    };
    let streaming = args.has("--streaming");
    if args.has("--tolerate-truncation") {
        return sink.finish(check_tolerant(dir, &check)?);
    }
    let trace = read_trace_dir(Path::new(dir)).map_err(|e| {
        format!(
            "cannot read trace directory `{dir}`: {e}\n\
             mcc: (a damaged directory may still be readable with --tolerate-truncation)"
        )
    })?;

    let invalid = |e: String| {
        format!(
            "cannot check `{dir}`: {e}\n\
             mcc: (--tolerate-truncation drops invalid events and checks the rest)"
        )
    };
    if streaming {
        let (findings, stats) =
            StreamingChecker::run_over(&trace).map_err(|e| invalid(e.to_string()))?;
        eprintln!(
            "streaming: {} events, {} regions flushed, peak buffer {} events",
            stats.total_events, stats.regions_flushed, stats.peak_buffered
        );
        let has_errors = render_findings(&findings, check.json)?;
        return sink.finish(mc_checker::exit_code_for(stats.confidence, has_errors).into());
    }

    let report =
        check.session.try_run(&trace).map_err(|e| invalid(format!("{}: {e}", e.headline())))?;
    eprintln!(
        "analyzed {} events: {} DAG nodes, {} regions, {} epochs ({} unmatched sync)",
        report.stats.total_events,
        report.stats.dag_nodes,
        report.stats.regions,
        report.stats.epochs,
        report.stats.unmatched_sync,
    );
    sink.finish(report_exit(&report, check.json, check.timings))
}

/// `mcc check --tolerate-truncation`: tolerant read, degraded check.
fn check_tolerant(dir: &str, check: &CheckArgs) -> Outcome {
    let (trace, health) = read_trace_dir_tolerant(Path::new(dir))
        .map_err(failed(format!("cannot read trace directory `{dir}`")))?;
    eprintln!("trace health: {}", health.summary());
    let (mut report, info) = check.session.run_with_repair(&trace);
    if !health.is_complete() {
        // The reader lost data even if every surviving event resolved.
        report.mark_degraded();
    }
    eprintln!("degraded-mode repair: {}", info.summary());
    Ok(report_exit(&report, check.json, check.timings))
}

/// Prints a report and maps it to the documented exit codes (0/1
/// complete, 4/3 degraded, 6/5 recovered — `mc_checker::EXIT_CODE_TABLE`).
/// `timings` switches the JSON rendering to the additive
/// per-phase-timings variant.
fn report_exit(report: &CheckReport, json: bool, timings: bool) -> ExitCode {
    match (json, timings) {
        (true, true) => print!("{}", report.to_json_with_timings()),
        (true, false) => print!("{}", report.to_json()),
        (false, _) => print!("{}", report.render()),
    }
    ExitCode::from(mc_checker::exit_code_for(report.confidence, report.has_errors()))
}

fn print_findings(findings: &[ConsistencyError]) {
    if findings.is_empty() {
        println!("MC-Checker: no memory consistency errors detected.");
    }
    for (i, e) in findings.iter().enumerate() {
        println!("--- finding {} ---\n{e}\n", i + 1);
    }
}

/// Prints bare findings (no report around them); true when any is an
/// error.
fn render_findings(findings: &[ConsistencyError], json: bool) -> Result<bool, String> {
    if json {
        let doc = serde_json::to_string_pretty(findings).map_err(failed("serialization failed"))?;
        println!("{doc}");
    } else {
        print_findings(findings);
    }
    Ok(findings.iter().any(|e| e.severity == Severity::Error))
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
    } else {
        print_findings(&report.findings);
    }
    ExitCode::from(mc_checker::exit_code_for(report.confidence, report.has_errors()))
}

fn cmd_serve(args: &Args) -> Outcome {
    let addr = args.str("--listen").unwrap_or(DEFAULT_ADDR);
    let ms = Duration::from_millis;
    let mut cfg = ServeConfig::default();
    cfg.hard_watermark = args.positive("--max-buffer")?.unwrap_or(cfg.hard_watermark);
    cfg.soft_watermark = args.positive("--soft-watermark")?.unwrap_or(cfg.soft_watermark);
    cfg.soft_watermark = cfg.soft_watermark.min(cfg.hard_watermark);
    cfg.idle_timeout = args.positive("--idle-timeout-ms")?.map_or(cfg.idle_timeout, ms);
    cfg.write_timeout = args.positive("--write-timeout-ms")?.map(ms).or(cfg.write_timeout);
    cfg.tick = args.positive("--tick-ms")?.map_or(cfg.tick, ms);
    cfg.ack_interval = args.positive("--ack-interval")?.unwrap_or(cfg.ack_interval);
    cfg.resume_grace = args.positive("--resume-grace-ms")?.map_or(cfg.resume_grace, ms);
    cfg.max_sessions = args.positive("--max-sessions")?.unwrap_or(cfg.max_sessions);
    let mib = args.positive::<usize>("--mem-ceiling")?;
    cfg.mem_ceiling = mib.map_or(cfg.mem_ceiling, |n| n << 20);
    cfg.quota_max_events = args.positive("--quota-events")?.unwrap_or(cfg.quota_max_events);
    cfg.quota_event_rate = args.positive("--quota-rate")?.unwrap_or(cfg.quota_event_rate);
    cfg.quota_max_bytes = args.positive("--quota-bytes")?.unwrap_or(cfg.quota_max_bytes);
    cfg.session_deadline = args.positive("--deadline-s")?.map(Duration::from_secs);
    cfg.busy_retry_after = args.positive("--busy-retry-ms")?.map_or(cfg.busy_retry_after, ms);
    cfg.journal_dir = args.str("--journal-dir").map(std::path::PathBuf::from);
    if let Some(policy) = args.one_of("--fsync")? {
        cfg.fsync = mc_checker::serve::FsyncPolicy::parse(policy).expect("one_of checked it");
    }
    cfg.recover = args.has("--recover");
    cfg.no_binary = args.has("--no-binary");
    cfg.no_tracectx = args.has("--no-tracectx");
    // `--profile` swaps in the sink's recorder; its Chrome trace — session
    // spans carrying `remoteTrace` links back to the submitting clients —
    // is written when the server exits, ready for `mcc trace-merge`
    // against a client-side profile.
    let sink = ProfileSink::new(args.str("--profile"));
    if sink.obs.is_enabled() {
        cfg.recorder = sink.obs.clone();
    }
    let recover = cfg.recover;
    let server = Server::bind(addr, cfg).map_err(failed(format!("cannot bind `{addr}`")))?;
    // Parsed by `tests/cli.rs`, the CI smoke jobs and the `submit --addr` examples.
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
    // trace actually gets written — also when `run` itself failed.
    install_shutdown_handler(server.handle());
    let ran = server.run();
    let code = sink.finish(ExitCode::SUCCESS)?;
    ran.map(|()| code).map_err(failed("serve failed"))
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

fn cmd_submit(args: &Args) -> Outcome {
    let dir = args.operands()[0];
    let json = args.one_of("--format")? == Some("json");
    // The global recorder the sink installs is what the client reads to
    // stamp the session with a trace context (see `client::send_trace_ctx`).
    let sink = ProfileSink::new(args.str("--profile"));
    let addr = args.str("--addr").unwrap_or(DEFAULT_ADDR);
    let mut opts = SessionOpts::default();
    opts.max_buffered = args.positive("--max-buffer")?.unwrap_or(opts.max_buffered);
    let mut cfg = client::SubmitCfg::default();
    cfg.prefer_binary = args.one_of("--codec")? != Some("json");
    cfg.batch_size = args.positive("--batch-size")?.unwrap_or(cfg.batch_size);
    let mut policy = client::RetryPolicy::default();
    policy.retries = args.positive("--retries")?.unwrap_or(policy.retries);
    policy.base_backoff =
        args.positive("--backoff-ms")?.map_or(policy.base_backoff, Duration::from_millis);
    policy.throttle = args.positive("--throttle-ms")?.map(Duration::from_millis);
    let trace = read_trace_dir(Path::new(dir))
        .map_err(failed(format!("cannot read trace directory `{dir}`")))?;
    let report = if args.has("--durable") {
        let (report, stats) = client::submit_durable_tcp_cfg(addr, &trace, &opts, &policy, &cfg)
            .map_err(failed(format!("durable submit to `{addr}` failed")))?;
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
        report
    } else {
        let (report, info) = client::submit_tcp_cfg(addr, &trace, &opts, &cfg)
            .map_err(failed(format!("submit to `{addr}` failed")))?;
        eprintln!(
            "submit: {} frame(s), {} byte(s) over {} codec",
            info.frames_sent, info.bytes_sent, info.codec
        );
        report
    };
    sink.finish(session_report_exit(&report, json))
}

fn cmd_stats(args: &Args) -> Outcome {
    let addr = args.str("--addr").unwrap_or(DEFAULT_ADDR);
    if args.has("--metrics") {
        let text = client::metrics_tcp(addr);
        print!("{}", text.map_err(failed(format!("metrics from `{addr}` failed")))?);
    } else {
        let json = client::stats_tcp(addr);
        println!("{}", json.map_err(failed(format!("stats from `{addr}` failed")))?);
    }
    Ok(ExitCode::SUCCESS)
}

/// Walks nested object keys in a parsed JSON document.
fn value_at<'a>(doc: &'a serde::Value, keys: &[&str]) -> Option<&'a serde::Value> {
    keys.iter().try_fold(doc, |v, k| v.get(k))
}

/// The integer at `keys`; absent or non-integer paths read as 0, so a
/// newer/older daemon never crashes the view.
fn int_at(doc: &serde::Value, keys: &[&str]) -> i128 {
    match value_at(doc, keys) {
        Some(serde::Value::Int(n)) => *n,
        _ => 0,
    }
}

/// Like [`int_at`] for string leaves (e.g. HEALTH's `pressure.level`).
fn str_at<'a>(doc: &'a serde::Value, keys: &[&str]) -> Option<&'a str> {
    match value_at(doc, keys)? {
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

fn cmd_top(args: &Args) -> Outcome {
    let addr = args.str("--addr").unwrap_or(DEFAULT_ADDR);
    let once = args.has("--once");
    let interval = args.positive("--interval-ms")?.unwrap_or(1000);
    loop {
        let health =
            client::health_tcp(addr).map_err(failed(format!("health from `{addr}` failed")))?;
        let metrics =
            client::metrics_tcp(addr).map_err(failed(format!("metrics from `{addr}` failed")))?;
        let doc = serde_json::parse_value_str(&health)
            .map_err(failed(format!("unparseable HEALTH document from `{addr}`")))?;
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
            return Ok(ExitCode::SUCCESS);
        }
        std::thread::sleep(Duration::from_millis(interval));
    }
}

/// Replaces (or inserts) `key` in an object value.
fn obj_set(v: &mut serde::Value, key: &str, val: serde::Value) {
    if let serde::Value::Obj(fields) = v {
        match fields.iter_mut().find(|(k, _)| k == key) {
            Some((_, slot)) => *slot = val,
            None => fields.push((key.to_string(), val)),
        }
    }
}

/// The integer at `args.<key>` of a Chrome trace event.
fn arg_int(ev: &serde::Value, key: &str) -> Option<i128> {
    match ev.get("args")?.get(key)? {
        serde::Value::Int(n) => Some(*n),
        _ => None,
    }
}

fn cmd_trace_merge(args: &Args) -> Outcome {
    let [client_path, daemon_path] = *args.operands() else {
        unreachable!("the table declares two required operands")
    };
    let out_path = args.str("-o").or(args.str("--out")).unwrap_or("merged.json");
    let load = |path: &str| -> Result<serde::Value, String> {
        let text =
            std::fs::read_to_string(path).map_err(failed(format!("cannot read trace `{path}`")))?;
        serde_json::parse_value_str(&text)
            .map_err(failed(format!("`{path}` is not a Chrome trace document")))
    };
    let client_doc = load(client_path)?;
    let daemon_doc = load(daemon_path)?;
    let trace_id = match client_doc.get("traceId") {
        Some(serde::Value::Int(id)) => Some(*id),
        _ => None,
    };
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
    let mut merged = events_of(&client_doc);
    // Shift daemon span ids past the client's so the merged id space
    // stays collision-free; remote links then resolve in client ids.
    let offset = merged.iter().filter_map(|e| arg_int(e, "id")).max().unwrap_or(0) + 1;
    let mut links = 0usize;
    for mut ev in events_of(&daemon_doc) {
        obj_set(&mut ev, "pid", serde::Value::Int(2));
        let id = arg_int(&ev, "id").unwrap_or(0);
        let parent = arg_int(&ev, "parent").unwrap_or(0);
        let new_parent = match (arg_int(&ev, "remoteTrace"), arg_int(&ev, "remoteParent")) {
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
            if let Some((_, span)) = fields.iter_mut().find(|(k, _)| k == "args") {
                if id != 0 {
                    obj_set(span, "id", serde::Value::Int(id + offset));
                }
                obj_set(span, "parent", serde::Value::Int(new_parent));
            }
        }
        merged.push(ev);
    }
    let metrics_of =
        |doc: &serde::Value| doc.get("metrics").cloned().unwrap_or(serde::Value::Obj(Vec::new()));
    let mut out = vec![("displayTimeUnit".to_string(), serde::Value::Str("ms".into()))];
    if let Some(id) = trace_id {
        out.push(("traceId".to_string(), serde::Value::Int(id)));
    }
    out.push(("traceEvents".to_string(), serde::Value::Arr(merged)));
    out.push((
        "metrics".to_string(),
        serde::Value::Obj(vec![
            ("client".to_string(), metrics_of(&client_doc)),
            ("daemon".to_string(), metrics_of(&daemon_doc)),
        ]),
    ));
    let rendered = serde_json::to_string(&serde::Value::Obj(out))
        .map_err(failed("cannot render the merged trace"))?;
    std::fs::write(out_path, rendered).map_err(failed(format!("cannot write `{out_path}`")))?;
    // Parsed by the obs-smoke CI job.
    println!(
        "trace-merge: {links} daemon span(s) parent-linked into the client trace, \
         written to {out_path}"
    );
    Ok(ExitCode::SUCCESS)
}

/// `mcc overhead`: the paper's Table-3-style overhead study, plus a
/// bound on the cost of this build's own (disabled) instrumentation.
fn cmd_overhead(args: &Args) -> Outcome {
    let reps = args.positive::<u32>("--reps")?.unwrap_or(3);
    // The bug gallery: every Table II and extension case's buggy body.
    let gallery: Vec<(&str, &Case)> =
        cases().iter().filter_map(|c| Some((c.bug_spec()?.name, c))).collect();

    println!("Profiling overhead over the bug gallery (best of {reps} rep(s) per mode):");
    println!(
        "{:<14} {:>5} {:>12} {:>12} {:>8} {:>9}",
        "app", "procs", "native", "profiled", "norm", "overhead"
    );
    for &(name, case) in &gallery {
        let base = SimConfig::new(case.procs).with_seed(0xC11);
        let rep =
            mc_checker::profiler::profile_run(name, base, Instrument::Relevant, reps, case.buggy)
                .map_err(failed(format!("profiling `{name}` failed")))?;
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
    for &(_, case) in &gallery {
        let trace = bugs::trace_of(case.procs, 0xC11, case.buggy);
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
        return Ok(ExitCode::from(1));
    }
    println!("OK: instrumentation is free when disabled (within budget).");
    Ok(ExitCode::SUCCESS)
}

/// `mcc demo ... --submit ADDR`: ship the demo's events to a daemon with
/// the live frame encoder and print the daemon's verdict.
fn submit_demo_trace(trace: &Trace, addr: &str) -> Outcome {
    let shipping = || failed(format!("shipping events to `{addr}` failed"));
    let stream = std::net::TcpStream::connect(addr)
        .map_err(failed(format!("cannot connect to daemon at `{addr}`")))?;
    // Read the daemon's side on a clone of the socket so the `Welcome`
    // (and its capability list) arrives before we pick an event codec.
    let read_half = stream.try_clone().map_err(failed("cannot clone the daemon socket"))?;
    let mut reader = FrameReader::new(read_half);
    let opts = SessionOpts::default();
    let mut writer = mc_checker::profiler::TraceFrameWriter::new(stream, trace.nprocs(), opts)
        .map_err(shipping())?;
    match reader.next_frame().map_err(failed("reading the daemon's welcome failed"))? {
        Some(Frame::Welcome { capabilities, .. }) => {
            if capabilities.iter().any(|c| c == "binary") {
                writer
                    .set_batching(mc_checker::serve::CodecKind::Binary, 256)
                    .map_err(shipping())?;
            }
        }
        Some(Frame::Error { message }) => {
            return fail(format!("daemon refused the session: {message}"))
        }
        _ => return fail("daemon closed the connection without a welcome"),
    }
    for (rank, kind, loc) in trace.stream_order() {
        writer.event(rank, kind, loc).map_err(shipping())?;
    }
    writer.finish().map_err(shipping())?;
    loop {
        match reader.next_frame().map_err(failed("reading the daemon's report failed"))? {
            Some(Frame::Welcome { .. } | Frame::Ack { .. }) => {}
            Some(Frame::Report { json }) => {
                let report = SessionReport::from_json(&json)
                    .map_err(failed("unparseable session report"))?;
                return Ok(session_report_exit(&report, false));
            }
            Some(Frame::Error { message }) => {
                return fail(format!("daemon refused the session: {message}"))
            }
            _ => return fail("daemon closed the connection without a report"),
        }
    }
}

/// Parses a `R:N` pair (rank, count) as used by `--abort` and `--hang`.
fn parse_rank_count(v: &str) -> Option<(u32, u64)> {
    let (r, n) = v.split_once(':')?;
    Some((r.parse().ok()?, n.parse().ok()?))
}

/// Looks `mcc demo|explore NAME [--fixed]` up in the case registry: the
/// case, and the body `fixed` picks.
fn resolve_case(args: &Args, fixed: bool) -> Result<(&'static Case, Body), String> {
    let name = args.operands()[0];
    let case = apps::case(name).ok_or_else(|| format!("unknown case `{name}` (try `mcc list`)"))?;
    let body = case
        .body(fixed)
        .ok_or_else(|| args.refuse(format!("`--fixed`: case `{name}` has no fixed variant")))?;
    Ok((case, body))
}

/// Runs `body` with rank panics kept off stderr: a rank dying, or a
/// schedule deadlocking, is the point of such a run, not a crash.
fn with_quiet_panics<T>(body: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = body();
    std::panic::set_hook(prev);
    out
}

fn cmd_demo(args: &Args) -> Outcome {
    let name = args.operands()[0];
    let sink = ProfileSink::new(args.str("--profile"));
    let fixed = args.has("--fixed");
    let procs_override = args.positive::<u32>("--procs")?;
    let seed = args.num::<u64>("--seed")?;
    let sweep = args.positive::<u64>("--seed-sweep")?;
    let trace_out = args.str("--trace-out");
    let submit = args.str("--submit");
    let policy = match args.one_of("--recover-policy")? {
        Some("notify") => Some(RecoveryPolicy::Notify),
        Some("checkpoint") => Some(RecoveryPolicy::Checkpoint),
        _ => None,
    };
    let mut faults = FaultPlan::none();
    if let Some((rank, after_events)) = args.parsed("--abort", parse_rank_count)? {
        faults = faults.with(match policy {
            // A survivable failure: the run continues, survivors
            // observe the death, and the analysis recovers.
            Some(recover) => Fault::RankFailure { rank, after_events, recover },
            None => Fault::RankAbort { rank, after_events },
        });
    }
    if let Some((rank, nth_sync)) = args.parsed("--hang", parse_rank_count)? {
        faults = faults.with(Fault::HangAtSync { rank, nth_sync });
    }
    // A recovery-gallery case's own plan (a survivable rank failure)
    // applies unless the command line injects faults; a crash case *is*
    // its crash, whatever else was asked for.
    let (case, body) = resolve_case(args, fixed)?;
    let crash = matches!(case.source, Source::Crash);
    if let Some(plan) = case.faults.filter(|_| faults.is_empty() || crash) {
        faults = plan();
    }
    let procs = procs_override.unwrap_or(case.procs);

    if (seed.is_some() || sweep.is_some()) && !faults.is_empty() {
        return fail(
            "--seed/--seed-sweep pick adversarial delivery schedules and cannot be \
             combined with fault injection (or a case that ships a fault plan)",
        );
    }
    let variant = if fixed { " (fixed)" } else { "" };
    let session = AnalysisSession::builder().recorder(sink.obs.clone()).build();
    if let Some(n) = sweep {
        if trace_out.is_some() || submit.is_some() {
            return fail("--trace-out and --submit are per-run; not with --seed-sweep");
        }
        // Random-search baseline: try N consecutive seeds under the
        // adversarial delivery policy, stop at the first dirty trace.
        let base = seed.unwrap_or(0xC11);
        eprintln!(
            "running {name}{variant} with {procs} ranks, sweeping {n} seed(s) from {base}..."
        );
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
    eprintln!("running {name}{variant} with {procs} ranks...");

    let (trace, sim_error): (Trace, Option<SimError>) = if faults.is_empty() {
        let trace = match seed {
            // The opted-in random baseline: one adversarial schedule.
            Some(s) => bugs::trace_adversarial(procs, s, body),
            None => bugs::trace_of(procs, 0xC11, body),
        };
        (trace, None)
    } else {
        let (trace, error) =
            with_quiet_panics(|| bugs::trace_under_faults(procs, 0xC11, faults, body));
        if let Some(e) = &error {
            eprintln!("simulator: {e}");
        }
        (trace, error)
    };

    if let Some(dir) = trace_out {
        write_trace_dir(&trace, Path::new(dir)).map_err(failed("cannot write trace"))?;
        eprintln!("trace written to {dir}");
    }
    if let Some(addr) = submit {
        return sink.finish(submit_demo_trace(&trace, addr)?);
    }

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

fn cmd_explore(args: &Args) -> Outcome {
    let name = args.operands()[0];
    let json = args.one_of("--format")? == Some("json");
    let fixed = args.has("--fixed");
    let max_schedules = args.positive("--max-schedules")?.unwrap_or(256);
    let max_depth = args.positive("--max-depth")?.unwrap_or(64);
    let threads = args.positive("--threads")?.unwrap_or(1);
    let procs_override = args.positive::<u32>("--procs")?;
    let replay = args.str("--replay");
    let (case, body) = resolve_case(args, fixed)?;
    if case.faults.is_some() {
        return fail(format!(
            "`{name}` ships a fault plan; `mcc explore` enumerates the delivery \
             schedules of fault-free runs (run it with `mcc demo {name}` instead)"
        ));
    }
    let procs = procs_override.unwrap_or(case.procs);
    let explorer = mc_checker::explore::Explorer::new(procs)
        .with_max_schedules(max_schedules)
        .with_max_depth(max_depth)
        .with_threads(threads);

    let Some(witness) = replay else {
        eprintln!(
            "exploring {name}{} with {procs} rank(s), budget {max_schedules} schedule(s), \
             {threads} thread(s)...",
            if fixed { " (fixed)" } else { "" }
        );
        let report = with_quiet_panics(|| explorer.run(body));
        print!("{}", if json { report.to_json() } else { report.render() });
        return Ok(ExitCode::from(report.exit_code()));
    };
    let outcome =
        with_quiet_panics(|| explorer.replay(witness, body)).map_err(|e| e.to_string())?;
    eprintln!("replayed witness {} with {procs} rank(s)", outcome.witness);
    if let Some(e) = &outcome.sim_error {
        eprintln!("simulator: {e}");
    }
    // A witness that reproduces a deadlock or crash is a bug found, too.
    let buggy = render_findings(&outcome.findings, json)? || outcome.sim_error.is_some();
    Ok(ExitCode::from(u8::from(buggy)))
}
