//! The `mcc` binary, driven as a user drives it: argv in, stdout / stderr
//! / exit status out. This is the tier-1 home of the exit-code contract
//! (`mc_checker::EXIT_CODE_TABLE`), of the rule that no flag is ever
//! silently ignored, and of the daemon and explore round trips that used
//! to live in CI shell.

mod common;
use common::scratch;

use mc_checker::cli;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Output, Stdio};

/// Runs `mcc` with `args` to completion.
fn mcc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mcc")).args(args).output().expect("mcc runs")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("mcc exited, not signalled")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Records `demo <args>` into `dir/name`; returns the trace path and the
/// demo's own exit code.
fn record(dir: &std::path::Path, name: &str, demo: &[&str]) -> (String, i32) {
    let path = dir.join(name).to_string_lossy().into_owned();
    let mut args = vec!["demo"];
    args.extend_from_slice(demo);
    args.extend_from_slice(&["--trace-out", &path]);
    (path.clone(), code(&mcc(&args)))
}

/// A `mcc serve --listen 127.0.0.1:0` child, killed on drop.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start(extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_mcc"))
            .args(["serve", "--listen", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("mcc serve starts");
        // The daemon announces the port it was given; no sleeping.
        let mut line = String::new();
        BufReader::new(child.stdout.take().expect("piped stdout"))
            .read_line(&mut line)
            .expect("daemon announces itself");
        let addr = line
            .trim()
            .strip_prefix("mcc serve: listening on ")
            .unwrap_or_else(|| panic!("unexpected first line from mcc serve: {line:?}"))
            .to_string();
        Daemon { child, addr }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The contract end to end: every verdict class a CLI invocation can
/// reach exits with its documented code, and `check` agrees with
/// `check --streaming` on every recorded trace. (Exit 7 stays with
/// `explore::report`'s unit test: every fixed gallery case prunes to one
/// schedule, so no CLI invocation exhausts a budget cleanly.)
#[test]
fn exit_code_contract_end_to_end() {
    let dir = scratch("cli-contract");
    let recorded = [
        ("buggy", &["emulate"][..], 1, 1),
        ("clean", &["emulate", "--fixed"], 0, 0),
        ("lost-update", &["ping-pong", "--abort", "1:4", "--recover-policy", "checkpoint"], 5, 5),
        ("clean-recovery", &["jacobi-ckpt"], 6, 6),
        // The crash degrades the live run; its trace reads back complete.
        ("crash", &["adlb-crash"], 3, 1),
    ];
    for (name, demo, demo_code, check_code) in recorded {
        let (trace, got) = record(&dir, name, demo);
        assert_eq!(got, demo_code, "mcc demo {demo:?}");
        let batch = mcc(&["check", &trace]);
        let streaming = mcc(&["check", &trace, "--streaming"]);
        assert_eq!(code(&batch), check_code, "mcc check {name}: {}", stderr(&batch));
        assert_eq!(code(&streaming), check_code, "mcc check {name} --streaming");
    }

    let explored = mcc(&["explore", "fig2a"]);
    assert_eq!(code(&explored), 1);
    assert!(stdout(&explored).contains("bug found at schedule"), "{}", stdout(&explored));
    let covered = mcc(&["explore", "ping-pong", "--fixed"]);
    assert_eq!(code(&covered), 0);
    assert!(stdout(&covered).contains("no consistency error in any"), "{}", stdout(&covered));

    for argv in [&[][..], &["frobnicate"]] {
        let out = mcc(argv);
        assert_eq!(code(&out), 2, "mcc {argv:?}");
        assert!(stderr(&out).contains("usage: mcc <check|demo|"), "{}", stderr(&out));
    }
    let help = mcc(&["check", "--help"]);
    assert_eq!((code(&help), stdout(&help)), (0, cli::help(cli::command("check").unwrap())));
}

/// A trace whose event names a rank outside its window is an invalid
/// trace: strict and streaming checks exit 2 naming the rank, the event
/// and the value, and point at the tolerant mode, which drops the event
/// and reports degraded.
#[test]
fn an_invalid_trace_exits_2_naming_the_event() {
    let dir = scratch("cli-invalid");
    let (trace, _) = record(&dir, "bad-target", &["ping-pong"]);
    let log = std::path::Path::new(&trace).join("rank-0.jsonl");
    let text = std::fs::read_to_string(&log).unwrap();
    let put = text.lines().position(|l| l.contains("\"Put\"")).expect("a Put to edit");
    let edited: Vec<String> = text
        .lines()
        .enumerate()
        .map(|(i, l)| if i == put { l.replace("\"target\":1", "\"target\":9") } else { l.into() })
        .collect();
    std::fs::write(&log, edited.join("\n") + "\n").unwrap();
    for mode in [&[][..], &["--streaming"]] {
        let out = mcc(&[&["check", &trace][..], mode].concat());
        let err = stderr(&out);
        assert_eq!(code(&out), 2, "{mode:?}: {err}");
        assert!(err.contains(": MPI_Put target P9 out of range for win0"), "{mode:?}: {err}");
        assert!(
            err.contains("invalid trace: P0#") && err.contains("--tolerate-truncation"),
            "{err}"
        );
    }
    assert_eq!(code(&mcc(&["check", &trace, "--tolerate-truncation"])), 3);
}

/// Every way an argv can be ill-formed exits 2 and names the offender on
/// stderr. The first block is the list of invocations the hand-rolled
/// look-ups used to accept silently, running with a default nobody chose.
#[test]
fn no_flag_is_silently_ignored() {
    let cases: &[(&[&str], &str)] = &[
        (&["check", "DIR", "--thread", "4"], "unknown flag `--thread`"),
        (&["check", "DIR", "--fromat", "json"], "unknown flag `--fromat`"),
        (&["explore", "fig2a", "--threads"], "`--threads` expects a value"),
        (&["demo", "emulate", "--procs", "banana"], "`--procs` expects a positive integer"),
        (&["explore", "fig2a", "--procs", "0"], "`--procs` expects a positive integer"),
        (&["submit", "DIR", "--retries", "5"], "`--retries` requires `--durable`"),
        (&["submit", "DIR", "--throttle-ms", "5"], "`--throttle-ms` requires `--durable`"),
        (&["serve", "--max-bufer", "64"], "unknown flag `--max-bufer`"),
        (&["serve", "--mem-celing", "64"], "unknown flag `--mem-celing`"),
        // The other shapes `cli::parse` refuses.
        (&["explore", "fig2a", "--threads", "--fixed"], "`--threads` expects a value"),
        (&["check", "DIR", "--timings", "--timings"], "`--timings` given more than once"),
        (&["check", "DIR", "EXTRA"], "unexpected argument `EXTRA`"),
        (&["check"], "missing <trace-dir>"),
        (&["explore", "fig2a", "--threads", "0"], "`--threads` expects a positive integer"),
        (&["check", "DIR", "--format", "xml"], "`--format` expects text|json"),
        (&["check", "DIR", "--seed", "3"], "`--seed` is a simulator knob"),
        (&["demo", "emulate", "--seed", "-1"], "`--seed` expects an unsigned integer"),
        (&["demo", "emulate", "--abort", "1"], "`--abort` expects R:N"),
        (&["serve", "--recover"], "`--recover` requires `--journal-dir`"),
        (&["serve", "--fsync", "sometimes"], "`--fsync` expects never|ack|always"),
        // The aliases and the engine knob this table did not carry over.
        (&["check", "DIR", "--json"], "unknown flag `--json`"),
        (&["check", "DIR", "--naive"], "unknown flag `--naive`"),
        (&["check", "DIR", "--parallel"], "unknown flag `--parallel`"),
        (&["check", "DIR", "--engine", "naive"], "unknown flag `--engine`"),
        // One analysis runs on one thread: the intra-check fan-out flags.
        (&["check", "DIR", "--threads", "4"], "unknown flag `--threads`"),
        (&["submit", "DIR", "--threads", "2"], "unknown flag `--threads`"),
        (&["serve", "--max-threads", "2"], "unknown flag `--max-threads`"),
        // `--fixed` on a case without a fixed variant used to run the
        // buggy body.
        (&["demo", "fig2a", "--fixed"], "case `fig2a` has no fixed variant"),
        (&["demo", "adlb-crash", "--fixed"], "case `adlb-crash` has no fixed variant"),
        (&["demo", "jacobi-ckpt", "--fixed"], "case `jacobi-ckpt` has no fixed variant"),
        (&["explore", "fig2a", "--fixed"], "case `fig2a` has no fixed variant"),
    ];
    for (argv, complaint) in cases {
        let out = mcc(argv);
        let err = stderr(&out);
        assert_eq!(code(&out), 2, "mcc {argv:?}: {err}");
        assert!(err.starts_with("mcc: ") && err.contains(complaint), "mcc {argv:?}: {err}");
        assert!(err.contains(&format!("usage: mcc {}", argv[0])), "mcc {argv:?}: {err}");
        assert!(out.stdout.is_empty(), "mcc {argv:?} printed a report");
    }
}

/// The daemon round trip with real processes: buggy and clean submits,
/// the live frame encoder, no leaked session, and the mixed-version
/// matrix (JSON client, `--no-binary` daemon, `--no-tracectx` daemon)
/// all returning the same report bytes.
#[test]
fn serve_round_trip() {
    let dir = scratch("cli-serve");
    let (buggy, _) = record(&dir, "buggy", &["emulate"]);
    let (clean, _) = record(&dir, "clean", &["emulate", "--fixed"]);
    let daemon = Daemon::start(&[]);
    let addr = daemon.addr.as_str();

    let binary = mcc(&["submit", &buggy, "--addr", addr, "--format", "json"]);
    assert_eq!(code(&binary), 1, "{}", stderr(&binary));
    assert!(stderr(&binary).contains("over binary codec"), "{}", stderr(&binary));
    let report = stdout(&binary);
    assert!(report.contains(r#""confidence":"Complete""#) && report.contains(r#""kind":"#));

    let clean = mcc(&["submit", &clean, "--addr", addr, "--format", "json"]);
    assert_eq!(code(&clean), 0, "{}", stderr(&clean));
    assert!(stdout(&clean).contains(r#""findings":[]"#), "{}", stdout(&clean));

    let live = mcc(&["demo", "emulate", "--submit", addr]);
    assert_eq!(code(&live), 1, "{}", stderr(&live));

    let json_client =
        mcc(&["submit", &buggy, "--addr", addr, "--codec", "json", "--format", "json"]);
    assert_eq!(code(&json_client), 1);
    assert!(stderr(&json_client).contains("over json codec"), "{}", stderr(&json_client));
    assert_eq!(stdout(&json_client), report, "JSON-codec report differs from the binary one");

    let stats = stdout(&mcc(&["stats", "--addr", addr]));
    for gauge in [r#""sessions_active":0"#, r#""sessions_completed":4"#, r#""sessions_salvaged":0"#]
    {
        assert!(stats.contains(gauge), "{gauge} missing from {stats}");
    }

    // A binary-preferring client falls back cleanly against a JSON-only daemon.
    let json_only = Daemon::start(&["--no-binary"]);
    let fallback = mcc(&["submit", &buggy, "--addr", &json_only.addr, "--format", "json"]);
    assert_eq!(code(&fallback), 1);
    assert!(stderr(&fallback).contains("over json codec"), "{}", stderr(&fallback));
    assert_eq!(stdout(&fallback), report, "--no-binary daemon changed the report");

    // A tracing client against a daemon that opted out of `tracectx`: the
    // report is untouched and the client still writes its own trace.
    let untraced = Daemon::start(&["--no-tracectx"]);
    let profile = dir.join("client.json").to_string_lossy().into_owned();
    let traced = mcc(&[
        "submit",
        &buggy,
        "--addr",
        &untraced.addr,
        "--profile",
        &profile,
        "--format",
        "json",
    ]);
    assert_eq!(code(&traced), 1);
    assert_eq!(stdout(&traced), report, "--no-tracectx daemon changed the report");
    let trace = std::fs::read_to_string(&profile).expect("client profile written");
    assert!(trace.contains(r#""traceId":"#) && trace.contains(r#""name":"client.submit""#));
}

/// `mcc explore` is deterministic across thread counts, and the witness
/// it reports replays to the same bug.
#[test]
fn explore_is_thread_invariant_and_replayable() {
    let one = mcc(&["explore", "ping-pong", "--threads", "1", "--format", "json"]);
    let four = mcc(&["explore", "ping-pong", "--threads", "4", "--format", "json"]);
    assert_eq!(code(&one), 1);
    assert_eq!(stdout(&one), stdout(&four), "explore JSON differs between 1 and 4 threads");

    let report = mcc(&["explore", "fig2a", "--format", "json"]);
    let doc = serde_json::parse_value_str(&stdout(&report)).expect("explore JSON parses");
    assert!(
        !matches!(doc.get("first_buggy"), None | Some(serde::Value::Null)),
        "no buggy schedule"
    );
    let Some(serde::Value::Arr(findings)) = doc.get("findings") else { panic!("no findings") };
    let Some(serde::Value::Str(witness)) = findings[0].get("witness") else { panic!("no witness") };
    let replay = mcc(&["explore", "fig2a", "--replay", witness]);
    assert_eq!(code(&replay), 1, "{}", stderr(&replay));
    assert!(stdout(&replay).contains("memory consistency error"), "{}", stdout(&replay));
}

/// The table is the documentation: the README block is `cli::reference()`
/// verbatim, `mcc help` prints the same, and `src/bin/mcc.rs` reads each
/// flag exactly once per command that declares it (the getters panic on
/// a name the command's row lacks, so the counts matching means every
/// row is read by its command and nothing else is).
#[test]
fn the_table_documents_and_bounds_the_handlers() {
    let readme =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md")).unwrap();
    let block = readme
        .split_once("<!-- mcc-cli:begin -->\n```text\n")
        .and_then(|(_, rest)| rest.split_once("```\n<!-- mcc-cli:end -->"))
        .expect("README has the generated mcc-cli block")
        .0;
    assert_eq!(block, cli::reference(), "README block is stale: paste `mcc help` into it");
    assert_eq!(stdout(&mcc(&["help"])), cli::reference());

    let handlers =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin/mcc.rs")).unwrap();
    let mut declared = std::collections::BTreeMap::<&str, usize>::new();
    for cmd in cli::COMMANDS {
        assert!(cli::usage(cmd).lines().all(|l| l.len() <= 78), "{}", cli::usage(cmd));
        for (i, flag) in cmd.flags.iter().enumerate() {
            assert!(cmd.flags[..i].iter().all(|f| f.name != flag.name), "{} twice", flag.name);
            assert!(flag.needs.is_none_or(|n| cmd.flags.iter().any(|f| f.name == n)));
            *declared.entry(flag.name).or_default() += 1;
        }
    }
    let declared_long: usize =
        declared.iter().filter(|(name, _)| name.starts_with("--")).map(|(_, n)| n).sum();
    for (name, commands) in declared {
        let reads = handlers.matches(&format!("\"{name}\"")).count();
        assert_eq!(reads, commands, "`{name}`: {commands} command(s) declare it, {reads} read(s)");
    }
    // ...and names no `"--flag"` beyond those reads.
    let literals = handlers
        .split("\"--")
        .skip(1)
        .filter_map(|rest| rest.split_once('"'))
        .filter(|(name, _)| name.chars().all(|c| c.is_ascii_lowercase() || c == '-'))
        .count();
    assert_eq!(literals, declared_long, "mcc.rs names a `--flag` no row declares");
}

/// `crates/bench` holds the paper-reproduction bins and nothing else:
/// the `--bin NAME` lines of README's evaluation block are exactly the
/// files in `crates/bench/src/bin/`.
#[test]
fn readme_lists_exactly_the_paper_bins() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/");
    let readme = std::fs::read_to_string(format!("{root}README.md")).unwrap();
    let block = readme
        .split_once("## Reproducing the paper's evaluation\n")
        .map(|(_, rest)| rest.split_once("\n## ").map_or(rest, |(block, _)| block))
        .expect("README has the evaluation section");
    let mut listed: Vec<&str> =
        block.split("--bin ").skip(1).filter_map(|rest| rest.split_whitespace().next()).collect();
    listed.sort_unstable();
    let mut bins: Vec<String> = std::fs::read_dir(format!("{root}crates/bench/src/bin"))
        .unwrap()
        .map(|e| e.unwrap().path().file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    bins.sort_unstable();
    assert_eq!(listed, bins, "README's evaluation block and crates/bench/src/bin disagree");
}

/// The typed getters, on a well-formed argv.
#[test]
fn args_read_back_typed() {
    let argv: Vec<String> = ["dir", "--format", "json", "--timings"].map(String::from).to_vec();
    let args = cli::parse(cli::command("check").unwrap(), &argv).ok().expect("well-formed");
    assert_eq!(args.operands(), ["dir"]);
    assert_eq!(args.one_of("--format").ok(), Some(Some("json")));
    assert!(args.has("--timings") && !args.has("--streaming") && !args.wants_help());
    assert_eq!(args.str("--profile"), None);
    // A witness may start with a dash; only `--` ends a value.
    let argv: Vec<String> =
        ["fig2a", "--threads", "4", "--replay", "-/c"].map(String::from).to_vec();
    let args = cli::parse(cli::command("explore").unwrap(), &argv).ok().expect("well-formed");
    assert_eq!(args.positive::<usize>("--threads").ok(), Some(Some(4)));
    assert_eq!(args.str("--replay"), Some("-/c"));
}
