//! `mcc-benchmark run | all | compare` — see `README.md`.

use mcc_benchmark::metrics::WORKLOADS;
use mcc_benchmark::report;
use mcc_benchmark::run::{run_workload, write_json, RunArgs, Scale};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "\
usage:
  mcc-benchmark run --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--scale full|tiny] [--out <dir>]
      one workload in this process; the last stdout line is the result object
  mcc-benchmark all --seed <u64> [--seconds <n>] [--traced] [--scale full|tiny] [--out <dir>]
      every workload, each in a child process; prints the table, writes <out>/run-<seed>.json
  mcc-benchmark compare <a.json> <b.json>
      one row per (workload, end-to-end metric); exits 1 when b regressed against a
  mcc-benchmark catalogue
      prints BENCHMARK.json from the metric catalogue";

/// `BENCHMARK.json`'s `run_seconds`, and what `all` uses unless told
/// otherwise.
const RUN_SECONDS: u32 = 12;

/// `<package dir>/out`: where cargo says the package is when it runs us,
/// else where it was when it built us.
fn default_out_dir() -> PathBuf {
    let manifest_dir =
        std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").into());
    Path::new(&manifest_dir).join("out")
}

/// `--flag value` pairs and bare switches after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        match self.0.iter().position(|a| a == name) {
            None => Ok(None),
            Some(i) if i + 1 < self.0.len() => {
                let v = self.0.remove(i + 1);
                self.0.remove(i);
                Ok(Some(v))
            }
            Some(_) => Err(format!("{name} needs a value")),
        }
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        self.value(name)?
            .map(|v| v.parse().map_err(|_| format!("{name}: cannot parse `{v}`")))
            .transpose()
    }

    fn switch(&mut self, name: &str) -> bool {
        match self.0.iter().position(|a| a == name) {
            Some(i) => {
                self.0.remove(i);
                true
            }
            None => false,
        }
    }

    fn scale(&mut self) -> Result<Scale, String> {
        match self.value("--scale")?.as_deref() {
            None | Some("full") => Ok(Scale::Full),
            Some("tiny") => Ok(Scale::Tiny),
            Some(other) => Err(format!("--scale expects full|tiny, got `{other}`")),
        }
    }

    fn done(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument `{extra}`")),
        }
    }
}

fn cmd_run(mut flags: Flags) -> Result<ExitCode, String> {
    let args = RunArgs {
        workload: flags.value("--workload")?.ok_or("--workload is required")?,
        seed: flags.parsed("--seed")?.ok_or("--seed is required")?,
        seconds: flags.parsed("--seconds")?.ok_or("--seconds is required")?,
        trace: match flags.value("--trace")?.as_deref() {
            Some("0") => false,
            Some("1") => true,
            other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
        },
        scale: flags.scale()?,
        corrupt_truth: flags.switch("--corrupt-truth"),
        out_dir: flags.value("--out")?.map_or_else(default_out_dir, PathBuf::from),
    };
    flags.done()?;
    let result = run_workload(&args)?;
    for f in &result.failures {
        eprintln!("failed op: {f}");
    }
    println!("{}", report::result_line(&result));
    Ok(if result.correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Runs one workload in a child process, so its peak RSS is its own,
/// and returns its parsed result line.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    out: &Path,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .arg("run")
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--scale", if scale == Scale::Tiny { "tiny" } else { "full" }])
        .arg("--out")
        .arg(out)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let doc = serde_json::parse_value_str(line)
        .map_err(|e| format!("{workload} printed no result ({}): {e}", output.status))?;
    if !output.status.success() {
        return Err(format!("{workload} failed its ground-truth check: {line}"));
    }
    Ok(doc)
}

fn cmd_all(mut flags: Flags) -> Result<ExitCode, String> {
    let seed: u64 = flags.parsed("--seed")?.ok_or("--seed is required")?;
    let seconds: f64 = flags.parsed("--seconds")?.unwrap_or(f64::from(RUN_SECONDS));
    let traced = flags.switch("--traced");
    let scale = flags.scale()?;
    let out = flags.value("--out")?.map_or_else(default_out_dir, PathBuf::from);
    flags.done()?;
    if report::available_parallelism() < 2 {
        eprintln!(
            "warning: available_parallelism is 1 — serve_* (2 clients + daemon) and every \
             thread-sensitive number of this run are void"
        );
    }
    let mut workloads = Vec::new();
    for w in WORKLOADS {
        eprintln!("{} ...", w.name);
        let untraced = run_child(w.name, seed, seconds, false, scale, &out)?;
        // The traced pass is for attribution, not for gating: half as long.
        let layers = traced
            .then(|| run_child(w.name, seed, seconds / 2.0, true, scale, &out))
            .transpose()?;
        workloads.push((w.name.to_string(), report::workload_entry(&untraced, layers.as_ref())));
    }
    let scale_name = if scale == Scale::Tiny { "tiny" } else { "full" };
    let doc = report::run_file(seed, seconds, scale_name, workloads);
    report::print_table(&doc);
    let path = out.join(format!("run-{seed}.json"));
    write_json(&path, &doc)?;
    println!("wrote {}", path.display());
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else { return Err("compare takes exactly two run files".into()) };
    let a = report::read_run_file(Path::new(a))?;
    let b = report::read_run_file(Path::new(b))?;
    Ok(if report::compare(&a, &b) { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("run") => cmd_run(Flags(argv.split_off(1))),
        Some("all") => cmd_all(Flags(argv.split_off(1))),
        Some("compare") => cmd_compare(&argv[1..]),
        Some("catalogue") => {
            let doc = report::benchmark_json(RUN_SECONDS);
            println!("{}", serde_json::to_string_pretty(&doc).expect("a Value tree serializes"));
            return ExitCode::SUCCESS;
        }
        Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => Err("expected a subcommand".into()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("mcc-benchmark: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
