//! Result documents — every one built as a `serde::Value` and printed by
//! the vendored `serde_json` — plus the table and `compare`.

use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::run::RunResult;
use serde::Value;
use std::path::Path;
use std::process::Command;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn metrics_value(result: &RunResult) -> Value {
    Value::Obj(
        result
            .metrics
            .iter()
            .map(|(def, v)| {
                (
                    def.name.to_string(),
                    obj(vec![("value", Value::Float(*v)), ("unit", Value::Str(def.unit.into()))]),
                )
            })
            .collect(),
    )
}

/// The one-line result of `run`: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(result: &RunResult) -> String {
    let doc = obj(vec![
        ("correct", Value::Bool(result.correct)),
        ("attempted", Value::Int(i128::from(result.attempted))),
        ("failed", Value::Int(i128::from(result.failed))),
        ("metrics", metrics_value(result)),
    ]);
    serde_json::to_string(&doc).expect("a Value tree serializes")
}

/// `BENCHMARK.json` as the catalogue defines it (`mcc-benchmark
/// catalogue > BENCHMARK.json`); the smoke test compares the committed
/// file with the same tables.
pub fn benchmark_json(run_seconds: u32) -> Value {
    let strings =
        |items: &[&str]| Value::Arr(items.iter().map(|s| Value::Str((*s).into())).collect());
    let metrics = |table: &[MetricDef]| {
        Value::Arr(
            table
                .iter()
                .map(|m| {
                    let mut fields = vec![
                        ("name", Value::Str(m.name.into())),
                        ("unit", Value::Str(m.unit.into())),
                        ("better", Value::Str(m.better.as_str().into())),
                    ];
                    fields.extend(m.bound.map(|b| ("bound", Value::Float(b))));
                    obj(fields)
                })
                .collect(),
        )
    };
    obj(vec![
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--offline",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
                "run",
            ]),
        ),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Value::Int(i128::from(run_seconds))),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        obj(vec![
                            ("name", Value::Str(w.name.into())),
                            ("why", Value::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", metrics(END_TO_END)),
        ("per_layer", metrics(PER_LAYER)),
    ])
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Cores the process may use; thread-sensitive numbers are void at 1.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The host facts recorded with every run file.
pub fn host_facts() -> Value {
    obj(vec![
        ("available_parallelism", Value::Int(available_parallelism() as i128)),
        ("git_rev", Value::Str(command_line("git", &["rev-parse", "HEAD"]))),
        ("rustc", Value::Str(command_line("rustc", &["--version"]))),
        ("profile", Value::Str(if cfg!(debug_assertions) { "debug" } else { "release" }.into())),
    ])
}

/// One workload's entry of a run file, from the parsed result lines of
/// its untraced and (optionally) traced pass.
pub fn workload_entry(untraced: &Value, traced: Option<&Value>) -> Value {
    let field = |v: &Value, key: &str| v.get(key).cloned().unwrap_or(Value::Null);
    let mut fields = vec![
        ("ops_attempted", field(untraced, "attempted")),
        ("ops_failed", field(untraced, "failed")),
        ("metrics", field(untraced, "metrics")),
    ];
    if let Some(t) = traced {
        fields.push(("layer_ops_attempted", field(t, "attempted")));
        fields.push(("layer_ops_failed", field(t, "failed")));
        fields.push(("layers", field(t, "metrics")));
    }
    obj(fields)
}

/// The run file `all` writes.
pub fn run_file(seed: u64, seconds: f64, scale: &str, workloads: Vec<(String, Value)>) -> Value {
    obj(vec![
        ("schema", Value::Int(1)),
        ("seed", Value::Int(i128::from(seed))),
        ("seconds", Value::Float(seconds)),
        ("scale", Value::Str(scale.into())),
        ("host", host_facts()),
        ("workloads", Value::Obj(workloads)),
    ])
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(x) => Some(*x),
        _ => None,
    }
}

fn metric_rows(entry: &Value, key: &str) -> Vec<(String, f64, String)> {
    let Some(Value::Obj(metrics)) = entry.get(key) else { return Vec::new() };
    metrics
        .iter()
        .filter_map(|(name, m)| {
            let unit = match m.get("unit") {
                Some(Value::Str(u)) => u.clone(),
                _ => String::new(),
            };
            Some((name.clone(), number(m.get("value")?)?, unit))
        })
        .collect()
}

/// Prints every metric of a run file by name with its unit.
pub fn print_table(doc: &Value) {
    let Some(Value::Obj(workloads)) = doc.get("workloads") else { return };
    for (name, entry) in workloads {
        let count = |key: &str| entry.get(key).and_then(number).unwrap_or(0.0);
        println!(
            "{name}: {} op(s) attempted, {} failed",
            count("ops_attempted") + count("layer_ops_attempted"),
            count("ops_failed") + count("layer_ops_failed"),
        );
        for (section, key) in [("end to end", "metrics"), ("per layer", "layers")] {
            let rows = metric_rows(entry, key);
            if rows.is_empty() {
                continue;
            }
            println!("  {section}");
            for (metric, value, unit) in rows {
                println!("    {metric:<38} {value:>16.4} {unit}");
            }
        }
    }
}

/// Reads a run file.
pub fn read_run_file(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::parse_value_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Relative worsening of `b` against base `a` (positive = worse).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Compares two run files row by row. Returns whether `b` regressed:
/// an end-to-end metric worse than `a` by more than its bound, a metric
/// or workload that disappeared, or a higher failed/attempted share.
pub fn compare(a: &Value, b: &Value) -> bool {
    let mut regressed = false;
    println!(
        "{:<16} {:<26} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "a", "b", "b/a", "bound"
    );
    for w in WORKLOADS {
        let entry = |doc: &Value| doc.get("workloads").and_then(|ws| ws.get(w.name)).cloned();
        let (Some(ea), Some(eb)) = (entry(a), entry(b)) else {
            println!("{:<16} missing from one of the files", w.name);
            regressed = true;
            continue;
        };
        let share = |e: &Value| {
            let n = |key: &str| e.get(key).and_then(number).unwrap_or(0.0);
            n("ops_failed") / n("ops_attempted").max(1.0)
        };
        if share(&eb) > share(&ea) {
            println!(
                "{:<16} failed/attempted rose from {:.4} to {:.4}  REGRESSED",
                w.name,
                share(&ea),
                share(&eb)
            );
            regressed = true;
        }
        let (rows_a, rows_b) = (metric_rows(&ea, "metrics"), metric_rows(&eb, "metrics"));
        for def in END_TO_END {
            let value =
                |rows: &[(String, f64, String)]| rows.iter().find(|r| r.0 == def.name).map(|r| r.1);
            let (Some(va), Some(vb)) = (value(&rows_a), value(&rows_b)) else {
                println!("{:<16} {:<26} missing from one of the files", w.name, def.name);
                regressed = true;
                continue;
            };
            let bound = def.bound.expect("end-to-end metrics are gated");
            let worse = worsening(def.better, va, vb) > bound;
            regressed |= worse;
            println!(
                "{:<16} {:<26} {:>14.4} {:>14.4} {:>9.4} {:>6.2}  {}",
                w.name,
                def.name,
                va,
                vb,
                vb / va,
                bound,
                if worse { "REGRESSED" } else { "ok" }
            );
        }
    }
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::find;

    fn file(check_p50: f64, failed: i128) -> Value {
        let metrics = Value::Obj(
            END_TO_END
                .iter()
                .map(|d| {
                    let v = if d.name == "check_p50_ms" { check_p50 } else { 10.0 };
                    (
                        d.name.to_string(),
                        obj(vec![("value", Value::Float(v)), ("unit", Value::Str(d.unit.into()))]),
                    )
                })
                .collect(),
        );
        let entry = obj(vec![
            ("ops_attempted", Value::Int(100)),
            ("ops_failed", Value::Int(failed)),
            ("metrics", metrics),
        ]);
        run_file(
            1,
            1.0,
            "tiny",
            WORKLOADS.iter().map(|w| (w.name.to_string(), entry.clone())).collect(),
        )
    }

    #[test]
    fn compare_applies_bound_and_direction() {
        let bound = find("check_p50_ms").and_then(|d| d.bound).unwrap();
        assert!(!compare(&file(10.0, 0), &file(10.0 * (1.0 + 0.9 * bound), 0)), "inside the bound");
        assert!(compare(&file(10.0, 0), &file(10.0 * (1.0 + 1.1 * bound), 0)), "past the bound");
        assert!(!compare(&file(10.0, 0), &file(5.0, 0)), "faster is never a regression");
        assert!(compare(&file(10.0, 0), &file(10.0, 1)), "more failures is a regression");
        assert!(worsening(Better::Higher, 100.0, 80.0) > 0.1);
        assert!(worsening(Better::Higher, 100.0, 120.0) < 0.0);
    }
}
