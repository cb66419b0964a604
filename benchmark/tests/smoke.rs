//! Smoke test: every workload at `--scale tiny`, end to end through the
//! binary, in a few seconds. Checks the ground truth, that the emitted
//! metric names are exactly `BENCHMARK.json`'s, and the span files.

use mcc_benchmark::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use mcc_benchmark::report::read_run_file;
use mcc_benchmark::spans::validate_span_file;
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_mcc-benchmark");

/// A fresh directory under the package's ignored `out/`.
fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(format!("smoke-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bench(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().expect("the benchmark binary starts")
}

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

fn well_formed(name: &str) -> bool {
    !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn number(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::Float(x) => *x,
        other => panic!("expected a number, got {other:?}"),
    }
}

#[test]
fn all_workloads_tiny_emit_the_catalogue_and_valid_spans() {
    let out = out_dir("all");
    let out_arg = out.to_str().unwrap();
    let run = bench(&[
        "all",
        "--seed",
        "3",
        "--seconds",
        "0.3",
        "--scale",
        "tiny",
        "--traced",
        "--out",
        out_arg,
    ]);
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));

    let file = out.join("run-3.json");
    let doc = read_run_file(&file).unwrap();
    assert_eq!(number(doc.get("seed").unwrap()), 3.0, "the run file records its seed");
    let host = doc.get("host").unwrap();
    assert_eq!(keys(host), ["available_parallelism", "git_rev", "rustc", "profile"]);
    let workloads = doc.get("workloads").unwrap();
    assert_eq!(keys(workloads), WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());

    for w in WORKLOADS {
        let entry = workloads.get(w.name).unwrap();
        assert!(number(entry.get("ops_attempted").unwrap()) >= 1.0, "{}", w.name);
        assert_eq!(number(entry.get("ops_failed").unwrap()), 0.0, "{}", w.name);
        assert_eq!(number(entry.get("layer_ops_failed").unwrap()), 0.0, "{}", w.name);
        for (key, table) in [("metrics", END_TO_END), ("layers", PER_LAYER)] {
            let metrics = entry.get(key).unwrap();
            let names = keys(metrics);
            assert_eq!(names, table.iter().map(|m| m.name).collect::<Vec<_>>(), "{}", w.name);
            for (name, def) in names.iter().zip(table) {
                assert!(well_formed(name), "{name}");
                let m = metrics.get(name).unwrap();
                assert_eq!(m.get("unit"), Some(&Value::Str(def.unit.into())), "{name}");
                let value = number(m.get("value").unwrap());
                assert!(value.is_finite(), "{}: {name} = {value}", w.name);
                if key == "metrics" {
                    assert!(value > 0.0, "{}: {name} must never be 0", w.name);
                }
            }
        }

        let spans = read_run_file(&out.join(format!("trace-{}.json", w.name))).unwrap();
        let count = validate_span_file(&spans).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(count > 0, "{}: the traced pass recorded no spans", w.name);
    }

    // A run agrees with itself; `compare` prints a row per metric.
    let same = bench(&["compare", file.to_str().unwrap(), file.to_str().unwrap()]);
    assert!(same.status.success());
    let table = String::from_utf8_lossy(&same.stdout);
    assert_eq!(table.lines().count(), 1 + WORKLOADS.len() * END_TO_END.len());
    assert!(!out.read_dir().unwrap().any(|e| e
        .unwrap()
        .file_name()
        .to_string_lossy()
        .starts_with("tmp-")));
}

#[test]
fn run_prints_one_result_object_as_its_last_line() {
    let out = out_dir("run");
    let run = bench(&[
        "run",
        "--workload",
        "check_sync",
        "--seed",
        "9",
        "--seconds",
        "0.2",
        "--trace",
        "0",
        "--scale",
        "tiny",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
    let stdout = String::from_utf8(run.stdout).unwrap();
    let doc = serde_json::parse_value_str(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(keys(&doc), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(doc.get("failed"), Some(&Value::Int(0)));
}

#[test]
fn a_wrong_plant_list_fails_the_run() {
    for workload in ["check_dense", "serve_stream", "explore_gallery"] {
        let out = out_dir(&format!("corrupt-{workload}"));
        let run = bench(&[
            "run",
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "0.2",
            "--trace",
            "0",
            "--scale",
            "tiny",
            "--corrupt-truth",
            "--out",
            out.to_str().unwrap(),
        ]);
        assert_eq!(run.status.code(), Some(1), "{workload} must exit 1 on wrong ground truth");
        let stdout = String::from_utf8(run.stdout).unwrap();
        let doc = serde_json::parse_value_str(stdout.lines().last().unwrap()).unwrap();
        assert_eq!(doc.get("correct"), Some(&Value::Bool(false)), "{workload}");
        assert!(number(doc.get("failed").unwrap()) >= 1.0, "{workload}");
    }
}

#[test]
fn unknown_workload_and_bad_flags_exit_2_without_a_result() {
    for args in [
        &["run", "--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"][..],
        &["run", "--workload", "check_sync", "--seed", "1", "--seconds", "1"][..],
        &["compare", "only-one.json"][..],
    ] {
        let run = bench(args);
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?}");
    }
}

/// `BENCHMARK.json` is `mcc-benchmark catalogue`'s output; this fails
/// when the catalogue moved on and the file was not regenerated.
#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = read_run_file(&path).unwrap();
    assert_eq!(
        keys(&doc),
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    );
    let strings = |v: &Value| match v {
        Value::Arr(items) => items
            .iter()
            .map(|i| match i {
                Value::Str(s) => s.clone(),
                other => panic!("expected a string, got {other:?}"),
            })
            .collect::<Vec<_>>(),
        other => panic!("expected an array, got {other:?}"),
    };
    assert_eq!(strings(doc.get("paths").unwrap()), ["benchmark"]);
    let command = strings(doc.get("command").unwrap());
    assert_eq!(command[0], "cargo");
    assert!(command.contains(&"benchmark/Cargo.toml".to_string()));
    assert_eq!(command.last().map(String::as_str), Some("run"));
    assert_eq!(doc.get("run_seconds"), Some(&Value::Int(12)));

    let items = |key: &str| match doc.get(key) {
        Some(Value::Arr(items)) => items.clone(),
        other => panic!("{key} is {other:?}"),
    };
    let text = |v: &Value, key: &str| match v.get(key) {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("{key} is {other:?}"),
    };
    let listed = items("workloads");
    assert_eq!(listed.len(), WORKLOADS.len());
    for (w, def) in listed.iter().zip(WORKLOADS) {
        assert_eq!(keys(w), ["name", "why"]);
        assert_eq!(text(w, "name"), def.name);
        assert_eq!(text(w, "why"), def.why);
    }
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = items(key);
        assert_eq!(listed.len(), table.len(), "{key}");
        for (m, def) in listed.iter().zip(table) {
            assert!(well_formed(def.name));
            assert_eq!(text(m, "name"), def.name);
            assert_eq!(text(m, "unit"), def.unit, "{}", def.name);
            assert_eq!(text(m, "better"), def.better.as_str(), "{}", def.name);
            match def.bound {
                Some(bound) => {
                    assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
                    assert_eq!(number(m.get("bound").unwrap()), bound, "{}", def.name);
                    assert!(bound <= 0.25);
                }
                None => assert_eq!(keys(m), ["name", "unit", "better"]),
            }
        }
    }
}
