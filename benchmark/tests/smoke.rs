//! Runs the benchmark binary at `--smoke` size and checks what it prints
//! against `BENCHMARK.json`: the contract the driver holds it to.

use hs_e2e::json::{self, Value};
use hs_e2e::workload::Workload;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_hs-e2e");
const SPEC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// A fresh working directory per test: tests run in parallel and the
/// benchmark's sockets and WAL roots live under its `--out`.
fn workdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test directory");
    dir
}

fn hs_e2e(dir: &Path, args: &[&str]) -> Output {
    Command::new(BIN)
        .current_dir(dir)
        .args(args)
        .output()
        .expect("run hs-e2e")
}

fn smoke(dir: &Path, workload: &str, trace: &str, extra: &[&str]) -> Output {
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        "7",
        "--smoke",
        "--trace",
        trace,
        "--out",
        "out",
        "--record",
        "runs.jsonl",
    ];
    args.extend(extra);
    hs_e2e(dir, &args)
}

fn last_line(out: &Output) -> Value {
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().expect("a result line");
    json::parse(line).unwrap_or_else(|e| panic!("result line is not JSON ({e}): {line}"))
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let spec = json::parse(&std::fs::read_to_string(SPEC).expect("read BENCHMARK.json"))
        .expect("valid JSON");
    let field = |m: &Value, f: &str| {
        m.get(f)
            .and_then(Value::as_str)
            .expect("name and unit")
            .to_string()
    };
    spec.get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

/// The result line carries exactly the contract's keys and exactly the
/// declared metrics, each once (a JSON object cannot repeat a key and the
/// counts match), with its unit and a finite value; nothing failed.
fn check_result(out: &Output, key: &str) {
    assert!(
        out.status.success(),
        "exit {:?}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let v = last_line(out);
    let keys: Vec<&str> = v
        .as_object()
        .expect("object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(v.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(
        v.get("attempted")
            .and_then(Value::as_f64)
            .expect("attempted")
            >= 1.0
    );
    let metrics = v
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    let want = declared(key);
    assert_eq!(metrics.len(), want.len(), "metric count for {key}");
    for (name, unit) in &want {
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name {name}"
        );
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} not printed"));
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        let value = m
            .get("value")
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("{name} has no value"));
        assert!(value.is_finite(), "{name} = {value}");
        if key == "end_to_end" {
            assert!(value > 0.0, "{name} must never be 0");
        }
    }
}

fn leftovers(dir: &Path) -> Vec<PathBuf> {
    let tmp = dir.join("out/tmp");
    std::fs::read_dir(&tmp)
        .map(|d| d.filter_map(|e| Some(e.ok()?.path())).collect())
        .unwrap_or_default()
}

#[test]
fn benchmark_json_names_the_workloads_the_binary_has() {
    let spec = json::parse(&std::fs::read_to_string(SPEC).expect("read BENCHMARK.json"))
        .expect("valid JSON");
    let listed: Vec<&str> = spec
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    let have: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(listed, have);
}

#[test]
fn every_workload_prints_the_end_to_end_metrics() {
    let dir = workdir("e2e");
    for w in Workload::ALL {
        check_result(&smoke(&dir, w.name(), "0", &[]), "end_to_end");
    }
    assert_eq!(
        leftovers(&dir),
        Vec::<PathBuf>::new(),
        "sockets or WAL roots left behind"
    );
    // A set of runs is the same as itself: `compare` must say so.
    let cmp = hs_e2e(
        &dir,
        &["compare", "runs.jsonl", "runs.jsonl", "--spec", SPEC],
    );
    let text = String::from_utf8_lossy(&cmp.stdout);
    assert!(cmp.status.success(), "{text}");
    assert!(
        !text.contains("regressed") && !text.contains("DIFFERS"),
        "{text}"
    );
    assert!(
        text.contains("matmul_uds checksum") && text.contains("equals"),
        "{text}"
    );
}

#[test]
fn every_workload_prints_the_per_layer_metrics_and_a_trace() {
    let dir = workdir("traced");
    for w in Workload::ALL {
        check_result(&smoke(&dir, w.name(), "1", &[]), "per_layer");
        let trace = std::fs::read_to_string(dir.join(format!("out/trace_{}.json", w.name())))
            .expect("trace file");
        let events = json::parse(&trace).expect("trace is JSON");
        let events = events
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents");
        let has = |pid: f64| {
            events.iter().any(|e| {
                e.get("pid").and_then(Value::as_f64) == Some(pid)
                    && e.get("ph").and_then(Value::as_str) == Some("X")
            })
        };
        assert!(has(1.0), "{}: no benchmark spans", w.name());
        assert!(has(2.0), "{}: no runtime actions", w.name());
    }
    assert_eq!(
        leftovers(&dir),
        Vec::<PathBuf>::new(),
        "sockets or WAL roots left behind"
    );
}

#[test]
fn a_wrong_result_is_counted_and_fails_the_run() {
    let dir = workdir("corrupt");
    let out = smoke(&dir, "smallact", "0", &["--corrupt-oracle"]);
    assert_eq!(out.status.code(), Some(1));
    let v = last_line(&out);
    assert_eq!(v.get("correct").and_then(Value::as_bool), Some(false));
    assert!(v.get("failed").and_then(Value::as_f64).expect("failed") > 0.0);
}

#[test]
fn bad_arguments_print_no_result() {
    let dir = workdir("usage");
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--seed", "1"],
        &["--workload", "smallact"],
    ] {
        let out = hs_e2e(&dir, args);
        assert_eq!(out.status.code(), Some(2));
        assert!(out.stdout.is_empty());
    }
}
