//! Smoke test of the benchmark: every workload at a tiny horizon emits
//! exactly the metrics `BENCHMARK.json` declares, with their units, and an
//! iteration's digest repeats within one process.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use beehive_perfbench::metrics::{valid_name, MetricDef, END_TO_END, PER_LAYER};
use beehive_perfbench::run::{iterate, Workload};
use beehive_perfbench::spans::Spans;
use beehive_sim::json::Json;

/// Simulated seconds per smoke iteration.
const HORIZON: u64 = 4;

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("reading BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn str_of<'a>(j: &'a Json, key: &str) -> &'a str {
    match j.get(key) {
        Some(Json::Str(s)) => s,
        other => panic!("{key}: expected a string, got {other:?}"),
    }
}

fn arr<'a>(j: &'a Json, key: &str) -> &'a [Json] {
    match j.get(key) {
        Some(Json::Arr(a)) => a,
        other => panic!("{key}: expected an array, got {other:?}"),
    }
}

/// `(name, unit, better)` of a metric list.
fn triples(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
        .collect()
}

fn declared(bench: &Json, key: &str) -> Vec<(String, String, String)> {
    arr(bench, key)
        .iter()
        .map(|m| {
            (
                str_of(m, "name").into(),
                str_of(m, "unit").into(),
                str_of(m, "better").into(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_declares_the_emitted_vocabulary() {
    let bench = benchmark_json();
    assert_eq!(declared(&bench, "end_to_end"), triples(END_TO_END));
    assert_eq!(declared(&bench, "per_layer"), triples(PER_LAYER));
    let workloads: Vec<&str> = arr(&bench, "workloads")
        .iter()
        .map(|w| str_of(w, "name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    let mut names = BTreeSet::new();
    for d in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(d.name), "bad metric name {:?}", d.name);
        assert!(names.insert(d.name), "metric {:?} listed twice", d.name);
        assert!(
            matches!(d.better, "lower" | "higher"),
            "{}: {}",
            d.name,
            d.better
        );
        assert!(!d.moves.is_empty(), "{}: say what it moves", d.name);
    }
}

/// Run the benchmark binary and parse its last line.
fn run(workload: Workload, trace: u8) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_beehive-perfbench"))
        .args([
            "--workload",
            workload.name(),
            "--seed",
            "3",
            "--seconds",
            "1",
        ])
        .args([
            "--trace",
            &trace.to_string(),
            "--horizon",
            &HORIZON.to_string(),
        ])
        .output()
        .expect("running the benchmark");
    assert!(
        out.status.success(),
        "{workload:?} trace {trace}: {}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("the result line is JSON")
}

fn check_result(workload: Workload, trace: u8, defs: &[MetricDef]) {
    let j = run(workload, trace);
    assert_eq!(
        j.get("correct"),
        Some(&Json::Bool(true)),
        "{workload:?}: {j:?}"
    );
    assert_eq!(j.get("failed"), Some(&Json::Int(0)));
    assert!(matches!(j.get("attempted"), Some(Json::Int(n)) if *n >= 1));
    let Some(Json::Obj(metrics)) = j.get("metrics") else {
        panic!("no metrics object: {j:?}");
    };
    let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = defs.iter().map(|d| d.name).collect();
    assert_eq!(emitted, expected, "{workload:?} trace {trace}");
    for ((name, m), d) in metrics.iter().zip(defs) {
        assert!(valid_name(name), "bad name {name:?}");
        assert_eq!(str_of(m, "unit"), d.unit, "{name}");
        assert!(
            matches!(m.get("value"), Some(Json::Num(v)) if v.is_finite()),
            "{name}: {m:?}"
        );
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for w in Workload::ALL {
        check_result(w, 0, END_TO_END);
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric() {
    for w in Workload::ALL {
        check_result(w, 1, PER_LAYER);
    }
}

#[test]
fn digest_is_stable_across_in_process_repeats() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    std::fs::create_dir_all(&dir).expect("creating the artifact directory");
    for w in Workload::ALL {
        let artifacts = w.writes_artifacts().then_some(dir.as_path());
        let once = || {
            iterate(w.scenario(), 3, HORIZON, artifacts, &mut Spans::new())
                .outputs
                .digest()
        };
        assert_eq!(once(), once(), "{w:?}");
    }
    std::fs::remove_dir_all(&dir).expect("removing the artifact directory");
}
