//! Gate on the smoke sweep: run a six-case plan (four correlations, two
//! VSL cases) through the `sweep` binary with two workers, then check the
//! lifecycle event stream, the aggregate report, the result store, and a
//! `--resume` rerun that must skip every completed case.

use aerothermo_bench::json::{self, Value};
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

const SCHEMA: &str = "aerothermo-sweep-events-v1";

const PLAN: &str = r#"{
  "name": "ci_smoke_sweep",
  "cases": [
    {"id": "corr-air9-a", "gas": {"kind": "air9"}, "level": {"kind": "correlation", "k_sg": 0.000174}, "flow": {"rho_inf": 3e-5, "u_inf": 9000, "t_inf": 220, "nose_radius": 0.5, "t_wall": 1500}, "max_retries": 3, "timeout_secs": null, "inject_fault": false},
    {"id": "corr-air9-b", "gas": {"kind": "air9"}, "level": {"kind": "correlation", "k_sg": 0.000174}, "flow": {"rho_inf": 1e-4, "u_inf": 7000, "t_inf": 220, "nose_radius": 0.5, "t_wall": 1500}, "max_retries": 3, "timeout_secs": null, "inject_fault": false},
    {"id": "corr-titan-a", "gas": {"kind": "titan", "ch4": 0.05}, "level": {"kind": "correlation", "k_sg": 0.00017}, "flow": {"rho_inf": 3e-5, "u_inf": 10000, "t_inf": 165, "nose_radius": 0.6, "t_wall": 1800}, "max_retries": 3, "timeout_secs": null, "inject_fault": false},
    {"id": "corr-titan-b", "gas": {"kind": "titan", "ch4": 0.05}, "level": {"kind": "correlation", "k_sg": 0.00017}, "flow": {"rho_inf": 1e-4, "u_inf": 8000, "t_inf": 165, "nose_radius": 0.6, "t_wall": 1800}, "max_retries": 3, "timeout_secs": null, "inject_fault": false},
    {"id": "vsl-air9", "gas": {"kind": "air9"}, "level": {"kind": "vsl", "n_points": 20, "radiating": false}, "flow": {"rho_inf": 1e-4, "u_inf": 7000, "t_inf": 220, "nose_radius": 0.5, "t_wall": 1500}, "max_retries": 3, "timeout_secs": null, "inject_fault": false},
    {"id": "vsl-titan", "gas": {"kind": "titan", "ch4": 0.05}, "level": {"kind": "vsl", "n_points": 20, "radiating": false}, "flow": {"rho_inf": 1e-4, "u_inf": 8000, "t_inf": 165, "nose_radius": 0.6, "t_wall": 1800}, "max_retries": 3, "timeout_secs": null, "inject_fault": false}
  ]
}
"#;

/// Fields every event of a kind must carry.
fn required(kind: &str) -> Option<&'static [&'static str]> {
    Some(match kind {
        "plan_started" => &["schema", "plan", "cases", "workers"],
        "case_started" => &["id", "worker", "t_secs"],
        "case_retried" => &["id", "retries"],
        "case_finished" => &["id", "status", "retries", "wall_secs"],
        "case_failed" => &["id", "status", "error", "wall_secs"],
        "heartbeat" => &[
            "t_secs",
            "busy",
            "workers",
            "done",
            "total",
            "utilization",
            "eta_secs",
        ],
        "plan_finished" => &[
            "completed",
            "failed",
            "timed_out",
            "resumed",
            "halted",
            "elapsed_secs",
        ],
        _ => return None,
    })
}

fn sweep(dir: &Path, args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(["--plan=smoke-plan.json", "--workers=2", "--strict"])
        .args(args)
        .current_dir(dir)
        .output()
        .expect("launch sweep");
    assert!(
        out.status.success(),
        "sweep {args:?} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

fn read_json(path: &Path) -> Value {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn read_lines(path: &Path) -> Vec<Value> {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| json::parse(l).unwrap_or_else(|e| panic!("{}: {e}", path.display())))
        .collect()
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("no number '{key}' in {v:?}"))
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no string '{key}' in {v:?}"))
}

/// Every line is a schema-valid event with dense `seq` numbers; the
/// heartbeats are monotone in time and at least two (one at start, one
/// after the workers drain); every case lifecycle closes.
fn check_events(events: &[Value]) {
    assert!(!events.is_empty(), "event stream is empty");
    let mut heartbeats = Vec::new();
    let (mut started, mut finished) = (BTreeSet::new(), BTreeSet::new());
    for (k, ev) in events.iter().enumerate() {
        assert_eq!(num(ev, "seq"), k as f64, "seq not dense at line {}", k + 1);
        let kind = text(ev, "event");
        let fields = required(kind)
            .unwrap_or_else(|| panic!("unknown event kind '{kind}' at line {}", k + 1));
        for field in fields {
            assert!(
                ev.get(field).is_some(),
                "{kind} at line {} missing '{field}'",
                k + 1
            );
        }
        match kind {
            "heartbeat" => heartbeats.push(num(ev, "t_secs")),
            "case_started" => {
                started.insert(text(ev, "id").to_string());
            }
            "case_finished" | "case_failed" => {
                finished.insert(text(ev, "id").to_string());
            }
            _ => {}
        }
    }
    assert_eq!(
        text(&events[0], "event"),
        "plan_started",
        "stream must open with plan_started"
    );
    assert_eq!(text(&events[0], "schema"), SCHEMA);
    assert_eq!(
        text(events.last().unwrap(), "event"),
        "plan_finished",
        "stream must close with plan_finished"
    );
    assert!(
        heartbeats.len() >= 2,
        "expected >= 2 heartbeats, got {}",
        heartbeats.len()
    );
    assert!(
        heartbeats.windows(2).all(|w| w[0] <= w[1]),
        "heartbeat t_secs not monotone: {heartbeats:?}"
    );
    assert!(
        started == finished && started.len() == 6,
        "incomplete case lifecycles: started={started:?} finished={finished:?}"
    );
}

/// A green report with six completed cases and Newton solves attributed,
/// and a six-record store whose every record carries a heating metric.
fn check_report_and_store(report: &Value, records: &[Value]) {
    assert_eq!(
        report.get("all_green"),
        Some(&Value::Bool(true)),
        "sweep report is not all green"
    );
    let m = report.get("metrics").expect("report has metrics");
    assert_eq!(num(m, "cases_failed"), 0.0, "sweep recorded failed cases");
    assert_eq!(
        num(m, "cases_timed_out"),
        0.0,
        "sweep recorded timed-out cases"
    );
    assert_eq!(num(m, "cases_completed"), 6.0);
    let solves = report
        .get("counters")
        .and_then(|c| c.get("newton_solves"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    assert!(
        solves > 0.0,
        "no Newton solves attributed -- per-case telemetry is not wired"
    );

    assert_eq!(
        records.len(),
        6,
        "result store has {} records",
        records.len()
    );
    for rec in records {
        let id = text(rec, "id");
        assert_eq!(text(rec, "status"), "completed", "case {id}");
        let metrics = rec
            .get("metrics")
            .and_then(Value::as_object)
            .unwrap_or_else(|| panic!("case {id} has no metrics"));
        assert!(
            metrics.keys().any(|k| k.starts_with("q_")),
            "case {id} carries no heating metric"
        );
    }
}

#[test]
fn smoke_sweep_events_report_store_and_resume() {
    let dir = std::env::temp_dir().join(format!("sweep-smoke-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create the sweep directory");
    std::fs::write(dir.join("smoke-plan.json"), PLAN).expect("write the plan");

    sweep(
        &dir,
        &[
            "--out=smoke-sweep.jsonl",
            "--report=smoke-sweep-report.json",
            "--events=smoke-events.jsonl",
        ],
    );
    check_events(&read_lines(&dir.join("smoke-events.jsonl")));
    let store = std::fs::read(dir.join("smoke-sweep.jsonl")).expect("read the store");
    check_report_and_store(
        &read_json(&dir.join("smoke-sweep-report.json")),
        &read_lines(&dir.join("smoke-sweep.jsonl")),
    );

    // Resume drill: the rerun must skip all six cases and leave the store
    // untouched.
    sweep(
        &dir,
        &[
            "--resume",
            "--out=smoke-sweep.jsonl",
            "--report=smoke-sweep-resumed.json",
        ],
    );
    let resumed = read_json(&dir.join("smoke-sweep-resumed.json"));
    assert_eq!(
        num(resumed.get("metrics").expect("metrics"), "cases_resumed"),
        6.0,
        "resume did not skip the completed cases"
    );
    assert_eq!(
        read_lines(&dir.join("smoke-sweep.jsonl")).len(),
        6,
        "resume re-wrote records into the store"
    );
    assert_eq!(
        std::fs::read(dir.join("smoke-sweep.jsonl")).expect("reread the store"),
        store,
        "resume changed the store"
    );
    std::fs::remove_dir_all(&dir).ok();
}
