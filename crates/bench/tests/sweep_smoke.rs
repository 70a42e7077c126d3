//! Gates on the smoke sweep: a six-case plan (four correlations, two VSL
//! cases) run through the `sweep` binary.
//!
//! - With two workers: the lifecycle event stream, the aggregate report,
//!   the result store, and a `--resume` rerun that must skip every
//!   completed case.
//! - The shard drill: two concurrent `cost_balanced` shard processes,
//!   federated, must reproduce the single-process store bitwise; so must
//!   the federation after the larger shard is halted after one case and
//!   resumed.

use aerothermo_bench::json::{self, Value};
use aerothermo_sweep::{load_records, normalized_fingerprint};
use std::collections::BTreeSet;
use std::path::Path;
use std::process::{Command, Output};

const SCHEMA: &str = "aerothermo-sweep-events-v1";

const PLAN: &str = include_str!("smoke-plan.json");

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

fn sweep_command(dir: &Path, args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_sweep"));
    cmd.args(args).current_dir(dir);
    cmd
}

fn assert_success(args: &[&str], out: &Output) {
    assert!(
        out.status.success(),
        "sweep {args:?} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Run `sweep` on the smoke plan in `dir` and require a zero exit.
fn run(dir: &Path, args: &[&str]) {
    let out = sweep_command(dir, args).output().expect("launch sweep");
    assert_success(args, &out);
}

fn sweep(dir: &Path, args: &[&str]) {
    let mut all = vec!["--plan=smoke-plan.json", "--workers=2", "--strict"];
    all.extend_from_slice(args);
    run(dir, &all);
}

/// A fresh directory holding the smoke plan.
fn plan_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sweep-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create the sweep directory");
    std::fs::write(dir.join("smoke-plan.json"), PLAN).expect("write the plan");
    dir
}

/// The store's normalized fingerprint: status, retries, metric bit
/// patterns and counters of every record, sorted by case id.
fn fingerprint(path: &Path) -> Vec<(String, String)> {
    let records = load_records(path.to_str().expect("utf-8 path"))
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    normalized_fingerprint(&records)
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
    let dir = plan_dir("smoke");

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

/// Shard `index` of 2 under `cost_balanced`, one worker, into
/// `shards-shard<index>of2.jsonl`.
fn shard_args(index: usize, extra: &[&'static str]) -> Vec<&'static str> {
    let mut args = vec![
        "--plan=smoke-plan.json",
        ["--shard=0/2", "--shard=1/2"][index],
        "--shard-strategy=cost_balanced",
        "--workers=1",
        "--out=shards.jsonl",
    ];
    args.extend_from_slice(extra);
    args
}

fn federate(dir: &Path, out: &str, extra: &[&str]) {
    let mut args = vec!["federate", "--plan=smoke-plan.json", "--strict", out];
    args.extend_from_slice(extra);
    args.extend_from_slice(&["shards-shard0of2.jsonl", "shards-shard1of2.jsonl"]);
    run(dir, &args);
}

#[test]
fn shard_drill_federates_bitwise_and_survives_a_halted_shard() {
    let dir = plan_dir("shard");
    run(
        &dir,
        &[
            "--plan=smoke-plan.json",
            "--workers=2",
            "--strict",
            "--out=reference.jsonl",
        ],
    );
    let reference = fingerprint(&dir.join("reference.jsonl"));
    assert_eq!(reference.len(), 6, "reference store has 6 records");

    // Two independent shard processes at once, no coordination: each
    // computes the same partition from the plan alone.
    let shards: Vec<(Vec<&str>, std::process::Child)> = (0..2)
        .map(|k| {
            let args = shard_args(k, &["--strict"]);
            let child = sweep_command(&dir, &args)
                .stdout(std::process::Stdio::piped())
                .stderr(std::process::Stdio::piped())
                .spawn()
                .expect("launch a shard");
            (args, child)
        })
        .collect();
    for (args, child) in shards {
        let out = child.wait_with_output().expect("wait for a shard");
        assert_success(&args, &out);
    }

    federate(
        &dir,
        "--out=federated.jsonl",
        &["--report=federation-report.json"],
    );
    let report = read_json(&dir.join("federation-report.json"));
    assert_eq!(text(&report, "schema"), "aerothermo-federation-v1");
    assert_eq!(
        report.get("complete"),
        Some(&Value::Bool(true)),
        "federation report is not complete: {report:?}"
    );
    assert_eq!(
        num(&report, "merged"),
        num(&report, "plan_cases"),
        "merged count does not cover the plan"
    );
    assert_eq!(
        fingerprint(&dir.join("federated.jsonl")),
        reference,
        "federated store is not bitwise identical to the single-process run"
    );

    // Kill-one-shard leg on shard 1 (five of the six cases: the Titan VSL
    // alone outweighs the rest), so the halt leaves work for the resume:
    // stop it after one case, resume it through the store's skip logic,
    // refederate.
    let store = dir.join("shards-shard1of2.jsonl");
    assert_eq!(read_lines(&store).len(), 5, "shard 1 holds five cases");
    std::fs::remove_file(&store).expect("remove the shard store");
    run(&dir, &shard_args(1, &["--halt-after-cases=1"]));
    let kept = read_lines(&store).len();
    assert!(
        kept < 3,
        "halt budget left {kept} records; expected a partial shard store"
    );
    run(&dir, &shard_args(1, &["--strict", "--resume"]));
    federate(&dir, "--out=federated-resumed.jsonl", &[]);
    assert_eq!(
        fingerprint(&dir.join("federated-resumed.jsonl")),
        reference,
        "halt + resume + refederate diverged from the single-process store"
    );
    std::fs::remove_dir_all(&dir).ok();
}
