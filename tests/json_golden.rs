//! Golden bytes for every JSON document the workspace writes by hand: the
//! result-store line, the sweep event stream and its normalized form, the
//! sweep `--report`, plan files, the `sweep federate` report,
//! the flight-recorder black box, the metrics snapshot, the daemon's
//! control responses and the client's control requests.
//!
//! Each test feeds fixed inputs (NaN metrics and strings that need
//! escaping included) and compares the exact text, so a writer change that
//! moves one separator, one digit or one escape fails here. Wall-clock
//! fields and temporary paths are masked before the comparison.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::time::{Duration, Instant};

use aerothermo_numerics::json::{self, Value};
use aerothermo_numerics::telemetry::AuditSeverity;
use aerothermo_numerics::trace::{Histogram, MetricsSnapshot, SpanStats};
use aerothermo_service::{Client, Daemon, ServiceConfig};
use aerothermo_solvers::flight::{PostMortem, StepEvent, StepRecord, Trigger};
use aerothermo_sweep::events::{normalize, EventSink};
use aerothermo_sweep::report::SweepReport;
use aerothermo_sweep::shard::FederationReport;
use aerothermo_sweep::store::{CaseOutcome, CaseStatus};
use aerothermo_sweep::{CaseSpec, FlowSpec, GasSpec, LevelSpec, SweepPlan};

/// A fresh, empty directory under the system temp dir.
fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("json-golden-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Replace the value of every `"key": <number>` member with `#`.
fn mask(text: &str, key: &str) -> String {
    let pat = format!("\"{key}\": ");
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find(&pat) {
        let start = at + pat.len();
        out.push_str(&rest[..start]);
        out.push('#');
        let tail = &rest[start..];
        let end = tail.find([',', '}', '\n']).unwrap_or(tail.len());
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

fn stats(label: &'static str, samples: &[u64]) -> SpanStats {
    let mut hist = Histogram::new();
    for &ns in samples {
        hist.observe_ns(ns);
    }
    SpanStats { label, hist }
}

fn postmortem(error: Option<&str>) -> PostMortem {
    let record = |unit, residual, event, hits, findings, worst| StepRecord {
        unit,
        residual,
        cfl_scale: 0.5,
        event,
        cache_hits: hits,
        cache_misses: hits / 2,
        audit_findings: findings,
        audit_worst: worst,
    };
    PostMortem {
        tag: "vsl \"march\"".to_string(),
        trigger: if error.is_some() {
            Trigger::SolverError
        } else {
            Trigger::NanInjection
        },
        error: error.map(str::to_string),
        failing_unit: 7,
        retries: 2,
        final_cfl_scale: 0.25,
        capacity: 64,
        records: vec![
            record(4, 1.5e-3, StepEvent::Advance, 0, 0, None),
            record(
                5,
                2.5e-4,
                StepEvent::Checkpoint,
                12,
                1,
                Some(AuditSeverity::Pass),
            ),
            record(6, f64::NAN, StepEvent::Inject, 0, 0, None),
            record(
                6,
                f64::INFINITY,
                StepEvent::Rollback {
                    retry: 1,
                    error: "non-finite \"rho\"\n at cell 3".to_string(),
                },
                3,
                2,
                Some(AuditSeverity::Warn),
            ),
            record(
                7,
                f64::NAN,
                StepEvent::Fatal {
                    error: "diverged\tagain".to_string(),
                },
                0,
                2,
                Some(AuditSeverity::Fail),
            ),
        ],
    }
}

#[test]
fn blackbox_dump() {
    assert_eq!(
        postmortem(Some("diverged: \"q\" \\ done")).to_json(),
        BLACKBOX_ERROR
    );
    assert_eq!(postmortem(None).to_json(), BLACKBOX_INJECT);
}

const BLACKBOX_ERROR: &str = r#"{"schema": "aerothermo-blackbox-v1", "tag": "vsl \"march\"", "trigger": "solver_error", "error": "diverged: \"q\" \\ done", "failing_unit": 7, "retries": 2, "final_cfl_scale": 0.25, "capacity": 64, "records": [{"unit": 4, "residual": 0.0015, "cfl_scale": 0.5, "event": "advance"}, {"unit": 5, "residual": 2.5e-4, "cfl_scale": 0.5, "event": "checkpoint", "cache_hits": 12, "cache_misses": 6, "audit_findings": 1, "audit_worst": "pass"}, {"unit": 6, "residual": null, "cfl_scale": 0.5, "event": "inject"}, {"unit": 6, "residual": null, "cfl_scale": 0.5, "event": "rollback", "retry": 1, "error": "non-finite \"rho\"\n at cell 3", "cache_hits": 3, "cache_misses": 1, "audit_findings": 2, "audit_worst": "warn"}, {"unit": 7, "residual": null, "cfl_scale": 0.5, "event": "fatal", "error": "diverged\tagain", "audit_findings": 2, "audit_worst": "fail"}]}"#;

const BLACKBOX_INJECT: &str = r#"{"schema": "aerothermo-blackbox-v1", "tag": "vsl \"march\"", "trigger": "nan_injection", "error": null, "failing_unit": 7, "retries": 2, "final_cfl_scale": 0.25, "capacity": 64, "records": [{"unit": 4, "residual": 0.0015, "cfl_scale": 0.5, "event": "advance"}, {"unit": 5, "residual": 2.5e-4, "cfl_scale": 0.5, "event": "checkpoint", "cache_hits": 12, "cache_misses": 6, "audit_findings": 1, "audit_worst": "pass"}, {"unit": 6, "residual": null, "cfl_scale": 0.5, "event": "inject"}, {"unit": 6, "residual": null, "cfl_scale": 0.5, "event": "rollback", "retry": 1, "error": "non-finite \"rho\"\n at cell 3", "cache_hits": 3, "cache_misses": 1, "audit_findings": 2, "audit_worst": "warn"}, {"unit": 7, "residual": null, "cfl_scale": 0.5, "event": "fatal", "error": "diverged\tagain", "audit_findings": 2, "audit_worst": "fail"}]}"#;

fn outcome(id: &str, status: CaseStatus) -> CaseOutcome {
    let failed = matches!(status, CaseStatus::Failed | CaseStatus::TimedOut);
    CaseOutcome {
        id: id.to_string(),
        status,
        wall_secs: 0.125,
        retries: usize::from(failed) * 3,
        worker: 1,
        note: "note \"n\"\ttab".to_string(),
        error: failed.then(|| format!("{} \"x\"", status.name())),
        metrics: vec![
            ("q_conv_w_m2".to_string(), 2.5e5),
            ("q_rad_w_m2".to_string(), f64::NAN),
            ("tiny".to_string(), 1e-12),
        ],
        counters: vec![
            ("newton_solves", 7),
            ("ode_steps_accepted", 0),
            ("equilibrium_states", 3),
        ],
        postmortem: (status == CaseStatus::Failed).then(|| postmortem(Some("boom")).to_json()),
    }
}

#[test]
fn store_line() {
    assert_eq!(
        outcome("c\"1", CaseStatus::Completed).to_json_line(),
        STORE_COMPLETED
    );
    assert_eq!(
        outcome("c2", CaseStatus::Failed).to_json_line(),
        STORE_FAILED
    );
    let bare = CaseOutcome {
        metrics: Vec::new(),
        counters: vec![("newton_solves", 0)],
        ..outcome("c3", CaseStatus::Resumed)
    };
    assert_eq!(bare.to_json_line(), STORE_BARE);
}

const STORE_COMPLETED: &str = r#"{"id": "c\"1", "status": "completed", "wall_secs": 0.125, "retries": 0, "worker": 1, "note": "note \"n\"\ttab", "error": null, "metrics": {"q_conv_w_m2": 2.5e5, "q_rad_w_m2": null, "tiny": 1e-12}, "counters": {"newton_solves": 7, "equilibrium_states": 3}}"#;

const STORE_FAILED: &str = r#"{"id": "c2", "status": "failed", "wall_secs": 0.125, "retries": 3, "worker": 1, "note": "note \"n\"\ttab", "error": "failed \"x\"", "metrics": {"q_conv_w_m2": 2.5e5, "q_rad_w_m2": null, "tiny": 1e-12}, "counters": {"newton_solves": 7, "equilibrium_states": 3}, "postmortem": "{\"schema\": \"aerothermo-blackbox-v1\", \"tag\": \"vsl \\\"march\\\"\", \"trigger\": \"solver_error\", \"error\": \"boom\", \"failing_unit\": 7, \"retries\": 2, \"final_cfl_scale\": 0.25, \"capacity\": 64, \"records\": [{\"unit\": 4, \"residual\": 0.0015, \"cfl_scale\": 0.5, \"event\": \"advance\"}, {\"unit\": 5, \"residual\": 2.5e-4, \"cfl_scale\": 0.5, \"event\": \"checkpoint\", \"cache_hits\": 12, \"cache_misses\": 6, \"audit_findings\": 1, \"audit_worst\": \"pass\"}, {\"unit\": 6, \"residual\": null, \"cfl_scale\": 0.5, \"event\": \"inject\"}, {\"unit\": 6, \"residual\": null, \"cfl_scale\": 0.5, \"event\": \"rollback\", \"retry\": 1, \"error\": \"non-finite \\\"rho\\\"\\n at cell 3\", \"cache_hits\": 3, \"cache_misses\": 1, \"audit_findings\": 2, \"audit_worst\": \"warn\"}, {\"unit\": 7, \"residual\": null, \"cfl_scale\": 0.5, \"event\": \"fatal\", \"error\": \"diverged\\tagain\", \"audit_findings\": 2, \"audit_worst\": \"fail\"}]}"}"#;

const STORE_BARE: &str = r#"{"id": "c3", "status": "resumed", "wall_secs": 0.125, "retries": 0, "worker": 1, "note": "note \"n\"\ttab", "error": null, "metrics": {}, "counters": {}}"#;

#[test]
fn event_stream_and_normalize() {
    let dir = fresh_dir("events");
    let path = dir.join("events.jsonl").to_str().unwrap().to_string();
    let sink = EventSink::create(&path).unwrap();
    sink.plan_started("plan \"p\"", 3, 2);
    sink.case_started("b", 1);
    sink.heartbeat(1, 2, 0, 3, 0.0, 0.0, 3.0);
    sink.case_started("a\\1", 0);
    sink.case_retried("b", 2);
    sink.case_finished("b", "completed", 2, 0.5);
    sink.heartbeat(2, 2, 1, 3, 0.5, 1.0, 2.0);
    sink.case_failed("a\\1", "failed", "diverged: \"nan\"\n", f64::NAN);
    sink.plan_finished(1, 1, 0, 1, true, 1.25);
    drop(sink);
    let stream = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(mask(&stream, "t_secs"), EVENTS);
    assert_eq!(normalize(&stream).unwrap(), EVENTS_NORMALIZED);
    let odd = "{\"seq\": 0, \"event\": \"odd \\\"kind\\\"\", \"id\": \"z\"}\n";
    assert_eq!(
        normalize(odd).unwrap(),
        "{\"event\": \"odd \\\"kind\\\"\"}\n"
    );
}

const EVENTS: &str = r#"{"seq": 0, "event": "plan_started", "schema": "aerothermo-sweep-events-v1", "plan": "plan \"p\"", "cases": 3, "workers": 2}
{"seq": 1, "event": "case_started", "id": "b", "worker": 1, "t_secs": #}
{"seq": 2, "event": "heartbeat", "t_secs": #, "busy": 1, "workers": 2, "done": 0, "total": 3, "utilization": 0.5, "eta_secs": null}
{"seq": 3, "event": "case_started", "id": "a\\1", "worker": 0, "t_secs": #}
{"seq": 4, "event": "case_retried", "id": "b", "retries": 2}
{"seq": 5, "event": "case_finished", "id": "b", "status": "completed", "retries": 2, "wall_secs": 0.5}
{"seq": 6, "event": "heartbeat", "t_secs": #, "busy": 2, "workers": 2, "done": 1, "total": 3, "utilization": 1, "eta_secs": 0.5}
{"seq": 7, "event": "case_failed", "id": "a\\1", "status": "failed", "error": "diverged: \"nan\"\n", "wall_secs": null}
{"seq": 8, "event": "plan_finished", "completed": 1, "failed": 1, "timed_out": 0, "resumed": 1, "halted": true, "elapsed_secs": 1.25}
"#;

const EVENTS_NORMALIZED: &str = r#"{"event": "plan_started", "plan": "plan \"p\"", "cases": 3}
{"event": "case_started", "id": "a\\1"}
{"event": "case_failed", "id": "a\\1", "status": "failed", "error": "diverged: \"nan\"\n"}
{"event": "case_started", "id": "b"}
{"event": "case_retried", "id": "b", "retries": 2}
{"event": "case_finished", "id": "b", "status": "completed", "retries": 2}
{"event": "plan_finished", "completed": 1, "failed": 1, "timed_out": 0, "resumed": 1, "halted": true}
"#;

#[test]
fn sweep_report() {
    let mut timed_out = outcome("d", CaseStatus::TimedOut);
    timed_out.error = None;
    let report = SweepReport {
        figure: "golden \"sweep\"".to_string(),
        elapsed_secs: 1.5,
        workers: 2,
        halted: false,
        planned: 5,
        outcomes: vec![
            outcome("a", CaseStatus::Completed),
            outcome("b", CaseStatus::Failed),
            outcome("c", CaseStatus::Resumed),
            timed_out,
        ],
        timings: vec![
            stats("case", &[1_000, 2_000, 3_000, 400_000]),
            stats("store_write", &[]),
        ],
    };
    assert_eq!(report.to_json(), SWEEP_REPORT);
    let empty = SweepReport {
        figure: "empty".to_string(),
        elapsed_secs: 0.0,
        workers: 1,
        halted: true,
        planned: 0,
        outcomes: Vec::new(),
        timings: Vec::new(),
    };
    let text = empty.to_json();
    assert!(text.contains("\n  \"histories\": {\n  },\n"));
    assert!(text.contains("\n  \"timings\": {},\n"));
    assert!(text.contains("\n  \"audits\": [\n  ],\n"));
    assert!(text.ends_with("\"audit_summary\": {\"pass\": 0, \"warn\": 0, \"fail\": 0}\n}\n"));
}

const SWEEP_REPORT: &str = r#"{
  "figure": "golden \"sweep\"",
  "elapsed_secs": 1.5,
  "all_green": false,
  "checks": [
    {"name": "no_failed_cases", "passed": false, "detail": "1 failed of 4 recorded"},
    {"name": "no_timed_out_cases", "passed": false, "detail": "1 timed out"},
    {"name": "all_cases_recorded", "passed": false, "detail": "4 recorded of 5 planned"}
  ],
  "counters": {
    "newton_solves": 28,
    "newton_iterations": 0,
    "tridiag_solves": 0,
    "block_tridiag_solves": 0,
    "chemistry_substeps": 0,
    "ode_steps_accepted": 0,
    "ode_steps_rejected": 0,
    "equilibrium_states": 12,
    "spectrum_points": 0,
    "faces_evaluated": 0,
    "equilibrium_cache_hits": 0,
    "equilibrium_cache_misses": 0,
    "newton_warm_starts": 0,
    "checkpoints_written": 0,
    "run_rollbacks": 0,
    "equilibrium_batches": 0,
    "equilibrium_batch_states": 0,
    "equilibrium_batch_lanes_1": 0,
    "equilibrium_batch_lanes_2": 0,
    "equilibrium_batch_lanes_3": 0,
    "equilibrium_batch_lanes_4": 0,
    "flux_simd_faces": 0,
    "surrogate_queries": 0,
    "surrogate_builds": 0,
    "surrogate_exact_fallbacks": 0,
    "ode_jacobians": 0,
    "equilibrium_cold_starts": 0,
    "equilibrium_failures": 0,
    "equilibrium_floor_failures": 0,
    "eos_fallbacks": 0
  },
  "metrics": {
    "cases_planned": 5,
    "cases_completed": 1,
    "cases_failed": 1,
    "cases_timed_out": 1,
    "cases_resumed": 1,
    "workers": 2,
    "halted": 0,
    "total_retries": 6,
    "throughput_cases_per_sec": 2,
    "a.q_conv_w_m2": 2.5e5,
    "a.q_rad_w_m2": null,
    "a.tiny": 1e-12,
    "a.retries": 0,
    "b.q_conv_w_m2": 2.5e5,
    "b.q_rad_w_m2": null,
    "b.tiny": 1e-12,
    "b.retries": 3,
    "c.q_conv_w_m2": 2.5e5,
    "c.q_rad_w_m2": null,
    "c.tiny": 1e-12,
    "c.retries": 0,
    "d.q_conv_w_m2": 2.5e5,
    "d.q_rad_w_m2": null,
    "d.tiny": 1e-12,
    "d.retries": 3
  },
  "timings": {"case": {"calls": 4, "p50_ns": 2047, "p90_ns": 400000, "p99_ns": 400000, "min_ns": 1000, "max_ns": 400000, "mean_ns": 101500, "total_ns": 406000}, "store_write": {"calls": 0, "p50_ns": 0, "p90_ns": 0, "p99_ns": 0, "min_ns": 0, "max_ns": 0, "mean_ns": 0, "total_ns": 0}},
  "histories": {
  },
  "history_summaries": {
  },
  "audits": [
    {"solver": "b", "audit": "case_outcome", "severity": "fail", "value": 1, "threshold": 0, "step": 0, "detail": "failed \"x\""},
    {"solver": "d", "audit": "case_outcome", "severity": "fail", "value": 1, "threshold": 0, "step": 0, "detail": "timed_out"}
  ],
  "audit_summary": {"pass": 2, "warn": 0, "fail": 2}
}
"#;

fn flow(time_s: f64) -> FlowSpec {
    let mut f = FlowSpec::new(1e-4, 7000.0, 220.0, 6.3, 0.5, 1500.0);
    f.time_s = time_s;
    f
}

fn every_kind_plan() -> SweepPlan {
    let cases = [
        (GasSpec::IdealAir, LevelSpec::Correlation { k_sg: 1.74e-4 }),
        (
            GasSpec::Air5,
            LevelSpec::Vsl {
                n_points: 20,
                radiating: false,
            },
        ),
        (
            GasSpec::Air9,
            LevelSpec::EulerBl {
                ni: 9,
                nj: 31,
                max_steps: 400,
                tol: 1e-6,
            },
        ),
        (
            GasSpec::Air11,
            LevelSpec::Pns {
                ni: 40,
                nj: 21,
                i_start: 3,
            },
        ),
        (
            GasSpec::Titan { ch4: 0.05 },
            LevelSpec::Ns {
                ni: 8,
                nj: 24,
                max_steps: 300,
                tol: 2.5e-5,
            },
        ),
        (
            GasSpec::Jupiter { he: 0.11 },
            LevelSpec::Synthetic {
                work_ms: 1.5,
                outcome: "ok \"q\"".to_string(),
            },
        ),
    ];
    let mut plan = SweepPlan {
        name: "every \"kind\"".to_string(),
        cases: Vec::new(),
    };
    for (k, (gas, level)) in cases.into_iter().enumerate() {
        let mut case = CaseSpec::new(
            format!("case-{k}"),
            gas,
            level,
            flow(if k % 2 == 0 { f64::NAN } else { 12.5 }),
        );
        if k == 1 {
            case.timeout_secs = 30.0;
            case.max_retries = 1;
            case.inject_fault = true;
        }
        plan.cases.push(case);
    }
    plan
}

#[test]
fn plan_document() {
    let plan = every_kind_plan();
    assert_eq!(plan.to_json(), PLAN);
    assert_eq!(
        SweepPlan::parse(&plan.to_json()).unwrap().to_json(),
        plan.to_json()
    );
    let empty = SweepPlan {
        name: "none".to_string(),
        cases: Vec::new(),
    };
    assert_eq!(
        empty.to_json(),
        "{\n  \"name\": \"none\",\n  \"cases\": [\n  ]\n}\n"
    );
}

const PLAN: &str = r#"{
  "name": "every \"kind\"",
  "cases": [
    {"id": "case-0", "gas": {"kind": "ideal_air"}, "level": {"kind": "correlation", "k_sg": 1.74e-4}, "flow": {"rho_inf": 1e-4, "u_inf": 7e3, "t_inf": 220, "p_inf": 6.3, "nose_radius": 0.5, "t_wall": 1500, "time_s": null, "altitude_m": null}, "max_retries": 3, "timeout_secs": null, "inject_fault": false},
    {"id": "case-1", "gas": {"kind": "air5"}, "level": {"kind": "vsl", "n_points": 20, "radiating": false}, "flow": {"rho_inf": 1e-4, "u_inf": 7e3, "t_inf": 220, "p_inf": 6.3, "nose_radius": 0.5, "t_wall": 1500, "time_s": 12.5, "altitude_m": null}, "max_retries": 1, "timeout_secs": 30, "inject_fault": true},
    {"id": "case-2", "gas": {"kind": "air9"}, "level": {"kind": "euler_bl", "ni": 9, "nj": 31, "max_steps": 400, "tol": 1e-6}, "flow": {"rho_inf": 1e-4, "u_inf": 7e3, "t_inf": 220, "p_inf": 6.3, "nose_radius": 0.5, "t_wall": 1500, "time_s": null, "altitude_m": null}, "max_retries": 3, "timeout_secs": null, "inject_fault": false},
    {"id": "case-3", "gas": {"kind": "air11"}, "level": {"kind": "pns", "ni": 40, "nj": 21, "i_start": 3}, "flow": {"rho_inf": 1e-4, "u_inf": 7e3, "t_inf": 220, "p_inf": 6.3, "nose_radius": 0.5, "t_wall": 1500, "time_s": 12.5, "altitude_m": null}, "max_retries": 3, "timeout_secs": null, "inject_fault": false},
    {"id": "case-4", "gas": {"kind": "titan", "ch4": 0.05}, "level": {"kind": "ns", "ni": 8, "nj": 24, "max_steps": 300, "tol": 2.5e-5}, "flow": {"rho_inf": 1e-4, "u_inf": 7e3, "t_inf": 220, "p_inf": 6.3, "nose_radius": 0.5, "t_wall": 1500, "time_s": null, "altitude_m": null}, "max_retries": 3, "timeout_secs": null, "inject_fault": false},
    {"id": "case-5", "gas": {"kind": "jupiter", "he": 0.11}, "level": {"kind": "synthetic", "work_ms": 1.5, "outcome": "ok \"q\""}, "flow": {"rho_inf": 1e-4, "u_inf": 7e3, "t_inf": 220, "p_inf": 6.3, "nose_radius": 0.5, "t_wall": 1500, "time_s": 12.5, "altitude_m": null}, "max_retries": 3, "timeout_secs": null, "inject_fault": false}
  ]
}
"#;

#[test]
fn federation_report() {
    let report = FederationReport {
        plan_cases: 4,
        shard_stores: 2,
        records_read: 6,
        merged: 3,
        superseded: 2,
        duplicates_deduped: 1,
        gaps: vec!["c\"3".to_string()],
        unknown_ids: vec!["x".to_string(), "y\\z".to_string()],
        torn_tails: 1,
        unknown_counters: 5,
    };
    assert_eq!(report.to_json(), FEDERATION);
    let clean = FederationReport {
        plan_cases: 1,
        shard_stores: 1,
        records_read: 1,
        merged: 1,
        ..FederationReport::default()
    };
    assert_eq!(clean.to_json(), FEDERATION_CLEAN);
}

const FEDERATION: &str = r#"{
  "schema": "aerothermo-federation-v1",
  "plan_cases": 4,
  "shard_stores": 2,
  "records_read": 6,
  "merged": 3,
  "superseded": 2,
  "duplicates_deduped": 1,
  "gaps": ["c\"3"],
  "unknown_ids": ["x", "y\\z"],
  "torn_tails": 1,
  "unknown_counters": 5,
  "complete": false
}
"#;

const FEDERATION_CLEAN: &str = r#"{
  "schema": "aerothermo-federation-v1",
  "plan_cases": 1,
  "shard_stores": 1,
  "records_read": 1,
  "merged": 1,
  "superseded": 0,
  "duplicates_deduped": 0,
  "gaps": [],
  "unknown_ids": [],
  "torn_tails": 0,
  "unknown_counters": 0,
  "complete": true
}
"#;

#[test]
fn metrics_snapshot() {
    let snap = MetricsSnapshot {
        timings: vec![stats("query", &[500, 1_500, 90_000]), stats("idle", &[])],
        gauges: vec![("surrogate_max_rel_err", 0.0125), ("unset", f64::NAN)],
        counters: vec![("newton_solves", 0), ("surrogate_queries", 42)],
    };
    assert_eq!(snap.to_json(), METRICS);
}

const METRICS: &str = r#"{"timings": {"query": {"calls": 3, "p50_ns": 1535, "p90_ns": 90000, "p99_ns": 90000, "min_ns": 500, "max_ns": 90000, "mean_ns": 30666, "total_ns": 92000}, "idle": {"calls": 0, "p50_ns": 0, "p90_ns": 0, "p99_ns": 0, "min_ns": 0, "max_ns": 0, "mean_ns": 0, "total_ns": 0}}, "gauges": {"surrogate_max_rel_err": 0.0125, "unset": null}, "counters": {"surrogate_queries": 42}}"#;

/// A one-case synthetic plan (fast, no solver work).
fn synthetic_plan(name: &str, ids: &[&str]) -> SweepPlan {
    let mut plan = SweepPlan {
        name: name.to_string(),
        cases: Vec::new(),
    };
    for id in ids {
        plan.cases.push(CaseSpec::new(
            *id,
            GasSpec::IdealAir,
            LevelSpec::Synthetic {
                work_ms: 0.0,
                outcome: "ok".to_string(),
            },
            flow(f64::NAN),
        ));
    }
    plan
}

/// One raw control connection to a daemon whose data directory is masked
/// as `<DATA>` in every response.
struct Conn {
    stream: UnixStream,
    reader: BufReader<UnixStream>,
    data: String,
}

impl Conn {
    /// Send one raw request line, return the response line.
    fn ask(&mut self, line: &str) -> String {
        self.stream.write_all(line.as_bytes()).unwrap();
        self.stream.write_all(b"\n").unwrap();
        let mut resp = String::new();
        self.reader.read_line(&mut resp).unwrap();
        assert!(resp.ends_with('\n'), "unterminated response {resp:?}");
        resp.pop();
        resp.replace(&self.data, "<DATA>")
    }

    /// Poll `status` until the job leaves `running`; return the final line.
    fn settle(&mut self, job: &str) -> String {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let resp = self.ask(&format!("{{\"op\": \"status\", \"job\": \"{job}\"}}"));
            if !resp.contains("\"phase\": \"running\"") {
                return resp;
            }
            assert!(Instant::now() < deadline, "job {job} never finished");
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

#[test]
fn daemon_control_responses() {
    let root = fresh_dir("daemon");
    let data = root.join("data").to_str().unwrap().to_string();
    let socket = root.join("d.sock").to_str().unwrap().to_string();
    let daemon = Daemon::start(ServiceConfig {
        socket_path: socket.clone(),
        data_dir: data.clone(),
        accept_threads: 1,
        workers: 1,
        ..ServiceConfig::default()
    })
    .expect("daemon starts");
    let stream = UnixStream::connect(&socket).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    let mut c = Conn {
        stream,
        reader,
        data: data.clone(),
    };

    let pid = std::process::id().to_string();
    assert_eq!(
        c.ask(r#"{"op": "ping"}"#).replace(&pid, "<PID>"),
        r#"{"ok": true, "pong": true, "pid": <PID>, "jobs": 0}"#
    );
    assert_eq!(
        c.ask(r#"{"op": "nope \"x\""}"#),
        r#"{"ok": false, "error": "unknown op 'nope \"x\"'"}"#
    );
    assert_eq!(
        c.ask("not json"),
        r#"{"ok": false, "error": "request JSON: JSON parse error at byte 0: expected 'null'"}"#
    );
    assert_eq!(
        c.ask(r#"{"op": "metrics", "format": "xml"}"#),
        r#"{"ok": false, "error": "unknown metrics format 'xml' (expected 'prometheus' or 'json')"}"#
    );

    let plan = synthetic_plan("golden \"plan\"", &["only"])
        .to_json()
        .replace('\n', " ");
    assert_eq!(
        c.ask(&format!(
            "{{\"op\": \"submit\", \"workers\": 1, \"plan\": {plan}}}"
        )),
        r#"{"ok": true, "job": "job-0001", "planned": 1}"#
    );
    assert_eq!(c.settle("job-0001"), STATUS_DONE);
    let store = std::fs::read_to_string(format!("{data}/job-0001.store.jsonl")).unwrap();
    assert_eq!(
        c.ask(r#"{"op": "results", "job": "job-0001"}"#),
        format!(
            "{{\"ok\": true, \"job\": \"job-0001\", \"records\": [{}]}}",
            store.trim_end()
        )
    );
    assert_eq!(c.ask(r#"{"op": "cancel", "job": "job-0001"}"#), STATUS_DONE);
    assert_eq!(
        c.ask(r#"{"op": "status", "job": "job-9"}"#),
        r#"{"ok": false, "error": "unknown job 'job-9'"}"#
    );

    assert_eq!(
        c.ask(r#"{"op": "resume", "job": "job-0001"}"#),
        STATUS_RESUMED
    );
    c.settle("job-0001");
    let metrics = c.ask(r#"{"op": "metrics", "format": "json"}"#);
    assert!(
        metrics.starts_with(r#"{"ok": true, "format": "json", "metrics": {"timings": {"#),
        "{metrics}"
    );
    assert!(metrics.ends_with("}}}"), "{metrics}");
    let prom = c.ask(r#"{"op": "metrics"}"#);
    assert!(
        prom.starts_with(
            r##"{"ok": true, "format": "prometheus", "metrics": "# TYPE aerothermo_"##
        ),
        "{prom}"
    );
    assert_eq!(
        c.ask(r#"{"op": "shutdown"}"#),
        r#"{"ok": true, "stopping": true}"#
    );
    daemon.run_until_shutdown();
    std::fs::remove_dir_all(&root).ok();
}

const STATUS_DONE: &str = r#"{"ok": true, "job": "job-0001", "plan": "golden \"plan\"", "phase": "completed", "done": 1, "total": 1, "error": null, "store": "<DATA>/job-0001.store.jsonl", "events": "<DATA>/job-0001.events.jsonl"}"#;

const STATUS_RESUMED: &str = r#"{"ok": true, "job": "job-0001", "plan": "golden \"plan\"", "phase": "running", "done": 1, "total": 1, "error": null, "store": "<DATA>/job-0001.store.jsonl", "events": "<DATA>/job-0001.events.jsonl"}"#;

#[test]
fn client_control_requests() {
    let root = fresh_dir("client");
    let socket = root.join("fake.sock").to_str().unwrap().to_string();
    let listener = UnixListener::bind(&socket).unwrap();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut lines = Vec::new();
        for line in BufReader::new(stream).lines() {
            let line = line.unwrap();
            writer
                .write_all(b"{\"ok\": true, \"job\": \"j\"}\n")
                .unwrap();
            let last = line.contains("\"shutdown\"");
            lines.push(line);
            if last {
                break;
            }
        }
        lines
    });
    let mut c = Client::connect(&socket).unwrap();
    let plan = synthetic_plan("p", &["a"]);
    c.ping().unwrap();
    c.submit(&plan, Some(2), Some(1)).unwrap();
    c.submit(&plan, None, None).unwrap();
    c.status("job-\"x").unwrap();
    c.results("job-1").unwrap();
    c.cancel("job-1").unwrap();
    c.resume("job-1", Some(2)).unwrap();
    c.resume("job-1", None).unwrap();
    c.metrics("json").unwrap();
    c.call("{\"op\": \"raw\"}").unwrap();
    c.shutdown().unwrap();
    let lines = server.join().unwrap();
    std::fs::remove_dir_all(&root).ok();
    let plan_line = plan.to_json().replace('\n', " ");
    let want: Vec<String> = CLIENT_REQUESTS
        .lines()
        .map(|l| l.replace("<PLAN>", &plan_line))
        .collect();
    assert_eq!(lines, want);
    // Every request is a single well-formed JSON line.
    for line in &lines {
        assert!(matches!(json::parse(line), Ok(Value::Object(_))), "{line}");
    }
}

const CLIENT_REQUESTS: &str = r#"{"op": "ping"}
{"op": "submit", "workers": 2, "halt_after": 1, "plan": <PLAN>}
{"op": "submit", "plan": <PLAN>}
{"op": "status", "job": "job-\"x"}
{"op": "results", "job": "job-1"}
{"op": "cancel", "job": "job-1"}
{"op": "resume", "job": "job-1", "workers": 2}
{"op": "resume", "job": "job-1"}
{"op": "metrics", "format": "json"}
{"op": "raw"}
{"op": "shutdown"}"#;
