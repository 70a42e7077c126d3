//! Gate on the fig06 run report: launch `fig06_windward_heating` as a user
//! does, once with in-situ audits and a span trace, once with a NaN
//! injected mid-march, and once halted mid-march and resumed from its
//! restart file, and check the reports, the trace and the flight-recorder
//! black box they leave.

use aerothermo_bench::json::{self, Value};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fig06-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create the run directory");
    dir
}

fn launch(dir: &Path, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_fig06_windward_heating"))
        .arg("--csv")
        .args(args)
        .current_dir(dir)
        .output()
        .expect("launch fig06_windward_heating")
}

fn fig06(dir: &Path, args: &[&str]) {
    let out = launch(dir, args);
    assert!(
        out.status.success(),
        "fig06 {args:?} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

fn read_json(path: &Path) -> Value {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn num(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

#[test]
fn fig06_audits_have_no_hard_failures_and_the_trace_is_wired() {
    let dir = fresh_dir("audit");
    fig06(
        &dir,
        &[
            "--audit",
            "--report=fig06-report.json",
            "--trace=fig06-trace.json",
        ],
    );
    let report = read_json(&dir.join("fig06-report.json"));
    let trace = read_json(&dir.join("fig06-trace.json"));
    std::fs::remove_dir_all(&dir).ok();

    let audits = report
        .get("audits")
        .and_then(Value::as_array)
        .expect("report has audits");
    assert!(
        !audits.is_empty(),
        "report carries no audit findings -- the audit gate would be vacuous"
    );
    let summary = report
        .get("audit_summary")
        .expect("report has audit_summary");
    assert_eq!(
        num(summary, "fail"),
        Some(0.0),
        "hard audit failures: {audits:?}"
    );
    assert_eq!(
        report.get("all_green"),
        Some(&Value::Bool(true)),
        "run report is not all green"
    );
    let events = trace
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("trace has traceEvents");
    assert!(
        !events.is_empty(),
        "span trace is empty -- the profiler is not wired"
    );
    // Field checks for every timing entry live in tests/observability.rs.
    let eq = report
        .get("timings")
        .and_then(|t| t.get("equilibrium_state"))
        .expect("no equilibrium_state timing -- spans are not wired");
    for k in ["calls", "p50_ns", "p90_ns", "p99_ns", "total_ns"] {
        assert!(eq.get(k).is_some(), "timing equilibrium_state missing {k}");
    }
    // Solver phases are spans: the march's property table and its
    // controlled run reach `timings`, and no separate phase object exists.
    for label in ["vsl_property_table", "runctl"] {
        let calls = report
            .get("timings")
            .and_then(|t| t.get(label))
            .and_then(|e| num(e, "calls"));
        assert!(
            calls.is_some_and(|c| c >= 1.0),
            "no {label} span timing in the fig06 report"
        );
    }
    assert!(
        report.get("phases").is_none(),
        "the report still carries a phases object"
    );
}

#[test]
fn fig06_nan_injection_recovers_by_rollback_and_leaves_a_black_box() {
    let dir = fresh_dir("inject");
    fig06(
        &dir,
        &[
            "--checkpoint=4",
            "--inject-nan=5",
            "--report=fig06-injected.json",
        ],
    );
    let report = read_json(&dir.join("fig06-injected.json"));
    let blackbox = read_json(&dir.join("fig06_windward_heating-blackbox.json"));
    std::fs::remove_dir_all(&dir).ok();

    let m = report.get("metrics").expect("report has metrics");
    assert_eq!(
        report.get("all_green"),
        Some(&Value::Bool(true)),
        "injected run is not all green"
    );
    assert!(
        num(m, "vsl_march.retries").is_some_and(|r| r >= 1.0),
        "injected NaN did not register a retry"
    );
    assert!(
        m.get("vsl_march.final_cfl").is_some(),
        "final CFL missing from the report"
    );
    let scale = num(m, "vsl_march.final_cfl_scale");
    assert!(
        scale.is_some_and(|s| s < 1.0),
        "CFL was not backed off after rollback: {scale:?}"
    );
    let rollbacks = report
        .get("counters")
        .and_then(|c| num(c, "run_rollbacks"))
        .unwrap_or(0.0);
    assert!(rollbacks >= 1.0, "run_rollbacks counter not incremented");

    // The injection leaves a black box even though the run recovered:
    // trigger nan_injection, with an "inject" step record.
    let text = |key: &str| blackbox.get(key).and_then(Value::as_str);
    assert_eq!(text("schema"), Some("aerothermo-blackbox-v1"));
    assert_eq!(text("trigger"), Some("nan_injection"));
    let records = blackbox
        .get("records")
        .and_then(Value::as_array)
        .expect("blackbox has records");
    assert!(!records.is_empty(), "blackbox carries no step records");
    assert!(
        records
            .iter()
            .any(|r| r.get("event").and_then(Value::as_str) == Some("inject")),
        "blackbox records do not name the injection step"
    );
}

#[test]
fn fig06_resume_from_the_restart_file_reproduces_the_uninterrupted_run() {
    let dir = fresh_dir("resume");
    fig06(&dir, &["--report=fig06-reference.json"]);
    // --halt-after stops the controller deterministically after unit 12
    // (exit code 3), leaving the cadence-4 restart file behind.
    let halted = launch(
        &dir,
        &[
            "--checkpoint=4",
            "--halt-after=12",
            "--report=fig06-halted.json",
        ],
    );
    assert_eq!(
        halted.status.code(),
        Some(3),
        "expected halt exit code 3: {}",
        String::from_utf8_lossy(&halted.stderr)
    );
    let restart = "fig06_windward_heating-restart.atrc";
    let len = std::fs::metadata(dir.join(restart)).map_or(0, |m| m.len());
    assert!(len > 0, "halted run left no restart file");
    fig06(
        &dir,
        &[
            &format!("--restart={restart}"),
            "--report=fig06-resumed.json",
        ],
    );
    let reference = read_json(&dir.join("fig06-reference.json"));
    let resumed = read_json(&dir.join("fig06-resumed.json"));
    std::fs::remove_dir_all(&dir).ok();

    // The resumed report must reproduce the uninterrupted run exactly.
    // Excluded: *.run_units and the runctl_* histories (the resumed
    // controller only ran the post-checkpoint units) and timings.
    let verdicts = |r: &Value| -> Vec<(String, Option<bool>)> {
        let mut v: Vec<_> = r
            .get("checks")
            .and_then(Value::as_array)
            .expect("report has checks")
            .iter()
            .map(|c| {
                let name = c.get("name").and_then(Value::as_str).unwrap_or_default();
                let passed = match c.get("passed") {
                    Some(Value::Bool(b)) => Some(*b),
                    _ => None,
                };
                (name.to_string(), passed)
            })
            .collect();
        v.sort();
        v
    };
    assert_eq!(
        verdicts(&reference),
        verdicts(&resumed),
        "check verdicts differ"
    );
    assert_eq!(
        resumed.get("all_green"),
        Some(&Value::Bool(true)),
        "resumed run is not all green"
    );

    let q_conv = |r: &Value| -> Vec<Option<u64>> {
        r.get("histories")
            .and_then(|h| h.get("vsl_march.station_q_conv"))
            .and_then(Value::as_array)
            .expect("report has the station_q_conv history")
            .iter()
            .map(|q| q.as_f64().map(f64::to_bits))
            .collect()
    };
    let (q_ref, q_res) = (q_conv(&reference), q_conv(&resumed));
    assert!(
        !q_ref.is_empty() && q_ref == q_res,
        "station_q_conv differs after resume: {} vs {} entries",
        q_ref.len(),
        q_res.len()
    );

    let metrics = |r: &Value| {
        let mut m = r
            .get("metrics")
            .and_then(Value::as_object)
            .expect("report has metrics")
            .clone();
        m.retain(|k, _| !k.ends_with(".run_units"));
        m
    };
    let (m_ref, m_res) = (metrics(&reference), metrics(&resumed));
    let differ: Vec<&String> = m_ref
        .keys()
        .chain(m_res.keys())
        .filter(|k| m_ref.get(*k) != m_res.get(*k))
        .collect();
    assert!(differ.is_empty(), "metrics differ after resume: {differ:?}");
}
