//! Gate on the fig07 run report: launch the `fig07_shock_relaxation` binary
//! as a user does, with `--report`, and check the step counts it writes.
//! Counts do not move with host load, so this catches a relaxation march
//! that slides back to thousands of stiff steps.

use aerothermo_bench::json::{self, Value};
use std::process::Command;

fn counter(report: &Value, name: &str) -> f64 {
    report
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("report has no counter {name}"))
}

#[test]
fn fig07_report_is_green_and_the_march_takes_few_steps() {
    let dir = std::env::temp_dir().join(format!("fig07-report-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the report directory");
    let path = dir.join("fig07-report.json");
    let out = Command::new(env!("CARGO_BIN_EXE_fig07_shock_relaxation"))
        .arg(format!("--report={}", path.display()))
        .current_dir(&dir)
        .output()
        .expect("launch fig07_shock_relaxation");
    assert!(
        out.status.success(),
        "fig07 exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.lines().any(|l| l.starts_with("PASS:")),
        "fig07 printed no PASS line:\n{stdout}"
    );
    let text = std::fs::read_to_string(&path).expect("fig07 wrote its report");
    std::fs::remove_dir_all(&dir).ok();
    let report = json::parse(&text).expect("report is JSON");
    assert_eq!(
        report.get("all_green"),
        Some(&Value::Bool(true)),
        "run report is not all green"
    );

    // The third-order march reaches 50 mm in about 500 attempted steps;
    // the first-order one it replaced took 5 793.
    let attempts = counter(&report, "ode_steps_accepted") + counter(&report, "ode_steps_rejected");
    assert!(
        attempts > 0.0 && attempts <= 1_000.0,
        "{attempts} attempted stiff steps"
    );
    let jacobians = counter(&report, "ode_jacobians");
    assert!(
        jacobians <= attempts,
        "{jacobians} Jacobians for {attempts} attempted steps"
    );
}
