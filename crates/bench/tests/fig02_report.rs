//! Gate on the fig02 run report: launch the `fig02_titan_heating` binary as
//! a user does, with `--report`, and check the JSON it writes.

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
fn fig02_report_is_green_and_equilibrium_work_is_bounded() {
    let dir = std::env::temp_dir().join(format!("fig02-report-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the report directory");
    let path = dir.join("fig02-report.json");
    let out = Command::new(env!("CARGO_BIN_EXE_fig02_titan_heating"))
        .arg("--csv")
        .arg(format!("--report={}", path.display()))
        .current_dir(&dir)
        .output()
        .expect("launch fig02_titan_heating");
    assert!(
        out.status.success(),
        "fig02 exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("fig02 wrote its report");
    std::fs::remove_dir_all(&dir).ok();
    let report = json::parse(&text).expect("report is JSON");

    let checks = report
        .get("checks")
        .and_then(Value::as_array)
        .expect("report has checks");
    assert!(
        !checks.is_empty(),
        "report carries no checks -- the gate would be vacuous"
    );
    for check in checks {
        assert_eq!(
            check.get("passed"),
            Some(&Value::Bool(true)),
            "check failed: {check:?}"
        );
    }
    assert_eq!(
        report.get("all_green"),
        Some(&Value::Bool(true)),
        "run report is not all green"
    );
    assert!(
        counter(&report, "newton_solves") > 0.0,
        "no Newton solves recorded -- telemetry is not wired"
    );

    // Equilibrium work stays proportional to the states asked for: a
    // warm or cold solve takes a few Newton iterations, so a heavy tail
    // here means a fallback path is burning solves again.
    let states = counter(&report, "equilibrium_states");
    let iterations = counter(&report, "newton_iterations");
    assert!(states > 0.0, "fig02 evaluated no equilibrium state");
    assert!(
        iterations <= 10.0 * states,
        "{iterations} Newton iterations for {states} equilibrium states"
    );
    // The only solves fig02 may lose are inversion probes at the 60 K
    // bracket floor, below the range where Titan gas converges.
    assert_eq!(
        counter(&report, "equilibrium_failures"),
        counter(&report, "equilibrium_floor_failures"),
        "an equilibrium state above the inversion floor failed"
    );

    // Every spectrum fig02 computes is one a solution reads: the radiating
    // anchor's property table (96 temperatures × 240 wavelengths) and its
    // tangent slab (39 layers × 400 wavelengths). The non-radiating VSL
    // cases compute none.
    let anchor_points = report
        .get("metrics")
        .and_then(|m| m.get("vsl_anchor.spectrum_points"))
        .and_then(Value::as_f64)
        .expect("report has the anchor's spectrum_points");
    assert_eq!(anchor_points, f64::from(96 * 240 + 39 * 400));
    assert_eq!(
        counter(&report, "spectrum_points"),
        anchor_points,
        "fig02 computed spectra outside its radiating anchor"
    );
}
