//! Gate on fig04's halt path: launch `fig04_shock_shape` as a user does
//! with `--halt-after`, and check that it exits with the halt code and
//! still leaves a parseable run report and span trace behind.

use aerothermo_bench::json::{self, Value};
use std::process::Command;

#[test]
fn fig04_halt_writes_the_report_and_the_trace() {
    let dir = std::env::temp_dir().join(format!("fig04-halt-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create the run directory");
    let out = Command::new(env!("CARGO_BIN_EXE_fig04_shock_shape"))
        .args([
            "--halt-after=1",
            "--report=fig04-halted.json",
            "--trace=fig04-trace.json",
        ])
        .current_dir(&dir)
        .output()
        .expect("launch fig04_shock_shape");
    let parse = |name: &str| -> Value {
        let path = dir.join(name);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    assert_eq!(
        out.status.code(),
        Some(3),
        "expected halt exit code 3: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = parse("fig04-halted.json");
    let trace = parse("fig04-trace.json");
    std::fs::remove_dir_all(&dir).ok();

    let units = report
        .get("metrics")
        .and_then(|m| m.get("euler_reacting.run_units"))
        .and_then(Value::as_f64);
    assert_eq!(
        units,
        Some(1.0),
        "the halted case's outcome is not reported"
    );
    assert!(
        trace
            .get("traceEvents")
            .and_then(Value::as_array)
            .is_some_and(|events| !events.is_empty()),
        "the trace holds no span events"
    );
}
