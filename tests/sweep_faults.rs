//! Sweep-engine fault isolation: a divergent case exhausts its retry
//! budget and degrades to a `Failed` record, panics stay confined to
//! their case, and only `--strict` semantics turn damage into a non-zero
//! exit code.

use aerothermo_sweep::report::STRICT_EXIT_CODE;
use aerothermo_sweep::spec::{CaseSpec, FlowSpec, GasSpec, LevelSpec};
use aerothermo_sweep::store::load_records;
use aerothermo_sweep::{run_sweep, CaseStatus, SweepOptions, SweepPlan};

fn flow() -> FlowSpec {
    FlowSpec::new(1e-4, 7_000.0, 220.0, f64::NAN, 0.5, 1500.0)
}

fn correlation(id: &str) -> CaseSpec {
    CaseSpec::new(
        id,
        GasSpec::Air9,
        LevelSpec::Correlation { k_sg: 1.74e-4 },
        flow(),
    )
}

#[test]
fn injected_divergence_degrades_to_a_failed_record() {
    let mut plan = SweepPlan::new("fault_drill");
    plan.push(correlation("good-a"));
    let mut bad = correlation("injected");
    bad.inject_fault = true;
    bad.max_retries = 2;
    plan.push(bad).push(correlation("good-b"));

    let report = run_sweep(&plan, &SweepOptions::default()).expect("sweep survives the fault");

    // The healthy cases are untouched by their neighbor's failure.
    for id in ["good-a", "good-b"] {
        let o = report.outcome(id).expect("healthy case recorded");
        assert_eq!(o.status, CaseStatus::Completed);
        assert!(o.metric("q_conv_w_m2").unwrap() > 0.0);
    }

    // The injected case burned its whole retry budget and recorded the
    // typed solver error.
    let failed = report.outcome("injected").expect("failed case recorded");
    assert_eq!(failed.status, CaseStatus::Failed);
    assert_eq!(failed.retries, 2, "retry budget exhausted before failing");
    let err = failed.error.as_deref().expect("failure carries its error");
    assert!(
        err.contains("injected"),
        "error names the injected fault: {err}"
    );

    // Aggregate: 1 failure flagged, exit 0 by default, strict exit code
    // under --strict.
    let counts = report.counts();
    assert_eq!(counts.completed, 2);
    assert_eq!(counts.failed, 1);
    assert!(!report.all_green());
    assert_eq!(report.exit_code(false), 0, "failures degrade, not abort");
    assert_eq!(report.exit_code(true), STRICT_EXIT_CODE);

    // The failure surfaces in the report JSON's audit section so report
    // consumers see it without scanning per-case metrics.
    let json = report.to_json();
    assert!(json.contains("\"audit\": \"case_outcome\""));
    assert!(json.contains("\"all_green\": false"));
}

#[test]
fn panicking_case_is_isolated_from_the_pool() {
    let mut plan = SweepPlan::new("panic_drill");
    plan.push(correlation("before"));
    plan.push(CaseSpec::new(
        "boom",
        GasSpec::IdealAir,
        LevelSpec::Synthetic {
            work_ms: 1.0,
            outcome: "panic".to_string(),
        },
        flow(),
    ))
    .push(correlation("after"));

    let report = run_sweep(
        &plan,
        &SweepOptions {
            workers: 2,
            ..SweepOptions::default()
        },
    )
    .expect("a panicking case must not take down the sweep");

    let boom = report.outcome("boom").unwrap();
    assert_eq!(boom.status, CaseStatus::Failed);
    assert!(
        boom.error.as_deref().unwrap().contains("panic"),
        "panic payload preserved: {:?}",
        boom.error
    );
    assert_eq!(
        report.outcome("before").unwrap().status,
        CaseStatus::Completed
    );
    assert_eq!(
        report.outcome("after").unwrap().status,
        CaseStatus::Completed
    );
}

#[test]
fn every_failure_mode_lands_in_one_report() {
    // ok + recoverable-fail + panic in one plan: the report tallies each
    // terminal status without any case contaminating another.
    let mut plan = SweepPlan::new("mixed_drill");
    for (id, outcome) in [("s-ok", "ok"), ("s-fail", "fail"), ("s-panic", "panic")] {
        let mut c = CaseSpec::new(
            id,
            GasSpec::IdealAir,
            LevelSpec::Synthetic {
                work_ms: 1.0,
                outcome: outcome.to_string(),
            },
            flow(),
        );
        c.max_retries = 1;
        plan.push(c);
    }
    let report = run_sweep(
        &SweepPlan {
            name: plan.name.clone(),
            cases: plan.cases.clone(),
        },
        &SweepOptions {
            workers: 3,
            ..SweepOptions::default()
        },
    )
    .expect("mixed sweep completes");
    let counts = report.counts();
    assert_eq!(counts.completed, 1);
    assert_eq!(counts.failed, 2);
    assert_eq!(report.outcome("s-fail").unwrap().retries, 1);
    assert_eq!(report.exit_code(true), STRICT_EXIT_CODE);
}

#[test]
fn a_vsl_case_failing_without_a_retry_records_zero_retries() {
    // A subsonic freestream fails in the VSL preamble (no shock to stand
    // off), which is not retried: the store record and the report's
    // `total_retries` must say 0, not the case's budget of 3.
    let mut plan = SweepPlan::new("vsl_preamble_failure");
    plan.push(CaseSpec::new(
        "vsl-subsonic",
        GasSpec::Air9,
        LevelSpec::Vsl {
            n_points: 24,
            radiating: false,
        },
        FlowSpec::new(1e-4, 200.0, 250.0, f64::NAN, 0.5, 1000.0),
    ));
    assert_eq!(plan.cases[0].max_retries, 3);
    let store = std::env::temp_dir().join(format!("vsl-preamble-{}.jsonl", std::process::id()));
    let store = store.to_string_lossy().into_owned();
    std::fs::remove_file(&store).ok();
    let report = run_sweep(
        &plan,
        &SweepOptions {
            store_path: Some(store.clone()),
            ..SweepOptions::default()
        },
    )
    .expect("sweep records the failure");
    let records = load_records(&store).expect("store parses");
    std::fs::remove_file(&store).ok();
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].status, CaseStatus::Failed);
    assert!(
        records[0].error.as_deref().unwrap().contains("shock"),
        "{:?}",
        records[0].error
    );
    assert_eq!(records[0].retries, 0);
    let json = report.to_json();
    assert!(json.contains("\"total_retries\": 0,"), "{json}");
}
