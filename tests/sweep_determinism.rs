//! Sweep-engine determinism: per-case results must be bitwise independent
//! of the worker count and of scheduling order, and a killed sweep must
//! resume from its result store without re-running completed cases.

use aerothermo_sweep::spec::{FlowSpec, GasSpec, LevelSpec};
use aerothermo_sweep::store::load_records;
use aerothermo_sweep::{
    normalized_fingerprint, run_sweep, CaseStatus, ScheduleOrder, SweepOptions, SweepPlan,
    SweepReport,
};

/// 12 physics cases mixing instant correlations with real VSL solves on
/// two gas models — enough spread that a scheduling-dependent bug (shared
/// warm cache, counter bleed, work stealing) has somewhere to show up.
fn twelve_case_plan() -> SweepPlan {
    let flows: Vec<FlowSpec> = [(3e-5, 9_000.0), (1e-4, 7_000.0), (3e-4, 5_500.0)]
        .iter()
        .map(|&(rho, v)| FlowSpec::new(rho, v, 220.0, f64::NAN, 0.5, 1500.0))
        .collect();
    let plan = SweepPlan::cartesian(
        "determinism_12",
        &[GasSpec::Air9, GasSpec::Titan { ch4: 0.05 }],
        &[
            LevelSpec::Correlation { k_sg: 1.74e-4 },
            LevelSpec::Vsl {
                n_points: 20,
                radiating: false,
            },
        ],
        &flows,
    );
    assert_eq!(plan.cases.len(), 12);
    plan.validate().expect("valid plan");
    plan
}

fn run_with(workers: usize, order: ScheduleOrder) -> SweepReport {
    run_sweep(
        &twelve_case_plan(),
        &SweepOptions {
            workers,
            order,
            ..SweepOptions::default()
        },
    )
    .expect("sweep runs")
}

/// Everything scheduling-independent about an outcome: status, retries,
/// bitwise metrics, and the thread-attributed kernel counters. Wall time
/// and worker index are the only legitimately nondeterministic fields —
/// exactly what [`normalized_fingerprint`] captures (it is the shared
/// helper the service determinism drill compares stores with, so report
/// and store comparisons use one definition of "identical").
fn fingerprint(r: &SweepReport) -> Vec<(String, String)> {
    normalized_fingerprint(&r.outcomes)
}

#[test]
fn worker_count_does_not_change_results() {
    let serial = run_with(1, ScheduleOrder::LongestFirst);
    let pooled = run_with(4, ScheduleOrder::LongestFirst);
    assert!(serial.all_green(), "12-case plan must complete serially");
    assert!(
        pooled.all_green(),
        "12-case plan must complete on 4 workers"
    );
    assert_eq!(
        fingerprint(&serial),
        fingerprint(&pooled),
        "per-case results must be bitwise identical across worker counts"
    );
    // Every case must actually have produced a heating number.
    for o in &serial.outcomes {
        let q = o
            .metric("q_conv_w_m2")
            .expect("each level reports q_conv_w_m2");
        assert!(q.is_finite() && q > 0.0, "{}: q = {q}", o.id);
    }
}

#[test]
fn schedule_order_does_not_change_results() {
    let longest = run_with(3, ScheduleOrder::LongestFirst);
    let plan_order = run_with(3, ScheduleOrder::PlanOrder);
    assert_eq!(fingerprint(&longest), fingerprint(&plan_order));
}

#[test]
fn store_is_order_normalized_across_worker_counts() {
    let dir = std::env::temp_dir().join(format!("sweep-det-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut stores = Vec::new();
    for workers in [1, 4] {
        let path = dir.join(format!("w{workers}.jsonl"));
        let path = path.to_str().unwrap().to_string();
        let report = run_sweep(
            &twelve_case_plan(),
            &SweepOptions {
                workers,
                store_path: Some(path.clone()),
                ..SweepOptions::default()
            },
        )
        .expect("sweep runs");
        assert!(report.all_green());
        // The JSONL lands in completion order (nondeterministic with 4
        // workers); normalized by case ID the record set must be identical.
        let records = load_records(&path).expect("store parses");
        assert_eq!(records.len(), 12);
        stores.push(normalized_fingerprint(&records));
    }
    assert_eq!(stores[0], stores[1]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn halted_sweep_resumes_without_rerunning_completed_cases() {
    let dir = std::env::temp_dir().join(format!("sweep-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("resume.jsonl").to_str().unwrap().to_string();

    // First run: killed after 4 case records (workers = 1 makes the cut
    // deterministic).
    let first = run_sweep(
        &twelve_case_plan(),
        &SweepOptions {
            workers: 1,
            store_path: Some(store.clone()),
            halt_after_cases: Some(4),
            ..SweepOptions::default()
        },
    )
    .expect("halted sweep still reports");
    assert!(first.halted);
    assert!(!first.all_green(), "a halted sweep is not green");
    assert_eq!(first.outcomes.len(), 4);
    assert_eq!(load_records(&store).unwrap().len(), 4);

    // Resume: the 4 completed cases come back as Resumed records (not
    // re-executed, not re-written), the other 8 run now.
    let second = run_sweep(
        &twelve_case_plan(),
        &SweepOptions {
            workers: 2,
            store_path: Some(store.clone()),
            resume: true,
            ..SweepOptions::default()
        },
    )
    .expect("resumed sweep");
    assert!(second.all_green(), "resumed sweep completes the plan");
    assert_eq!(second.outcomes.len(), 12);
    let resumed = second
        .outcomes
        .iter()
        .filter(|o| o.status == CaseStatus::Resumed)
        .count();
    assert_eq!(resumed, 4, "exactly the killed run's cases are resumed");

    // The store holds each case exactly once: 4 from the first run + 8
    // appended by the resume.
    let records = load_records(&store).unwrap();
    assert_eq!(records.len(), 12);
    let mut ids: Vec<&str> = records.iter().map(|o| o.id.as_str()).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(
        ids.len(),
        12,
        "no case recorded twice across the kill/resume"
    );

    // Resumed results carry the first run's metrics bitwise.
    for o in second
        .outcomes
        .iter()
        .filter(|o| o.status == CaseStatus::Resumed)
    {
        let original = first.outcome(&o.id).expect("resumed case ran first");
        let a: Vec<(String, u64)> = o
            .metrics
            .iter()
            .map(|(k, v)| (k.clone(), v.to_bits()))
            .collect();
        let b: Vec<(String, u64)> = original
            .metrics
            .iter()
            .map(|(k, v)| (k.clone(), v.to_bits()))
            .collect();
        assert_eq!(a, b, "{}", o.id);
    }
    std::fs::remove_dir_all(&dir).ok();
}
