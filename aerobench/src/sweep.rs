//! sweep-envelope: the seeded envelope plan run by the `sweep` driver as a
//! subprocess at two workers, with its store, event stream and report.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::Command;
use std::time::Instant;

use aerothermo_gas::eq_table::air9_table;
use aerothermo_gas::reset_thread_warm_cache;
use aerothermo_numerics::telemetry::TelemetryScope;
use aerothermo_sweep::runner::run_case;
use aerothermo_sweep::store::JsonlWriter;
use aerothermo_sweep::{
    load_records, normalized_fingerprint, CaseOutcome, CaseStatus, GasSpec, LevelSpec, SweepPlan,
};
use rayon::ThreadPoolBuilder;

use crate::gen::{case_kind, envelope_plan, minimal_plan, CASE_KINDS};
use crate::proc::{bin, run_quiet, run_watched, RunDir};
use crate::spans::{self_times, Layers, Recorder};
use crate::stats::{median, ratio};
use crate::{report_counters, Outcome};

/// Launches of the minimal plan timed for `setup_s`.
const SETUPS: usize = 9;
const WORKERS: usize = 2;

fn sweep_args(plan: &str, tag: &str) -> [String; 5] {
    [
        format!("--plan={plan}"),
        format!("--workers={WORKERS}"),
        format!("--out={tag}.store.jsonl"),
        format!("--events={tag}.events.jsonl"),
        format!("--report={tag}.report.json"),
    ]
}

/// The problems with one sweep's store, if any: every planned case must
/// be recorded `completed` with finite metrics.
fn store_problems(plan: &SweepPlan, records: &[CaseOutcome]) -> Vec<String> {
    let mut problems = Vec::new();
    if records.len() != plan.cases.len() {
        problems.push(format!(
            "{} records for {} cases",
            records.len(),
            plan.cases.len()
        ));
    }
    for r in records {
        if r.status != CaseStatus::Completed {
            problems.push(format!("case {} is {}", r.id, r.status.name()));
        } else if let Some((name, _)) = r.metrics.iter().find(|(_, v)| !v.is_finite()) {
            problems.push(format!("case {} metric {name} is not finite", r.id));
        }
    }
    problems
}

/// Replay the plan serially in-process, each case on a one-thread pool
/// after a warm-cache reset exactly as the sweep pool pins it, recording
/// it through the same store writer. Returns the spans, the replay wall
/// time and the replay store path.
fn replay(dir: &RunDir, plan: &SweepPlan) -> Result<(Recorder, f64, String), String> {
    let store = dir.file("replay.store.jsonl");
    let mut writer = JsonlWriter::append(&store).map_err(|e| e.to_string())?;
    let pool = ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .map_err(|_| "building the one-thread pool".to_string())?;
    let mut rec = Recorder::new();
    let mut table_built = false;
    let t_loop = Instant::now();
    for (i, case) in plan.cases.iter().enumerate() {
        let id = i as u64;
        let builds_table = !table_built
            && case.gas == GasSpec::Air9
            && !matches!(
                case.level,
                LevelSpec::Correlation { .. } | LevelSpec::Vsl { .. }
            );
        table_built |= builds_table;
        let (res, counters, t0, t1) = pool.install(|| {
            // run_case builds a VSL case's gas itself; this extra build
            // times that step on its own.
            if matches!(case.level, LevelSpec::Vsl { .. }) {
                let name = match case.gas {
                    GasSpec::Titan { .. } => "gas.titan_build",
                    _ => "gas.air9_build",
                };
                let t = Instant::now();
                std::hint::black_box(case.gas.equilibrium());
                rec.record(name, "", id, t, Instant::now());
            }
            reset_thread_warm_cache();
            let scope = TelemetryScope::begin();
            // The first air9 CFD case builds the process-wide air9 table
            // inside its scope, as in the pool; time that step apart.
            if builds_table {
                let t = Instant::now();
                std::hint::black_box(air9_table());
                rec.record("gas.air9_table", "", id, t, Instant::now());
            }
            let t0 = Instant::now();
            let res = catch_unwind(AssertUnwindSafe(|| run_case(case)));
            let t1 = Instant::now();
            let counters: Vec<(&'static str, u64)> = scope.thread_delta().iter().collect();
            (res, counters, t0, t1)
        });
        let wall_secs = rec.record(case_kind(case), "", id, t0, t1) * 1e-6;
        let mut outcome = CaseOutcome {
            id: case.id.clone(),
            status: CaseStatus::Completed,
            wall_secs,
            retries: 0,
            worker: 0,
            note: String::new(),
            error: None,
            metrics: Vec::new(),
            counters,
            postmortem: None,
        };
        match res {
            Ok(Ok(r)) => {
                outcome.retries = r.retries;
                outcome.note = r.note;
                outcome.metrics = r.metrics;
            }
            Ok(Err(f)) => {
                outcome.status = CaseStatus::Failed;
                outcome.error = Some(f.error.to_string());
            }
            Err(_) => {
                outcome.status = CaseStatus::Failed;
                outcome.error = Some("panic".into());
            }
        }
        let t = Instant::now();
        writer.record(&outcome).map_err(|e| e.to_string())?;
        rec.record("store.record", "", id, t, Instant::now());
    }
    Ok((rec, t_loop.elapsed().as_secs_f64(), store))
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let dir = RunDir::create("sweep-envelope")?;
    let sweep = bin("sweep")?;
    minimal_plan()
        .save(&dir.file("minimal.json"))
        .map_err(|e| e.to_string())?;
    let mut setups = Vec::with_capacity(SETUPS);
    for k in 0..SETUPS {
        let (status, wall_s) = run_quiet(
            Command::new(&sweep)
                .current_dir(dir.path())
                .args(sweep_args("minimal.json", &format!("minimal{k}"))),
        )?;
        if !status.success() {
            return Err(format!("sweep on the minimal plan exited with {status}"));
        }
        setups.push(wall_s);
    }

    let plan = envelope_plan(seed);
    plan.save(&dir.file("plan.json"))
        .map_err(|e| e.to_string())?;
    let mut out = Outcome::new(0);
    let (mut walls, mut rss, mut completed) = (Vec::new(), Vec::new(), 0usize);
    let mut first_fingerprint = None;
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let tag = format!("run{}", walls.len());
        let f = run_watched(
            Command::new(&sweep)
                .current_dir(dir.path())
                .args(sweep_args("plan.json", &tag)),
            &dir.file(&format!("{tag}.stdout.txt")),
        )?;
        walls.push(f.wall_s);
        rss.push(f.rss_mb);
        out.attempted += plan.cases.len() as u64;
        let records =
            load_records(&dir.file(&format!("{tag}.store.jsonl"))).map_err(|e| e.to_string())?;
        let problems = store_problems(&plan, &records);
        let ok = records
            .iter()
            .filter(|r| r.status == CaseStatus::Completed)
            .count();
        completed += ok;
        out.failed += (plan.cases.len() - ok) as u64;
        out.check(
            f.status.success(),
            &format!("sweep exited with {}", f.status),
        );
        out.check(problems.is_empty(), &problems.join("; "));
        if let Err(e) = report_counters(&dir.file(&format!("{tag}.report.json"))) {
            out.check(false, &e);
        }
        let fp = normalized_fingerprint(&records);
        match &first_fingerprint {
            None => first_fingerprint = Some(fp),
            Some(first) => out.check(*first == fp, "repeat sweeps of one plan differ"),
        }
    }
    let window_s = start.elapsed().as_secs_f64();
    out.metric("setup_s", median(&setups));
    out.metric("latency_ms", median(&walls) * 1e3);
    out.metric("throughput", completed as f64 / window_s);
    out.metric("rss_peak_mb", median(&rss));

    if trace {
        let (rec, serial_wall, replay_store) = replay(&dir, &plan)?;
        let subprocess = load_records(&dir.file("run0.store.jsonl")).map_err(|e| e.to_string())?;
        let replayed = load_records(&replay_store).map_err(|e| e.to_string())?;
        let (a, b) = (
            normalized_fingerprint(&subprocess),
            normalized_fingerprint(&replayed),
        );
        let differ: Vec<&str> = a
            .iter()
            .zip(&b)
            .filter(|(x, y)| x != y)
            .map(|(x, _)| x.0.as_str())
            .collect();
        out.check(
            a.len() == b.len() && differ.is_empty(),
            &format!("serial replay differs from the subprocess store: {differ:?}"),
        );
        let self_us = self_times(&rec.spans);
        let total_ms = |name: &str| self_us.get(name).copied().unwrap_or(0.0) * 1e-3;
        let count = |name: &str| rec.spans.iter().filter(|s| s.name == name).count().max(1) as f64;
        let mean_ms = |name: &str| total_ms(name) / count(name);
        let extra_builds_s = (total_ms("gas.titan_build") + total_ms("gas.air9_build")) * 1e-3;
        let serial_s = serial_wall - extra_builds_s;
        let untraced_case_s: f64 = subprocess.iter().map(|r| r.wall_secs).sum();
        let traced_case_s: f64 = CASE_KINDS.iter().map(|(s, _)| total_ms(s)).sum::<f64>() * 1e-3;
        let layers = Layers {
            end_to_end_s: serial_wall,
            self_s: self_us.iter().map(|(k, v)| (k.clone(), v * 1e-6)).collect(),
            overhead_pct: 100.0 * (traced_case_s / untraced_case_s - 1.0),
        };
        let c = report_counters(&dir.file("run0.report.json"))?;
        let c = |name: &str| c.get(name).copied().unwrap_or(0.0);
        let mut per_layer = vec![
            ("gas.air9_table_ms", total_ms("gas.air9_table")),
            ("gas.titan_build_ms", mean_ms("gas.titan_build")),
            ("gas.air9_build_ms", mean_ms("gas.air9_build")),
        ];
        per_layer.extend(
            CASE_KINDS
                .iter()
                .map(|&(span, metric)| (metric, mean_ms(span))),
        );
        per_layer.extend([
            ("store.record_us", mean_ms("store.record") * 1e3),
            ("sweep.serial_s", serial_s),
            ("sweep.unattributed_s", layers.unattributed_s()),
            (
                "pool.parallel_efficiency",
                serial_s / (WORKERS as f64 * median(&walls)),
            ),
            ("gas.equilibrium_states", c("equilibrium_states")),
            ("gas.newton_iterations", c("newton_iterations")),
            (
                "gas.cache_hit_ratio",
                ratio(
                    c("equilibrium_cache_hits"),
                    c("equilibrium_cache_hits") + c("equilibrium_cache_misses"),
                ),
            ),
            ("solvers.faces_evaluated", c("faces_evaluated")),
            (
                "ode.reject_ratio",
                ratio(
                    c("ode_steps_rejected"),
                    c("ode_steps_accepted") + c("ode_steps_rejected"),
                ),
            ),
            ("runctl.rollbacks", c("run_rollbacks")),
        ]);
        out.trace(per_layer, layers, rec.spans);
    }
    Ok(out)
}
