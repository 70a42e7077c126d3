//! Observability-stack contract tests: report timings must be exact and
//! agree with the Chrome timeline, the span histogram merge must be
//! order-invariant, the sweep event stream must normalize
//! bitwise-identically across worker counts (with monotone heartbeats),
//! and the flight recorder must dump exactly the last N step records when
//! a run dies.

use aerothermo::gas::equilibrium::air9_equilibrium;
use aerothermo::numerics::json::{self, Value};
use aerothermo::numerics::trace::{self, Histogram};
use aerothermo::solvers::euler2d::{Bc, BcSet, EulerOptions, EulerSolver};
use aerothermo::solvers::flight::{Trigger, DEFAULT_CAPACITY};
use aerothermo::solvers::runctl::{run_recorded, RunOptions};
use aerothermo_sweep::events::normalize;
use aerothermo_sweep::spec::{FlowSpec, GasSpec, LevelSpec};
use aerothermo_sweep::{run_sweep, CaseSpec, SweepOptions, SweepPlan};
use proptest::prelude::*;

/// Serializes the tests that read or reset the process-wide span registry
/// with the tests whose sweeps solve equilibrium states.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn scratch_dir(stem: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("aerothermo-obs-{stem}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// ---------------------------------------------------------------------------
// Report timings: exact totals that agree with the Chrome timeline.
// ---------------------------------------------------------------------------

#[test]
fn report_timings_are_exact_and_match_the_timeline() {
    let _serial = serial();
    trace::reset_all();
    trace::enable_timeline();
    let report = aerothermo_bench::Report::new("timings_test");
    let gas = air9_equilibrium();
    for k in 0..12 {
        let t = 2_000.0 + 600.0 * f64::from(k);
        assert!(gas.at_tp(t, 1.0e4).expect("equilibrium state").density > 0.0);
    }
    trace::disable_timeline();
    let doc = json::parse(&report.to_json()).expect("report parses");
    let timeline = json::parse(&trace::chrome_trace_json()).expect("trace parses");
    trace::reset_all();

    let timings = doc.get("timings").and_then(Value::as_object).unwrap();
    for (label, t) in timings {
        for key in [
            "calls", "p50_ns", "p90_ns", "p99_ns", "min_ns", "max_ns", "mean_ns", "total_ns",
        ] {
            assert!(t.get(key).is_some(), "timing {label} lacks {key}");
        }
    }
    let eq = &timings["equilibrium_state"];
    let field = |k: &str| eq.get(k).and_then(Value::as_f64).unwrap() as u64;
    let (calls, total, mean) = (field("calls"), field("total_ns"), field("mean_ns"));
    assert!(calls >= 12, "every solve is timed, got {calls}");
    assert!(field("p50_ns") <= field("p90_ns") && field("p90_ns") <= field("p99_ns"));
    // Exact: the total is the sum of the timeline's durations (µs with
    // three decimals, so each converts back to whole ns).
    let events = timeline
        .get("traceEvents")
        .and_then(Value::as_array)
        .unwrap();
    let eq_events: Vec<&Value> = events
        .iter()
        .filter(|e| e.get("name").and_then(Value::as_str) == Some("equilibrium_state"))
        .collect();
    for e in &eq_events {
        assert_eq!(
            e.get("ph").and_then(Value::as_str),
            Some("X"),
            "complete event"
        );
        for key in ["ts", "dur", "tid"] {
            assert!(
                e.get(key).and_then(Value::as_f64).is_some(),
                "event lacks {key}"
            );
        }
    }
    let durs: Vec<u64> = eq_events
        .iter()
        .map(|e| (e.get("dur").and_then(Value::as_f64).unwrap() * 1e3).round() as u64)
        .collect();
    assert_eq!(durs.len() as u64, calls, "one timeline event per call");
    assert_eq!(
        durs.iter().sum::<u64>(),
        total,
        "total_ns is the timeline sum"
    );
    assert!(total >= mean * calls && total - mean * calls < calls);
}

// ---------------------------------------------------------------------------
// Histogram merge order-invariance (the property that makes multi-thread
// metric aggregation deterministic).
// ---------------------------------------------------------------------------

/// Deterministic sample stream from a seed (splitmix64): the vendored
/// proptest subset has scalar strategies only, so the vector of timing
/// samples is derived rather than sampled directly.
fn derive_samples(seed: u64, n: usize) -> Vec<u64> {
    let mut x = seed;
    (0..n)
        .map(|_| {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            // Span nanoseconds from sub-bucket-0 to ~18 minutes so every
            // histogram octave gets exercised.
            z % 1_000_000_000_000
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Shard-wise accumulation then merge, in any shard order, must give
    /// the same histogram (and therefore the same quantiles) as observing
    /// the whole stream into one histogram.
    #[test]
    fn histogram_merge_is_order_invariant(
        seed in 0u64..u64::MAX,
        n in 1usize..400,
        shards in 1usize..8,
    ) {
        let samples = derive_samples(seed, n);
        let mut reference = Histogram::new();
        for &s in &samples {
            reference.observe_ns(s);
        }

        // Round-robin the stream over `shards` shard histograms.
        let mut parts: Vec<Histogram> = (0..shards).map(|_| Histogram::new()).collect();
        for (k, &s) in samples.iter().enumerate() {
            parts[k % shards].observe_ns(s);
        }

        let mut forward = Histogram::new();
        for p in &parts {
            forward.merge(p);
        }
        let mut backward = Histogram::new();
        for p in parts.iter().rev() {
            backward.merge(p);
        }

        prop_assert!(forward == reference, "forward merge != direct observation");
        prop_assert!(backward == reference, "merge must commute");
        for q in [0.5, 0.9, 0.95, 0.99] {
            prop_assert_eq!(forward.quantile_ns(q), reference.quantile_ns(q));
        }
        prop_assert_eq!(forward.mean_ns(), reference.mean_ns());
        prop_assert!(forward.max_ns >= forward.quantile_ns(0.99));
    }
}

// ---------------------------------------------------------------------------
// Sweep event stream: worker-count determinism + heartbeat contract.
// ---------------------------------------------------------------------------

/// Eight instant correlation cases — enough for 4 workers to interleave
/// event emission aggressively.
fn correlation_plan() -> SweepPlan {
    let mut plan = SweepPlan::new("events_test");
    for k in 0..8 {
        plan.push(CaseSpec::new(
            format!("c{k:02}"),
            GasSpec::Air9,
            LevelSpec::Correlation { k_sg: 1.74e-4 },
            FlowSpec::new(
                1e-4,
                5_000.0 + 500.0 * f64::from(k),
                220.0,
                f64::NAN,
                0.5,
                1500.0,
            ),
        ));
    }
    plan
}

#[test]
fn event_streams_normalize_identically_across_worker_counts() {
    let _serial = serial();
    let dir = scratch_dir("events");
    let mut normalized = Vec::new();
    for workers in [1usize, 4] {
        let path = dir.join(format!("w{workers}.jsonl"));
        let path = path.to_str().unwrap().to_string();
        let report = run_sweep(
            &correlation_plan(),
            &SweepOptions {
                workers,
                events_path: Some(path.clone()),
                ..SweepOptions::default()
            },
        )
        .expect("sweep runs");
        assert!(report.all_green());
        let raw = std::fs::read_to_string(&path).expect("events file exists");

        // Raw-stream contract: dense monotone seq, schema tag on the first
        // line, >= 2 heartbeats with nondecreasing t_secs.
        let mut hb_times = Vec::new();
        for (k, line) in raw.lines().enumerate() {
            let v = json::parse(line).unwrap_or_else(|e| panic!("line {}: {e:?}", k + 1));
            assert_eq!(
                v.get("seq").and_then(Value::as_f64),
                Some(k as f64),
                "seq must be dense"
            );
            if k == 0 {
                assert_eq!(v.get("event").and_then(Value::as_str), Some("plan_started"));
                assert_eq!(
                    v.get("schema").and_then(Value::as_str),
                    Some("aerothermo-sweep-events-v1")
                );
            }
            if v.get("event").and_then(Value::as_str) == Some("heartbeat") {
                hb_times.push(v.get("t_secs").and_then(Value::as_f64).unwrap());
            }
        }
        assert!(
            hb_times.len() >= 2,
            "start + final heartbeats must always be emitted, got {}",
            hb_times.len()
        );
        assert!(
            hb_times.windows(2).all(|w| w[1] >= w[0]),
            "heartbeat t_secs must be monotone: {hb_times:?}"
        );

        normalized.push(normalize(&raw).expect("stream normalizes"));
    }
    assert_eq!(
        normalized[0], normalized[1],
        "normalized event streams must be bitwise identical for 1 vs 4 workers"
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Flight recorder: exactly the last N steps survive in the black box.
// ---------------------------------------------------------------------------

fn hemisphere_euler() -> EulerSolver<'static> {
    use aerothermo::grid::bodies::Hemisphere;
    use aerothermo::grid::{stretch, StructuredGrid};
    use std::sync::OnceLock;
    static GRID: OnceLock<StructuredGrid> = OnceLock::new();
    static GAS: OnceLock<aerothermo::gas::IdealGas> = OnceLock::new();
    let t_inf = 230.0;
    let p_inf = 300.0;
    let rho_inf = p_inf / (287.05 * t_inf);
    let v_inf = 8.0 * (1.4_f64 * 287.05 * t_inf).sqrt();
    let grid = GRID.get_or_init(|| {
        let body = Hemisphere::new(0.2);
        let dist = stretch::uniform(31);
        StructuredGrid::blunt_body(&body, 9, 31, &|sb| (0.3 + 0.2 * sb) * 0.2, &dist)
    });
    let gas = GAS.get_or_init(aerothermo::gas::IdealGas::air);
    let fs = (rho_inf, v_inf, 0.0, p_inf);
    let bc = BcSet {
        i_lo: Bc::SlipWall,
        i_hi: Bc::Outflow,
        j_lo: Bc::SlipWall,
        j_hi: Bc::Inflow {
            rho: fs.0,
            ux: fs.1,
            ur: fs.2,
            p: fs.3,
        },
    };
    let opts = EulerOptions {
        cfl: 0.4,
        startup_steps: 30,
        ..EulerOptions::default()
    };
    EulerSolver::new(grid, gas, bc, opts, fs)
}

#[test]
fn flight_recorder_dumps_exactly_last_n_steps_on_injected_nan() {
    let mut solver = hemisphere_euler();
    let ring = DEFAULT_CAPACITY;
    // Rolled back to unit 40, the run records 80 more units: more than the
    // ring holds.
    let run_opts = RunOptions {
        max_units: 120,
        checkpoint_every: 10,
        inject_nan_at: Some(45),
        ..RunOptions::default()
    };
    let (out, pm) = run_recorded(&mut solver, &run_opts);
    let out = out.expect("controller absorbs the injected NaN");
    assert_eq!(out.units, 120);
    let pm = pm.expect("an injection drill must leave a black box");
    assert_eq!(pm.trigger, Trigger::NanInjection);
    assert!(pm.error.is_none(), "the run recovered: no terminal error");
    assert_eq!(pm.capacity, ring);
    assert_eq!(
        pm.records.len(),
        ring,
        "the ring must hold exactly the last {ring} step records"
    );
    // The surviving records are the *last* N: contiguous tail ending at
    // the final unit, every residual/CFL finite.
    let units: Vec<usize> = pm.records.iter().map(|r| r.unit).collect();
    assert_eq!(*units.last().unwrap(), out.units);
    assert!(
        units.windows(2).all(|w| w[1] >= w[0]),
        "records must be in step order: {units:?}"
    );
    assert!(
        units[0] > 45,
        "only post-recovery steps fit in a ring of {ring}"
    );
    for r in &pm.records {
        assert!(r.residual.is_finite() && r.cfl_scale > 0.0);
    }
}

#[test]
fn terminal_failure_writes_blackbox_naming_the_failing_step() {
    let dir = scratch_dir("blackbox");
    let path = dir.join("euler.json");
    let mut solver = hemisphere_euler();
    // Zero retries: the injected NaN is recoverable in principle but the
    // budget is exhausted immediately, so the run dies at the injection.
    let run_opts = RunOptions {
        max_units: 90,
        checkpoint_every: 10,
        inject_nan_at: Some(45),
        max_retries: 0,
        blackbox_path: Some(path.clone()),
        ..RunOptions::default()
    };
    let (out, pm) = run_recorded(&mut solver, &run_opts);
    let err = out.expect_err("zero retries cannot absorb the NaN");
    let pm = pm.expect("a dying run must leave a black box");
    assert_eq!(pm.trigger, Trigger::SolverError);
    assert_eq!(pm.error.as_deref(), Some(err.to_string().as_str()));
    assert!(
        pm.failing_unit >= 45,
        "failing unit must name the injection neighborhood, got {}",
        pm.failing_unit
    );

    // The dump on disk parses and matches the in-memory post-mortem.
    let text = std::fs::read_to_string(&path).expect("blackbox written");
    let doc = json::parse(&text).expect("blackbox JSON parses");
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some("aerothermo-blackbox-v1")
    );
    assert_eq!(
        doc.get("trigger").and_then(Value::as_str),
        Some("solver_error")
    );
    assert_eq!(
        doc.get("failing_unit").and_then(Value::as_f64),
        Some(pm.failing_unit as f64)
    );
    let records = doc.get("records").unwrap().as_array().unwrap();
    assert_eq!(records.len(), pm.records.len());
    let last = records.last().unwrap();
    assert_eq!(last.get("event").and_then(Value::as_str), Some("fatal"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_sweep_case_carries_its_postmortem() {
    let _serial = serial();
    // The inject_fault divergence drill synthesizes a flight-recorder
    // post-mortem per failed case, which must ride through the pool into
    // the case record.
    let mut plan = SweepPlan::new("pm_test");
    let mut case = CaseSpec::new(
        "bad",
        GasSpec::IdealAir,
        LevelSpec::Synthetic {
            work_ms: 0.0,
            outcome: "ok".to_string(),
        },
        FlowSpec::new(1e-4, 7_000.0, 200.0, 10.0, 0.5, 1500.0),
    );
    case.inject_fault = true;
    plan.push(case);
    let report = run_sweep(&plan, &SweepOptions::default()).expect("sweep runs");
    let bad = &report.outcomes[0];
    assert_eq!(bad.status, aerothermo_sweep::CaseStatus::Failed);
    let pm = bad
        .postmortem
        .as_deref()
        .expect("failed case has black box");
    let doc = json::parse(pm).expect("attached post-mortem parses");
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some("aerothermo-blackbox-v1")
    );
}
