//! Deterministic performance snapshot of the workspace's hot kernels.
//!
//! Runs a fixed suite of the kernels the figure binaries spend their time
//! in — tridiagonal and block-tridiagonal sweeps, damped-Newton solves,
//! stiff chemistry integration, the Fig. 7 relaxation march
//! (`relaxation_march`), direct equilibrium-composition solves, the Titan
//! shock layer's equilibrium inversions (`equilibrium_inversion`), the
//! spectral grid build (`spectral_grid`) and the spectra on it
//! (`spectrum_integration`), Euler blunt-body steps on ideal gas
//! (`euler_step_ideal`) and on the equilibrium table (`euler_step_table`),
//! the viscous-cone PNS march (`pns_march`), the daemon's float text
//! (`json_push_f64`), and the distributed-sweep bookkeeping (plan
//! partitioning, shard-store federation) — and writes every span label's
//! exact statistics plus kernel counter totals as `BENCH_<label>.json`
//! (`"schema": 2`: one `spans` entry per label with count, total, min, max,
//! mean and p50/p90/p99). The `span_guard` span wraps 100 000 empty guards,
//! so its duration over 100 000 is the cost of one span guard.
//!
//! ```text
//! perf_snapshot --label=baseline            # writes BENCH_baseline.json
//! perf_snapshot --label=pr --out=new.json   # custom path
//! perf_snapshot --compare BENCH_baseline.json new.json --tol=0.25
//! ```
//!
//! Cross-machine comparability: every snapshot also times a fixed
//! floating-point calibration loop (the `calibration` span); the
//! comparator divides each span's fastest occurrence by its snapshot's
//! fastest calibration loop, so a uniformly faster machine does not
//! masquerade as a perf improvement, nor a slower one as a regression
//! (minima, not means — preemption noise only ever inflates a timing).
//! The comparison exits nonzero when any kernel's normalized minimum
//! regresses beyond `--tol` (default 0.25), which is how CI gates on
//! `BENCH_baseline.json`.
//! `--compare` then runs the ratchet matrix (see `ratchet`) and appends
//! its verdict table to `$GITHUB_STEP_SUMMARY` when that is set.

use std::io::Write as _;

use aerothermo_atmosphere::trajectory::{EntryConditions, StopConditions, Vehicle};
use aerothermo_atmosphere::us76::Us76;
use aerothermo_bench::json::{self, Layout, Value};
use aerothermo_core::correlations::HeatingModel;
use aerothermo_core::surrogate::{
    fly_heating_history, ExactResponse, RadiativeModel, SurrogateBuilder, SurrogateQuery,
};
use aerothermo_gas::eq_table::air9_table;
use aerothermo_gas::equilibrium::{air9_equilibrium, reset_thread_warm_cache, titan_equilibrium};
use aerothermo_gas::kinetics::park_air9;
use aerothermo_gas::relaxation::RelaxationModel;
use aerothermo_gas::GasModel;
use aerothermo_grid::bodies::{Hemisphere, SphereCone};
use aerothermo_grid::{stretch, StructuredGrid};
use aerothermo_numerics::constants::R_UNIVERSAL;
use aerothermo_numerics::newton::{newton_solve, NewtonOptions};
use aerothermo_numerics::ode::{stiff_integrate, AdaptiveOptions};
use aerothermo_numerics::telemetry::CounterSnapshot;
use aerothermo_numerics::trace;
use aerothermo_numerics::tridiag::{solve_block_tridiag, solve_tridiag};
use aerothermo_radiation::spectra::SpectralGrid;
use aerothermo_radiation::GasSample;
use aerothermo_solvers::euler2d::{Bc, BcSet, EulerOptions, EulerSolver};
use aerothermo_solvers::ns2d::{NsSolver, Transport};
use aerothermo_solvers::pns::{PnsOptions, PnsSolver};
use aerothermo_solvers::runctl::{run_controlled, RunOptions};
use aerothermo_solvers::shock::normal_shock;
use aerothermo_solvers::shock1d::{solve as relax_solve, RelaxationProblem};
use aerothermo_sweep::shard::{federate, partition};
use aerothermo_sweep::spec::{FlowSpec, GasSpec, LevelSpec};
use aerothermo_sweep::store::{CaseOutcome, CaseStatus, JsonlWriter};
use aerothermo_sweep::{CaseSpec, ShardStrategy, SweepPlan};

fn arg_value(prefix: &str) -> Option<String> {
    std::env::args().find_map(|a| a.strip_prefix(prefix).map(str::to_string))
}

fn main() {
    aerothermo_bench::cli::announce("perf_snapshot");
    let args: Vec<String> = std::env::args().collect();
    if let Some(k) = args.iter().position(|a| a == "--compare") {
        let (Some(base), Some(cand)) = (args.get(k + 1), args.get(k + 2)) else {
            eprintln!("usage: perf_snapshot --compare BASELINE.json CANDIDATE.json [--tol=0.25]");
            std::process::exit(2);
        };
        let tol = arg_value("--tol=")
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(0.25);
        std::process::exit(compare(base, cand, tol));
    }

    let label = arg_value("--label=").unwrap_or_else(|| "snapshot".to_string());
    let out = arg_value("--out=").unwrap_or_else(|| format!("BENCH_{label}.json"));
    trace::reset_all();

    run_suite();

    let stats = trace::stats();
    let counters: Vec<_> = CounterSnapshot::take().iter().collect();
    let min_of = |label: &str| {
        stats
            .iter()
            .find(|s| s.label == label)
            .map_or(0, |s| s.hist.min_ns)
    };
    // The calibration reference is the *fastest* loop occurrence: minima
    // are far more stable than means under scheduler noise, and the
    // comparator uses the same estimator for every span.
    let calib = min_of("calibration");

    let unix_time_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let num_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut s = String::with_capacity(4096);
    json::push_object(&mut s, Layout::Block, |o| {
        o.put("schema", 2u32).put("label", &label);
        o.put("unix_time_secs", unix_time_secs);
        o.object("machine", Layout::Inline, |m| {
            m.put("os", std::env::consts::OS);
            m.put("arch", std::env::consts::ARCH)
                .put("num_cpus", num_cpus);
            m.put("rayon_threads", rayon::current_num_threads());
            m.put("simd", aerothermo_numerics::simd::BACKEND);
        });
        o.put("calibration_ns", calib);
        o.object("spans", Layout::Inline, |t| trace::write_timings(t, &stats));
        o.object("counters", Layout::Block, |c| c.members(&counters));
    });
    s.push('\n');

    std::fs::write(&out, s).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("perf snapshot '{label}' written to {out}");
    for st in &stats {
        println!(
            "  {:<24} count {:>8}  mean {:>10} ns  total {:>12} ns",
            st.label,
            st.hist.count,
            st.hist.mean_ns(),
            st.hist.sum_ns
        );
    }
    #[allow(clippy::cast_precision_loss)]
    let per_guard = min_of("span_guard") as f64 / f64::from(GUARDS_PER_SPAN);
    println!("  one span guard: {per_guard:.1} ns (fastest span_guard loop)");
}

/// Empty guards inside each `span_guard` occurrence.
const GUARDS_PER_SPAN: u32 = 100_000;

/// The fixed kernel suite. Workloads are sized so the whole suite runs in
/// a few seconds yet every span accumulates enough occurrences for a
/// stable mean.
fn run_suite() {
    // Calibration: a fixed serial FP workload timed like any other span.
    for _ in 0..8 {
        let _sp = trace::span("calibration");
        let mut acc = 0.0_f64;
        for i in 1..2_000_000u64 {
            #[allow(clippy::cast_precision_loss)]
            let x = i as f64;
            acc += (x.sqrt() + 1.0 / x).sin();
        }
        assert!(acc.is_finite());
    }

    // Instrumentation cost: empty guards back to back, so `span_guard`'s
    // duration over GUARDS_PER_SPAN is the price of one span.
    for _ in 0..8 {
        let _sp = trace::span("span_guard");
        for _ in 0..GUARDS_PER_SPAN {
            let _empty = trace::span("span_guard_empty");
        }
    }

    // Scalar tridiagonal sweeps (Thomas algorithm), n = 2000.
    {
        let n = 2000;
        let a = vec![-1.0; n];
        let b = vec![2.5; n];
        let c = vec![-1.0; n];
        for _ in 0..200 {
            let mut d = vec![1.0; n];
            solve_tridiag(&a, &b, &c, &mut d).expect("tridiag");
        }
    }

    // Block-tridiagonal sweeps, 200 blocks of 4×4.
    {
        let (n, m) = (200, 4);
        let mut a = vec![0.0; n * m * m];
        let mut b = vec![0.0; n * m * m];
        let mut c = vec![0.0; n * m * m];
        for i in 0..n {
            for k in 0..m {
                b[i * m * m + k * m + k] = 4.0;
                a[i * m * m + k * m + k] = -1.0;
                c[i * m * m + k * m + k] = -1.0;
            }
        }
        for _ in 0..100 {
            let mut d = vec![1.0; n * m];
            solve_block_tridiag(&a, &b, &c, &mut d, n, m).expect("block tridiag");
        }
    }

    // Damped-Newton solves of a 4-dimensional nonlinear system.
    {
        let opts = NewtonOptions::default();
        for _ in 0..400 {
            let mut x = [0.5, 0.5, 0.5, 0.5];
            newton_solve(
                |x, f| {
                    // Mildly coupled contraction: a well-conditioned system
                    // Newton polishes in a handful of iterations.
                    f[0] = x[0] - 0.5 * x[1].cos();
                    f[1] = x[1] - 0.4 * x[2].cos();
                    f[2] = x[2] - 0.3 * x[3].cos();
                    f[3] = x[3] - 0.2 * x[0].cos();
                },
                &mut x,
                &opts,
            )
            .expect("newton");
        }
    }

    // Stiff integration: a two-rate linear relaxation system (the shape of
    // the chemistry operator-split substep).
    {
        let sys = |_x: f64, y: &[f64], dy: &mut [f64]| {
            dy[0] = -1e4 * (y[0] - y[1]);
            dy[1] = -1e2 * (y[1] - y[2]);
            dy[2] = -y[2];
        };
        let opts = AdaptiveOptions {
            rtol: 1e-6,
            atol: 1e-10,
            h0: 1e-6,
            ..AdaptiveOptions::default()
        };
        for _ in 0..50 {
            let mut y = [1.0, 0.5, 0.2];
            stiff_integrate(&sys, 0.0, 0.1, &mut y, &opts, |_, _| {}).expect("stiff");
        }
    }

    // The Fig. 7 relaxation march (10 km/s into 0.1 torr air) over its
    // first 0.1 mm: the real 10-unknown stiff system, closure and
    // two-temperature sources included (`relaxation_march`).
    {
        let gas = air9_equilibrium();
        let set = park_air9(gas.mixture());
        let relax = RelaxationModel::new(gas.mixture().clone());
        let (u1, t1, p1) = aerothermo_bench::shock_tube_fig7_condition();
        let mut y1 = vec![0.0; gas.mixture().len()];
        y1[0] = 0.767;
        y1[1] = 0.233;
        let problem = RelaxationProblem {
            u1,
            t1,
            p1,
            y1,
            x_end: 1e-4,
        };
        for _ in 0..5 {
            let _sp = trace::span("relaxation_march");
            let sol = relax_solve(&set, &relax, &problem).expect("relaxation march");
            assert!(sol.points.len() > 10);
        }
    }

    // Direct equilibrium-composition solves over a (T, p) sweep.
    {
        let gas = air9_equilibrium();
        for kt in 0..24 {
            for kp in 0..6 {
                let t = 1500.0 + 450.0 * f64::from(kt);
                let p = 100.0 * 10.0_f64.powf(0.5 * f64::from(kp));
                let st = gas.at_tp(t, p).expect("equilibrium state");
                assert!(st.density > 0.0);
            }
        }
    }

    // Micro-batched equilibrium solves: the same composition kernel driven
    // through `at_trho_batch` (shared Newton scratch, 4-lane chunks) over
    // density-major (T, rho) sweeps — the table-build access pattern.
    {
        let gas = air9_equilibrium();
        for kr in 0..6 {
            let rho = 1e-4 * 10.0_f64.powf(0.5 * f64::from(kr));
            let states: Vec<(f64, f64)> = (0..24)
                .map(|kt| (1500.0 + 450.0 * f64::from(kt), rho))
                .collect();
            for st in gas.at_trho_batch(&states) {
                assert!(st.expect("equilibrium batch state").pressure > 0.0);
            }
        }
    }

    // The equilibrium inversions of a Titan shock layer (fig02's radiating
    // anchor): the 165 K freestream energy from (ρ, p) through
    // `GasModel::energy`, whose bracket reaches the 60 K floor, then one
    // post-shock (ρ, e) state. Each occurrence starts from an empty warm
    // cache, as a sweep case does.
    {
        let gas = titan_equilibrium(0.05);
        let rho = 2.9e-6;
        let m_bar = gas.at_trho(600.0, rho).expect("cold Titan gas").molar_mass;
        let p = rho * R_UNIVERSAL * 165.0 / m_bar;
        let jump = normal_shock(&gas, rho, p, 10_000.0).expect("Titan normal shock");
        for _ in 0..10 {
            reset_thread_warm_cache();
            let _sp = trace::span("equilibrium_inversion");
            assert!(gas.energy(rho, p).is_finite());
            let st = gas.at_rho_e(jump.rho, jump.e).expect("post-shock state");
            assert!(st.temperature > 5000.0);
        }
    }

    // Spectrum integration on a 4000-point wavelength grid: the grid's
    // emitter shapes once (`spectral_grid`), then three samples on it
    // (`spectrum_integration`).
    {
        let sample = GasSample::equilibrium(
            9000.0,
            vec![
                ("N2".into(), 1e22),
                ("N".into(), 5e22),
                ("O".into(), 2e22),
                ("NO".into(), 1e20),
                ("N2+".into(), 1e19),
                ("e-".into(), 1e19),
            ],
        );
        let lambda: Vec<f64> = (0..4000)
            .map(|k| 200e-9 + 800e-9 * f64::from(k) / 4000.0)
            .collect();
        let grid = SpectralGrid::new(&lambda, 0.5e-9);
        for _ in 0..3 {
            let sp = grid.spectrum(&sample);
            assert!(sp.total_emission() > 0.0);
        }
    }

    // Euler blunt-body steps on the E10 hemisphere problem: 150 ideal-gas
    // steps (`euler_step_ideal`) and 50 equilibrium-table steps
    // (`euler_step_table`), each also an `euler_step` occurrence.
    {
        let t = 230.0;
        let p = 300.0;
        let rho = p / (287.05 * t);
        let a = (1.4_f64 * 287.05 * t).sqrt();
        let fs = (rho, 8.0 * a, 0.0, p);
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
        let body = Hemisphere::new(0.15);
        let dist = stretch::uniform(49);
        let grid = StructuredGrid::blunt_body(&body, 25, 49, &|sb| (0.3 + 0.2 * sb) * 0.15, &dist);
        let gas = aerothermo_gas::IdealGas::air();
        let mut solver = EulerSolver::new(&grid, &gas, bc, EulerOptions::default(), fs);
        for _ in 0..150 {
            let _sp = trace::span("euler_step_ideal");
            solver.step();
        }
        let table = air9_table();
        let mut solver_eq = EulerSolver::new(&grid, table, bc, EulerOptions::default(), fs);
        for _ in 0..50 {
            let _sp = trace::span("euler_step_table");
            solver_eq.step();
        }
    }

    // Surrogate fast path: build the Earth heating response surfaces once
    // (`surrogate_build`), then serve fixed 4096-point batches through the
    // allocation-free query engine (`surrogate_query` — each occurrence is
    // one whole batch, so queries/sec = 4096 / min_ns · 1e9), and resolve
    // a full entry heating history through the table
    // (`trajectory_history`).
    {
        let mut response = ExactResponse {
            atmosphere: &Us76,
            gas: air9_table(),
            model: HeatingModel::earth_sutton_graves(),
            radiative: RadiativeModel::TauberSuttonEarthSmooth,
            nose_radius: 0.6,
        };
        let table = {
            let _sp = trace::span("surrogate_build");
            SurrogateBuilder::new((30_000.0, 90_000.0), (3_000.0, 13_000.0))
                .initial_grid(25, 25)
                .tolerance(0.02)
                .build(&mut response)
                .expect("surrogate build")
        };

        const BATCH: usize = 4096;
        // Deterministic low-discrepancy scatter over the table domain.
        let mut hs = vec![0.0f64; BATCH];
        let mut vs = vec![0.0f64; BATCH];
        for k in 0..BATCH {
            #[allow(clippy::cast_precision_loss)]
            let u = (k as f64 * 0.618_033_988_749_895).fract();
            #[allow(clippy::cast_precision_loss)]
            let w = (k as f64 * 0.754_877_666_246_693).fract();
            hs[k] = 30_000.0 + 60_000.0 * u;
            vs[k] = 3_000.0 + 10_000.0 * w;
        }
        let mut out = vec![SurrogateQuery::default(); BATCH];
        let mut acc = 0.0f64;
        for _ in 0..200 {
            let _sp = trace::span("surrogate_query");
            table.query_batch(&hs, &vs, &mut out);
            acc += out[BATCH - 1].q_conv;
        }
        assert!(acc.is_finite() && acc > 0.0);

        // The daemon's float text for one 1024-item `query_batch`
        // response: six `push_f64` writes per answered point (altitude,
        // velocity, p_stag, t_stag, q_conv, q_rad), 6 144 per occurrence.
        let mut text = String::with_capacity(1 << 17);
        for _ in 0..200 {
            text.clear();
            let _sp = trace::span("json_push_f64");
            for ((&h, &v), q) in hs.iter().zip(&vs).zip(&out).take(1024) {
                for x in [h, v, q.p_stag, q.t_stag, q.q_conv, q.q_rad] {
                    json::push_f64(&mut text, x);
                    text.push(',');
                }
            }
        }
        assert!(text.len() > 6 * 1024);

        let entry = EntryConditions {
            altitude: 90_000.0,
            velocity: 7_800.0,
            gamma: -1.2f64.to_radians(),
        };
        let stop = StopConditions {
            min_velocity: 3_100.0,
            max_time: 1_500.0,
            ..StopConditions::default()
        };
        for _ in 0..10 {
            let _sp = trace::span("trajectory_history");
            let pulse = fly_heating_history(&Us76, &Vehicle::shuttle_like(), entry, stop, &table);
            assert!(pulse.len() > 10);
        }
    }

    // Navier-Stokes blunt-body steps (inviscid assembly + viscous j-face
    // sweep + conduction wall) on a boundary-layer-stretched grid.
    {
        let t = 220.0;
        let p = 500.0;
        let rho = p / (287.05 * t);
        let a = (1.4_f64 * 287.05 * t).sqrt();
        let fs = (rho, 6.0 * a, 0.0, p);
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
        let rn = 0.1;
        let body = Hemisphere::new(rn);
        let dist = stretch::tanh_one_sided(33, 3.5);
        let grid =
            StructuredGrid::blunt_body(&body, 17, 33, &|sb| (0.035 + 0.03 * sb) * rn / 0.1, &dist);
        let gas = aerothermo_gas::IdealGas::air();
        let mut solver = NsSolver::new(
            &grid,
            &gas,
            bc,
            EulerOptions::default(),
            fs,
            Transport::air(),
            300.0,
        );
        for _ in 0..120 {
            solver.step();
        }
    }

    // The viscous-cone PNS march (`pns_march`) of the solver's
    // `viscous_cone_heating_decays_downstream` test: a 70×44 sphere-cone
    // at Mach 8 in ideal air with a 300 K wall, one line-implicit station
    // solve per station.
    {
        let t = 220.0;
        let p = 2000.0;
        let rho = p / (287.05 * t);
        let fs = (rho, 8.0 * (1.4_f64 * 287.05 * t).sqrt(), 0.0, p);
        let (length, rn) = (1.2, 0.01);
        let body = SphereCone {
            rn,
            half_angle: 10f64.to_radians(),
            length,
        };
        let dist = stretch::tanh_one_sided(44, 2.5);
        let grid =
            StructuredGrid::blunt_body(&body, 70, 44, &|sb| 0.02 + 0.35 * sb * length, &dist);
        let gas = aerothermo_gas::IdealGas::air();
        let opts = PnsOptions {
            t_wall: Some(300.0),
            ..PnsOptions::default()
        };
        let run_opts = RunOptions {
            max_units: grid.nci(),
            ..RunOptions::default()
        };
        for _ in 0..3 {
            let mut pns = PnsSolver::new(&grid, &gas, opts.clone(), fs, 8);
            trace::spanned("pns_march", || run_controlled(&mut pns, &run_opts)).expect("pns march");
            assert_eq!(pns.solution().station_x.len(), 61);
        }
    }

    // Distributed-sweep bookkeeping: cost-balanced plan partitioning
    // (`shard_partition`) and shard-store federation (`federate`) over a
    // synthetic 512-case plan — the sharding layer's only hot paths.
    {
        let mut cases = Vec::with_capacity(512);
        for k in 0..512usize {
            #[allow(clippy::cast_precision_loss)]
            let rho = 1e-5 * (1.0 + (k % 37) as f64);
            let level = if k % 3 == 0 {
                LevelSpec::Vsl {
                    n_points: 20 + (k % 5) * 10,
                    radiating: false,
                }
            } else {
                LevelSpec::Correlation { k_sg: 1.74e-4 }
            };
            cases.push(CaseSpec::new(
                format!("case-{k:03}"),
                GasSpec::Air9,
                level,
                FlowSpec::new(rho, 7_000.0, 220.0, f64::NAN, 0.5, 1500.0),
            ));
        }
        let plan = SweepPlan {
            name: "perf_shard".into(),
            cases,
        };
        let mut assigned = 0usize;
        for _ in 0..100 {
            let shards = partition(&plan, 8, ShardStrategy::CostBalanced);
            assigned += shards.iter().map(Vec::len).sum::<usize>();
        }
        assert_eq!(assigned, 512 * 100);

        // Synthetic shard stores on disk (federation is an I/O + merge
        // path; the records never run a solver here).
        let dir = std::env::temp_dir().join(format!("perf-federate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp shard dir");
        let shards = partition(&plan, 4, ShardStrategy::RoundRobin);
        let stores: Vec<String> = shards
            .iter()
            .enumerate()
            .map(|(i, idxs)| {
                let path = dir
                    .join(format!("shard-{i}.jsonl"))
                    .to_str()
                    .unwrap()
                    .to_string();
                let mut w = JsonlWriter::append(&path).expect("shard store opens");
                for &k in idxs {
                    #[allow(clippy::cast_precision_loss)]
                    let q = 1e5 + k as f64;
                    w.record(&CaseOutcome {
                        id: plan.cases[k].id.clone(),
                        status: CaseStatus::Completed,
                        wall_secs: 0.01,
                        retries: 0,
                        worker: 0,
                        note: String::new(),
                        error: None,
                        metrics: vec![("q_conv_w_m2".into(), q)],
                        counters: Vec::new(),
                        postmortem: None,
                    })
                    .expect("record written");
                }
                path
            })
            .collect();
        for _ in 0..50 {
            let (records, report) = federate(&plan, &stores).expect("federation runs");
            assert_eq!(records.len(), 512);
            assert!(report.complete());
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Span labels whose baseline minimum is below this are skipped by the
/// comparator: at sub-microsecond scales the span overhead itself and
/// scheduler noise dominate any real change.
const MIN_COMPARABLE_NS: f64 = 500.0;

fn load_snapshot(path: &str) -> (Value, f64, Vec<(String, f64)>) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read snapshot {path}: {e}"));
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("bad snapshot {path}: {e}"));
    let calib = doc
        .get("calibration_ns")
        .and_then(Value::as_f64)
        .filter(|c| *c > 0.0)
        .unwrap_or_else(|| panic!("snapshot {path} has no usable calibration_ns"));
    let mut spans = Vec::new();
    if let Some(map) = doc.get("spans").and_then(Value::as_object) {
        for (label, st) in map {
            if label == "calibration" {
                continue;
            }
            // Compare fastest occurrences (same estimator as the
            // calibration reference): minima filter out preemption noise.
            if let Some(min) = st.get("min_ns").and_then(Value::as_f64) {
                spans.push((label.clone(), min));
            }
        }
    }
    (doc, calib, spans)
}

/// Compare two snapshots; returns the process exit code (0 = within
/// tolerance and the ratchet matrix holds, 1 = regression).
fn compare(base_path: &str, cand_path: &str, tol: f64) -> i32 {
    let (base_doc, base_calib, base_spans) = load_snapshot(base_path);
    let (cand_doc, cand_calib, cand_spans) = load_snapshot(cand_path);
    println!(
        "perf comparison: {base_path} -> {cand_path} (tol {:.0}%, calibration {base_calib:.0} -> {cand_calib:.0} ns)",
        tol * 100.0
    );
    let mut regressions = 0usize;
    for (label, base_min) in &base_spans {
        if *base_min < MIN_COMPARABLE_NS {
            println!("  {label:<24} skipped (baseline min {base_min:.0} ns below noise floor)");
            continue;
        }
        let Some((_, cand_min)) = cand_spans.iter().find(|(l, _)| l == label) else {
            println!("  {label:<24} MISSING from candidate snapshot");
            regressions += 1;
            continue;
        };
        let ratio = (cand_min / cand_calib) / (base_min / base_calib);
        let verdict = if ratio > 1.0 + tol {
            regressions += 1;
            "REGRESSION"
        } else if ratio < 1.0 / (1.0 + tol) {
            "improved"
        } else {
            "ok"
        };
        println!(
            "  {label:<24} {base_min:>10.0} -> {cand_min:>10.0} ns  normalized x{ratio:.2}  {verdict}"
        );
    }
    for (label, _) in &cand_spans {
        if !base_spans.iter().any(|(l, _)| l == label) {
            println!("  {label:<24} new span (no baseline; not gated)");
        }
    }
    let mut code = i32::from(regressions > 0);
    if regressions > 0 {
        eprintln!(
            "FAIL: {regressions} kernel(s) regressed beyond {:.0}%",
            tol * 100.0
        );
    } else {
        println!("PASS: no kernel regressed beyond {:.0}%", tol * 100.0);
    }

    let (table, failures) = ratchet(&base_doc, &cand_doc);
    println!("{}", table.replace('|', " ").replace('#', ""));
    if let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| writeln!(f, "{table}"))
            .unwrap_or_else(|e| panic!("cannot append to {path}: {e}"));
    }
    if failures.is_empty() {
        println!("ratchet matrix: all kernels within ceilings, one-shot marks hold");
    } else {
        eprintln!("ratchet failures:\n  {}", failures.join("\n  "));
        code = 1;
    }
    code
}

/// Kernels the ratchet holds within 25% of the baseline's normalized mean.
const RATCHET_KERNELS: [&str; 6] = [
    "euler_step",
    "ns_step",
    "equilibrium_state",
    "equilibrium_batch",
    "surrogate_query",
    "trajectory_history",
];

/// The ratchet matrix on calibration-normalized means (`mean_ns /
/// calibration_ns`): each of [`RATCHET_KERNELS`] within 25% of the
/// baseline; a one-shot mark on the committed baseline's `euler_step`,
/// under the pre-face-based-assembly cost (1712132/21268885) and half the
/// pre-SoA/SIMD cost (645077/20676643), so structural wins are never
/// silently given back; and an absolute floor of 10⁶ queries/s on the
/// candidate's fastest `surrogate_query` (4096 queries per occurrence).
/// Returns the Markdown verdict table and one message per failed check.
fn ratchet(base: &Value, cand: &Value) -> (String, Vec<String>) {
    let span = |doc: &Value, k: &str, stat: &str| doc.get("spans")?.get(k)?.get(stat)?.as_f64();
    let norm = |doc: &Value, k: &str| {
        Some(span(doc, k, "mean_ns")? / doc.get("calibration_ns")?.as_f64()?)
    };
    let mut table = String::from(
        "## Perf ratchet matrix\n\n\
         | kernel | baseline norm | ceiling | candidate norm | verdict |\n\
         |---|---|---|---|---|",
    );
    let mut row = |k: &str, b: f64, ceiling: f64, c: Option<f64>, verdict: &str| {
        let c = c.map_or_else(|| "-".to_string(), |c| format!("{c:.6}"));
        table.push_str(&format!(
            "\n| {k} | {b:.6} | {ceiling:.6} | {c} | {verdict} |"
        ));
    };
    let mut failures = Vec::new();
    for k in RATCHET_KERNELS {
        let Some(b) = norm(base, k) else {
            failures.push(format!("{k}: missing from committed baseline"));
            continue;
        };
        let ceiling = b * 1.25;
        match norm(cand, k) {
            None => {
                failures.push(format!("{k}: missing from candidate snapshot"));
                row(k, b, ceiling, None, "MISSING");
            }
            Some(c) if c > ceiling => {
                failures.push(format!("{k}: normalized {c:.6} > ceiling {ceiling:.6}"));
                row(k, b, ceiling, Some(c), "REGRESSION");
            }
            Some(c) => row(k, b, ceiling, Some(c), "ok"),
        }
    }
    let mark = (1_712_132.0 / 21_268_885.0_f64).min(0.5 * 645_077.0 / 20_676_643.0);
    if let Some(b) = norm(base, "euler_step") {
        let lost = b > mark;
        if lost {
            failures.push(format!(
                "euler_step: committed baseline {b:.6} over one-shot mark {mark:.6}"
            ));
        }
        let k = "euler_step (one-shot mark)";
        row(
            k,
            mark,
            mark,
            Some(b),
            if lost { "MARK LOST" } else { "ok" },
        );
    }
    let floor = 1.0e6;
    match span(cand, "surrogate_query", "min_ns") {
        None => {
            failures.push("surrogate_query: missing from candidate snapshot (qps floor)".into())
        }
        Some(min_ns) => {
            let qps = 4096.0 / min_ns * 1e9;
            let below = qps < floor;
            if below {
                failures.push(format!(
                    "surrogate_query: {qps:.3e} queries/sec below floor {floor:.1e}"
                ));
            }
            let k = "surrogate_query (queries/sec floor)";
            row(
                k,
                floor,
                floor,
                Some(qps),
                if below { "BELOW FLOOR" } else { "ok" },
            );
        }
    }
    (table, failures)
}
