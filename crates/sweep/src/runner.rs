//! Case execution: maps a [`CaseSpec`] onto the solver stack, delegating
//! retry/rollback to `aerothermo_solvers::runctl`.
//!
//! The runner is pure dispatch — determinism plumbing (single-thread
//! pinning, warm-cache reset, telemetry scoping, panic isolation, timeout)
//! is the pool's job, so `run_case` is also directly callable from tests.

use crate::spec::{CaseSpec, GasSpec, LevelSpec};
use aerothermo_core::heating::{convective_sutton_graves, tangent_slab_over_stations};
use aerothermo_gas::eq_table::air9_table;
use aerothermo_gas::transport::sutherland_air;
use aerothermo_gas::{GasModel, IdealGas};
use aerothermo_grid::bodies::{Hemisphere, SphereCone};
use aerothermo_grid::{stretch, StructuredGrid};
use aerothermo_numerics::telemetry::SolverError;
use aerothermo_numerics::trace;
use aerothermo_solvers::blayer::{fay_riddell, newtonian_velocity_gradient, FayRiddellInputs};
use aerothermo_solvers::euler2d::{Bc, BcSet, EulerOptions, EulerSolver};
use aerothermo_solvers::flight::{FlightRecorder, PostMortem, StepEvent, Trigger};
use aerothermo_solvers::ns2d::{NsSolver, Transport};
use aerothermo_solvers::pns::{PnsOptions, PnsSolver};
use aerothermo_solvers::runctl::{retry_with_backoff, run_recorded, RunOptions};
use aerothermo_solvers::vsl::{solve_with_retry, VslProblem};

/// Spectral band for the radiating-VSL tangent-slab transport: 0.25-1.0 µm
/// at 400 samples covers the CN violet/red systems that dominate the
/// Titan-class layers this level exists for (same band as the fig02 bench).
const SLAB_BAND: (f64, f64, usize) = (0.25e-6, 1.0e-6, 400);

/// A successful case: named scalar metrics plus control-loop bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct CaseResult {
    /// Named scalar results, in emission order.
    pub metrics: Vec<(String, f64)>,
    /// Retry/rollback attempts consumed by the control layer.
    pub retries: usize,
    /// Short human note (grid size, convergence state, ...).
    pub note: String,
}

impl CaseResult {
    fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Look up a metric by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// A failed case: the terminal error plus the retries burned reaching it.
#[derive(Debug)]
pub struct CaseFailure {
    /// The terminal solver error.
    pub error: SolverError,
    /// Retry attempts consumed before giving up.
    pub retries: usize,
    /// Flight-recorder black box (`aerothermo-blackbox-v1` JSON) for
    /// levels that run under `runctl`; `None` for levels with no
    /// step-by-step history (correlations, single-shot solves).
    pub postmortem: Option<String>,
}

impl CaseFailure {
    fn new(error: SolverError, retries: usize) -> Self {
        Self {
            error,
            retries,
            postmortem: None,
        }
    }

    /// A failure with a flight-recorder black box (every failed
    /// [`run_recorded`] run leaves one): the box holds the retries consumed
    /// and rides along as the case's post-mortem.
    fn controlled(error: SolverError, pm: Option<PostMortem>) -> Self {
        Self {
            error,
            retries: pm.as_ref().map_or(0, |p| p.retries),
            postmortem: pm.map(|p| p.to_json()),
        }
    }
}

fn flow_finite(case: &CaseSpec) -> Result<(), SolverError> {
    let f = &case.flow;
    for (name, v) in [
        ("rho_inf", f.rho_inf),
        ("u_inf", f.u_inf),
        ("t_inf", f.t_inf),
        ("nose_radius", f.nose_radius),
        ("t_wall", f.t_wall),
    ] {
        if !v.is_finite() || v <= 0.0 {
            return Err(SolverError::BadInput(format!(
                "case '{}': flow field '{name}' must be finite and positive, got {v}",
                case.id
            )));
        }
    }
    Ok(())
}

/// The CFD levels integrate a [`GasModel`] EOS; only air has one here
/// (analytic ideal gas or the tabulated equilibrium-air EOS).
fn cfd_gas(case: &CaseSpec) -> Result<Box<dyn GasModel>, SolverError> {
    match &case.gas {
        GasSpec::IdealAir => Ok(Box::new(IdealGas::air())),
        GasSpec::Air9 => Ok(Box::new(air9_table().clone())),
        other => Err(SolverError::BadInput(format!(
            "case '{}': CFD levels need an EOS gas model (ideal_air or air9), got '{}'",
            case.id,
            other.name()
        ))),
    }
}

/// Execute one case to completion.
///
/// # Errors
/// [`CaseFailure`] carrying the terminal [`SolverError`] once the case's
/// retry budget is exhausted (or immediately for non-recoverable errors).
#[allow(clippy::too_many_lines)]
pub fn run_case(case: &CaseSpec) -> Result<CaseResult, CaseFailure> {
    if case.inject_fault {
        // The divergence drill: every attempt fails recoverably, so the
        // whole retry budget is consumed before the error surfaces — the
        // worst-case path through the same policy real cases use. The
        // drill also exercises the black-box path: each failed attempt
        // becomes a flight-recorder rollback record.
        let mut recorder = FlightRecorder::default();
        let mut attempt = 0usize;
        let fail = retry_with_backoff(case.max_retries, |scale| {
            attempt += 1;
            let e = SolverError::NonFinite {
                field: "injected",
                i: 0,
                j: 0,
            };
            recorder.record(
                attempt,
                f64::NAN,
                scale,
                StepEvent::Rollback {
                    retry: attempt,
                    error: e.to_string(),
                },
                0,
                None,
            );
            Err::<(), _>(e)
        })
        .expect_err("injected fault never succeeds");
        let pm = recorder.post_mortem(
            "inject_fault",
            Trigger::SolverError,
            Some(fail.value.to_string()),
            attempt,
            fail.retries,
            f64::NAN,
        );
        return Err(CaseFailure::controlled(fail.value, Some(pm)));
    }
    match &case.level {
        LevelSpec::Synthetic { work_ms, outcome } => run_synthetic(case, *work_ms, outcome),
        LevelSpec::Correlation { k_sg } => run_correlation(case, *k_sg),
        LevelSpec::Vsl {
            n_points,
            radiating,
        } => run_vsl(case, *n_points, *radiating),
        LevelSpec::EulerBl {
            ni,
            nj,
            max_steps,
            tol,
        } => run_euler_bl(case, *ni, *nj, *max_steps, *tol),
        LevelSpec::Pns { ni, nj, i_start } => run_pns(case, *ni, *nj, *i_start),
        LevelSpec::Ns {
            ni,
            nj,
            max_steps,
            tol,
        } => run_ns(case, *ni, *nj, *max_steps, *tol),
    }
}

fn run_synthetic(case: &CaseSpec, work_ms: f64, outcome: &str) -> Result<CaseResult, CaseFailure> {
    let spin = || {
        if work_ms > 0.0 {
            std::thread::sleep(std::time::Duration::from_secs_f64(work_ms / 1e3));
        }
    };
    match outcome {
        "ok" => {
            spin();
            let mut res = CaseResult {
                note: "synthetic".into(),
                ..CaseResult::default()
            };
            res.metric("work_ms", work_ms);
            Ok(res)
        }
        "fail" => {
            let fail = retry_with_backoff(case.max_retries, |_| {
                spin();
                Err::<(), _>(SolverError::Diverged {
                    iter: 1,
                    residual: f64::INFINITY,
                })
            })
            .expect_err("synthetic 'fail' never succeeds");
            Err(CaseFailure::new(fail.value, fail.retries))
        }
        "panic" => {
            spin();
            panic!("synthetic panic (case '{}')", case.id);
        }
        other => Err(CaseFailure::new(
            SolverError::BadInput(format!(
                "case '{}': unknown synthetic outcome '{other}' (want ok|fail|panic)",
                case.id
            )),
            0,
        )),
    }
}

fn run_correlation(case: &CaseSpec, k_sg: f64) -> Result<CaseResult, CaseFailure> {
    flow_finite(case).map_err(|e| CaseFailure::new(e, 0))?;
    let f = &case.flow;
    let q = convective_sutton_graves(f.rho_inf, f.u_inf, f.nose_radius, k_sg);
    let mut res = CaseResult {
        note: "Sutton-Graves".into(),
        ..CaseResult::default()
    };
    res.metric("q_conv_w_m2", q);
    Ok(res)
}

fn run_vsl(case: &CaseSpec, n_points: usize, radiating: bool) -> Result<CaseResult, CaseFailure> {
    flow_finite(case).map_err(|e| CaseFailure::new(e, 0))?;
    let gas = case.gas.equilibrium().ok_or_else(|| {
        CaseFailure::new(
            SolverError::BadInput(format!(
                "case '{}': the VSL level needs an equilibrium gas, got '{}'",
                case.id,
                case.gas.name()
            )),
            0,
        )
    })?;
    let f = &case.flow;
    let problem = VslProblem {
        u_inf: f.u_inf,
        rho_inf: f.rho_inf,
        t_inf: f.t_inf,
        nose_radius: f.nose_radius,
        t_wall: f.t_wall,
        n_points,
        radiating,
    };
    let out = solve_with_retry(&gas, &problem, case.max_retries)
        .map_err(|f| CaseFailure::new(f.value, f.retries))?;
    let sol = out.value;
    let mut res = CaseResult {
        retries: out.retries,
        note: format!("δ/Rn = {:.3}", sol.standoff / f.nose_radius),
        ..CaseResult::default()
    };
    res.metric("q_stag_w_m2", sol.q_conv);
    res.metric("q_conv_w_m2", sol.q_conv);
    res.metric("standoff_m", sol.standoff);
    res.metric("p_stag_pa", sol.p_stag);
    res.metric("t_edge_k", sol.t_edge);
    if radiating {
        res.metric("q_rad_thin_w_m2", sol.q_rad_thin);
        let (lo, hi, n) = SLAB_BAND;
        res.metric("q_rad_w_m2", tangent_slab_over_stations(&sol, lo, hi, n));
    }
    Ok(res)
}

fn inflow_bc(fs: (f64, f64, f64, f64)) -> BcSet {
    BcSet {
        i_lo: Bc::SlipWall,
        i_hi: Bc::Outflow,
        j_lo: Bc::SlipWall,
        j_hi: Bc::Inflow {
            rho: fs.0,
            ux: fs.1,
            ur: fs.2,
            p: fs.3,
        },
    }
}

fn cfd_run_options(case: &CaseSpec, max_steps: usize, tol: f64) -> RunOptions {
    RunOptions {
        max_units: max_steps,
        tol,
        checkpoint_every: 100,
        max_retries: case.max_retries,
        first_order_fallback: true,
        ..RunOptions::default()
    }
}

fn cfd_flow(case: &CaseSpec) -> Result<(f64, f64, f64, f64), CaseFailure> {
    flow_finite(case).map_err(|e| CaseFailure::new(e, 0))?;
    let f = &case.flow;
    if !f.p_inf.is_finite() || f.p_inf <= 0.0 {
        return Err(CaseFailure::new(
            SolverError::BadInput(format!(
                "case '{}': CFD levels need a finite positive p_inf, got {}",
                case.id, f.p_inf
            )),
            0,
        ));
    }
    Ok((f.rho_inf, f.u_inf, 0.0, f.p_inf))
}

fn run_euler_bl(
    case: &CaseSpec,
    ni: usize,
    nj: usize,
    max_steps: usize,
    tol: f64,
) -> Result<CaseResult, CaseFailure> {
    let fs = cfd_flow(case)?;
    let gas = cfd_gas(case).map_err(|e| CaseFailure::new(e, 0))?;
    let f = &case.flow;
    let rn = f.nose_radius;
    let body = Hemisphere::new(rn);
    let dist = stretch::uniform(nj);
    let grid = StructuredGrid::blunt_body(&body, ni, nj, &|sb| (0.3 + 0.2 * sb) * rn, &dist);
    let opts = EulerOptions {
        cfl: 0.4,
        startup_steps: 300,
        ..EulerOptions::default()
    };
    let mut euler = EulerSolver::new(&grid, gas.as_ref(), inflow_bc(fs), opts, fs);
    let run_opts = cfd_run_options(case, max_steps, tol);
    let (out, pm) = run_recorded(&mut euler, &run_opts);
    let out = out.map_err(|e| CaseFailure::controlled(e, pm))?;

    let p_stag = euler.primitive(0, 0).p;
    let rho_stag = euler.primitive(0, 0).rho;
    let t_stag = gas.temperature(rho_stag, euler.internal_energy(0, 0));
    let q = fay_riddell(&FayRiddellInputs {
        rho_e: rho_stag,
        mu_e: sutherland_air(t_stag),
        rho_w: p_stag / (287.05 * f.t_wall),
        mu_w: sutherland_air(f.t_wall),
        due_dx: newtonian_velocity_gradient(rn, p_stag, f.p_inf, rho_stag),
        h0e: 1004.5 * f.t_inf + 0.5 * f.u_inf * f.u_inf,
        hw: 1004.5 * f.t_wall,
        pr: 0.71,
        lewis: 1.0,
        h_d_frac: 0.0,
    });
    let mut res = CaseResult {
        retries: out.retries,
        note: format!("p0/p∞ = {:.1}", p_stag / f.p_inf),
        ..CaseResult::default()
    };
    res.metric("q_stag_w_m2", q);
    res.metric("p_stag_pa", p_stag);
    res.metric("steps", out.units as f64);
    res.metric("converged", f64::from(u8::from(out.converged)));
    Ok(res)
}

fn run_pns(
    case: &CaseSpec,
    ni: usize,
    nj: usize,
    i_start: usize,
) -> Result<CaseResult, CaseFailure> {
    let fs = cfd_flow(case)?;
    let gas = cfd_gas(case).map_err(|e| CaseFailure::new(e, 0))?;
    let f = &case.flow;
    let rn = f.nose_radius;
    let body = SphereCone {
        rn,
        half_angle: 20f64.to_radians(),
        length: 10.0 * rn,
    };
    let dist = stretch::tanh_one_sided(nj, 2.5);
    let grid = StructuredGrid::blunt_body(&body, ni, nj, &|sb| (0.25 + 0.8 * sb) * rn, &dist);
    let opts = PnsOptions {
        t_wall: Some(f.t_wall),
        ..PnsOptions::default()
    };
    let station_tol = opts.station_tol;
    let mut pns = PnsSolver::new(&grid, gas.as_ref(), opts, fs, i_start);
    let run_opts = cfd_run_options(case, grid.nci(), 0.0);
    let (out, pm) = trace::spanned("pns_march", || run_recorded(&mut pns, &run_opts));
    let out = out.map_err(|e| CaseFailure::controlled(e, pm))?;
    let sol = pns.solution();
    let q_first = sol
        .wall_heat_flux
        .iter()
        .copied()
        .find(|q| *q > 0.0)
        .unwrap_or(0.0);
    let mut res = CaseResult {
        retries: out.retries,
        note: format!("{} stations marched", sol.station_x.len()),
        ..CaseResult::default()
    };
    let unconverged = sol
        .residual_ratio
        .iter()
        .filter(|r| r.is_nan() || **r >= station_tol)
        .count();
    res.metric("q_stag_w_m2", q_first);
    res.metric("stations", sol.station_x.len() as f64);
    res.metric("stations_unconverged", unconverged as f64);
    res.metric("converged", f64::from(u8::from(unconverged == 0)));
    Ok(res)
}

fn run_ns(
    case: &CaseSpec,
    ni: usize,
    nj: usize,
    max_steps: usize,
    tol: f64,
) -> Result<CaseResult, CaseFailure> {
    let fs = cfd_flow(case)?;
    let gas = cfd_gas(case).map_err(|e| CaseFailure::new(e, 0))?;
    let f = &case.flow;
    let rn = f.nose_radius;
    let body = Hemisphere::new(rn);
    let dist = stretch::tanh_one_sided(nj, 3.5);
    let grid = StructuredGrid::blunt_body(&body, ni, nj, &|sb| (0.3 + 0.2 * sb) * rn, &dist);
    let opts = EulerOptions {
        cfl: 0.4,
        startup_steps: 500,
        ..EulerOptions::default()
    };
    let mut ns = NsSolver::new(
        &grid,
        gas.as_ref(),
        inflow_bc(fs),
        opts,
        fs,
        Transport::air(),
        f.t_wall,
    );
    let run_opts = cfd_run_options(case, max_steps, tol);
    let (out, pm) = run_recorded(&mut ns, &run_opts);
    let out = out.map_err(|e| CaseFailure::controlled(e, pm))?;
    let mut res = CaseResult {
        retries: out.retries,
        note: "full viscous relaxation".into(),
        ..CaseResult::default()
    };
    res.metric("q_stag_w_m2", ns.wall_heat_flux(0));
    res.metric("steps", out.units as f64);
    res.metric("converged", f64::from(u8::from(out.converged)));
    Ok(res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FlowSpec;

    fn flow() -> FlowSpec {
        FlowSpec::new(3e-4, 6700.0, 230.0, 20.0, 0.6, 1500.0)
    }

    #[test]
    fn correlation_matches_direct_call() {
        let case = CaseSpec::new(
            "c",
            GasSpec::IdealAir,
            LevelSpec::Correlation { k_sg: 1.74e-4 },
            flow(),
        );
        let res = run_case(&case).expect("correlation");
        let direct = convective_sutton_graves(3e-4, 6700.0, 0.6, 1.74e-4);
        assert_eq!(res.get("q_conv_w_m2").unwrap().to_bits(), direct.to_bits());
    }

    #[test]
    fn injected_fault_exhausts_the_budget() {
        let mut case = CaseSpec::new(
            "boom",
            GasSpec::IdealAir,
            LevelSpec::Correlation { k_sg: 1.74e-4 },
            flow(),
        );
        case.inject_fault = true;
        case.max_retries = 4;
        let fail = run_case(&case).expect_err("injected");
        assert_eq!(fail.retries, 4);
        assert!(matches!(fail.error, SolverError::NonFinite { .. }));
    }

    #[test]
    fn vsl_rejects_ideal_gas() {
        let case = CaseSpec::new(
            "v",
            GasSpec::IdealAir,
            LevelSpec::Vsl {
                n_points: 20,
                radiating: false,
            },
            flow(),
        );
        let fail = run_case(&case).expect_err("ideal gas has no shock-layer chemistry");
        assert!(fail.error.to_string().contains("equilibrium"));
    }

    #[test]
    fn synthetic_outcomes() {
        let mk = |outcome: &str| {
            CaseSpec::new(
                "s",
                GasSpec::IdealAir,
                LevelSpec::Synthetic {
                    work_ms: 0.0,
                    outcome: outcome.to_string(),
                },
                flow(),
            )
        };
        assert!(run_case(&mk("ok")).is_ok());
        let fail = run_case(&mk("fail")).expect_err("fail outcome");
        assert!(matches!(fail.error, SolverError::Diverged { .. }));
        assert!(run_case(&mk("nonsense")).is_err());
        let panic = std::panic::catch_unwind(|| run_case(&mk("panic")));
        assert!(panic.is_err());
    }

    #[test]
    fn bad_flow_is_a_typed_error() {
        let mut case = CaseSpec::new(
            "bad",
            GasSpec::IdealAir,
            LevelSpec::Correlation { k_sg: 1.74e-4 },
            flow(),
        );
        case.flow.rho_inf = -1.0;
        let fail = run_case(&case).expect_err("negative density");
        assert!(matches!(fail.error, SolverError::BadInput(_)));
    }
}
