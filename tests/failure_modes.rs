//! Failure-injection tests: unphysical or out-of-envelope inputs must come
//! back as `Err` values with context — not panics, not NaN-poisoned
//! answers.

use aerothermo::gas::equilibrium::{air9_equilibrium, titan_equilibrium};
use aerothermo::gas::kinetics::park_air9;
use aerothermo::gas::relaxation::RelaxationModel;
use aerothermo::gas::{IdealGas, Mixture};
use aerothermo::solvers::shock::normal_shock;
use aerothermo::solvers::shock1d::{solve as relax_solve, RelaxationProblem};
use aerothermo::solvers::vsl::{solve as vsl_solve, VslProblem};

#[test]
fn unstable_cfl_reports_divergence_not_a_hang() {
    use aerothermo::grid::bodies::Hemisphere;
    use aerothermo::grid::{stretch, StructuredGrid};
    use aerothermo::numerics::telemetry::SolverError;
    use aerothermo::solvers::euler2d::{Bc, BcSet, EulerOptions, EulerSolver};
    use aerothermo::solvers::runctl::{run_controlled, RunOptions};

    let gas = IdealGas::air();
    let t_inf = 230.0;
    let p_inf = 300.0;
    let rho_inf = p_inf / (287.05 * t_inf);
    let v_inf = 8.0 * (1.4_f64 * 287.05 * t_inf).sqrt();
    let body = Hemisphere::new(0.2);
    let dist = stretch::uniform(31);
    let grid = StructuredGrid::blunt_body(&body, 9, 31, &|sb| (0.3 + 0.2 * sb) * 0.2, &dist);
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
    // CFL 2.0 is beyond the explicit stability limit: the residual grows
    // geometrically and the monitor's growth criterion must cut the run
    // off — not spin to the iteration cap or grind on NaN fields. (Still
    // higher CFL blows up to NaN before the growth test arms and returns
    // `NonFinite` instead; 2.0 sits in the clean-divergence band.)
    let opts = EulerOptions {
        cfl: 2.0,
        startup_steps: 0,
        ..EulerOptions::default()
    };
    let mut solver = EulerSolver::new(&grid, &gas, bc, opts, fs);
    // No retries: the divergence itself is under test, not its recovery.
    let err = run_controlled(
        &mut solver,
        &RunOptions {
            max_units: 100_000,
            tol: 1e-12,
            max_retries: 0,
            ..RunOptions::default()
        },
    )
    .expect_err("CFL 2.0 cannot converge");
    match err {
        SolverError::Diverged { iter, residual } => {
            assert!(
                iter < 2_000,
                "divergence must be detected early, not at iter {iter}"
            );
            assert!(
                residual.is_finite(),
                "Diverged carries the offending residual"
            );
        }
        other => panic!("expected Diverged, got {other}"),
    }
    // Even a failed run leaves its residual history observable.
    assert!(
        solver
            .telemetry
            .histories()
            .iter()
            .any(|(name, h)| name == "runctl_residual" && !h.is_empty()),
        "telemetry must retain the residual history of the failed run"
    );
}

#[test]
fn subsonic_freestream_rejected_by_shock_solver() {
    let gas = IdealGas::air();
    let err = normal_shock(&gas, 1.2, 101_325.0, 50.0);
    assert!(err.is_err(), "subsonic flow has no shock solution");
}

#[test]
fn vsl_rejects_subsonic_entry() {
    let gas = air9_equilibrium();
    let problem = VslProblem {
        u_inf: 200.0, // subsonic
        rho_inf: 1e-4,
        t_inf: 250.0,
        nose_radius: 0.5,
        t_wall: 1000.0,
        n_points: 24,
        radiating: false,
    };
    let res = vsl_solve(&gas, &problem);
    assert!(res.is_err(), "VSL must refuse a subsonic freestream");
    let msg = res.unwrap_err().to_string();
    assert!(msg.contains("shock"), "error should carry context: {msg}");
}

#[test]
fn relaxation_rejects_wrong_composition_length() {
    let gas = air9_equilibrium();
    let set = park_air9(gas.mixture());
    let relax = RelaxationModel::new(gas.mixture().clone());
    let res = relax_solve(
        &set,
        &relax,
        &RelaxationProblem {
            u1: 8000.0,
            t1: 300.0,
            p1: 50.0,
            y1: vec![1.0, 0.0], // wrong length
            x_end: 0.01,
        },
    );
    assert!(res.is_err());
}

#[test]
fn temperature_inversion_fails_gracefully_out_of_range() {
    use aerothermo::gas::species::{n2, o2};
    let mix = Mixture::new(vec![n2(), o2()]);
    let y = [0.767, 0.233];
    // Energy far beyond anything reachable below the 200 000 K bracket cap.
    let res = mix.temperature_from_energy(1e12, &y, 1000.0);
    assert!(res.is_err());
    // Negative energy equally impossible.
    let res2 = mix.temperature_from_energy(-1e9, &y, 1000.0);
    assert!(res2.is_err());
}

#[test]
fn equilibrium_range_errors_are_reported_not_panicked() {
    // A temperature of 5 K is far outside the validated envelope; the solver
    // must either converge legitimately or return Err — never panic.
    let gas = titan_equilibrium(0.05);
    match gas.at_tp(5.0, 1e5) {
        Ok(st) => {
            // If it does converge, the result must still be sane.
            assert!(st.density.is_finite() && st.density > 0.0);
        }
        Err(err) => {
            let msg = err.to_string();
            assert!(msg.contains("equilibrium"), "context: {msg}");
        }
    }
}

#[test]
fn root_finder_reports_missing_bracket() {
    use aerothermo::numerics::roots::{brent, RootError};
    let res = brent(|x| x * x + 1.0, -2.0, 2.0, 1e-10);
    assert!(matches!(res, Err(RootError::NoBracket { .. })));
}

#[test]
fn tridiagonal_rejects_inconsistent_dimensions() {
    use aerothermo::numerics::tridiag::solve_tridiag;
    let mut d = vec![1.0, 2.0, 3.0];
    let res = solve_tridiag(&[0.0, 1.0], &[1.0, 1.0, 1.0], &[1.0, 1.0, 0.0], &mut d);
    assert!(res.is_err());
}

#[test]
fn stiff_integrator_reports_newton_failure_on_pathological_system() {
    use aerothermo::numerics::ode::{stiff_integrate, AdaptiveOptions, OdeError};
    // Derivative blows up non-smoothly: y' = 1/(1−y), y → 1 at x = 0.5.
    let sys = |_x: f64, y: &[f64], d: &mut [f64]| {
        d[0] = 1.0 / (1.0 - y[0]);
    };
    let mut y = vec![0.0];
    let res = stiff_integrate(
        &sys,
        0.0,
        10.0,
        &mut y,
        &AdaptiveOptions {
            rtol: 1e-8,
            atol: 1e-12,
            h0: 1e-3,
            hmin: 1e-13,
            ..Default::default()
        },
        |_, _| {},
    );
    // y reaches the singularity at x = 0.5 (y = 1 − √(1−2x)): the marcher
    // must stop with an error, not loop or emit NaN.
    assert!(
        matches!(
            res,
            Err(OdeError::NewtonFailure(_)
                | OdeError::StepUnderflow(_)
                | OdeError::TooManySteps(_))
        ),
        "expected failure, got {res:?} with y = {y:?}"
    );
}
