//! Cross-crate integration tests: different solution paths through the
//! toolkit must agree on the same physics.

use aerothermo::core::stagnation::{stagnation_state, standoff_estimate};
use aerothermo::gas::eq_table::air9_table;
use aerothermo::gas::equilibrium::air9_equilibrium;
use aerothermo::gas::kinetics::park_air9;
use aerothermo::gas::relaxation::RelaxationModel;
use aerothermo::gas::{GasModel, IdealGas};
use aerothermo::grid::bodies::Hemisphere;
use aerothermo::grid::{stretch, StructuredGrid};
use aerothermo::solvers::euler2d::{Bc, BcSet, EulerOptions, EulerSolver};
use aerothermo::solvers::runctl::{run_controlled, RunOptions};
use aerothermo::solvers::shock::normal_shock;
use aerothermo::solvers::shock1d::{solve as relax_solve, RelaxationProblem};

/// The relaxation march must land on the state the equilibrium shock solver
/// predicts — kinetics and equilibrium derive from the same partition
/// functions, so their asymptotic states must be identical.
#[test]
fn relaxation_reaches_equilibrium_shock_state() {
    let gas = air9_equilibrium();
    let set = park_air9(gas.mixture());
    let relax = RelaxationModel::new(gas.mixture().clone());
    let mut y1 = vec![0.0; gas.mixture().len()];
    y1[0] = 0.767;
    y1[1] = 0.233;
    let u1 = 9_000.0;
    let t1 = 300.0;
    let p1 = 30.0;
    let sol = relax_solve(
        &set,
        &relax,
        &RelaxationProblem {
            u1,
            t1,
            p1,
            y1,
            x_end: 0.08,
        },
    )
    .unwrap();
    let end = sol.points.last().unwrap();

    // Equilibrium jump for the same upstream state.
    let rho1 = p1
        / (gas
            .mixture()
            .gas_constant(&[0.767, 0.233, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
            * t1);
    let jump = normal_shock(&gas, rho1, p1, u1).unwrap();

    assert!(
        (end.t - jump.t).abs() < 0.12 * jump.t,
        "relaxed T = {} vs equilibrium T = {}",
        end.t,
        jump.t
    );
    assert!(
        (end.u - jump.u).abs() < 0.15 * jump.u,
        "relaxed u = {} vs equilibrium u = {}",
        end.u,
        jump.u
    );
    // Composition agreement on the major species.
    let eq_state = gas.at_trho(jump.t, jump.rho).unwrap();
    for (s, name) in ["N2", "O2", "N", "O"].iter().enumerate() {
        let _ = s;
        let idx = gas.mixture().index_of(name).unwrap();
        let x_relaxed = end.x_mole[idx];
        let x_eq = eq_state.mole_fractions[idx];
        assert!(
            (x_relaxed - x_eq).abs() < 0.08,
            "{name}: relaxed {x_relaxed:.4} vs equilibrium {x_eq:.4}"
        );
    }
}

/// Captured-shock standoff from the Euler solver vs the density-ratio
/// correlation fed by the 0-D stagnation pipeline.
#[test]
fn euler_standoff_matches_correlation() {
    let gas = IdealGas::air();
    let t_inf = 230.0;
    let p_inf = 300.0;
    let rho_inf = p_inf / (287.05 * t_inf);
    let a_inf = (1.4_f64 * 287.05 * t_inf).sqrt();
    let v_inf = 9.0 * a_inf;
    let rn = 0.2;
    let body = Hemisphere::new(rn);
    let dist = stretch::uniform(45);
    let grid = StructuredGrid::blunt_body(&body, 21, 45, &|sb| (0.3 + 0.2 * sb) * rn, &dist);
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
        startup_steps: 300,
        ..EulerOptions::default()
    };
    let mut solver = EulerSolver::new(&grid, &gas, bc, opts, fs);
    run_controlled(
        &mut solver,
        &RunOptions {
            max_units: 3500,
            tol: 1e-3,
            max_retries: 0,
            ..RunOptions::default()
        },
    )
    .expect("stable run");
    let d_cfd = solver.standoff(rho_inf).unwrap();

    let st = stagnation_state(&gas, rho_inf, p_inf, v_inf).unwrap();
    let d_corr = standoff_estimate(rn, st.density_ratio);
    let ratio = d_cfd / d_corr;
    assert!(
        (0.6..1.8).contains(&ratio),
        "CFD standoff {d_cfd:.4} vs correlation {d_corr:.4}"
    );
}

/// The tabulated EOS and the exact equilibrium solver must give the same
/// stagnation state along the whole pipeline.
#[test]
fn table_and_direct_equilibrium_agree_through_shock_pipeline() {
    let gas = air9_equilibrium();
    let table = air9_table();
    let rho_inf = 3e-4;
    let p_inf = 20.0;
    let v = 5_500.0;
    let st_table = stagnation_state(table, rho_inf, p_inf, v).unwrap();
    let st_exact = stagnation_state(&gas, rho_inf, p_inf, v).unwrap();
    assert!(
        (st_table.t_stag - st_exact.t_stag).abs() < 0.06 * st_exact.t_stag,
        "T0: table {} vs exact {}",
        st_table.t_stag,
        st_exact.t_stag
    );
    assert!(
        (st_table.p_stag - st_exact.p_stag).abs() < 0.05 * st_exact.p_stag,
        "p0: table {} vs exact {}",
        st_table.p_stag,
        st_exact.p_stag
    );
}

/// Umbrella-crate re-exports expose a coherent API.
#[test]
fn umbrella_reexports_work() {
    let gas = IdealGas::air();
    assert!((gas.gamma_eff(1.0, 1e5) - 1.4).abs() < 1e-12);
    let r = aerothermo::numerics::constants::R_UNIVERSAL;
    assert!(r > 8314.0 && r < 8315.0);
    let mix = aerothermo::gas::Mixture::new(vec![aerothermo::gas::species::n2()]);
    assert_eq!(mix.len(), 1);
}
