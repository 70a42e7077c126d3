//! Integration test: the solution-adaptive regridding loop — coarse Euler
//! solve → shock locus → fitted grid → resolve — improves how much of the
//! grid the shock layer occupies without moving the captured standoff.

use aerothermo::gas::IdealGas;
use aerothermo::grid::adapt::{blunt_body_adapted, shock_envelope, shock_layer_fill};
use aerothermo::grid::bodies::Hemisphere;
use aerothermo::grid::quality::assess;
use aerothermo::grid::{stretch, StructuredGrid};
use aerothermo::solvers::euler2d::{Bc, BcSet, EulerOptions, EulerSolver};
use aerothermo::solvers::runctl::{run_controlled, RunOptions};

fn shock_distances(solver: &EulerSolver<'_>, rho_inf: f64) -> Vec<f64> {
    let m = solver.grid_metrics();
    (0..solver.nci())
        .map(|i| {
            solver.shock_index(i, rho_inf, 1.5).map_or(f64::NAN, |j| {
                let dx = m.xc[(i, j)] - m.xc[(i, 0)];
                let dr = m.rc[(i, j)] - m.rc[(i, 0)];
                (dx * dx + dr * dr).sqrt()
            })
        })
        .collect()
}

#[test]
fn adaptation_concentrates_points_in_shock_layer() {
    let gas = IdealGas::air();
    let t_inf = 230.0;
    let p_inf = 300.0;
    let rho_inf = p_inf / (287.05 * t_inf);
    let a_inf = (1.4_f64 * 287.05 * t_inf).sqrt();
    let v_inf = 8.0 * a_inf;
    let fs = (rho_inf, v_inf, 0.0, p_inf);
    let rn = 0.2;
    let body = Hemisphere::new(rn);
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

    // Pass 1: generous (wasteful) envelope.
    let dist = stretch::uniform(41);
    let coarse = StructuredGrid::blunt_body(&body, 17, 41, &|sb| (0.5 + 0.3 * sb) * rn, &dist);
    let mut s1 = EulerSolver::new(&coarse, &gas, bc, opts.clone(), fs);
    run_controlled(
        &mut s1,
        &RunOptions {
            max_units: 3000,
            tol: 1e-3,
            max_retries: 0,
            ..RunOptions::default()
        },
    )
    .expect("stable run");
    let d1 = shock_distances(&s1, rho_inf);
    let env1: Vec<f64> = (0..17)
        .map(|i| (0.5 + 0.3 * i as f64 / 16.0) * rn)
        .collect();
    let fill1 = shock_layer_fill(&d1, &env1);
    let standoff1 = s1.standoff(rho_inf).expect("pass-1 shock");

    // Pass 2: shock-fitted envelope.
    let env2 = shock_envelope(&d1, 0.35);
    let adapted = blunt_body_adapted(&body, &env2, &dist);
    assert!(assess(&adapted).acceptable(), "adapted grid quality");
    let mut s2 = EulerSolver::new(&adapted, &gas, bc, opts, fs);
    run_controlled(
        &mut s2,
        &RunOptions {
            max_units: 3000,
            tol: 1e-3,
            max_retries: 0,
            ..RunOptions::default()
        },
    )
    .expect("stable run");
    let d2 = shock_distances(&s2, rho_inf);
    let fill2 = shock_layer_fill(&d2, &env2);
    let standoff2 = s2.standoff(rho_inf).expect("pass-2 shock");

    // Adaptation payoff: shock layer occupies a much larger grid fraction.
    assert!(
        fill2 > 1.3 * fill1,
        "fill should improve: pass1 {fill1:.3}, pass2 {fill2:.3}"
    );
    assert!(fill2 > 0.5, "adapted fill = {fill2:.3}");
    // Physics unchanged: standoff agrees between the grids.
    assert!(
        (standoff1 - standoff2).abs() < 0.35 * standoff1,
        "standoff drift: {standoff1:.4} vs {standoff2:.4}"
    );
}
