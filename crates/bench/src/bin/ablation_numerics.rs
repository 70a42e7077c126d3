//! Numerics ablation study — the design choices DESIGN.md calls out,
//! measured: slope limiter, reconstruction order, and grid resolution are
//! graded against the *exact* Riemann solution (Sod problem) and against
//! each other on the captured-bow-shock standoff.
//!
//! Outputs:
//! * L1 density error vs the exact Sod solution for first-order and each
//!   TVD limiter, at two resolutions (shows the order/limiter hierarchy and
//!   the convergence rate),
//! * bow-shock standoff sensitivity to the limiter (shows the steady-state
//!   answer is limiter-robust — the property that lets production codes
//!   pick the dissipative-but-safe choice).

use aerothermo_bench::{emit, output_mode, Report};
use aerothermo_core::tables::Table;
use aerothermo_gas::IdealGas;
use aerothermo_grid::bodies::Hemisphere;
use aerothermo_grid::{stretch, Geometry, StructuredGrid};
use aerothermo_numerics::limiters::Limiter;
use aerothermo_solvers::euler2d::{Bc, BcSet, EulerOptions, EulerSolver};
use aerothermo_solvers::riemann::sod;
use aerothermo_solvers::runctl::{run_controlled, RunOptions};

fn sod_l1_error(limiter: Limiter, ncells: usize) -> f64 {
    let gas = IdealGas {
        gamma: 1.4,
        r: 287.0,
    };
    let grid = StructuredGrid::rectangle(ncells + 1, 3, 1.0, 0.02, Geometry::Planar);
    let bc = BcSet {
        i_lo: Bc::Outflow,
        i_hi: Bc::Outflow,
        j_lo: Bc::SlipWall,
        j_hi: Bc::SlipWall,
    };
    let opts = EulerOptions {
        startup_steps: 0,
        cfl: 0.4,
        limiter,
    };
    let mut solver = EulerSolver::new(&grid, &gas, bc, opts, (1.0, 0.0, 0.0, 1.0));
    for i in ncells / 2..ncells {
        for j in 0..2 {
            let e = 0.1 / (0.4 * 0.125);
            let c = solver.u.vector_mut(i, j);
            c[0] = 0.125;
            c[1] = 0.0;
            c[2] = 0.0;
            c[3] = 0.125 * e;
        }
    }
    let t_end = 0.2;
    // Forward-Euler time marching with MUSCL is stable only at small CFL;
    // ~0.1 covers the sharpest limiter (superbee).
    let dt = 0.06 / ncells as f64;
    let nsteps = (t_end / dt).round() as usize;
    for _ in 0..nsteps {
        solver.step_global_dt(t_end / nsteps as f64);
    }
    // L1 density error against the exact solution about the diaphragm.
    let exact = sod();
    let dx = 1.0 / ncells as f64;
    let mut err = 0.0;
    for i in 0..ncells {
        let x = (i as f64 + 0.5) * dx - 0.5;
        let xi = x / t_end;
        let rho_ex = exact.sample(xi).rho;
        let rho_num = solver.primitive(i, 1).rho;
        err += (rho_num - rho_ex).abs() * dx;
    }
    err
}

fn bow_standoff(limiter: Limiter) -> f64 {
    let gas = IdealGas::air();
    let t_inf = 230.0;
    let p_inf = 300.0;
    let rho_inf = p_inf / (287.05 * t_inf);
    let v_inf = 8.0 * (1.4_f64 * 287.05 * t_inf).sqrt();
    let rn = 0.2;
    let body = Hemisphere::new(rn);
    let dist = stretch::uniform(45);
    let grid = StructuredGrid::blunt_body(&body, 17, 45, &|sb| (0.3 + 0.2 * sb) * rn, &dist);
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
        limiter,
    };
    let mut solver = EulerSolver::new(&grid, &gas, bc, opts, fs);
    run_controlled(
        &mut solver,
        &RunOptions {
            max_units: 3000,
            tol: 1e-3,
            max_retries: 0,
            ..RunOptions::default()
        },
    )
    .expect("stable run");
    solver.standoff(rho_inf).unwrap_or(f64::NAN)
}

fn main() {
    aerothermo_bench::cli::announce("ablation_numerics");
    let mode = output_mode();
    let mut report = Report::new("ablation_numerics");

    let limiters = [
        ("first-order", Limiter::FirstOrder),
        ("minmod", Limiter::Minmod),
        ("van Leer", Limiter::VanLeer),
        ("superbee", Limiter::Superbee),
    ];

    // --- Sod accuracy --------------------------------------------------------
    let mut sod_table = Table::new(&["scheme", "L1_err_200", "L1_err_400", "obs_order"]);
    let mut errs = Vec::new();
    for (name, lim) in limiters {
        let e200 = sod_l1_error(lim, 200);
        let e400 = sod_l1_error(lim, 400);
        let order = (e200 / e400).log2();
        errs.push((name, e200, e400, order));
        sod_table.row(&[
            name.to_string(),
            format!("{e200:.4e}"),
            format!("{e400:.4e}"),
            format!("{order:.2}"),
        ]);
    }
    emit(
        "Ablation: Sod-tube L1 density error vs exact solution",
        &sod_table,
        mode,
    );

    // --- Bow-shock standoff sensitivity --------------------------------------
    let mut shock_table = Table::new(&["scheme", "standoff_mm"]);
    let mut standoffs = Vec::new();
    for (name, lim) in limiters {
        let d = bow_standoff(lim);
        standoffs.push((name, d));
        shock_table.row(&[name.to_string(), format!("{:.2}", d * 1000.0)]);
    }
    emit(
        "Ablation: M8 hemisphere standoff vs limiter",
        &shock_table,
        mode,
    );

    // --- Checks ----------------------------------------------------------------
    let e_first = errs[0].1;
    let e_minmod = errs[1].1;
    let e_vl = errs[2].1;
    report.metric("sod_l1_first_order_200", e_first);
    report.metric("sod_l1_minmod_200", e_minmod);
    report.metric("sod_l1_van_leer_200", e_vl);
    assert!(
        report.check(
            "second_order_beats_first",
            e_minmod < 0.8 * e_first,
            format!("minmod {e_minmod:.3e} vs first-order {e_first:.3e}"),
        ),
        "second order must beat first: {e_minmod:.3e} vs {e_first:.3e}"
    );
    assert!(
        report.check(
            "van_leer_at_least_minmod",
            e_vl <= e_minmod * 1.05,
            format!("van Leer {e_vl:.3e} vs minmod {e_minmod:.3e}"),
        ),
        "van Leer should be at least as accurate as minmod"
    );
    // Convergence: every scheme improves under refinement.
    for (name, e200, e400, _) in &errs {
        assert!(
            report.check(
                &format!("grid_convergence_{}", name.replace([' ', '-'], "_")),
                e400 < e200,
                format!("{e200:.3e} -> {e400:.3e}"),
            ),
            "{name} did not converge: {e200:.3e} -> {e400:.3e}"
        );
    }
    // Standoff robust to the limiter (±15%).
    let d_ref = standoffs[1].1;
    for (name, d) in &standoffs[1..] {
        assert!(
            report.check(
                &format!("standoff_robust_{}", name.replace(' ', "_")),
                (d - d_ref).abs() < 0.15 * d_ref,
                format!("{name} standoff {d:.4} vs minmod {d_ref:.4}"),
            ),
            "{name} standoff {d:.4} vs minmod {d_ref:.4}"
        );
    }
    report.finish();
    println!("PASS: order/limiter hierarchy and steady-state robustness measured");
}
