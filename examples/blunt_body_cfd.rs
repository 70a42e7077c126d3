//! Blunt-body CFD: capture a hypersonic bow shock with the finite-volume
//! solvers and compare the real-gas and ideal-gas shock layers — the
//! paper's Fig. 4/Fig. 9 workflow on a laptop-sized grid.
//!
//! Run with: `cargo run --release --example blunt_body_cfd`

use aerothermo::core::stagnation::standoff_estimate;
use aerothermo::gas::eq_table::air9_table;
use aerothermo::gas::{GasModel, IdealGas};
use aerothermo::grid::bodies::Hemisphere;
use aerothermo::grid::{stretch, StructuredGrid};
use aerothermo::solvers::euler2d::{Bc, BcSet, EulerOptions, EulerSolver};
use aerothermo::solvers::runctl::{run_controlled, RunOptions};

fn run(gas: &dyn GasModel, label: &str, grid: &StructuredGrid, fs: (f64, f64, f64, f64)) -> f64 {
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
        startup_steps: 400,
        ..EulerOptions::default()
    };
    let mut solver = EulerSolver::new(grid, gas, bc, opts, fs);
    let outcome = run_controlled(
        &mut solver,
        &RunOptions {
            max_units: 5000,
            tol: 1e-3,
            max_retries: 0,
            ..RunOptions::default()
        },
    )
    .expect("stable Euler run");
    let (steps, ratio) = (outcome.units, outcome.ratio);
    let standoff = solver.standoff(fs.0).unwrap_or(f64::NAN);
    let q = solver.primitive(0, 0);
    println!(
        "  {label:<18} {steps:>5} steps  residual {ratio:.1e}  Δ = {:.1} mm  p0/p∞ = {:.1}",
        standoff * 1000.0,
        q.p / fs.3
    );
    standoff
}

fn main() {
    // Mach 15 at 40 km — hot enough that equilibrium chemistry matters.
    let t_inf = 250.0;
    let p_inf = 287.0;
    let rho_inf = p_inf / (287.05 * t_inf);
    let a_inf = (1.4_f64 * 287.05 * t_inf).sqrt();
    let v_inf = 15.0 * a_inf;
    let fs = (rho_inf, v_inf, 0.0, p_inf);
    println!("Mach 15 hemisphere, Rn = 0.25 m: rho∞ = {rho_inf:.3e} kg/m³, V = {v_inf:.0} m/s");

    let rn = 0.25;
    let body = Hemisphere::new(rn);
    let dist = stretch::uniform(49);
    let grid = StructuredGrid::blunt_body(&body, 25, 49, &|sb| (0.28 + 0.18 * sb) * rn, &dist);

    println!("\nsolver runs:");
    let ideal = IdealGas::air();
    let d_ideal = run(&ideal, "ideal gas γ=1.4", &grid, fs);
    let table = air9_table();
    let d_eq = run(table, "equilibrium air", &grid, fs);

    println!("\nshock standoff:");
    println!("  ideal gas      : Δ/Rn = {:.3}", d_ideal / rn);
    println!("  equilibrium air: Δ/Rn = {:.3}", d_eq / rn);
    println!(
        "  compression    : {:.0}% thinner",
        100.0 * (1.0 - d_eq / d_ideal)
    );

    // Compare against the density-ratio correlation.
    let st_eq = aerothermo::core::stagnation::stagnation_state(table, rho_inf, p_inf, v_inf)
        .expect("stagnation");
    let d_corr = standoff_estimate(rn, st_eq.density_ratio);
    println!(
        "  correlation (ρ-ratio {:.1}): Δ/Rn = {:.3}",
        st_eq.density_ratio,
        d_corr / rn
    );
    println!(
        "\nstagnation temperature: equilibrium {:.0} K vs ideal-gas {:.0} K — the\nreal-gas effect the paper calls the enabling physics of CAT.",
        st_eq.t_stag,
        t_inf * (1.0 + 0.2 * 15.0 * 15.0)
    );
}
