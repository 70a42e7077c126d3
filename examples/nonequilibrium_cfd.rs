//! Nonequilibrium blunt-body CFD — the paper's "biggest challenge" demo.
//!
//! Runs the two-temperature reacting Euler solver (loosely coupled Park
//! chemistry) over a small hemisphere at AOTV-class speed and prints the
//! stagnation-line relaxation structure: T vs T_v lag behind the bow shock,
//! progressive O₂/N₂ dissociation toward the body, NO formation.
//!
//! Run with: `cargo run --release --example nonequilibrium_cfd`
//! (takes ~a minute: every hot cell integrates stiff chemistry each step).

use aerothermo::gas::equilibrium::air9_equilibrium;
use aerothermo::gas::kinetics::park_air9;
use aerothermo::gas::relaxation::RelaxationModel;
use aerothermo::grid::bodies::Hemisphere;
use aerothermo::grid::{stretch, StructuredGrid};
use aerothermo::solvers::reacting::{
    FreeStream, ReactingBc, ReactingBcSet, ReactingOptions, ReactingSolver,
};
use aerothermo::solvers::runctl::{run_controlled, RunOptions};

fn main() {
    let gas = air9_equilibrium();
    let set = park_air9(gas.mixture());
    let relax = RelaxationModel::new(gas.mixture().clone());

    let rn = 0.05;
    let body = Hemisphere::new(rn);
    let dist = stretch::uniform(27);
    let grid = StructuredGrid::blunt_body(&body, 11, 27, &|sb| (0.3 + 0.2 * sb) * rn, &dist);

    let mut y = vec![0.0; gas.mixture().len()];
    y[0] = 0.767;
    y[1] = 0.233;
    let fs = FreeStream {
        y,
        rho: 1.5e-3,
        ux: 5500.0,
        ur: 0.0,
        t: 250.0,
    };
    println!(
        "reacting Euler: hemisphere Rn = {rn} m, V = {} m/s, rho = {} kg/m³",
        fs.ux, fs.rho
    );

    let bc = ReactingBcSet {
        i_lo: ReactingBc::SlipWall,
        i_hi: ReactingBc::Outflow,
        j_lo: ReactingBc::SlipWall,
        j_hi: ReactingBc::Inflow(fs.clone()),
    };
    let opts = ReactingOptions {
        startup_steps: 200,
        ..ReactingOptions::default()
    };
    let mut solver = ReactingSolver::new(&grid, &set, &relax, bc, opts, &fs);
    for block in 0..4 {
        let opts = RunOptions {
            max_units: (block + 1) * 130,
            max_retries: 0,
            ..RunOptions::default()
        };
        let r = run_controlled(&mut solver, &opts)
            .expect("stable run")
            .residual;
        println!("  after {} steps: residual {r:.3e}", (block + 1) * 130);
    }

    println!("\nstagnation line (wall → freestream):");
    println!("   j      T[K]    Tv[K]    y_N2     y_O2     y_NO     y_O");
    for (j, q) in solver.stagnation_line().iter().enumerate() {
        if j % 2 != 0 {
            continue;
        }
        println!(
            "  {j:2}  {:8.0} {:8.0}  {:.4}  {:.4}   {:.4}  {:.4}",
            q.t, q.tv, q.y[0], q.y[1], q.y[2], q.y[4]
        );
    }

    let line = solver.stagnation_line();
    let j_shock = (0..line.len())
        .rev()
        .find(|&j| line[j].t > 500.0)
        .unwrap_or(0);
    let behind = &line[j_shock.saturating_sub(1)];
    println!(
        "\nbehind the shock: T = {:.0} K, Tv = {:.0} K  (thermal nonequilibrium: Tv lags)",
        behind.t, behind.tv
    );
    println!(
        "at the body:      T = {:.0} K, Tv = {:.0} K, y_O2 = {:.4} (dissociating toward equilibrium)",
        line[1].t, line[1].tv, line[1].y[1]
    );
}
