//! Fig. 4 — Bow-shock shape over the Shuttle Orbiter, reacting gas vs
//! ideal gas (after Rakich, Bailey & Park — the paper's Ref. 16).
//!
//! Condition: V∞ = 6.7 km/s at 65.5 km altitude. The Orbiter windward
//! pitch plane is represented by its equivalent axisymmetric hyperboloid
//! (the same reduction the surveyed codes used; DESIGN.md §2). The Euler
//! solver is run twice on the same grid: once with the tabulated
//! equilibrium-air EOS ("REACTING GAS") and once with the calorically
//! perfect γ = 1.4 gas ("IDEAL GAS"); the captured bow-shock trace in the
//! pitch plane is reported versus axial distance.
//!
//! Shape check (the figure's message): the reacting-gas shock lies
//! substantially closer to the body — the real-gas density ratio (~12 vs 6)
//! halves the standoff.

use aerothermo_bench::{
    emit, exit_if_halted, log_run_outcome, orbiter_equivalent_body, orbiter_fig4_condition,
    output_mode, run_options, Report,
};
use aerothermo_core::tables::Table;
use aerothermo_gas::eq_table::air9_table;
use aerothermo_gas::{GasModel, IdealGas};
use aerothermo_grid::{stretch, StructuredGrid};
use aerothermo_solvers::euler2d::{Bc, BcSet, EulerOptions, EulerSolver};
use aerothermo_solvers::runctl::run_controlled;

struct ShockTrace {
    x: Vec<f64>,
    r_body: Vec<f64>,
    r_shock: Vec<f64>,
    standoff: f64,
}

fn run_case(
    gas: &dyn GasModel,
    grid: &StructuredGrid,
    fs: (f64, f64, f64, f64),
    report: &mut Report,
    label: &str,
) -> ShockTrace {
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
        startup_steps: 500,
        ..EulerOptions::default()
    };
    let nominal_cfl = opts.cfl;
    let mut solver = EulerSolver::new(grid, gas, bc, opts, fs);
    // The run controller owns the outer loop: checkpoint ring + rollback on
    // divergence, with `--checkpoint`/`--restart`/`--max-retries` wired in
    // (per-case restart files, keyed by `label`).
    let run_opts = run_options(label, 6000, 5e-3);
    let outcome = run_controlled(&mut solver, &run_opts).expect("stable Euler run");
    report.record_run_outcome(label, &outcome, nominal_cfl);
    // fig04 runs two cases, so a mid-run halt stops at the first one.
    exit_if_halted(&outcome, report);
    log_run_outcome(label, &outcome, &run_opts);
    report.absorb_telemetry(label, &solver.telemetry);

    let m = solver.grid_metrics();
    let mut x = Vec::new();
    let mut r_body = Vec::new();
    let mut r_shock = Vec::new();
    for i in 0..solver.nci() {
        if let Some(j) = solver.shock_index(i, fs.0, 1.5) {
            x.push(m.xc[(i, j)]);
            r_body.push(m.rc[(i, 0)]);
            r_shock.push(m.rc[(i, j)]);
        }
    }
    let standoff = solver.standoff(fs.0).unwrap_or(f64::NAN);
    ShockTrace {
        x,
        r_body,
        r_shock,
        standoff,
    }
}

fn main() {
    aerothermo_bench::cli::announce("fig04_shock_shape");
    let mode = output_mode();
    let mut report = Report::new("fig04_shock_shape");
    let (rho, v, p, t) = orbiter_fig4_condition();
    eprintln!("# freestream: rho = {rho:.3e} kg/m³, V = {v} m/s, p = {p:.3} Pa, T = {t:.1} K");
    let fs = (rho, v, 0.0, p);

    let body = orbiter_equivalent_body(30.0); // Fig. 4 is the α = 30° case
    let dist = stretch::uniform(55);
    let grid = StructuredGrid::blunt_body(&body, 41, 55, &|sb| 0.9 + 4.5 * sb, &dist);

    eprintln!("# reacting (equilibrium air) case:");
    let table_eq = air9_table();
    let reacting = run_case(table_eq, &grid, fs, &mut report, "euler_reacting");

    eprintln!("# ideal gas (γ = 1.4) case:");
    let ideal = IdealGas::air();
    let ideal_trace = run_case(&ideal, &grid, fs, &mut report, "euler_ideal");

    let mut table = Table::new(&["x_m", "r_body_m", "r_shock_reacting_m", "r_shock_ideal_m"]);
    let npts = reacting.x.len().min(ideal_trace.x.len());
    for k in (0..npts).step_by(2) {
        table.row(&[
            format!("{:.2}", reacting.x[k]),
            format!("{:.3}", reacting.r_body[k]),
            format!("{:.3}", reacting.r_shock[k]),
            format!("{:.3}", ideal_trace.r_shock[k]),
        ]);
    }
    emit("Fig. 4: bow-shock shape in the pitch plane", &table, mode);

    println!(
        "stagnation standoff: reacting = {:.3} m, ideal = {:.3} m (ratio {:.2})",
        reacting.standoff,
        ideal_trace.standoff,
        reacting.standoff / ideal_trace.standoff
    );

    // --- Shape checks -------------------------------------------------------
    report.metric("standoff_reacting_m", reacting.standoff);
    report.metric("standoff_ideal_m", ideal_trace.standoff);
    assert!(
        report.check(
            "reacting_standoff_compressed",
            reacting.standoff < 0.8 * ideal_trace.standoff,
            format!(
                "reacting {:.3} m vs ideal {:.3} m",
                reacting.standoff, ideal_trace.standoff
            ),
        ),
        "reacting shock must sit much closer to the body: {} vs {}",
        reacting.standoff,
        ideal_trace.standoff
    );
    // Downstream, the reacting shock stays inside the ideal shock.
    let mut inside = 0usize;
    for k in 0..npts {
        if reacting.r_shock[k] <= ideal_trace.r_shock[k] + 1e-6 {
            inside += 1;
        }
    }
    assert!(
        report.check(
            "reacting_layer_thinner_downstream",
            inside as f64 > 0.85 * npts as f64,
            format!("{inside}/{npts} stations inside the ideal shock"),
        ),
        "reacting shock layer must be thinner along the body ({inside}/{npts})"
    );
    report.finish();
    println!("PASS: real-gas shock-shape compression reproduced (paper Fig. 4)");
}
