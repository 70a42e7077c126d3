//! Fig. 9 — N₂ mole-fraction field for Mach-20 equilibrium-air flow over a
//! hemisphere at 20 km altitude (after Green, the paper's Ref. 26).
//!
//! The axisymmetric Navier-Stokes solver runs with the tabulated
//! equilibrium-air EOS; the captured bow shock and the dissociation field
//! are post-processed from the composition table into the contour levels
//! the paper plots (x_N2 = 0.50 … 0.75).
//!
//! Shape checks: the bow shock is captured at the real-gas standoff
//! (Δ/Rn ≈ 0.05–0.09, roughly half the ideal-gas value); N₂ is strongly
//! dissociated at the stagnation line but intact in the freestream; the
//! contour levels nest monotonically between shock and body.

use aerothermo_atmosphere::us76::Us76;
use aerothermo_atmosphere::Atmosphere;
use aerothermo_bench::{emit, exit_if_halted, log_run_outcome, output_mode, run_options, Report};
use aerothermo_core::tables::Table;
use aerothermo_gas::eq_table::air9_table;
use aerothermo_grid::bodies::Hemisphere;
use aerothermo_grid::{stretch, StructuredGrid};
use aerothermo_solvers::euler2d::{Bc, BcSet, EulerOptions};
use aerothermo_solvers::ns2d::{NsSolver, Transport};
use aerothermo_solvers::runctl::run_controlled;

fn main() {
    aerothermo_bench::cli::announce("fig09_n2_contours");
    let mode = output_mode();
    let mut report = Report::new("fig09_n2_contours");
    let atm = Us76;
    let h = 20_000.0;
    let t_inf = atm.temperature(h);
    let p_inf = atm.pressure(h);
    let rho_inf = atm.density(h);
    let a_inf = atm.sound_speed(h);
    let v_inf = 20.0 * a_inf;
    eprintln!(
        "# M20 at 20 km: T = {t_inf:.1} K, p = {p_inf:.1} Pa, rho = {rho_inf:.4} kg/m³, V = {v_inf:.0} m/s"
    );

    let rn = 0.15; // hemisphere of the paper's validation class
    let body = Hemisphere::new(rn);
    let dist = stretch::tanh_one_sided(57, 2.2);
    let grid = StructuredGrid::blunt_body(&body, 31, 57, &|sb| (0.18 + 0.12 * sb) * rn, &dist);

    let table_eq = air9_table();
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
        cfl: 0.35,
        startup_steps: 600,
        ..EulerOptions::default()
    };
    let nominal_cfl = opts.cfl;
    let mut solver = NsSolver::new(&grid, table_eq, bc, opts, fs, Transport::air(), 2000.0);
    // Controller-owned outer loop: rollback on divergence plus the shared
    // `--checkpoint`/`--restart`/`--max-retries` flags.
    let run_opts = run_options("fig09_n2_contours", 9000, 1e-3);
    let outcome = run_controlled(&mut solver, &run_opts).expect("stable NS run");
    report.record_run_outcome("ns_m20", &outcome, nominal_cfl);
    exit_if_halted(&outcome, &report);
    log_run_outcome("ns_m20", &outcome, &run_opts);
    report.absorb_telemetry("ns_m20", &solver.inviscid.telemetry);

    // N2 mole-fraction field along selected body-normal lines.
    let molar: Vec<f64> = table_eq
        .species_names()
        .iter()
        .map(|n| match n.as_str() {
            "N2" => 28.0134,
            "O2" => 31.9988,
            "NO" | "NO+" => 30.006,
            "N" | "N+" => 14.0067,
            "O" | "O+" => 15.9994,
            _ => 5.49e-4,
        })
        .collect();
    let x_n2_at = |i: usize, j: usize| -> f64 {
        let q = solver.inviscid.primitive(i, j);
        let e = solver.inviscid.internal_energy(i, j);
        let x = table_eq.mole_fractions(q.rho, e, &molar);
        x[0]
    };

    let m = solver.inviscid.grid_metrics();
    let mut table = Table::new(&["i_line", "y_over_rn", "T_K", "x_N2"]);
    for i in [0usize, 10, 20, 29] {
        for j in (0..solver.inviscid.ncj()).step_by(6) {
            let dx = m.xc[(i, j)] - m.xc[(i, 0)];
            let dr = m.rc[(i, j)] - m.rc[(i, 0)];
            let d = (dx * dx + dr * dr).sqrt();
            table.row(&[
                format!("{i}"),
                format!("{:.3}", d / rn),
                format!("{:.0}", solver.temperature(i, j)),
                format!("{:.3}", x_n2_at(i, j)),
            ]);
        }
    }
    emit(
        "Fig. 9: N2 mole fraction along body-normal lines",
        &table,
        mode,
    );

    // Contour-level crossings on the stagnation line (the paper's levels).
    let levels = [0.50, 0.55, 0.60, 0.65, 0.70, 0.75];
    let mut ctable = Table::new(&["contour_x_N2", "y_over_rn_at_stagnation_line"]);
    let ncj = solver.inviscid.ncj();
    for &lev in &levels {
        let mut y_cross = f64::NAN;
        for j in 1..ncj {
            let a = x_n2_at(0, j - 1);
            let b = x_n2_at(0, j);
            if (a - lev) * (b - lev) <= 0.0 && a != b {
                let f = (lev - a) / (b - a);
                let d = |jj: usize| -> f64 {
                    let dx = m.xc[(0, jj)] - m.xc[(0, 0)];
                    let dr = m.rc[(0, jj)] - m.rc[(0, 0)];
                    (dx * dx + dr * dr).sqrt()
                };
                y_cross = (d(j - 1) + f * (d(j) - d(j - 1))) / rn;
                break;
            }
        }
        ctable.row(&[format!("{lev:.2}"), format!("{y_cross:.4}")]);
    }
    emit(
        "Fig. 9: contour-level crossings (stagnation line)",
        &ctable,
        mode,
    );

    // --- Shape checks -------------------------------------------------------
    let standoff = solver
        .inviscid
        .standoff(rho_inf)
        .expect("shock not captured");
    let d_ratio = standoff / rn;
    println!("shock standoff Δ/Rn = {d_ratio:.3}");
    report.metric("standoff_over_rn", d_ratio);
    assert!(
        report.check(
            "real_gas_standoff_class",
            d_ratio > 0.03 && d_ratio < 0.14,
            format!("Δ/Rn = {d_ratio:.3}"),
        ),
        "real-gas standoff class violated: {d_ratio}"
    );
    // Stagnation-region dissociation: N2 well below freestream level.
    let x_n2_stag = x_n2_at(0, 0);
    println!("stagnation-point x_N2 = {x_n2_stag:.3}");
    report.metric("x_n2_stagnation", x_n2_stag);
    assert!(
        report.check(
            "n2_dissociated_at_stagnation",
            x_n2_stag < 0.55,
            format!("x_N2(stag) = {x_n2_stag:.3}"),
        ),
        "N2 must dissociate at M20: {x_n2_stag}"
    );
    // Freestream side intact.
    let x_n2_free = x_n2_at(0, ncj - 1);
    assert!(
        report.check(
            "freestream_n2_intact",
            x_n2_free > 0.74,
            format!("x_N2(freestream) = {x_n2_free:.3}"),
        ),
        "freestream N2: {x_n2_free}"
    );
    // Monotone nesting of the contour crossings.
    let mut prev = -1.0;
    let mut nested = true;
    for &lev in &levels {
        let mut y_cross = f64::NAN;
        for j in 1..ncj {
            let a = x_n2_at(0, j - 1);
            let b = x_n2_at(0, j);
            if (a - lev) * (b - lev) <= 0.0 && a != b {
                y_cross = j as f64;
                break;
            }
        }
        if y_cross.is_finite() {
            nested = nested && y_cross >= prev;
            prev = y_cross;
        }
    }
    assert!(
        report.check(
            "contours_nest_outward",
            nested,
            "crossings monotone shock -> body"
        ),
        "contours must nest outward"
    );
    report.finish();
    println!("PASS: Fig. 9 dissociation field reproduced");
}
