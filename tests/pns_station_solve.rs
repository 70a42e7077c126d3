//! The line-implicit PNS station solve on the fig10 / sweep-envelope case
//! (70×41 sphere-cone, ideal air, Mach 8): the stations reach their
//! tolerance, the march reports per-station residual ratios, and the wall
//! heat flux agrees with the explicit local-time-step march it replaced.

use aerothermo::gas::IdealGas;
use aerothermo::grid::bodies::SphereCone;
use aerothermo::grid::{stretch, StructuredGrid};
use aerothermo::solvers::pns::{PnsOptions, PnsSolver};
use aerothermo::solvers::runctl::{run_controlled, RunOptions};
use aerothermo::sweep::plan::method_matrix_plan;
use aerothermo::sweep::runner::run_case;

/// Wall heat flux \[W/m²\] of the first five stations from the explicit
/// march (4 000 local-time-step iterations per station).
const EXPLICIT_Q: [f64; 5] = [401_650.0, 225_554.0, 173_048.0, 147_390.0, 132_158.0];

/// The fig10 PNS case, built as `sweep::runner` builds a `pns` level.
fn fig10_pns_case() -> (StructuredGrid, (f64, f64, f64, f64), f64) {
    let case = method_matrix_plan()
        .cases
        .into_iter()
        .find(|c| c.id == "pns")
        .expect("fig10 plan has a pns case");
    let f = &case.flow;
    let rn = f.nose_radius;
    let body = SphereCone {
        rn,
        half_angle: 20f64.to_radians(),
        length: 10.0 * rn,
    };
    let dist = stretch::tanh_one_sided(41, 2.5);
    let grid = StructuredGrid::blunt_body(&body, 70, 41, &|sb| (0.25 + 0.8 * sb) * rn, &dist);
    (grid, (f.rho_inf, f.u_inf, 0.0, f.p_inf), f.t_wall)
}

#[test]
fn stations_converge_and_wall_heating_matches_the_explicit_march() {
    let (grid, fs, t_wall) = fig10_pns_case();
    let gas = IdealGas::air();
    let opts = PnsOptions {
        t_wall: Some(t_wall),
        ..PnsOptions::default()
    };
    let tol = opts.station_tol;
    let mut pns = PnsSolver::new(&grid, &gas, opts, fs, 10);
    let run_opts = RunOptions {
        max_units: grid.nci(),
        ..RunOptions::default()
    };
    run_controlled(&mut pns, &run_opts).expect("clean march");
    let sol = pns.solution().clone();
    assert_eq!(sol.station_x.len(), 59);

    let converged = sol.residual_ratio.iter().filter(|r| **r < tol).count();
    assert!(
        converged >= 58,
        "{converged}/59 stations reached {tol:e}: {:?}",
        sol.residual_ratio
    );
    let history = pns
        .telemetry
        .histories()
        .iter()
        .find(|(name, _)| name == "station_residual_ratio")
        .map(|(_, h)| h.clone())
        .expect("march records station_residual_ratio");
    assert_eq!(history, sol.residual_ratio);

    for (k, (q, q_ref)) in sol.wall_heat_flux.iter().zip(EXPLICIT_Q).enumerate() {
        assert!(
            (q / q_ref - 1.0).abs() < 0.01,
            "station {k}: q = {q:.0} W/m², explicit march {q_ref:.0}"
        );
    }
}

#[test]
fn sweep_pns_case_reports_its_convergence() {
    let case = method_matrix_plan()
        .cases
        .into_iter()
        .find(|c| c.id == "pns")
        .expect("fig10 plan has a pns case");
    let res = run_case(&case).expect("pns case completes");
    let unconverged = res.get("stations_unconverged").expect("metric recorded");
    assert!(unconverged <= 1.0, "{unconverged} stations unconverged");
    assert_eq!(
        res.get("converged"),
        Some(f64::from(u8::from(unconverged == 0.0)))
    );
}
