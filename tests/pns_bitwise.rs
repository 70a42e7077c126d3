//! Bit-for-bit pins of the PNS march: the fig10 / sweep-envelope `pns`
//! case (70×41 sphere-cone, ideal air, start station 10), the solver's
//! 70×44 viscous cone that `perf_snapshot` times as `pns_march` (start
//! station 8), and the metrics `run_case` returns for the fig10 case. Each
//! folds the `to_bits` of its outputs into one FNV-1a fingerprint, so any
//! change to an operation order in the station solve or to the loop that
//! drives it fails here. A change that moves a result on purpose must
//! update the constant and say why.

use aerothermo::gas::IdealGas;
use aerothermo::grid::bodies::SphereCone;
use aerothermo::grid::{stretch, StructuredGrid};
use aerothermo::solvers::pns::{PnsOptions, PnsSolution, PnsSolver};
use aerothermo::solvers::runctl::{run_controlled, RunOptions};
use aerothermo::sweep::plan::method_matrix_plan;
use aerothermo::sweep::runner::run_case;
use aerothermo::sweep::spec::CaseSpec;

fn fingerprint(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// Every station's x, wall pressure, wall heat flux, steps and residual
/// ratio, station by station.
#[allow(clippy::cast_precision_loss)]
fn march_values(sol: &PnsSolution) -> Vec<f64> {
    let mut values = Vec::new();
    for k in 0..sol.station_x.len() {
        values.extend([
            sol.station_x[k],
            sol.wall_pressure[k],
            sol.wall_heat_flux[k],
            sol.iterations[k] as f64,
            sol.residual_ratio[k],
        ]);
    }
    values
}

fn march(
    grid: &StructuredGrid,
    fs: (f64, f64, f64, f64),
    t_wall: f64,
    i_start: usize,
) -> PnsSolution {
    let gas = IdealGas::air();
    let opts = PnsOptions {
        t_wall: Some(t_wall),
        ..PnsOptions::default()
    };
    let mut pns = PnsSolver::new(grid, &gas, opts, fs, i_start);
    let run_opts = RunOptions {
        max_units: grid.nci(),
        ..RunOptions::default()
    };
    run_controlled(&mut pns, &run_opts).expect("clean march");
    pns.solution().clone()
}

fn fig10_pns_case() -> CaseSpec {
    method_matrix_plan()
        .cases
        .into_iter()
        .find(|c| c.id == "pns")
        .expect("fig10 plan has a pns case")
}

#[test]
fn pns_pin_fig10_march() {
    let case = fig10_pns_case();
    let f = &case.flow;
    let rn = f.nose_radius;
    let body = SphereCone {
        rn,
        half_angle: 20f64.to_radians(),
        length: 10.0 * rn,
    };
    let dist = stretch::tanh_one_sided(41, 2.5);
    let grid = StructuredGrid::blunt_body(&body, 70, 41, &|sb| (0.25 + 0.8 * sb) * rn, &dist);
    let sol = march(&grid, (f.rho_inf, f.u_inf, 0.0, f.p_inf), f.t_wall, 10);
    assert_eq!(sol.station_x.len(), 59);
    let got = fingerprint(march_values(&sol));
    assert_eq!(got, 0x8e82_dc85_1f37_a171, "fingerprint {got:#018x}");
}

#[test]
fn pns_pin_viscous_cone_march() {
    let t = 220.0;
    let p = 2000.0;
    let rho = p / (287.05 * t);
    let fs = (rho, 8.0 * (1.4_f64 * 287.05 * t).sqrt(), 0.0, p);
    let (length, rn) = (1.2, 0.01);
    let body = SphereCone {
        rn,
        half_angle: 10f64.to_radians(),
        length,
    };
    let dist = stretch::tanh_one_sided(44, 2.5);
    let grid = StructuredGrid::blunt_body(&body, 70, 44, &|sb| 0.02 + 0.35 * sb * length, &dist);
    let sol = march(&grid, fs, 300.0, 8);
    assert_eq!(sol.station_x.len(), 61);
    let got = fingerprint(march_values(&sol));
    assert_eq!(got, 0xd77a_da62_ca39_cdee, "fingerprint {got:#018x}");
}

#[test]
fn pns_pin_fig10_case_metrics() {
    let res = run_case(&fig10_pns_case()).expect("pns case completes");
    let names: Vec<&str> = res.metrics.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        [
            "q_stag_w_m2",
            "stations",
            "stations_unconverged",
            "converged"
        ]
    );
    assert_eq!(res.retries, 0);
    let got = fingerprint(res.metrics.iter().map(|(_, v)| *v));
    assert_eq!(got, 0xf183_32be_33e2_5f30, "fingerprint {got:#018x}");
}
