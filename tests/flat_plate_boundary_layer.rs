//! Flat-plate laminar boundary layer: the thin-layer NS solver against the
//! Blasius/Eckert references — the classic viscous-code acceptance test.

use aerothermo::gas::IdealGas;
use aerothermo::grid::{Geometry, StructuredGrid};
use aerothermo::numerics::Field2;
use aerothermo::solvers::euler2d::{Bc, BcSet, EulerOptions};
use aerothermo::solvers::ns2d::{NsSolver, Transport};
use aerothermo::solvers::runctl::{run_controlled, RunOptions};

fn plate_grid(ni: usize, nj: usize, lx: f64, ly: f64, beta: f64) -> StructuredGrid {
    // Uniform in x, tanh-clustered toward the wall in y.
    let ys = aerothermo::grid::stretch::tanh_one_sided(nj, beta);
    let x = Field2::from_fn(ni, nj, |i, _| lx * i as f64 / (ni - 1) as f64);
    let r = Field2::from_fn(ni, nj, |_, j| ly * ys[j]);
    StructuredGrid {
        x,
        r,
        geometry: Geometry::Planar,
    }
}

#[test]
fn blasius_skin_friction_and_heating() {
    let gas = IdealGas::air();
    let t_inf = 300.0;
    let p_inf = 2000.0;
    let rho_inf = p_inf / (287.05 * t_inf);
    let a_inf = (1.4_f64 * 287.05 * t_inf).sqrt();
    let m_inf = 2.0;
    let v_inf = m_inf * a_inf;
    let mu_inf = aerothermo::gas::transport::sutherland_air(t_inf);

    // Plate length for Re_L ≈ 1.3e5 (safely laminar), BL thickness at the
    // end δ ≈ 5·L/√Re_L ≈ 0.014·L.
    let lx = 0.3;
    let re_l = rho_inf * v_inf * lx / mu_inf;
    assert!(re_l > 5e4 && re_l < 5e5, "Re_L = {re_l:.3e}");
    let ly = 0.035 * lx * (1.3e5 / re_l).sqrt().max(1.0);

    let grid = plate_grid(49, 49, lx, ly, 3.0);
    let fs = (rho_inf, v_inf, 0.0, p_inf);
    let bc = BcSet {
        i_lo: Bc::Inflow {
            rho: fs.0,
            ux: fs.1,
            ur: fs.2,
            p: fs.3,
        },
        i_hi: Bc::Outflow,
        j_lo: Bc::SlipWall, // inviscid part; no-slip enters viscously
        j_hi: Bc::Inflow {
            rho: fs.0,
            ux: fs.1,
            ur: fs.2,
            p: fs.3,
        },
    };
    // Near-adiabatic wall: recovery temperature at M2 ≈ T∞(1+0.18·M²)·…
    // use an isothermal wall at the recovery value so heating ≈ 0 and the
    // velocity profile is clean Blasius-with-Mach-2-correction.
    let t_wall = t_inf * (1.0 + 0.85 * 0.2 * m_inf * m_inf);
    let opts = EulerOptions {
        cfl: 0.5,
        startup_steps: 400,
        ..EulerOptions::default()
    };
    let mut solver = NsSolver::new(&grid, &gas, bc, opts, fs, Transport::air(), t_wall);
    run_controlled(
        &mut solver,
        &RunOptions {
            max_units: 20_000,
            tol: 1e-9,
            max_retries: 0,
            ..RunOptions::default()
        },
    )
    .expect("stable run");

    // Skin-friction law: c_f·√Re_x = 0.664 (Blasius; compressibility at
    // M2 with C ≈ 1 changes this by ≲ 10%). Probe the mid-plate stations
    // where the leading-edge singularity and outflow have no influence.
    let mut checked = 0;
    for i in [16usize, 24, 32, 40] {
        let m = solver.inviscid.grid_metrics();
        let x = m.xc[(i, 0)];
        let tau = solver.wall_shear(i);
        let re_x = rho_inf * v_inf * x / mu_inf;
        let cf = tau / (0.5 * rho_inf * v_inf * v_inf);
        let cf_re = cf * re_x.sqrt();
        assert!(
            (cf_re - 0.664).abs() < 0.25,
            "station {i} (x = {x:.3}): c_f·√Re_x = {cf_re:.3}"
        );
        checked += 1;
    }
    assert_eq!(checked, 4);

    // Boundary-layer thickness growth ∝ √x: δ(x₂)/δ(x₁) ≈ √(x₂/x₁).
    let delta_at = |i: usize| -> f64 {
        let m = solver.inviscid.grid_metrics();
        // The weak leading-edge shock lowers the edge velocity slightly;
        // measure δ against the local edge maximum.
        let u_edge = (0..solver.inviscid.ncj())
            .map(|j| solver.inviscid.primitive(i, j).ux)
            .fold(0.0_f64, f64::max);
        for j in 0..solver.inviscid.ncj() {
            let q = solver.inviscid.primitive(i, j);
            if q.ux > 0.99 * u_edge {
                return m.rc[(i, j)];
            }
        }
        f64::NAN
    };
    let d1 = delta_at(16);
    let d2 = delta_at(40);
    let m = solver.inviscid.grid_metrics();
    let expect = (m.xc[(40, 0)] / m.xc[(16, 0)]).sqrt();
    assert!(
        (d2 / d1 - expect).abs() < 0.35 * expect,
        "δ growth {:.3} vs √x {:.3}",
        d2 / d1,
        expect
    );

    // Near-recovery wall: heating magnitude small relative to the cold-wall
    // reference at the same station.
    let q_mid = solver.wall_heat_flux(24).abs();
    let q_cold_ref = {
        // Eckert flat-plate estimate with a 300 K wall.
        let h_aw = 1004.5 * t_wall;
        let h_w = 1004.5 * 300.0;
        aerothermo::solvers::blayer::flat_plate_heating(
            rho_inf,
            mu_inf,
            v_inf,
            m.xc[(24, 0)],
            h_aw,
            h_w,
            0.72,
        )
    };
    assert!(
        q_mid < 0.5 * q_cold_ref,
        "recovery wall should nearly null the heating: {q_mid:.3e} vs cold-wall {q_cold_ref:.3e}"
    );
}
