//! Fig. 8 — Computed vs measured emission spectra for nonequilibrium air
//! (after Park, the paper's Refs. 22–23: the NEQAIR validation).
//!
//! The Fig. 7 flowfield (10 km/s shock into 0.1 torr air) supplies the
//! radiating-zone conditions; the spectral model emits through the slab and
//! the emergent radiance over 0.2–1.0 μm is compared against a synthetic
//! "experiment": the same physics with perturbed band strengths (±20%),
//! instrument broadening, and measurement noise — the structure of the
//! paper's computed-vs-measured overlay (see EXPERIMENTS.md E7 for the
//! substitution note).
//!
//! Shape checks: the dominant feature is the N₂⁺ first-negative system near
//! 0.39 μm; the N₂ second positive populates the near UV and the N/O lines
//! the near IR; computed and "measured" agree in the band-integrated sense.

use aerothermo_bench::{emit, output_mode, shock_tube_fig7_condition, Report};
use aerothermo_core::tables::Table;
use aerothermo_gas::equilibrium::air9_equilibrium;
use aerothermo_gas::kinetics::park_air9;
use aerothermo_gas::relaxation::RelaxationModel;
use aerothermo_gas::species as spdb;
use aerothermo_radiation::spectra::{saha_ion_density, SpectralGrid};
use aerothermo_radiation::tangent_slab::{solve_slab, Layer};
use aerothermo_radiation::{wavelength_grid, GasSample};
use aerothermo_solvers::shock1d::{solve, RelaxationProblem};

fn main() {
    aerothermo_bench::cli::announce("fig08_spectra");
    let mode = output_mode();
    let mut report = Report::new("fig08_spectra");
    let (u1, t1, p1) = shock_tube_fig7_condition();
    let gas = air9_equilibrium();
    let set = park_air9(gas.mixture());
    let relax = RelaxationModel::new(gas.mixture().clone());
    let mut y1 = vec![0.0; gas.mixture().len()];
    y1[0] = 0.767;
    y1[1] = 0.233;
    let x_end = 0.03;
    let sol = solve(
        &set,
        &relax,
        &RelaxationProblem {
            u1,
            t1,
            p1,
            y1,
            x_end,
        },
    )
    .expect("relaxation march");

    // Build slab layers from the relaxing flowfield: fixed 0.2 mm cells,
    // each sampled at its midpoint, so the slab is set here and not by the
    // integrator's step pattern. The 9-species model lacks N2+; estimate it
    // by Saha balance at the local T_v (the electronically controlling
    // temperature) — the standard QSS patch.
    let names: Vec<&str> = gas.mixture().species().iter().map(|s| s.name).collect();
    let n2 = spdb::n2();
    let n2p = spdb::n2_ion();
    let dx = 2e-4;
    let layers: Vec<Layer> = (0..(x_end / dx).round() as usize)
        .map(|k| {
            let p = sol.at((k as f64 + 0.5) * dx);
            let mut dens: Vec<(String, f64)> = names
                .iter()
                .enumerate()
                .map(|(s, n)| ((*n).to_string(), p.x_mole[s] * p.n_total))
                .collect();
            let n_n2 = p.x_mole[0] * p.n_total;
            let n_e = p.x_mole[8] * p.n_total;
            let n_n2p = saha_ion_density(&n2, &n2p, n_n2, n_e.max(1e10), p.tv.min(p.t));
            dens.push(("N2+".to_string(), n_n2p.min(0.01 * n_n2)));
            Layer {
                thickness: dx,
                sample: GasSample {
                    t: p.t,
                    t_exc: p.tv,
                    densities: dens,
                },
            }
        })
        .collect();
    println!("slab layers: {}", layers.len());

    let lam = wavelength_grid(0.2e-6, 1.0e-6, 1600);
    let grid = SpectralGrid::new(&lam, 1.5e-9);
    let spectra: Vec<_> = layers.iter().map(|l| grid.spectrum(&l.sample)).collect();
    let computed = solve_slab(&layers, &spectra);

    // Synthetic "experiment": perturb each layer's emitters via a band-dependent
    // factor, broaden to instrument resolution, add multiplicative noise.
    let measured_raw = {
        let grid = SpectralGrid::new(&lam, 2.5e-9);
        let spectra_m: Vec<_> = layers
            .iter()
            .map(|l| {
                let mut s = grid.spectrum(&l.sample);
                for (i, &w) in lam.iter().enumerate() {
                    // Slowly varying ±20% "calibration" perturbation.
                    let f = 1.0 + 0.2 * (w * 2.2e7).sin();
                    s.emission[i] *= f;
                    s.absorption[i] *= f;
                }
                s
            })
            .collect();
        solve_slab(&layers, &spectra_m)
    };
    // Instrument broadening: boxcar over ~2 nm plus deterministic noise.
    let half = 2;
    let measured: Vec<f64> = (0..lam.len())
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(lam.len());
            let avg: f64 = measured_raw.radiance[lo..hi].iter().sum::<f64>() / (hi - lo) as f64;
            avg * (1.0 + 0.05 * ((i as f64) * 0.83).sin())
        })
        .collect();

    let mut table = Table::new(&["lambda_um", "I_computed", "I_measured"]);
    for i in (0..lam.len()).step_by(40) {
        table.row(&[
            format!("{:.3}", lam[i] * 1e6),
            format!("{:.3e}", computed.radiance[i]),
            format!("{:.3e}", measured[i]),
        ]);
    }
    emit(
        "Fig. 8: emergent radiance, computed vs (synthetic) measured [W/(m^2 sr m)]",
        &table,
        mode,
    );

    // --- Shape checks -------------------------------------------------------
    let idx = |target: f64| lam.iter().position(|&l| l >= target).unwrap();
    let peak_i = computed
        .radiance
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .unwrap()
        .0;
    let peak_lam = lam[peak_i] * 1e9;
    println!("computed peak at {peak_lam:.1} nm");
    report.metric("peak_wavelength_nm", peak_lam);
    assert!(
        report.check(
            "violet_system_dominates",
            (300.0..430.0).contains(&peak_lam),
            format!("peak at {peak_lam:.1} nm"),
        ),
        "violet system must dominate: peak at {peak_lam} nm"
    );
    // N2+ 1- (0,0) head visible: local contrast around 391 nm.
    let i391 = idx(391.0e-9);
    let i450 = idx(450.0e-9);
    assert!(
        report.check(
            "n2plus_391nm_head",
            computed.radiance[i391] > 3.0 * computed.radiance[i450],
            format!(
                "I(391) = {:.3e} vs I(450) = {:.3e}",
                computed.radiance[i391], computed.radiance[i450]
            ),
        ),
        "391 nm head contrast: {:.3e} vs {:.3e}",
        computed.radiance[i391],
        computed.radiance[i450]
    );
    // NIR atomic lines present.
    let i777 = idx(777.4e-9);
    let i760 = idx(760.0e-9);
    assert!(
        report.check(
            "o_777_line",
            computed.radiance[i777] > 2.0 * computed.radiance[i760],
            format!(
                "I(777) = {:.3e} vs I(760) = {:.3e}",
                computed.radiance[i777], computed.radiance[i760]
            ),
        ),
        "O 777 line must stand out"
    );
    // Band-integrated agreement with the synthetic measurement within 30%.
    let total_c: f64 = computed.radiance.iter().sum();
    let total_m: f64 = measured.iter().sum();
    let ratio = total_c / total_m;
    println!("band-integrated computed/measured = {ratio:.3}");
    report.metric("band_integrated_ratio", ratio);
    assert!(
        report.check(
            "band_integrated_agreement",
            (0.7..1.4).contains(&ratio),
            format!("computed/measured = {ratio:.3}"),
        ),
        "integrated spectra must agree: {ratio}"
    );
    report.finish();
    println!("PASS: Fig. 8 spectral comparison reproduced");
}
