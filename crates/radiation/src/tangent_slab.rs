//! Tangent-slab radiative transport.
//!
//! The shock layer is modeled as a stack of homogeneous plane-parallel
//! layers (the plane-slab approximation the paper attributes to the VSL
//! radiation codes). Two outputs:
//!
//! * the **wall-directed spectral flux** via the Schwarzschild solution with
//!   exponential integrals, `q_λ(0) = 2π Σ_k S_k [E₃(τ_k) − E₃(τ_{k+1})]`,
//! * the **emergent normal radiance** (what a spectrometer looking through
//!   the slab records), `I_λ = Σ_k S_k (1 − e^{−Δτ_k}) e^{−τ_k,front}`.

use crate::planck::e3;
use crate::spectra::{SpectralGrid, Spectrum};
use crate::GasSample;
use aerothermo_numerics::quadrature::trapz;

/// One homogeneous slab layer.
#[derive(Debug, Clone)]
pub struct Layer {
    /// Geometric thickness \[m\].
    pub thickness: f64,
    /// The gas in the layer.
    pub sample: GasSample,
}

/// Spectral result of a slab transport solve.
#[derive(Debug, Clone)]
pub struct SlabRadiation {
    /// Wavelengths \[m\].
    pub lambda: Vec<f64>,
    /// Spectral flux onto the wall (layer-0 side) \[W/(m²·m)\].
    pub wall_flux: Vec<f64>,
    /// Emergent normal spectral radiance on the far side \[W/(m²·sr·m)\].
    pub radiance: Vec<f64>,
}

impl SlabRadiation {
    /// Wavelength-integrated wall heat flux \[W/m²\].
    #[must_use]
    pub fn total_wall_flux(&self) -> f64 {
        trapz(&self.lambda, &self.wall_flux)
    }
}

/// Solve the slab given per-layer spectra (layer 0 adjacent to the wall).
///
/// # Panics
/// Panics when layers and spectra lengths differ or grids mismatch.
#[must_use]
pub fn solve_slab(layers: &[Layer], spectra: &[Spectrum]) -> SlabRadiation {
    assert_eq!(layers.len(), spectra.len());
    assert!(!layers.is_empty());
    let lambda = spectra[0].lambda.clone();
    for s in spectra {
        assert_eq!(s.lambda.len(), lambda.len());
    }
    let nl = lambda.len();
    let nk = layers.len();

    let mut wall_flux = vec![0.0; nl];
    let mut radiance = vec![0.0; nl];
    for il in 0..nl {
        // Optical depths measured from the wall outward.
        let mut tau = 0.0;
        let mut q = 0.0;
        for k in 0..nk {
            let kap = spectra[k].absorption[il].max(0.0);
            let j = spectra[k].emission[il].max(0.0);
            let dtau = kap * layers[k].thickness;
            if j <= 0.0 {
                tau += dtau;
                continue;
            }
            if dtau > 1e-8 {
                let s_fn = j / kap;
                q += 2.0 * std::f64::consts::PI * s_fn * (e3(tau) - e3(tau + dtau));
            } else {
                // Optically thin layer: attenuate by the foreground only.
                // 2π·S·E₂(τ)·dτ with S·dτ = j·ds.
                let e2m = crate::planck::e2(tau);
                q += 2.0 * std::f64::consts::PI * j * layers[k].thickness * e2m;
            }
            tau += dtau;
        }
        wall_flux[il] = q;

        // Emergent normal radiance on the far (shock) side: integrate from
        // the wall side toward the observer at the outer edge; the
        // foreground is everything *outside* layer k.
        let mut i_out = 0.0;
        let mut tau_front = 0.0_f64; // accumulated from the observer inward
        for k in (0..nk).rev() {
            let kap = spectra[k].absorption[il].max(0.0);
            let j = spectra[k].emission[il].max(0.0);
            let dtau = kap * layers[k].thickness;
            let self_term = if dtau > 1e-8 {
                (j / kap) * (1.0 - (-dtau).exp())
            } else {
                j * layers[k].thickness
            };
            i_out += self_term * (-tau_front).exp();
            tau_front += dtau;
        }
        radiance[il] = i_out;
    }

    SlabRadiation {
        lambda,
        wall_flux,
        radiance,
    }
}

/// Convenience: compute per-layer spectra on one [`SpectralGrid`] and
/// solve the slab in one call.
#[must_use]
pub fn solve_slab_samples(layers: &[Layer], lambda: &[f64], width_floor: f64) -> SlabRadiation {
    let grid = SpectralGrid::new(lambda, width_floor);
    let spectra: Vec<Spectrum> = layers.iter().map(|l| grid.spectrum(&l.sample)).collect();
    solve_slab(layers, &spectra)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planck::planck_lambda;
    use crate::wavelength_grid;

    fn emitting_layer(t: f64, thickness: f64) -> Layer {
        Layer {
            thickness,
            sample: GasSample::equilibrium(
                t,
                vec![
                    ("N2".into(), 1e23),
                    ("N2+".into(), 1e19),
                    ("N".into(), 1e22),
                    ("O".into(), 3e21),
                ],
            ),
        }
    }

    #[test]
    fn thin_slab_flux_scales_linearly_with_thickness() {
        let lam = wavelength_grid(0.3e-6, 0.5e-6, 200);
        let r1 = solve_slab_samples(&[emitting_layer(10_000.0, 0.001)], &lam, 2e-9);
        let r2 = solve_slab_samples(&[emitting_layer(10_000.0, 0.002)], &lam, 2e-9);
        let ratio = r2.total_wall_flux() / r1.total_wall_flux();
        assert!((ratio - 2.0).abs() < 0.05, "ratio = {ratio}");
    }

    #[test]
    fn thick_slab_saturates_to_blackbody() {
        // Drive the optical depth up by stacking a huge path length; the
        // wall flux per wavelength must approach π·B and never exceed it.
        let lam = wavelength_grid(0.388e-6, 0.3915e-6, 24);
        let t = 10_000.0;
        let r = solve_slab_samples(&[emitting_layer(t, 5.0e4)], &lam, 2e-9);
        for (i, &l) in lam.iter().enumerate() {
            let bb = std::f64::consts::PI * planck_lambda(l, t);
            assert!(
                r.wall_flux[i] <= bb * 1.02,
                "super-Planckian at {:.1} nm: {:.3e} vs {bb:.3e}",
                l * 1e9,
                r.wall_flux[i]
            );
        }
        // At the band head itself the optical depth is large → near-Planck.
        let peak_i = r
            .wall_flux
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        let bb = std::f64::consts::PI * planck_lambda(lam[peak_i], t);
        assert!(
            r.wall_flux[peak_i] > 0.3 * bb,
            "not saturating: {:.2e} vs {bb:.2e}",
            r.wall_flux[peak_i]
        );
    }

    #[test]
    fn cold_foreground_absorbs() {
        let lam = wavelength_grid(0.385e-6, 0.395e-6, 200);
        let hot = emitting_layer(10_000.0, 0.01);
        // A cool, optically thick N2+ curtain between the wall and the hot
        // gas: it barely emits (e^{−θu/2000} ~ 1e-8) but its κ = j/B ratio
        // stays O(1), so the hot band-head flux is absorbed.
        let cold = Layer {
            thickness: 1.0e3,
            sample: GasSample::equilibrium(2_000.0, vec![("N2+".into(), 1e20)]),
        };
        let free = solve_slab_samples(std::slice::from_ref(&hot), &lam, 2e-9);
        let blocked = solve_slab_samples(&[cold, hot], &lam, 2e-9);
        // Compare at the 391.4 nm band head.
        let head_i = lam.iter().position(|&l| l >= 391.4e-9).unwrap();
        assert!(
            blocked.wall_flux[head_i] < 0.2 * free.wall_flux[head_i],
            "{:.3e} vs {:.3e}",
            blocked.wall_flux[head_i],
            free.wall_flux[head_i]
        );
    }

    #[test]
    fn radiance_order_independent_of_observer_for_symmetric_slab() {
        let lam = wavelength_grid(0.35e-6, 0.45e-6, 100);
        let a = emitting_layer(9_000.0, 0.005);
        let b = emitting_layer(9_000.0, 0.005);
        let r = solve_slab_samples(&[a, b], &lam, 2e-9);
        // Symmetric stack: radiance equals that of the doubled single layer.
        let single = solve_slab_samples(&[emitting_layer(9_000.0, 0.01)], &lam, 2e-9);
        for i in 0..lam.len() {
            let d = (r.radiance[i] - single.radiance[i]).abs();
            assert!(d <= 1e-6 * single.radiance[i].max(1e-30), "mismatch at {i}");
        }
    }

    #[test]
    fn empty_band_dark() {
        let lam = wavelength_grid(0.55e-6, 0.6e-6, 20);
        let layer = Layer {
            thickness: 0.01,
            sample: GasSample::equilibrium(8_000.0, vec![("NO+".into(), 1e18)]),
        };
        let r = solve_slab_samples(&[layer], &lam, 1e-9);
        assert!(r.total_wall_flux() < 1e-12);
    }
}
