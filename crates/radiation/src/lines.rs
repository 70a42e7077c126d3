//! Atomic line emission.
//!
//! A representative multiplet list for N and O in the 0.2–1.0 μm window of
//! the paper's Fig. 8 (the strong vacuum-UV resonance lines lie below the
//! window and are omitted). Upper-state populations are Boltzmann at the
//! excitation temperature over the atom's (ground-dominated) electronic
//! partition function; profiles are Doppler Gaussians with an optional
//! instrument-broadening floor.

use aerothermo_numerics::constants::{C_LIGHT, H_PLANCK, K_BOLTZMANN};

/// One atomic line.
#[derive(Debug, Clone, Copy)]
pub struct AtomicLine {
    /// Emitting species name.
    pub species: &'static str,
    /// Vacuum wavelength \[m\].
    pub lambda: f64,
    /// Einstein A coefficient \[1/s\].
    pub a_ul: f64,
    /// Upper-level excitation energy as a temperature \[K\].
    pub theta_u: f64,
    /// Upper-level degeneracy.
    pub g_u: f64,
    /// Emitter particle mass \[kg\] (for the Doppler width).
    pub mass: f64,
}

const M_N: f64 = 14.0067 / 6.022_140_76e26;
const M_O: f64 = 15.9994 / 6.022_140_76e26;
const M_H: f64 = 1.00794 / 6.022_140_76e26;

/// Representative N and O multiplets in the near-UV→near-IR window
/// (wavelengths and A-values at NIST-accuracy adequate for spectral-shape
/// work; θ_u = E_u/k).
#[must_use]
pub fn standard_lines() -> Vec<AtomicLine> {
    vec![
        // N I 3s⁴P → 3p⁴S/⁴P/⁴D multiplets.
        AtomicLine {
            species: "N",
            lambda: 746.8e-9,
            a_ul: 1.96e7,
            theta_u: 139_200.0,
            g_u: 6.0,
            mass: M_N,
        },
        AtomicLine {
            species: "N",
            lambda: 821.6e-9,
            a_ul: 2.27e7,
            theta_u: 137_400.0,
            g_u: 10.0,
            mass: M_N,
        },
        AtomicLine {
            species: "N",
            lambda: 868.0e-9,
            a_ul: 2.53e7,
            theta_u: 136_600.0,
            g_u: 10.0,
            mass: M_N,
        },
        AtomicLine {
            species: "N",
            lambda: 939.3e-9,
            a_ul: 1.07e7,
            theta_u: 139_600.0,
            g_u: 12.0,
            mass: M_N,
        },
        AtomicLine {
            species: "N",
            lambda: 493.5e-9,
            a_ul: 7.6e5,
            theta_u: 149_200.0,
            g_u: 4.0,
            mass: M_N,
        },
        // H I: Lyman-α (VUV — dominates hydrogen shock layers when the
        // spectral window reaches it) and the Balmer series.
        AtomicLine {
            species: "H",
            lambda: 121.567e-9,
            a_ul: 4.699e8,
            theta_u: 118_352.0,
            g_u: 6.0,
            mass: M_H,
        },
        AtomicLine {
            species: "H",
            lambda: 656.28e-9,
            a_ul: 4.41e7,
            theta_u: 140_270.0,
            g_u: 18.0,
            mass: M_H,
        },
        AtomicLine {
            species: "H",
            lambda: 486.13e-9,
            a_ul: 8.42e6,
            theta_u: 147_220.0,
            g_u: 32.0,
            mass: M_H,
        },
        AtomicLine {
            species: "H",
            lambda: 434.05e-9,
            a_ul: 2.53e6,
            theta_u: 150_440.0,
            g_u: 50.0,
            mass: M_H,
        },
        // O I 777.4 quintet and 844.6 triplet.
        AtomicLine {
            species: "O",
            lambda: 777.4e-9,
            a_ul: 3.69e7,
            theta_u: 125_300.0,
            g_u: 15.0,
            mass: M_O,
        },
        AtomicLine {
            species: "O",
            lambda: 844.6e-9,
            a_ul: 3.22e7,
            theta_u: 127_800.0,
            g_u: 9.0,
            mass: M_O,
        },
        AtomicLine {
            species: "O",
            lambda: 926.6e-9,
            a_ul: 4.45e7,
            theta_u: 128_900.0,
            g_u: 15.0,
            mass: M_O,
        },
        AtomicLine {
            species: "O",
            lambda: 615.8e-9,
            a_ul: 7.62e6,
            theta_u: 148_200.0,
            g_u: 15.0,
            mass: M_O,
        },
    ]
}

/// 1/e Doppler half-width \[m\] of a line at heavy temperature `t`.
#[must_use]
pub fn doppler_width(line: &AtomicLine, t: f64) -> f64 {
    line.lambda * (2.0 * K_BOLTZMANN * t / (line.mass * C_LIGHT * C_LIGHT)).sqrt()
}

/// Total power of one line per volume and steradian \[W/(m³·sr)\] for
/// emitter number density `n_species`, electronic partition function `q_el`
/// of the species and excitation temperature `t_exc`; `None` when the line
/// is dark (no emitters, or an upper state beyond `exp(−600)`).
#[must_use]
pub(crate) fn line_power(line: &AtomicLine, n_species: f64, q_el: f64, t_exc: f64) -> Option<f64> {
    if n_species <= 0.0 {
        return None;
    }
    let x = line.theta_u / t_exc;
    if x > 600.0 {
        return None;
    }
    let n_u = n_species * line.g_u * (-x).exp() / q_el.max(1.0);
    Some(n_u * line.a_ul * H_PLANCK * C_LIGHT / line.lambda / (4.0 * std::f64::consts::PI))
}

/// Unnormalized Gaussian profile `exp(−d²)` at `lambda`, `d = (λ − λ₀)/w`
/// widths from the line centre `center`; `None` beyond 12 widths, where
/// the profile is cut off.
#[inline]
#[must_use]
pub(crate) fn gaussian(lambda: f64, center: f64, w: f64) -> Option<f64> {
    let d = (lambda - center) / w;
    if d.abs() > 12.0 {
        return None;
    }
    Some((-d * d).exp())
}

/// Volumetric emission coefficient of one line \[W/(m³·sr·m)\] at `lambda`,
/// for emitter number density `n_species`, electronic partition function
/// `q_el` of the species, excitation temperature `t_exc`, heavy temperature
/// `t`, and a minimum (instrument) 1/e width `width_floor` \[m\]: the line
/// power spread over a Gaussian of 1/e width `max(Δλ_D, width_floor)`,
/// normalized over wavelength.
#[must_use]
pub fn line_emission(
    line: &AtomicLine,
    lambda: f64,
    n_species: f64,
    q_el: f64,
    t: f64,
    t_exc: f64,
    width_floor: f64,
) -> f64 {
    let Some(p) = line_power(line, n_species, q_el, t_exc) else {
        return 0.0;
    };
    let w = doppler_width(line, t).max(width_floor);
    gaussian(lambda, line.lambda, w).map_or(0.0, |g| p * g / (w * std::f64::consts::PI.sqrt()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doppler_width_scales_with_sqrt_t() {
        let line = &standard_lines()[0];
        let w1 = doppler_width(line, 2_500.0);
        let w2 = doppler_width(line, 10_000.0);
        assert!((w2 / w1 - 2.0).abs() < 1e-9);
        // N 746.8 nm at 10 000 K: Δλ_D ≈ λ·√(2kT/mc²) ≈ 2.7 pm.
        assert!(w2 > 1e-12 && w2 < 1e-11, "w = {w2:.3e}");
    }

    #[test]
    fn line_profile_integrates_to_line_power() {
        let line = &standard_lines()[0];
        let t = 10_000.0;
        let n = 1e21;
        let q = 4.0;
        let w = doppler_width(line, t);
        // Integrate over ±10 widths.
        let nlam = 4000;
        let lo = line.lambda - 10.0 * w;
        let hi = line.lambda + 10.0 * w;
        let dl = (hi - lo) / nlam as f64;
        let mut total = 0.0;
        for i in 0..nlam {
            let lam = lo + (i as f64 + 0.5) * dl;
            total += line_emission(line, lam, n, q, t, t, 0.0) * dl;
        }
        let n_u = n * line.g_u * (-line.theta_u / t).exp() / q;
        let p_expect =
            n_u * line.a_ul * H_PLANCK * C_LIGHT / line.lambda / (4.0 * std::f64::consts::PI);
        assert!(
            (total - p_expect).abs() / p_expect < 1e-3,
            "{total:.3e} vs {p_expect:.3e}"
        );
    }

    #[test]
    fn emission_grows_steeply_with_t_exc() {
        let line = &standard_lines()[5]; // O 777
        let j1 = line_emission(line, line.lambda, 1e21, 9.0, 8000.0, 8_000.0, 0.0);
        let j2 = line_emission(line, line.lambda, 1e21, 9.0, 8000.0, 12_000.0, 0.0);
        assert!(j2 > j1 * 50.0, "j2/j1 = {}", j2 / j1);
    }

    #[test]
    fn cold_gas_dark() {
        let line = &standard_lines()[0];
        let j = line_emission(line, line.lambda, 1e24, 4.0, 300.0, 300.0, 0.0);
        assert!(j < 1e-100, "j = {j:e}");
    }

    #[test]
    fn width_floor_limits_peak() {
        let line = &standard_lines()[0];
        let j_sharp = line_emission(line, line.lambda, 1e21, 4.0, 10_000.0, 10_000.0, 0.0);
        let j_broad = line_emission(line, line.lambda, 1e21, 4.0, 10_000.0, 10_000.0, 1e-9);
        assert!(j_broad < j_sharp);
    }
}
