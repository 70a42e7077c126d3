//! Molecular band-system emission (smeared-band model).
//!
//! Each electronic band system is represented by its strongest vibrational
//! bands: a band head wavelength, a Franck-Condon weight, and an asymmetric
//! "degraded" band shape (sharp at the head, an exponential tail toward the
//! shading direction). Upper-state populations are Boltzmann at the
//! excitation temperature. This is the smeared-rotational-band reduction
//! used by the engineering radiation codes of the paper's era; it reproduces
//! band-system placement and relative strengths (Fig. 8's structure) without
//! a line-by-line rotational calculation.

/// Shading direction of a band (which side of the head the tail extends to).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shading {
    /// Tail toward longer wavelengths (most first-positive-like systems).
    Red,
    /// Tail toward shorter wavelengths (N₂⁺ first negative, CN violet).
    Violet,
}

/// One vibrational band of a system.
#[derive(Debug, Clone, Copy)]
pub struct VibBand {
    /// Band-head wavelength \[m\].
    pub lambda_head: f64,
    /// Franck-Condon weight (relative; normalized internally).
    pub weight: f64,
}

/// An electronic band system of a molecule.
#[derive(Debug, Clone)]
pub struct BandSystem {
    /// Emitting species name.
    pub species: &'static str,
    /// System label, e.g. `"N2+ 1-"`.
    pub label: &'static str,
    /// Upper electronic state energy as a temperature \[K\].
    pub theta_u: f64,
    /// Upper electronic state degeneracy.
    pub g_u: f64,
    /// Effective Einstein coefficient of the system \[1/s\].
    pub a_eff: f64,
    /// Band tail 1/e width \[m\].
    pub tail_width: f64,
    /// Shading direction.
    pub shading: Shading,
    /// The vibrational bands.
    pub bands: Vec<VibBand>,
}

/// The band systems relevant to high-temperature air and Titan (N₂/CH₄)
/// shock layers in the 0.2–1.0 μm window.
#[must_use]
pub fn standard_systems() -> Vec<BandSystem> {
    vec![
        // N2+ first negative, B²Σu⁺ → X²Σg⁺ (violet-shaded): the dominant
        // feature of nonequilibrium air radiation near 0.39 μm.
        BandSystem {
            species: "N2+",
            label: "N2+ 1-",
            theta_u: 36_800.0,
            g_u: 2.0,
            a_eff: 1.6e7,
            tail_width: 6.0e-9,
            shading: Shading::Violet,
            bands: vec![
                VibBand {
                    lambda_head: 391.4e-9,
                    weight: 1.0,
                },
                VibBand {
                    lambda_head: 427.8e-9,
                    weight: 0.30,
                },
                VibBand {
                    lambda_head: 358.2e-9,
                    weight: 0.25,
                },
                VibBand {
                    lambda_head: 470.9e-9,
                    weight: 0.08,
                },
                VibBand {
                    lambda_head: 330.8e-9,
                    weight: 0.05,
                },
            ],
        },
        // N2 second positive, C³Πu → B³Πg.
        BandSystem {
            species: "N2",
            label: "N2 2+",
            theta_u: 128_200.0,
            g_u: 6.0,
            a_eff: 2.7e7,
            tail_width: 5.0e-9,
            shading: Shading::Violet,
            bands: vec![
                VibBand {
                    lambda_head: 337.1e-9,
                    weight: 1.0,
                },
                VibBand {
                    lambda_head: 357.7e-9,
                    weight: 0.70,
                },
                VibBand {
                    lambda_head: 315.9e-9,
                    weight: 0.50,
                },
                VibBand {
                    lambda_head: 380.5e-9,
                    weight: 0.30,
                },
                VibBand {
                    lambda_head: 297.7e-9,
                    weight: 0.15,
                },
            ],
        },
        // N2 first positive, B³Πg → A³Σu⁺ (red-shaded, 0.5–1.05 μm).
        BandSystem {
            species: "N2",
            label: "N2 1+",
            theta_u: 85_300.0,
            g_u: 6.0,
            a_eff: 1.7e5,
            tail_width: 15.0e-9,
            shading: Shading::Red,
            bands: vec![
                VibBand {
                    lambda_head: 1046.9e-9,
                    weight: 0.5,
                },
                VibBand {
                    lambda_head: 891.2e-9,
                    weight: 0.8,
                },
                VibBand {
                    lambda_head: 775.3e-9,
                    weight: 1.0,
                },
                VibBand {
                    lambda_head: 687.5e-9,
                    weight: 0.8,
                },
                VibBand {
                    lambda_head: 632.3e-9,
                    weight: 0.6,
                },
                VibBand {
                    lambda_head: 580.4e-9,
                    weight: 0.35,
                },
            ],
        },
        // CN violet, B²Σ⁺ → X²Σ⁺ — the Titan-entry radiator (Figs. 2–3).
        BandSystem {
            species: "CN",
            label: "CN violet",
            theta_u: 37_020.0,
            g_u: 2.0,
            a_eff: 1.5e7,
            tail_width: 5.0e-9,
            shading: Shading::Violet,
            bands: vec![
                VibBand {
                    lambda_head: 388.3e-9,
                    weight: 1.0,
                },
                VibBand {
                    lambda_head: 421.6e-9,
                    weight: 0.28,
                },
                VibBand {
                    lambda_head: 359.0e-9,
                    weight: 0.33,
                },
                VibBand {
                    lambda_head: 460.6e-9,
                    weight: 0.06,
                },
            ],
        },
        // CN red, A²Π → X²Σ⁺ (near IR, weaker).
        BandSystem {
            species: "CN",
            label: "CN red",
            theta_u: 13_090.0,
            g_u: 4.0,
            a_eff: 4.0e5,
            tail_width: 20.0e-9,
            shading: Shading::Red,
            bands: vec![
                VibBand {
                    lambda_head: 1090.0e-9,
                    weight: 1.0,
                },
                VibBand {
                    lambda_head: 920.0e-9,
                    weight: 0.8,
                },
                VibBand {
                    lambda_head: 790.0e-9,
                    weight: 0.5,
                },
            ],
        },
    ]
}

/// Normalized band-shape function \[1/m\]: sharp rise at the head, an
/// exponential tail on the shading side.
#[must_use]
pub fn band_shape(lambda: f64, head: f64, width: f64, shading: Shading) -> f64 {
    let d = match shading {
        Shading::Red => lambda - head,
        Shading::Violet => head - lambda,
    };
    if d < 0.0 {
        // Sharp edge: small Gaussian rolloff on the head side.
        let edge = 0.15 * width;
        let u = d / edge;
        if u < -8.0 {
            return 0.0;
        }
        (-(u * u)).exp() / width
    } else {
        (-d / width).exp() / width
    }
}

/// Power of each vibrational band of `sys` per volume and steradian
/// \[W/(m³·sr)\], in band order, for emitter density `n_species` with
/// electronic partition function `q_el` at excitation temperature `t_exc`;
/// `None` when the system is dark (no emitters, or an upper state beyond
/// `exp(−600)`).
pub(crate) fn band_powers(
    sys: &BandSystem,
    n_species: f64,
    q_el: f64,
    t_exc: f64,
) -> Option<impl Iterator<Item = f64> + '_> {
    if n_species <= 0.0 {
        return None;
    }
    let x = sys.theta_u / t_exc;
    if x > 600.0 {
        return None;
    }
    let n_u = n_species * sys.g_u * (-x).exp() / q_el.max(1.0);
    let wsum: f64 = sys.bands.iter().map(|b| b.weight).sum();
    Some(sys.bands.iter().map(move |b| {
        let photon = aerothermo_numerics::constants::H_PLANCK
            * aerothermo_numerics::constants::C_LIGHT
            / b.lambda_head;
        n_u * sys.a_eff * (b.weight / wsum) * photon / (4.0 * std::f64::consts::PI)
    }))
}

/// Emission coefficient of one band system at `lambda`
/// \[W/(m³·sr·m)\] for emitter density `n_species` with electronic
/// partition function `q_el` at excitation temperature `t_exc`: each band's
/// power times its [`band_shape`], summed in band order.
#[must_use]
pub fn system_emission(
    sys: &BandSystem,
    lambda: f64,
    n_species: f64,
    q_el: f64,
    t_exc: f64,
) -> f64 {
    let Some(powers) = band_powers(sys, n_species, q_el, t_exc) else {
        return 0.0;
    };
    let mut j = 0.0;
    for (p, b) in powers.zip(&sys.bands) {
        j += p * band_shape(lambda, b.lambda_head, sys.tail_width, sys.shading);
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_shape_normalized() {
        // ∫ shape dλ ≈ 1 (tail integral dominates: width·(1) plus the small
        // edge Gaussian; tolerance accounts for the edge part).
        for shading in [Shading::Red, Shading::Violet] {
            let head = 400e-9;
            let width = 8e-9;
            let n = 40_000;
            let lo = 300e-9;
            let hi = 520e-9;
            let dl = (hi - lo) / n as f64;
            let mut s = 0.0;
            for i in 0..n {
                let lam = lo + (i as f64 + 0.5) * dl;
                s += band_shape(lam, head, width, shading) * dl;
            }
            assert!((s - 1.0).abs() < 0.2, "norm = {s}");
        }
    }

    #[test]
    fn shading_direction_respected() {
        let head = 391.4e-9;
        let w = 6e-9;
        // Violet-shaded: more emission below the head than above.
        let below = band_shape(head - 3e-9, head, w, Shading::Violet);
        let above = band_shape(head + 3e-9, head, w, Shading::Violet);
        assert!(below > above * 5.0);
        // Red-shaded: opposite.
        let below_r = band_shape(head - 3e-9, head, w, Shading::Red);
        let above_r = band_shape(head + 3e-9, head, w, Shading::Red);
        assert!(above_r > below_r * 5.0);
    }

    #[test]
    fn n2plus_first_negative_peaks_at_391() {
        let sys = standard_systems()
            .into_iter()
            .find(|s| s.label == "N2+ 1-")
            .unwrap();
        let j391 = system_emission(&sys, 391.0e-9, 1e20, 2.0, 10_000.0);
        let j500 = system_emission(&sys, 500.0e-9, 1e20, 2.0, 10_000.0);
        assert!(j391 > 20.0 * j500, "{j391:.3e} vs {j500:.3e}");
        assert!(j391 > 0.0);
    }

    #[test]
    fn emission_increases_with_t_exc() {
        let sys = &standard_systems()[0];
        let j1 = system_emission(sys, 391.4e-9, 1e20, 2.0, 6_000.0);
        let j2 = system_emission(sys, 391.4e-9, 1e20, 2.0, 12_000.0);
        assert!(j2 > j1 * 5.0);
    }

    #[test]
    fn absent_species_dark() {
        let sys = &standard_systems()[0];
        assert_eq!(system_emission(sys, 391.4e-9, 0.0, 2.0, 10_000.0), 0.0);
    }

    #[test]
    fn cn_violet_near_n2plus_head() {
        // The CN violet (0,0) head at 388.3 nm sits just below N2+ 391.4 —
        // both systems must be present in the standard list.
        let systems = standard_systems();
        assert!(systems.iter().any(|s| s.label == "CN violet"));
        assert!(systems.iter().any(|s| s.label == "N2+ 1-"));
    }
}
