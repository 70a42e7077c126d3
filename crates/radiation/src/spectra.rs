//! Assembled emission/absorption spectra for a gas sample.
//!
//! Sums the atomic lines of [`crate::lines`] and the molecular band systems
//! of [`crate::bands`] over a wavelength grid. Absorption comes from
//! Kirchhoff's law at the excitation temperature (`κ = j/B(T_exc)`), which
//! guarantees the correct optically-thick limit in the slab solver.

use crate::bands::{band_powers, band_shape, standard_systems, BandSystem};
use crate::lines::{doppler_width, gaussian, line_power, standard_lines, AtomicLine};
use crate::planck::planck_lambda;
use crate::GasSample;
use aerothermo_gas::species as gasdb;
use aerothermo_gas::Species;

/// Emission and absorption coefficients over a wavelength grid.
#[derive(Debug, Clone)]
pub struct Spectrum {
    /// Wavelengths \[m\].
    pub lambda: Vec<f64>,
    /// Emission coefficient j_λ \[W/(m³·sr·m)\].
    pub emission: Vec<f64>,
    /// Absorption coefficient κ_λ \[1/m\].
    pub absorption: Vec<f64>,
}

impl Spectrum {
    /// Total volumetric emitted power per steradian \[W/(m³·sr)\]
    /// (trapezoid over the grid).
    #[must_use]
    pub fn total_emission(&self) -> f64 {
        aerothermo_numerics::quadrature::trapz(&self.lambda, &self.emission)
    }

    /// Emission integrated over the band `[lo, hi]` \[W/(m³·sr)\].
    #[must_use]
    pub fn band_integral(&self, lo: f64, hi: f64) -> f64 {
        let mut s = 0.0;
        for w in self.lambda.windows(2).zip(self.emission.windows(2)) {
            let ((l0, l1), (j0, j1)) = ((w.0[0], w.0[1]), (w.1[0], w.1[1]));
            if l1 <= lo || l0 >= hi {
                continue;
            }
            let a = l0.max(lo);
            let b = l1.min(hi);
            // Linear sub-segment of the trapezoid.
            let ja = j0 + (j1 - j0) * (a - l0) / (l1 - l0);
            let jb = j0 + (j1 - j0) * (b - l0) / (l1 - l0);
            s += 0.5 * (ja + jb) * (b - a);
        }
        s
    }

    /// Index of the brightest wavelength.
    #[must_use]
    pub fn peak_index(&self) -> usize {
        self.emission
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map_or(0, |(i, _)| i)
    }
}

/// Known radiating species with their spectroscopic records (for partition
/// functions).
fn species_by_name(name: &str) -> Option<Species> {
    match name {
        "N2" => Some(gasdb::n2()),
        "O2" => Some(gasdb::o2()),
        "NO" => Some(gasdb::no()),
        "N" => Some(gasdb::n_atom()),
        "O" => Some(gasdb::o_atom()),
        "N+" => Some(gasdb::n_ion()),
        "O+" => Some(gasdb::o_ion()),
        "NO+" => Some(gasdb::no_ion()),
        "N2+" => Some(gasdb::n2_ion()),
        "O2+" => Some(gasdb::o2_ion()),
        "e-" => Some(gasdb::electron()),
        "CN" => Some(gasdb::cn()),
        "C2" => Some(gasdb::c2()),
        "CH4" => Some(gasdb::ch4()),
        "HCN" => Some(gasdb::hcn()),
        "H2" => Some(gasdb::h2()),
        "H" => Some(gasdb::h_atom()),
        "H+" => Some(gasdb::h_ion()),
        "He" => Some(gasdb::helium()),
        "C+" => Some(gasdb::c_ion()),
        "C" => Some(gasdb::c_atom()),
        _ => None,
    }
}

fn q_el(sp: &Species, t: f64) -> f64 {
    sp.electronic
        .iter()
        .map(|&(theta, g)| {
            let x = theta / t;
            if x > 600.0 {
                0.0
            } else {
                f64::from(g) * (-x).exp()
            }
        })
        .sum()
}

/// A line's record on a [`SpectralGrid`]: the line, its species slot, and
/// its Gaussian `exp(−d²)` at `w = width_floor` on the wavelengths within
/// 12 widths of the centre, as `(index, value)` pairs (`None` at a zero
/// floor, where every line takes its Doppler width).
#[derive(Debug)]
struct GridLine {
    line: AtomicLine,
    species: usize,
    floor_profile: Option<Vec<(usize, f64)>>,
}

/// A band system's record on a [`SpectralGrid`]: the system, its species
/// slot, and every band's [`band_shape`] at each wavelength, laid out
/// `k * n_bands + band`.
#[derive(Debug)]
struct GridSystem {
    sys: BandSystem,
    species: usize,
    shapes: Vec<f64>,
}

/// The sample-independent half of [`spectrum`] on one wavelength grid and
/// width floor: the emitter records of the standard lines and band
/// systems, each line's Gaussian at the width floor, and every band shape.
/// Build it once and call [`SpectralGrid::spectrum`] per gas sample.
///
/// ```
/// use aerothermo_radiation::spectra::{spectrum, SpectralGrid};
/// use aerothermo_radiation::{wavelength_grid, GasSample};
/// let lam = wavelength_grid(0.3e-6, 0.5e-6, 50);
/// let s = GasSample::equilibrium(9000.0, vec![("N2+".into(), 1e19)]);
/// let grid = SpectralGrid::new(&lam, 2e-9);
/// assert_eq!(grid.spectrum(&s).emission, spectrum(&s, &lam, 2e-9).emission);
/// ```
#[derive(Debug)]
pub struct SpectralGrid {
    lambda: Vec<f64>,
    width_floor: f64,
    /// Radiating species records by name, each emitter's species slot.
    species: Vec<Species>,
    lines: Vec<GridLine>,
    systems: Vec<GridSystem>,
}

impl SpectralGrid {
    /// Tabulate the emitters on `lambda` \[m\] with line profiles floored at
    /// `width_floor` \[m\] (0 for pure Doppler; set to the spectrometer
    /// resolution to mimic measured spectra).
    #[must_use]
    pub fn new(lambda: &[f64], width_floor: f64) -> Self {
        let _sp = aerothermo_numerics::trace::span("spectral_grid");
        let mut species: Vec<Species> = Vec::new();
        let mut slot = |name: &str| -> Option<usize> {
            if let Some(k) = species.iter().position(|sp| sp.name == name) {
                return Some(k);
            }
            species.push(species_by_name(name)?);
            Some(species.len() - 1)
        };
        let mut lines = Vec::new();
        for line in standard_lines() {
            if let Some(species) = slot(line.species) {
                let floor_profile = (width_floor > 0.0).then(|| {
                    lambda
                        .iter()
                        .enumerate()
                        .filter_map(|(k, &lam)| Some((k, gaussian(lam, line.lambda, width_floor)?)))
                        .collect()
                });
                lines.push(GridLine {
                    line,
                    species,
                    floor_profile,
                });
            }
        }
        let mut systems = Vec::new();
        for sys in standard_systems() {
            if let Some(species) = slot(sys.species) {
                let shapes = lambda
                    .iter()
                    .flat_map(|&lam| {
                        sys.bands.iter().map(move |b| {
                            band_shape(lam, b.lambda_head, sys.tail_width, sys.shading)
                        })
                    })
                    .collect();
                systems.push(GridSystem {
                    sys,
                    species,
                    shapes,
                });
            }
        }
        Self {
            lambda: lambda.to_vec(),
            width_floor,
            species,
            lines,
            systems,
        }
    }

    /// The spectrum of one homogeneous sample on this grid: each emitter's
    /// power once, then per wavelength the lines in order and each band
    /// system's band sum as one term, so every value equals the sum of
    /// [`line_emission`](crate::lines::line_emission) and
    /// [`system_emission`](crate::bands::system_emission) bit for bit. A line
    /// broader than the width floor is evaluated at its Doppler width.
    #[must_use]
    pub fn spectrum(&self, sample: &GasSample) -> Spectrum {
        aerothermo_numerics::telemetry::counters::add(
            aerothermo_numerics::telemetry::Counter::SpectrumPoints,
            self.lambda.len() as u64,
        );
        let _sp = aerothermo_numerics::trace::span("spectrum_integration");
        let (n, q): (Vec<f64>, Vec<f64>) = self
            .species
            .iter()
            .map(|sp| (sample.density_of(sp.name), q_el(sp, sample.t_exc)))
            .unzip();
        let mut emission = vec![0.0; self.lambda.len()];
        for gl in &self.lines {
            let line = &gl.line;
            let Some(p) = line_power(line, n[gl.species], q[gl.species], sample.t_exc) else {
                continue;
            };
            let w = doppler_width(line, sample.t).max(self.width_floor);
            let norm = w * std::f64::consts::PI.sqrt();
            match &gl.floor_profile {
                Some(profile) if w <= self.width_floor => {
                    for &(k, g) in profile {
                        emission[k] += p * g / norm;
                    }
                }
                _ => {
                    for (j, &lam) in emission.iter_mut().zip(&self.lambda) {
                        if let Some(g) = gaussian(lam, line.lambda, w) {
                            *j += p * g / norm;
                        }
                    }
                }
            }
        }
        let mut powers = Vec::new();
        for gs in &self.systems {
            let Some(p) = band_powers(&gs.sys, n[gs.species], q[gs.species], sample.t_exc) else {
                continue;
            };
            powers.clear();
            powers.extend(p);
            for (j, shapes) in emission
                .iter_mut()
                .zip(gs.shapes.chunks_exact(powers.len()))
            {
                let mut band_sum = 0.0;
                for (p, shape) in powers.iter().zip(shapes) {
                    band_sum += p * shape;
                }
                *j += band_sum;
            }
        }
        let absorption = emission
            .iter()
            .zip(&self.lambda)
            .map(|(&j, &lam)| {
                let b = planck_lambda(lam, sample.t_exc);
                if b > 1e-30 {
                    j / b
                } else {
                    0.0
                }
            })
            .collect();
        Spectrum {
            lambda: self.lambda.clone(),
            emission,
            absorption,
        }
    }
}

/// Compute the spectrum of one homogeneous sample on `lambda` \[m\], with
/// line profiles floored at `width_floor` \[m\] (0 for pure Doppler; set to
/// the spectrometer resolution to mimic measured spectra). One-shot form of
/// [`SpectralGrid`]: build the grid once when several samples share it.
#[must_use]
pub fn spectrum(sample: &GasSample, lambda: &[f64], width_floor: f64) -> Spectrum {
    SpectralGrid::new(lambda, width_floor).spectrum(sample)
}

/// Saha-equilibrium estimate of an ionized species' number density from its
/// parent neutral:
/// `n_ion·n_e/n_neutral = (Q_ion·Q_e/Q_neutral)·exp(−IP/T)` with the full
/// partition functions of the species records. Used to estimate N₂⁺ behind
/// strong shocks when the flow model carries only the 9-species set.
#[must_use]
pub fn saha_ion_density(
    neutral: &Species,
    ion: &Species,
    n_neutral: f64,
    n_electron: f64,
    t: f64,
) -> f64 {
    if n_neutral <= 0.0 || n_electron <= 0.0 {
        return 0.0;
    }
    let e = gasdb::electron();
    // ln(n_ion) = φ_ion + φ_e − φ_neutral + ln n_neutral − ln n_e.
    let ln_n = ion.ln_concentration_potential(t) + e.ln_concentration_potential(t)
        - neutral.ln_concentration_potential(t)
        + n_neutral.ln()
        - n_electron.ln();
    ln_n.clamp(-600.0, 600.0).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bands::system_emission;
    use crate::lines::line_emission;
    use crate::wavelength_grid;

    fn hot_air_sample() -> GasSample {
        GasSample {
            t: 12_000.0,
            t_exc: 12_000.0,
            densities: vec![
                ("N2".into(), 5e21),
                ("N2+".into(), 5e18),
                ("N".into(), 2e22),
                ("O".into(), 6e21),
            ],
        }
    }

    #[test]
    fn air_spectrum_peaks_in_violet() {
        // N2+ first negative at ~0.39 μm dominates nonequilibrium air — the
        // structure of the paper's Fig. 8.
        let lam = wavelength_grid(0.25e-6, 1.0e-6, 1500);
        let sp = spectrum(&hot_air_sample(), &lam, 2e-9);
        let peak = sp.lambda[sp.peak_index()];
        assert!(
            peak > 0.33e-6 && peak < 0.43e-6,
            "peak at {:.1} nm",
            peak * 1e9
        );
    }

    #[test]
    fn atomic_lines_visible_in_nir() {
        let lam = wavelength_grid(0.7e-6, 0.95e-6, 2000);
        let sp = spectrum(&hot_air_sample(), &lam, 1e-9);
        // The O 777 and N 821/868 features must rise above their local
        // surroundings.
        let j_at = |target: f64| -> f64 {
            let i = lam.iter().position(|&l| l >= target).unwrap();
            sp.emission[i]
        };
        let line_jump = j_at(777.4e-9) / j_at(760.0e-9).max(1e-30);
        assert!(line_jump > 3.0, "O 777 contrast = {line_jump}");
    }

    #[test]
    fn absorption_consistent_with_kirchhoff() {
        let lam = wavelength_grid(0.3e-6, 0.5e-6, 300);
        let s = hot_air_sample();
        let sp = spectrum(&s, &lam, 2e-9);
        for i in 0..lam.len() {
            let b = planck_lambda(lam[i], s.t_exc);
            if b > 1e-30 && sp.emission[i] > 0.0 {
                assert!(
                    (sp.absorption[i] * b - sp.emission[i]).abs() < 1e-9 * sp.emission[i],
                    "Kirchhoff violated at {i}"
                );
            }
        }
    }

    #[test]
    fn cold_sample_emits_nothing() {
        let lam = wavelength_grid(0.3e-6, 1.0e-6, 100);
        let s = GasSample::equilibrium(300.0, vec![("N2".into(), 1e25)]);
        let sp = spectrum(&s, &lam, 1e-9);
        assert!(sp.total_emission() < 1e-20);
    }

    #[test]
    fn titan_sample_shows_cn_violet() {
        let lam = wavelength_grid(0.3e-6, 0.7e-6, 800);
        let s = GasSample::equilibrium(7000.0, vec![("N2".into(), 1e23), ("CN".into(), 5e19)]);
        let sp = spectrum(&s, &lam, 2e-9);
        let peak = sp.lambda[sp.peak_index()];
        assert!(
            (peak - 388.3e-9).abs() < 10e-9,
            "CN violet head expected, peak at {:.1} nm",
            peak * 1e9
        );
    }

    /// The per-wavelength sum the grid replaces: at each wavelength, every
    /// standard line whose species is present and known, then every band
    /// system, through the one-wavelength kernels.
    fn direct_spectrum(sample: &GasSample, lambda: &[f64], width_floor: f64) -> Spectrum {
        let q = |name: &str| species_by_name(name).map(|sp| q_el(&sp, sample.t_exc));
        let lines: Vec<_> = standard_lines()
            .into_iter()
            .filter(|l| sample.density_of(l.species) > 0.0)
            .filter_map(|l| Some((q(l.species)?, l)))
            .collect();
        let systems: Vec<_> = standard_systems()
            .into_iter()
            .filter(|s| sample.density_of(s.species) > 0.0)
            .filter_map(|s| Some((q(s.species)?, s)))
            .collect();
        let (emission, absorption) = lambda
            .iter()
            .map(|&lam| {
                let mut j = 0.0;
                for (q, line) in &lines {
                    let n = sample.density_of(line.species);
                    j += line_emission(line, lam, n, *q, sample.t, sample.t_exc, width_floor);
                }
                for (q, sys) in &systems {
                    let n = sample.density_of(sys.species);
                    j += system_emission(sys, lam, n, *q, sample.t_exc);
                }
                let b = planck_lambda(lam, sample.t_exc);
                (j, if b > 1e-30 { j / b } else { 0.0 })
            })
            .unzip();
        Spectrum {
            lambda: lambda.to_vec(),
            emission,
            absorption,
        }
    }

    #[test]
    fn spectral_grid_equals_the_direct_sum_bit_for_bit() {
        let titan_layer = GasSample {
            t: 7_500.0,
            t_exc: 7_000.0,
            densities: vec![
                ("N2".into(), 1e23),
                ("CN".into(), 5e19),
                ("H".into(), 3e21),
                ("N".into(), 2e21),
                ("C2".into(), 1e19),
            ],
        };
        let cold = GasSample::equilibrium(300.0, vec![("N2".into(), 1e25), ("O".into(), 1e20)]);
        let grids = [
            wavelength_grid(0.2e-6, 1.1e-6, 240),
            wavelength_grid(0.25e-6, 1.0e-6, 400),
            // Both ends inside the ±12w window of O 777.4 nm at 1 and 2 nm.
            wavelength_grid(0.770e-6, 0.785e-6, 61),
        ];
        let mut compared = 0;
        for sample in [hot_air_sample(), titan_layer, cold] {
            for lam in &grids {
                // 1 pm sits below the hottest Doppler widths: those lines
                // are evaluated directly on a grid that holds floor shapes.
                for floor in [0.0, 1e-12, 1e-9, 2e-9] {
                    let grid = SpectralGrid::new(lam, floor).spectrum(&sample);
                    let direct = direct_spectrum(&sample, lam, floor);
                    for (name, a, b) in [
                        ("emission", &grid.emission, &direct.emission),
                        ("absorption", &grid.absorption, &direct.absorption),
                    ] {
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(
                            bits(a),
                            bits(b),
                            "{name} at T = {} K, floor {floor:e} m, {} points from {:e} m",
                            sample.t,
                            lam.len(),
                            lam[0]
                        );
                    }
                    compared += usize::from(direct.total_emission() > 1.0);
                }
            }
        }
        // Every hot case emits; the 300 K sample stays dark.
        assert_eq!(compared, 2 * 3 * 4);
    }

    #[test]
    fn saha_estimate_behaves() {
        let n2 = gasdb::n2();
        let n2p = gasdb::n2_ion();
        let lo = saha_ion_density(&n2, &n2p, 1e22, 1e20, 8_000.0);
        let hi = saha_ion_density(&n2, &n2p, 1e22, 1e20, 14_000.0);
        assert!(hi > lo, "ionization must grow with T");
        assert!(lo >= 0.0 && hi.is_finite());
        assert_eq!(saha_ion_density(&n2, &n2p, 0.0, 1e20, 10_000.0), 0.0);
    }

    #[test]
    fn band_integral_partitions_total() {
        let lam = wavelength_grid(0.25e-6, 1.0e-6, 900);
        let sp = spectrum(&hot_air_sample(), &lam, 2e-9);
        let total = sp.total_emission();
        let left = sp.band_integral(0.25e-6, 0.5e-6);
        let right = sp.band_integral(0.5e-6, 1.0e-6);
        assert!(((left + right) - total).abs() < 1e-6 * total);
        // The violet band carries most of this sample's emission.
        assert!(left > right, "violet {left:.3e} vs red {right:.3e}");
        // Out-of-range band is empty.
        assert_eq!(sp.band_integral(2e-6, 3e-6), 0.0);
    }

    #[test]
    fn nonequilibrium_exc_temperature_controls_emission() {
        let lam = wavelength_grid(0.38e-6, 0.40e-6, 50);
        let mut s = hot_air_sample();
        s.t_exc = 6_000.0;
        let cold_exc = spectrum(&s, &lam, 2e-9).total_emission();
        s.t_exc = 12_000.0;
        let hot_exc = spectrum(&s, &lam, 2e-9).total_emission();
        assert!(hot_exc > cold_exc * 10.0);
    }
}
