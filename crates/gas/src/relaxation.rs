//! Vibrational relaxation: Millikan-White correlation with Park's
//! high-temperature collision-limited correction.
//!
//! The translational-vibrational energy exchange is modeled Landau-Teller
//! style: each molecule's vibrational energy relaxes toward its local-T
//! equilibrium value on a time scale τ. Below ~8000 K the Millikan-White
//! correlation fits shock-tube data; at the paper's 10 km/s conditions the
//! correlation underestimates τ's floor, so Park's limiting cross-section
//! correction is added (τ = τ_MW + τ_Park). This pairing is exactly the
//! model behind the paper's Fig. 7 two-temperature profiles.

use crate::kinetics::MAX_SPECIES;
use crate::species::Species;
use crate::thermo::Mixture;
use aerothermo_numerics::constants::{K_BOLTZMANN, P_ATM};

/// Millikan-White relaxation time \[s\] for molecule `s` colliding with
/// partner `p`, at temperature `t` \[K\] and *partner partial pressure
/// equal to the total pressure* `p_pa` \[Pa\]. The caller mixes partners.
///
/// `theta_v` is the molecule's characteristic vibrational temperature and
/// `mu` the collision pair's reduced molecular weight in g/mol.
#[must_use]
pub fn tau_millikan_white(theta_v: f64, mu: f64, t: f64, p_pa: f64) -> f64 {
    let a = 1.16e-3 * mu.sqrt() * theta_v.powf(4.0 / 3.0);
    let exponent = a * (t.powf(-1.0 / 3.0) - 0.015 * mu.powf(0.25)) - 18.42;
    let p_atm = p_pa / P_ATM;
    exponent.min(600.0).exp() / p_atm.max(1e-30)
}

/// The temperature- and pressure-free part of the Millikan-White
/// correlation for one molecule–partner pair:
/// `p·τ = exp(a·(T^{-1/3} − b) − 18.42)` atm·s. [`tau_millikan_white`]
/// is the reference form; this one evaluates the same operations with `a`
/// and `b` computed once.
#[derive(Debug, Clone)]
struct MwPair {
    /// Partner species index.
    partner: usize,
    /// `a = 1.16×10⁻³ · μ^{1/2} · θ_v^{4/3}`.
    a: f64,
    /// `b = 0.015 · μ^{1/4}`.
    b: f64,
}

impl MwPair {
    fn new(partner: usize, theta_v: f64, mu: f64) -> Self {
        Self {
            partner,
            a: 1.16e-3 * mu.sqrt() * theta_v.powf(4.0 / 3.0),
            b: 0.015 * mu.powf(0.25),
        }
    }

    /// τ \[s\] from `T^{-1/3}` and the (floored) pressure in atm.
    fn tau(&self, t_m13: f64, p_atm: f64) -> f64 {
        let exponent = self.a * (t_m13 - self.b) - 18.42;
        exponent.min(600.0).exp() / p_atm
    }
}

/// Park's collision-limited correction \[s\]: τ_P = 1/(σ_v·c̄·n) with
/// σ_v = 3×10⁻²¹·(50000/T)² m², c̄ the molecule's mean thermal speed and
/// `n` the mixture number density \[1/m³\].
#[must_use]
pub fn tau_park(t: f64, n: f64, molar_mass: f64) -> f64 {
    let sigma = 3.0e-21 * (50_000.0 / t) * (50_000.0 / t);
    let m = molar_mass / aerothermo_numerics::constants::N_AVOGADRO;
    let cbar = (8.0 * K_BOLTZMANN * t / (std::f64::consts::PI * m)).sqrt();
    1.0 / (sigma * cbar * n.max(1.0))
}

/// A molecule's Millikan-White characteristic vibrational temperature
/// (its first mode; 3000 K if it has none) and molar mass.
fn vib_constants(sp: &Species) -> (f64, f64) {
    let theta_v = sp.vib_modes.first().map_or(3000.0, |(th, _)| *th);
    (theta_v, sp.molar_mass)
}

/// Relaxation model bound to a mixture.
#[derive(Debug, Clone)]
pub struct RelaxationModel {
    mix: Mixture,
    /// Indices of the vibrating molecules.
    molecules: Vec<usize>,
    /// Per molecule (in `molecules` order): its heavy collision partners in
    /// mixture order, with their Millikan-White constants.
    pairs: Vec<Vec<MwPair>>,
}

impl RelaxationModel {
    /// Build for a mixture; identifies the vibrating molecules automatically.
    ///
    /// # Panics
    /// Panics if the mixture has more than
    /// [`crate::kinetics::MAX_SPECIES`] species.
    #[must_use]
    pub fn new(mix: Mixture) -> Self {
        assert!(
            mix.len() <= MAX_SPECIES,
            "relaxation models hold at most {MAX_SPECIES} species"
        );
        let species = mix.species();
        let molecules: Vec<usize> = (0..species.len())
            .filter(|&s| species[s].is_molecule())
            .collect();
        let pairs = molecules
            .iter()
            .map(|&s| {
                let (theta_v, ms) = vib_constants(&species[s]);
                species
                    .iter()
                    .enumerate()
                    .filter(|(_, partner)| partner.name != "e-")
                    .map(|(p, partner)| {
                        let mu = ms * partner.molar_mass / (ms + partner.molar_mass);
                        MwPair::new(p, theta_v, mu)
                    })
                    .collect()
            })
            .collect();
        Self {
            mix,
            molecules,
            pairs,
        }
    }

    /// Mixture-averaged relaxation time \[s\] of molecule `s` in a bath
    /// described by mole fractions `x`, temperature `t`, pressure `p` and
    /// total number density `n`. Partners are mole-fraction weighted via
    /// collision frequencies (1/τ adds).
    ///
    /// This is the reference form of the sum; [`Self::q_trans_vib`]
    /// evaluates the same sum, in the same order, from constants built once
    /// per molecule–partner pair.
    #[must_use]
    pub fn tau_species(&self, s: usize, t: f64, p: f64, n: f64, x: &[f64]) -> f64 {
        let (theta_v, ms) = vib_constants(&self.mix.species()[s]);
        let mut inv_tau_mw = 0.0;
        let mut x_heavy = 0.0;
        for (pidx, partner) in self.mix.species().iter().enumerate() {
            if partner.name == "e-" || x[pidx] <= 0.0 {
                continue;
            }
            let mu = ms * partner.molar_mass / (ms + partner.molar_mass);
            let tau = tau_millikan_white(theta_v, mu, t, p);
            inv_tau_mw += x[pidx] / tau;
            x_heavy += x[pidx];
        }
        let tau_mw = if inv_tau_mw > 0.0 {
            x_heavy / inv_tau_mw
        } else {
            f64::INFINITY
        };
        tau_mw + tau_park(t, n, ms)
    }

    /// Landau-Teller translational→vibrational energy transfer rate
    /// \[W/m³\]: `Q = Σ_mol ρ_s·(e_v(T) − e_v(Tv))/τ_s`.
    ///
    /// `rho` is mixture density, `y` mass fractions, `t`/`tv` the two
    /// temperatures, `p` pressure, `n` total number density.
    #[must_use]
    pub fn q_trans_vib(&self, rho: f64, y: &[f64], t: f64, tv: f64, p: f64, n: f64) -> f64 {
        let mut e_vib_tv = [0.0; MAX_SPECIES];
        for &s in &self.molecules {
            e_vib_tv[s] = self.mix.species()[s].e_vib(tv);
        }
        self.landau_teller(rho, y, t, p, n, &e_vib_tv)
    }

    /// [`Self::q_trans_vib`] with each molecule's `e_vib(T_v)` supplied by
    /// the caller (indexed by species), who needs it for the chemistry
    /// source too.
    pub(crate) fn landau_teller(
        &self,
        rho: f64,
        y: &[f64],
        t: f64,
        p: f64,
        n: f64,
        e_vib_tv: &[f64],
    ) -> f64 {
        let ns = self.mix.len();
        let mut x = [0.0; MAX_SPECIES];
        self.mix.mass_to_mole_into(y, &mut x[..ns]);
        let t_m13 = t.powf(-1.0 / 3.0);
        let p_atm = (p / P_ATM).max(1e-30);
        let mut q = 0.0;
        for (&s, pairs) in self.molecules.iter().zip(&self.pairs) {
            if y[s] <= 0.0 {
                continue;
            }
            let mut inv_tau_mw = 0.0;
            let mut x_heavy = 0.0;
            for pair in pairs {
                let xp = x[pair.partner];
                if xp <= 0.0 {
                    continue;
                }
                inv_tau_mw += xp / pair.tau(t_m13, p_atm);
                x_heavy += xp;
            }
            let tau_mw = if inv_tau_mw > 0.0 {
                x_heavy / inv_tau_mw
            } else {
                f64::INFINITY
            };
            let sp = &self.mix.species()[s];
            let tau = tau_mw + tau_park(t, n, sp.molar_mass);
            q += rho * y[s] * (sp.e_vib(t) - e_vib_tv[s]) / tau;
        }
        q
    }

    /// The vibrating molecule indices.
    #[must_use]
    pub fn molecules(&self) -> &[usize] {
        &self.molecules
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::species::{n2, n_atom, o2};

    #[test]
    fn millikan_white_matches_literature_order() {
        // Millikan-White at 2000 K, 1 atm: N2 relaxes slowly (pτ ~ 1e-3.2
        // atm·s), O2 an order of magnitude faster (~1e-5) — both classic
        // results from the 1963 correlation plot.
        let tau_n2 = tau_millikan_white(3393.5, 14.0067, 2000.0, P_ATM);
        assert!(tau_n2 > 1e-4 && tau_n2 < 3e-3, "tau(N2) = {tau_n2:.3e}");
        let tau_o2 = tau_millikan_white(2273.5, 15.9994, 2000.0, P_ATM);
        assert!(tau_o2 > 1e-6 && tau_o2 < 1e-4, "tau(O2) = {tau_o2:.3e}");
        assert!(tau_o2 < tau_n2);
    }

    #[test]
    fn relaxation_faster_when_hotter() {
        let mu = 14.0067;
        let t1 = tau_millikan_white(3393.5, mu, 1000.0, P_ATM);
        let t2 = tau_millikan_white(3393.5, mu, 6000.0, P_ATM);
        assert!(t2 < t1);
    }

    #[test]
    fn relaxation_faster_when_denser() {
        let mu = 14.0067;
        let t1 = tau_millikan_white(3393.5, mu, 2000.0, P_ATM);
        let t2 = tau_millikan_white(3393.5, mu, 2000.0, 10.0 * P_ATM);
        assert!((t1 / t2 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn park_correction_dominates_at_high_t_low_density() {
        // At 30 000 K and low density the MW time underflows toward zero but
        // Park's floor keeps τ physical.
        let n = 1e21; // 1/m³
        let tp = tau_park(30_000.0, n, 28.0);
        assert!(tp > 0.0 && tp.is_finite());
        let mu = 14.0;
        let p = n * K_BOLTZMANN * 30_000.0;
        let tmw = tau_millikan_white(3393.5, mu, 30_000.0, p);
        assert!(tp > tmw, "Park floor {tp:.3e} vs MW {tmw:.3e}");
    }

    #[test]
    fn q_sign_follows_temperature_gap() {
        let mix = Mixture::new(vec![n2(), o2(), n_atom()]);
        let model = RelaxationModel::new(mix);
        let y = [0.7, 0.25, 0.05];
        let rho = 0.1;
        let t = 8000.0;
        let p = 50_000.0;
        let n = p / (K_BOLTZMANN * t);
        // Tv below T: vibration must gain energy (Q > 0).
        let q_up = model.q_trans_vib(rho, &y, t, 2000.0, p, n);
        assert!(q_up > 0.0);
        // Tv above T: vibration loses energy.
        let q_down = model.q_trans_vib(rho, &y, t, 12_000.0, p, n);
        assert!(q_down < 0.0);
        // Equilibrium: zero.
        let q_eq = model.q_trans_vib(rho, &y, t, t, p, n);
        assert!(q_eq.abs() < 1e-9 * q_up.abs());
    }

    #[test]
    fn molecule_detection() {
        let mix = Mixture::new(vec![n2(), n_atom()]);
        let model = RelaxationModel::new(mix);
        assert_eq!(model.molecules(), &[0]);
    }
}
