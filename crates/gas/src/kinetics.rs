//! Finite-rate chemical kinetics with two-temperature coupling.
//!
//! The reaction set is Park's for dissociating/ionizing air: dissociation of
//! N₂/O₂/NO with collision-partner efficiencies, the two Zeldovich exchange
//! reactions, associative ionization N + O ⇌ NO⁺ + e⁻, and electron-impact
//! ionization of N and O. Two-temperature coupling follows Park's
//! prescription: dissociation forward rates are evaluated at the geometric
//! mean √(T·T_v), electron-impact reactions at the electron (= vibrational)
//! temperature, everything else at the heavy-particle temperature.
//!
//! Backward rates come from equilibrium constants derived from the *same*
//! partition functions as the thermodynamics ([`crate::thermo`]), so a
//! finite-rate integration relaxes exactly onto the equilibrium solver's
//! composition — a property the tests check.

use crate::thermo::Mixture;
use aerothermo_numerics::constants::N_AVOGADRO;

/// Which temperature controls a reaction's forward rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateTemperature {
    /// Heavy-particle translational temperature `T`.
    Translational,
    /// Park's geometric mean `√(T·T_v)` (dissociation under vibrational
    /// nonequilibrium).
    ParkTTv,
    /// Electron/vibrational temperature `T_v` (electron-impact processes).
    ElectronTv,
}

/// Modified Arrhenius rate `k = A·T^n·exp(−θ/T)` in SI units
/// (\[m³/kmol\]^(order−1)/s).
#[derive(Debug, Clone, Copy)]
pub struct Arrhenius {
    /// Pre-exponential factor (SI).
    pub a: f64,
    /// Temperature exponent.
    pub n: f64,
    /// Activation temperature \[K\].
    pub theta: f64,
}

impl Arrhenius {
    /// Convert from the CGS convention of the aerothermodynamics literature
    /// (A in (cm³/mol)^(order−1)/s) given the reaction order.
    #[must_use]
    pub fn from_cgs(a_cgs: f64, n: f64, theta: f64, order: u32) -> Self {
        // 1 cm³/mol = 1e-3 m³/kmol.
        let factor = 1e-3_f64.powi(order as i32 - 1);
        Self {
            a: a_cgs * factor,
            n,
            theta,
        }
    }

    /// `ln k(T)` — safe against under/overflow.
    #[must_use]
    pub fn ln_eval(&self, t: f64) -> f64 {
        self.a.ln() + self.n * t.ln() - self.theta / t
    }

    /// `k(T)`.
    #[must_use]
    pub fn eval(&self, t: f64) -> f64 {
        self.ln_eval(t).clamp(-600.0, 600.0).exp()
    }
}

/// One elementary (possibly third-body) reaction.
#[derive(Debug, Clone)]
pub struct Reaction {
    /// Human-readable label, e.g. `"N2 + M <=> 2N + M"`.
    pub label: &'static str,
    /// Reactant (species index, stoichiometric coefficient) pairs.
    pub reactants: Vec<(usize, f64)>,
    /// Product (species index, stoichiometric coefficient) pairs.
    pub products: Vec<(usize, f64)>,
    /// Forward rate.
    pub forward: Arrhenius,
    /// Collision-partner efficiencies (one per species) for third-body
    /// reactions; `None` for ordinary bimolecular reactions.
    pub third_body: Option<Vec<f64>>,
    /// Temperature controlling the forward rate.
    pub rate_t: RateTemperature,
}

impl Reaction {
    /// Net stoichiometric coefficient of species `s` (products − reactants).
    #[must_use]
    pub fn net_nu(&self, s: usize) -> f64 {
        let p: f64 = self
            .products
            .iter()
            .filter(|(i, _)| *i == s)
            .map(|(_, nu)| nu)
            .sum();
        let r: f64 = self
            .reactants
            .iter()
            .filter(|(i, _)| *i == s)
            .map(|(_, nu)| nu)
            .sum();
        p - r
    }

    /// Δν = Σν_products − Σν_reactants (excluding the third body).
    #[must_use]
    pub fn delta_nu(&self) -> f64 {
        let p: f64 = self.products.iter().map(|(_, nu)| nu).sum();
        let r: f64 = self.reactants.iter().map(|(_, nu)| nu).sum();
        p - r
    }
}

/// Largest species count a [`ReactionSet`] (and a
/// [`crate::relaxation::RelaxationModel`]) accepts: the per-call work
/// buffers of the rate kernels live on the stack at this size.
pub const MAX_SPECIES: usize = 32;

/// A mixture plus its reaction mechanism.
#[derive(Debug, Clone)]
pub struct ReactionSet {
    mixture: Mixture,
    reactions: Vec<Reaction>,
    /// `ln A` of each forward rate.
    ln_a: Vec<f64>,
    /// `Δν · ln N_A` of each reaction (number densities → kmol/m³ in
    /// `ln K_eq`).
    ln_na_dnu: Vec<f64>,
    /// Whether any reaction runs at the electron temperature, so the
    /// species potentials are needed at `T_v` too.
    has_electron_tv: bool,
}

impl ReactionSet {
    /// Assemble a mechanism.
    ///
    /// # Panics
    /// Panics if the mixture has more than [`MAX_SPECIES`] species, a
    /// reaction references a species index out of range or a third-body
    /// efficiency vector has the wrong length, or if any reaction does not
    /// conserve mass.
    #[must_use]
    pub fn new(mixture: Mixture, reactions: Vec<Reaction>) -> Self {
        let ns = mixture.len();
        assert!(
            ns <= MAX_SPECIES,
            "mechanisms hold at most {MAX_SPECIES} species"
        );
        for r in &reactions {
            for (i, _) in r.reactants.iter().chain(&r.products) {
                assert!(*i < ns, "reaction {} references species {i}", r.label);
            }
            if let Some(eff) = &r.third_body {
                assert_eq!(eff.len(), ns, "third-body efficiencies for {}", r.label);
            }
            // Mass conservation check.
            let m_in: f64 = r
                .reactants
                .iter()
                .map(|(i, nu)| nu * mixture.species()[*i].molar_mass)
                .sum();
            let m_out: f64 = r
                .products
                .iter()
                .map(|(i, nu)| nu * mixture.species()[*i].molar_mass)
                .sum();
            assert!(
                (m_in - m_out).abs() < 1e-6 * m_in,
                "reaction {} does not conserve mass: {m_in} vs {m_out}",
                r.label
            );
        }
        let ln_a = reactions.iter().map(|r| r.forward.a.ln()).collect();
        let ln_na_dnu = reactions
            .iter()
            .map(|r| r.delta_nu() * N_AVOGADRO.ln())
            .collect();
        let has_electron_tv = reactions
            .iter()
            .any(|r| r.rate_t == RateTemperature::ElectronTv);
        Self {
            mixture,
            reactions,
            ln_a,
            ln_na_dnu,
            has_electron_tv,
        }
    }

    /// The mixture.
    #[must_use]
    pub fn mixture(&self) -> &Mixture {
        &self.mixture
    }

    /// The reactions.
    #[must_use]
    pub fn reactions(&self) -> &[Reaction] {
        &self.reactions
    }

    /// `ln` of the concentration equilibrium constant (kmol/m³ units) at `t`.
    #[must_use]
    pub fn ln_k_eq(&self, reaction: &Reaction, t: f64) -> f64 {
        let mut v = 0.0;
        for (i, nu) in &reaction.products {
            v += nu * self.mixture.species()[*i].ln_concentration_potential(t);
        }
        for (i, nu) in &reaction.reactants {
            v -= nu * self.mixture.species()[*i].ln_concentration_potential(t);
        }
        // Number densities → kmol/m³.
        v - reaction.delta_nu() * N_AVOGADRO.ln()
    }

    /// Forward and backward rate constants at `(T, T_v)` per Park's
    /// two-temperature prescription.
    #[must_use]
    pub fn rate_constants(&self, reaction: &Reaction, t: f64, tv: f64) -> (f64, f64) {
        let t_f = match reaction.rate_t {
            RateTemperature::Translational => t,
            RateTemperature::ParkTTv => (t * tv).sqrt(),
            RateTemperature::ElectronTv => tv,
        };
        // Backward rates: heavy-particle temperature for heavy reactions,
        // electron temperature for electron-impact processes.
        let t_b = match reaction.rate_t {
            RateTemperature::ElectronTv => tv,
            _ => t,
        };
        let kf = reaction.forward.eval(t_f);
        let ln_kb = reaction.forward.ln_eval(t_b) - self.ln_k_eq(reaction, t_b);
        let kb = ln_kb.clamp(-600.0, 600.0).exp();
        (kf, kb)
    }

    /// Net rate of each reaction \[kmol/(m³·s)\] (forward − backward, with
    /// the third-body factor applied).
    ///
    /// # Panics
    /// Panics on length mismatches.
    pub fn net_reaction_rates(&self, t: f64, tv: f64, conc: &[f64], rates: &mut [f64]) {
        assert_eq!(rates.len(), self.reactions.len());
        self.for_each_net_rate(t, tv, conc, |k, _, net| rates[k] = net);
    }

    /// The one reaction pass behind every rate query: calls
    /// `on_rate(k, reaction, net)` with the net rate of each reaction in
    /// mechanism order, exactly as [`Self::rate_constants`] and the
    /// law of mass action give it.
    ///
    /// The species potentials, `ln T`, `ln T_v` and Park's `√(T·T_v)` are
    /// evaluated once per call instead of once per reaction, and all work
    /// buffers live on the stack; every rate keeps the operation order of
    /// [`Self::rate_constants`], so the results are the same bits.
    ///
    /// # Panics
    /// Panics if `conc` does not hold one entry per species.
    pub(crate) fn for_each_net_rate(
        &self,
        t: f64,
        tv: f64,
        conc: &[f64],
        mut on_rate: impl FnMut(usize, &Reaction, f64),
    ) {
        let ns = self.mixture.len();
        assert_eq!(conc.len(), ns);
        let species = self.mixture.species();
        let mut c = [0.0; MAX_SPECIES];
        let mut phi_t = [0.0; MAX_SPECIES];
        let mut phi_tv = [0.0; MAX_SPECIES];
        for s in 0..ns {
            c[s] = conc[s].max(0.0);
            phi_t[s] = species[s].ln_concentration_potential(t);
            if self.has_electron_tv {
                phi_tv[s] = species[s].ln_concentration_potential(tv);
            }
        }
        let c = &c[..ns];
        let (ln_t, ln_tv) = (t.ln(), tv.ln());
        let t_park = (t * tv).sqrt();
        let ln_t_park = t_park.ln();
        // x^ν for the law of mass action; x^1 is x itself.
        let pow = |x: f64, nu: f64| if nu == 1.0 { x } else { x.powf(nu) };

        for (k, r) in self.reactions.iter().enumerate() {
            let f = &r.forward;
            // Backward rates run at the heavy-particle temperature, except
            // for electron-impact processes (see `rate_constants`).
            let (t_b, ln_t_b, phi) = match r.rate_t {
                RateTemperature::ElectronTv => (tv, ln_tv, &phi_tv),
                _ => (t, ln_t, &phi_t),
            };
            let ln_kf_b = self.ln_a[k] + f.n * ln_t_b - f.theta / t_b;
            let ln_kf = match r.rate_t {
                RateTemperature::ParkTTv => self.ln_a[k] + f.n * ln_t_park - f.theta / t_park,
                _ => ln_kf_b,
            };
            let kf = ln_kf.clamp(-600.0, 600.0).exp();
            let mut ln_keq = 0.0;
            for (i, nu) in &r.products {
                ln_keq += nu * phi[*i];
            }
            for (i, nu) in &r.reactants {
                ln_keq -= nu * phi[*i];
            }
            let ln_kb = ln_kf_b - (ln_keq - self.ln_na_dnu[k]);
            let kb = ln_kb.clamp(-600.0, 600.0).exp();

            let mut rf = kf;
            for (i, nu) in &r.reactants {
                rf *= pow(c[*i], *nu);
            }
            let mut rb = kb;
            for (i, nu) in &r.products {
                rb *= pow(c[*i], *nu);
            }
            let mut net = rf - rb;
            if let Some(eff) = &r.third_body {
                let m: f64 = eff.iter().zip(c).map(|(e, c)| e * c).sum();
                net *= m;
            }
            on_rate(k, r, net);
        }
    }

    /// Formation-energy change of one reaction \[J/kmol of reaction\]
    /// (positive = endothermic at 0 K).
    #[must_use]
    pub fn reaction_energy(&self, reaction: &Reaction) -> f64 {
        let mut de = 0.0;
        for (i, nu) in &reaction.products {
            de += nu
                * aerothermo_numerics::constants::R_UNIVERSAL
                * self.mixture.species()[*i].theta_f;
        }
        for (i, nu) in &reaction.reactants {
            de -= nu
                * aerothermo_numerics::constants::R_UNIVERSAL
                * self.mixture.species()[*i].theta_f;
        }
        de
    }

    /// Molar production rates `ẇ` \[kmol/(m³·s)\] for concentrations `conc`
    /// \[kmol/m³\] at temperatures `(t, tv)`.
    ///
    /// # Panics
    /// Panics on length mismatches.
    pub fn production_rates(&self, t: f64, tv: f64, conc: &[f64], wdot: &mut [f64]) {
        assert_eq!(wdot.len(), self.mixture.len());
        wdot.fill(0.0);
        self.for_each_net_rate(t, tv, conc, |_, r, net| accumulate(r, net, wdot));
    }

    /// Mass production rates \[kg/(m³·s)\] from density and mass fractions.
    ///
    /// # Panics
    /// Panics on length mismatches.
    pub fn mass_production(&self, t: f64, tv: f64, rho: f64, y: &[f64], out: &mut [f64]) {
        let ns = self.mixture.len();
        assert_eq!(y.len(), ns);
        let mut conc = [0.0; MAX_SPECIES];
        for (c, (sp, ys)) in conc.iter_mut().zip(self.mixture.species().iter().zip(y)) {
            *c = rho * ys / sp.molar_mass;
        }
        self.production_rates(t, tv, &conc[..ns], out);
        for (v, sp) in out.iter_mut().zip(self.mixture.species()) {
            *v *= sp.molar_mass;
        }
    }
}

/// Add one reaction's net rate to the molar production rates.
pub(crate) fn accumulate(r: &Reaction, net: f64, wdot: &mut [f64]) {
    for (i, nu) in &r.reactants {
        wdot[*i] -= nu * net;
    }
    for (i, nu) in &r.products {
        wdot[*i] += nu * net;
    }
}

/// Park's mechanism for 9-species ionizing air. The mixture must be the
/// [`crate::equilibrium::air9_equilibrium`] ordering (N₂, O₂, NO, N, O, N⁺,
/// O⁺, NO⁺, e⁻) or any mixture containing those species by name.
///
/// # Panics
/// Panics if a required species is missing from `mix`.
#[must_use]
pub fn park_air9(mix: &Mixture) -> ReactionSet {
    let i = |name: &str| -> usize {
        mix.index_of(name)
            .unwrap_or_else(|| panic!("park_air9 requires species {name}"))
    };
    let (n2, o2, no) = (i("N2"), i("O2"), i("NO"));
    let (n, o) = (i("N"), i("O"));
    let (nip, oip, noip, el) = (i("N+"), i("O+"), i("NO+"), i("e-"));
    let ns = mix.len();

    // Collision-partner efficiency builder: molecules 1, selected enhanced.
    let eff = |enhanced: &[(usize, f64)], zero_electron: bool| -> Vec<f64> {
        let mut v = vec![1.0; ns];
        for (idx, f) in enhanced {
            v[*idx] = *f;
        }
        if zero_electron {
            v[el] = 0.0;
        }
        v
    };

    let reactions = vec![
        Reaction {
            label: "N2 + M <=> 2N + M",
            reactants: vec![(n2, 1.0)],
            products: vec![(n, 2.0)],
            forward: Arrhenius::from_cgs(7.0e21, -1.6, 113_200.0, 2),
            third_body: Some(eff(
                &[
                    (n, 30.0 / 7.0),
                    (o, 30.0 / 7.0),
                    (nip, 30.0 / 7.0),
                    (oip, 30.0 / 7.0),
                ],
                true,
            )),
            rate_t: RateTemperature::ParkTTv,
        },
        Reaction {
            label: "O2 + M <=> 2O + M",
            reactants: vec![(o2, 1.0)],
            products: vec![(o, 2.0)],
            forward: Arrhenius::from_cgs(2.0e21, -1.5, 59_500.0, 2),
            third_body: Some(eff(&[(n, 5.0), (o, 5.0), (nip, 5.0), (oip, 5.0)], true)),
            rate_t: RateTemperature::ParkTTv,
        },
        Reaction {
            label: "NO + M <=> N + O + M",
            reactants: vec![(no, 1.0)],
            products: vec![(n, 1.0), (o, 1.0)],
            forward: Arrhenius::from_cgs(5.0e15, 0.0, 75_500.0, 2),
            third_body: Some(eff(&[(n, 22.0), (o, 22.0), (no, 22.0)], true)),
            rate_t: RateTemperature::ParkTTv,
        },
        Reaction {
            label: "N2 + O <=> NO + N",
            reactants: vec![(n2, 1.0), (o, 1.0)],
            products: vec![(no, 1.0), (n, 1.0)],
            forward: Arrhenius::from_cgs(6.4e17, -1.0, 38_400.0, 2),
            third_body: None,
            rate_t: RateTemperature::Translational,
        },
        Reaction {
            label: "NO + O <=> O2 + N",
            reactants: vec![(no, 1.0), (o, 1.0)],
            products: vec![(o2, 1.0), (n, 1.0)],
            forward: Arrhenius::from_cgs(8.4e12, 0.0, 19_450.0, 2),
            third_body: None,
            rate_t: RateTemperature::Translational,
        },
        Reaction {
            label: "N + O <=> NO+ + e-",
            reactants: vec![(n, 1.0), (o, 1.0)],
            products: vec![(noip, 1.0), (el, 1.0)],
            forward: Arrhenius::from_cgs(8.8e8, 1.0, 31_900.0, 2),
            third_body: None,
            rate_t: RateTemperature::Translational,
        },
        Reaction {
            label: "N + e- <=> N+ + 2e-",
            reactants: vec![(n, 1.0), (el, 1.0)],
            products: vec![(nip, 1.0), (el, 2.0)],
            forward: Arrhenius::from_cgs(2.5e34, -3.82, 168_600.0, 2),
            third_body: None,
            rate_t: RateTemperature::ElectronTv,
        },
        Reaction {
            label: "O + e- <=> O+ + 2e-",
            reactants: vec![(o, 1.0), (el, 1.0)],
            products: vec![(oip, 1.0), (el, 2.0)],
            forward: Arrhenius::from_cgs(3.9e33, -3.78, 158_500.0, 2),
            third_body: None,
            rate_t: RateTemperature::ElectronTv,
        },
    ];
    ReactionSet::new(mix.clone(), reactions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equilibrium::air9_equilibrium;

    #[test]
    fn arrhenius_cgs_conversion() {
        // Bimolecular: 1 cm³/mol/s = 1e-3 m³/kmol/s.
        let k = Arrhenius::from_cgs(1e12, 0.0, 0.0, 2);
        assert!((k.a - 1e9).abs() / 1e9 < 1e-12);
        assert!((k.eval(1000.0) - 1e9).abs() / 1e9 < 1e-12);
    }

    #[test]
    fn mechanism_conserves_mass_and_charge() {
        let gas = air9_equilibrium();
        let set = park_air9(gas.mixture());
        // Random-ish state with all species present.
        let conc = [1e-3, 2e-4, 5e-5, 4e-4, 3e-4, 1e-6, 2e-6, 5e-6, 8e-6];
        let mut wdot = [0.0; 9];
        set.production_rates(9000.0, 7000.0, &conc, &mut wdot);
        let mass_rate: f64 = wdot
            .iter()
            .zip(set.mixture().species())
            .map(|(w, s)| w * s.molar_mass)
            .sum();
        let scale: f64 = wdot
            .iter()
            .zip(set.mixture().species())
            .map(|(w, s)| (w * s.molar_mass).abs())
            .sum();
        assert!(
            mass_rate.abs() < 1e-8 * scale.max(1e-300),
            "mass leak {mass_rate} vs {scale}"
        );
        let charge_rate: f64 = wdot
            .iter()
            .zip(set.mixture().species())
            .map(|(w, s)| w * f64::from(s.charge))
            .sum();
        let cscale: f64 = wdot
            .iter()
            .zip(set.mixture().species())
            .map(|(w, s)| (w * f64::from(s.charge)).abs())
            .sum();
        assert!(charge_rate.abs() < 1e-9 * cscale.max(1e-300), "charge leak");
    }

    #[test]
    fn equilibrium_composition_has_zero_net_rates() {
        // The acid test: backward rates from the same partition functions
        // must make the equilibrium composition a fixed point.
        let gas = air9_equilibrium();
        let set = park_air9(gas.mixture());
        let st = gas.at_tp(8000.0, 101_325.0).unwrap();
        let conc: Vec<f64> = st.number_densities.iter().map(|n| n / N_AVOGADRO).collect();
        let mut wdot = vec![0.0; 9];
        set.production_rates(8000.0, 8000.0, &conc, &mut wdot);

        // Compare against the characteristic one-way rate of each species.
        for r in set.reactions() {
            let (kf, _) = set.rate_constants(r, 8000.0, 8000.0);
            let mut rf = kf;
            for (i, nu) in &r.reactants {
                rf *= conc[*i].powf(*nu);
            }
            if let Some(eff) = &r.third_body {
                rf *= eff.iter().zip(&conc).map(|(e, c)| e * c).sum::<f64>();
            }
            let (_, kb) = set.rate_constants(r, 8000.0, 8000.0);
            let mut rb = kb;
            for (i, nu) in &r.products {
                rb *= conc[*i].powf(*nu);
            }
            if let Some(eff) = &r.third_body {
                rb *= eff.iter().zip(&conc).map(|(e, c)| e * c).sum::<f64>();
            }
            assert!(
                (rf - rb).abs() < 1e-6 * rf.abs().max(rb.abs()).max(1e-300),
                "{}: rf={rf:.4e} rb={rb:.4e}",
                r.label
            );
        }
    }

    #[test]
    fn hot_frozen_air_dissociates() {
        // Molecular air suddenly at 10 000 K: N2 and O2 must be consumed,
        // atoms produced.
        let gas = air9_equilibrium();
        let set = park_air9(gas.mixture());
        let rho = 0.01;
        let y = [0.767, 0.233, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let mut wdot = [0.0; 9];
        set.mass_production(10_000.0, 10_000.0, rho, &y, &mut wdot);
        assert!(wdot[0] < 0.0, "N2 rate {}", wdot[0]);
        assert!(wdot[1] < 0.0, "O2 rate {}", wdot[1]);
        assert!(wdot[3] > 0.0 && wdot[4] > 0.0, "atoms must form");
    }

    #[test]
    fn cold_air_is_inert() {
        let gas = air9_equilibrium();
        let set = park_air9(gas.mixture());
        let y = [0.767, 0.233, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let mut wdot = [0.0; 9];
        set.mass_production(300.0, 300.0, 1.2, &y, &mut wdot);
        // Time scale of any change must exceed ~1e20 s.
        for (w, yv) in wdot.iter().zip(&y) {
            if *yv > 0.0 {
                assert!(w.abs() / (1.2 * yv) < 1e-20, "cold air reacting: {w}");
            }
        }
    }

    #[test]
    fn vibrational_nonequilibrium_slows_dissociation() {
        // Tv < T reduces Park's √(T·Tv) rate.
        let gas = air9_equilibrium();
        let set = park_air9(gas.mixture());
        let r = &set.reactions()[0]; // N2 dissociation
        let (kf_eq, _) = set.rate_constants(r, 10_000.0, 10_000.0);
        let (kf_neq, _) = set.rate_constants(r, 10_000.0, 2_000.0);
        assert!(kf_neq < kf_eq * 0.01, "kf {kf_neq} vs {kf_eq}");
    }

    #[test]
    fn net_nu_bookkeeping() {
        let gas = air9_equilibrium();
        let set = park_air9(gas.mixture());
        let r = &set.reactions()[0];
        let n2 = gas.mixture().index_of("N2").unwrap();
        let n = gas.mixture().index_of("N").unwrap();
        assert_eq!(r.net_nu(n2), -1.0);
        assert_eq!(r.net_nu(n), 2.0);
        assert_eq!(r.delta_nu(), 1.0);
    }
}
