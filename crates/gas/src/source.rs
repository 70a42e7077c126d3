//! Two-temperature source terms of reacting, vibrationally relaxing air at
//! one state, in one pass.
//!
//! A two-temperature march carries the species densities and one vibronic
//! energy pool (vibration, electronic excitation and free-electron
//! translation at `T_v`). Its sources are the mass production rates ẇ and
//! the vibronic-energy source
//!
//! `Q_v = Q_LT + Σ_s ẇ_s·e_v,s(T_v) − Σ_{r ∈ e⁻-impact} ω_r·ΔE_r`:
//!
//! Landau-Teller exchange with translation, the vibronic energy carried by
//! produced and destroyed species, and the formation energy electron-impact
//! ionization draws from the electron pool (the sink that self-limits the
//! ionization avalanche by cooling `T_e`). One reaction pass yields both ẇ
//! and the per-reaction net rates ω the last term needs; `e_v(T_v)` is
//! evaluated once per species for both of the other terms.

use crate::kinetics::{accumulate, RateTemperature, ReactionSet, MAX_SPECIES};
use crate::relaxation::RelaxationModel;
use aerothermo_numerics::constants::K_BOLTZMANN;

/// The local state a two-temperature source is evaluated at.
#[derive(Debug, Clone, Copy)]
pub struct SourceState<'a> {
    /// Translational-rotational temperature \[K\].
    pub t: f64,
    /// Vibrational-electronic temperature \[K\].
    pub tv: f64,
    /// Mixture density \[kg/m³\].
    pub rho: f64,
    /// Pressure \[Pa\].
    pub p: f64,
    /// Species mass fractions (mixture order); trace species may be zero
    /// or slightly negative, and count as absent.
    pub y: &'a [f64],
}

/// Mass production rates ẇ \[kg/(m³·s)\] into `wdot` and, when asked, the
/// net rate of every reaction \[kmol/(m³·s)\] into `rates`; returns the
/// vibronic-energy source `Q_v` \[W/m³\] (see the module docs).
///
/// The results are the same bits as [`ReactionSet::mass_production`],
/// [`ReactionSet::net_reaction_rates`] and [`RelaxationModel::q_trans_vib`]
/// composed term by term.
///
/// # Panics
/// Panics if `s.y` or `wdot` does not hold one entry per species, or
/// `rates` one per reaction.
pub fn two_temperature_source(
    reactions: &ReactionSet,
    relaxation: &RelaxationModel,
    s: SourceState<'_>,
    wdot: &mut [f64],
    mut rates: Option<&mut [f64]>,
) -> f64 {
    let species = reactions.mixture().species();
    let ns = species.len();
    assert!(s.y.len() == ns && wdot.len() == ns);
    if let Some(rates) = rates.as_deref() {
        assert_eq!(rates.len(), reactions.reactions().len());
    }
    let mut conc = [0.0; MAX_SPECIES];
    for (c, (sp, ys)) in conc.iter_mut().zip(species.iter().zip(s.y)) {
        *c = s.rho * ys / sp.molar_mass;
    }

    wdot.fill(0.0);
    let mut q_eii = 0.0;
    reactions.for_each_net_rate(s.t, s.tv, &conc[..ns], |k, r, net| {
        accumulate(r, net, wdot);
        if let Some(rates) = rates.as_deref_mut() {
            rates[k] = net;
        }
        if r.rate_t == RateTemperature::ElectronTv {
            q_eii -= net * reactions.reaction_energy(r);
        }
    });
    for (w, sp) in wdot.iter_mut().zip(species) {
        *w *= sp.molar_mass;
    }

    let mut e_vib_tv = [0.0; MAX_SPECIES];
    for (e, sp) in e_vib_tv.iter_mut().zip(species) {
        *e = sp.e_vib(s.tv);
    }
    let n_total = s.p / (K_BOLTZMANN * s.t);
    let q_tv = relaxation.landau_teller(s.rho, s.y, s.t, s.p, n_total, &e_vib_tv);
    let mut q_chem = 0.0;
    for ((sp, w), e_vib) in species.iter().zip(&*wdot).zip(&e_vib_tv) {
        let evs = if sp.name == "e-" {
            sp.e_trans(s.tv)
        } else {
            e_vib + sp.e_elec(s.tv)
        };
        q_chem += w * evs;
    }
    q_tv + q_chem + q_eii
}
