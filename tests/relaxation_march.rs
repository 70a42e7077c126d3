//! The two-temperature relaxation march: its one-pass source kernel against
//! the term-by-term composition it replaced, bit for bit, and the Fig. 7
//! march itself against pinned station values.

use aerothermo::gas::equilibrium::air9_equilibrium;
use aerothermo::gas::kinetics::{park_air9, RateTemperature, ReactionSet};
use aerothermo::gas::relaxation::RelaxationModel;
use aerothermo::gas::source::{two_temperature_source, SourceState};
use aerothermo::numerics::constants::K_BOLTZMANN;
use aerothermo::solvers::shock1d::{solve, RelaxationProblem};

/// SplitMix64, for reproducible states without a dependency.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Log-uniform in [lo, hi).
    fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        (lo.ln() + self.unit() * (hi / lo).ln()).exp()
    }
}

/// Net rate of every reaction as the rate kernels computed it one reaction
/// at a time: rate constants from `rate_constants`, then the law of mass
/// action on the clamped concentrations.
fn reference_net_rates(set: &ReactionSet, t: f64, tv: f64, conc: &[f64]) -> Vec<f64> {
    set.reactions()
        .iter()
        .map(|r| {
            let (kf, kb) = set.rate_constants(r, t, tv);
            let mut rf = kf;
            for (i, nu) in &r.reactants {
                rf *= conc[*i].max(0.0).powf(*nu);
            }
            let mut rb = kb;
            for (i, nu) in &r.products {
                rb *= conc[*i].max(0.0).powf(*nu);
            }
            let mut net = rf - rb;
            if let Some(eff) = &r.third_body {
                let m: f64 = eff.iter().zip(conc).map(|(e, c)| e * c.max(0.0)).sum();
                net *= m;
            }
            net
        })
        .collect()
}

/// The sources composed term by term, as the relaxation march and the
/// reacting solver's chemistry substep evaluated them: mass production and
/// net rates in two reaction passes, Landau-Teller from `tau_species`, and
/// the chemistry and electron-impact terms of the vibronic source.
#[allow(clippy::too_many_arguments)]
fn reference_sources(
    set: &ReactionSet,
    relax: &RelaxationModel,
    t: f64,
    tv: f64,
    rho: f64,
    p: f64,
    y: &[f64],
) -> (Vec<f64>, Vec<f64>, f64) {
    let mix = set.mixture();
    let species = mix.species();
    let ns = mix.len();

    // Mass production: unclamped concentrations, clamped where they enter.
    let conc: Vec<f64> = (0..ns)
        .map(|s| rho * y[s] / species[s].molar_mass)
        .collect();
    let mut wdot = vec![0.0; ns];
    for (r, net) in set
        .reactions()
        .iter()
        .zip(reference_net_rates(set, t, tv, &conc))
    {
        for (i, nu) in &r.reactants {
            wdot[*i] -= nu * net;
        }
        for (i, nu) in &r.products {
            wdot[*i] += nu * net;
        }
    }
    for (w, sp) in wdot.iter_mut().zip(species) {
        *w *= sp.molar_mass;
    }

    // Landau-Teller exchange.
    let n_total = p / (K_BOLTZMANN * t);
    let x = mix.mass_to_mole(y);
    let mut q_tv = 0.0;
    for &s in relax.molecules() {
        if y[s] <= 0.0 {
            continue;
        }
        let sp = &species[s];
        let tau = relax.tau_species(s, t, p, n_total, &x);
        q_tv += rho * y[s] * (sp.e_vib(t) - sp.e_vib(tv)) / tau;
    }

    // Vibronic energy carried by produced and destroyed species.
    let mut q_chem = 0.0;
    for (s, sp) in species.iter().enumerate() {
        let evs = if sp.name == "e-" {
            sp.e_trans(tv)
        } else {
            sp.e_vib(tv) + sp.e_elec(tv)
        };
        q_chem += wdot[s] * evs;
    }

    // Electron-impact formation energy from the clamped concentrations.
    let conc: Vec<f64> = (0..ns)
        .map(|s| rho * y[s].max(0.0) / species[s].molar_mass)
        .collect();
    let rates = reference_net_rates(set, t, tv, &conc);
    let mut q_eii = 0.0;
    for (r, rate) in set.reactions().iter().zip(&rates) {
        if r.rate_t == RateTemperature::ElectronTv {
            q_eii -= rate * set.reaction_energy(r);
        }
    }
    (wdot, rates, q_tv + q_chem + q_eii)
}

fn assert_bits(what: &str, k: usize, got: &[f64], want: &[f64]) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "state {k}: {what}[{i}] = {g:e}, reference {w:e}"
        );
    }
}

#[test]
fn one_pass_source_matches_term_by_term_composition_bitwise() {
    let gas = air9_equilibrium();
    let set = park_air9(gas.mixture());
    let relax = RelaxationModel::new(gas.mixture().clone());
    let mix = set.mixture();
    let ns = mix.len();
    let nr = set.reactions().len();
    let mut rng = SplitMix(0x7e1a_8a7e_0000_0015);
    let (mut zero_trace, mut negative_trace, mut split_t) = (0, 0, 0);

    for k in 0..12_000 {
        let t = rng.log_uniform(300.0, 60_000.0);
        // A quarter of the states in thermal equilibrium, the rest split.
        let tv = if k % 4 == 0 {
            t
        } else {
            rng.log_uniform(200.0, 40_000.0)
        };
        let rho = rng.log_uniform(1e-6, 1.0);
        // Mass fractions spanning trace to dominant; some exactly zero, some
        // slightly negative (the march overshoots past zero by ~1e-15).
        let mut y: Vec<f64> = (0..ns)
            .map(|_| match rng.next() % 8 {
                0 => 0.0,
                1 => -rng.log_uniform(1e-18, 1e-10),
                _ => rng.log_uniform(1e-12, 1.0),
            })
            .collect();
        let sum: f64 = y.iter().filter(|v| **v > 0.0).sum();
        if sum <= 0.0 {
            y[0] = 1.0;
        } else {
            for v in y.iter_mut().filter(|v| **v > 0.0) {
                *v /= sum;
            }
        }
        zero_trace += usize::from(y.contains(&0.0));
        negative_trace += usize::from(y.iter().any(|v| *v < 0.0));
        split_t += usize::from(tv != t);
        let p = rho * mix.gas_constant(&y) * t;

        let (wdot_ref, rates_ref, q_ref) = reference_sources(&set, &relax, t, tv, rho, p, &y);

        let mut wdot = vec![f64::NAN; ns];
        let mut rates = vec![f64::NAN; nr];
        let state = SourceState {
            t,
            tv,
            rho,
            p,
            y: &y,
        };
        let q = two_temperature_source(&set, &relax, state, &mut wdot, Some(&mut rates));
        assert_bits("wdot", k, &wdot, &wdot_ref);
        assert_bits("rates", k, &rates, &rates_ref);
        assert_bits("q_v", k, &[q], &[q_ref]);

        // The public wrappers over the same pass.
        let mut wdot_mp = vec![f64::NAN; ns];
        set.mass_production(t, tv, rho, &y, &mut wdot_mp);
        assert_bits("mass_production", k, &wdot_mp, &wdot_ref);
        let conc: Vec<f64> = (0..ns)
            .map(|s| rho * y[s].max(0.0) / mix.species()[s].molar_mass)
            .collect();
        let mut rates_nr = vec![f64::NAN; nr];
        set.net_reaction_rates(t, tv, &conc, &mut rates_nr);
        assert_bits("net_reaction_rates", k, &rates_nr, &rates_ref);
        let mut without_rates = vec![f64::NAN; ns];
        let q_alone = two_temperature_source(&set, &relax, state, &mut without_rates, None);
        assert_bits("q_v without rates", k, &[q_alone], &[q_ref]);
    }
    assert!(zero_trace > 1_000 && negative_trace > 1_000 && split_t > 8_000);
}

#[test]
fn landau_teller_matches_tau_species_composition_bitwise() {
    let gas = air9_equilibrium();
    let relax = RelaxationModel::new(gas.mixture().clone());
    let mix = gas.mixture();
    let mut rng = SplitMix(0x1a2d_a07e_11e2_0015);
    for k in 0..2_000 {
        let t = rng.log_uniform(300.0, 60_000.0);
        let tv = rng.log_uniform(200.0, 40_000.0);
        let rho = rng.log_uniform(1e-6, 1.0);
        let mut y: Vec<f64> = (0..mix.len()).map(|_| rng.unit()).collect();
        y[(rng.next() % 3) as usize] = 0.0;
        let sum: f64 = y.iter().sum();
        y.iter_mut().for_each(|v| *v /= sum);
        let p = rho * mix.gas_constant(&y) * t;
        let n = p / (K_BOLTZMANN * t);
        let x = mix.mass_to_mole(&y);
        let mut want = 0.0;
        for &s in relax.molecules() {
            if y[s] > 0.0 {
                let sp = &mix.species()[s];
                let tau = relax.tau_species(s, t, p, n, &x);
                want += rho * y[s] * (sp.e_vib(t) - sp.e_vib(tv)) / tau;
            }
        }
        let got = relax.q_trans_vib(rho, &y, t, tv, p, n);
        assert_bits("q_trans_vib", k, &[got], &[want]);
    }
}

/// The Fig. 7 problem (10 km/s into 0.1 torr air) marched to 5 mm: T, T_v,
/// x_N2 and x_NO interpolated at fixed stations match the values the march
/// produced when the stiff integrator assembled a fresh Newton Jacobian at
/// every iterate.
#[test]
fn fig07_march_matches_pinned_stations() {
    // (x [mm], T [K], T_v [K], x_N2, x_NO)
    const PINNED: [(f64, f64, f64, f64, f64); 15] = [
        (0.01, 48449.82, 888.83, 0.789917, 0.000000),
        (0.05, 48333.91, 1574.61, 0.789722, 0.000001),
        (0.1, 48167.24, 2196.08, 0.789004, 0.000006),
        (0.2, 47751.19, 3266.17, 0.785668, 0.000057),
        (0.35, 46906.08, 4730.95, 0.775164, 0.000310),
        (0.5, 45778.23, 6143.79, 0.757116, 0.000799),
        (0.75, 43208.55, 8451.43, 0.708224, 0.001362),
        (1.0, 39838.05, 10663.63, 0.637899, 0.001015),
        (1.25, 36024.07, 12710.96, 0.555534, 0.000687),
        (1.5, 32150.84, 14503.12, 0.470470, 0.000477),
        (2.0, 25157.57, 16479.48, 0.315269, 0.000258),
        (2.5, 20295.67, 15241.87, 0.210504, 0.000213),
        (3.0, 17671.31, 13188.64, 0.157769, 0.000239),
        (4.0, 15203.06, 11292.57, 0.111205, 0.000284),
        (5.0, 13919.62, 10526.42, 0.087832, 0.000296),
    ];
    let gas = air9_equilibrium();
    let set = park_air9(gas.mixture());
    let relax = RelaxationModel::new(gas.mixture().clone());
    let mut y1 = vec![0.0; gas.mixture().len()];
    y1[0] = 0.767;
    y1[1] = 0.233;
    let problem = RelaxationProblem {
        u1: 10_000.0,
        t1: 300.0,
        p1: 13.3,
        y1,
        x_end: 0.005,
    };
    let sol = solve(&set, &relax, &problem).expect("march");
    let pts = &sol.points;
    for (x_mm, t, tv, x_n2, x_no) in PINNED {
        let x = x_mm * 1e-3;
        let k = pts
            .iter()
            .position(|p| p.x >= x)
            .expect("station inside march");
        let (a, b) = (&pts[k.max(1) - 1], &pts[k.max(1)]);
        let w = (x - a.x) / (b.x - a.x);
        let at = |fa: f64, fb: f64| fa + w * (fb - fa);
        let got = (
            at(a.t, b.t),
            at(a.tv, b.tv),
            at(a.x_mole[0], b.x_mole[0]),
            at(a.x_mole[2], b.x_mole[2]),
        );
        assert!(
            (got.0 - t).abs() < 5e-3 * t && (got.1 - tv).abs() < 5e-3 * tv,
            "x = {x_mm} mm: T, T_v = {:.2}, {:.2}; pinned {t}, {tv}",
            got.0,
            got.1
        );
        // x_NO peaks near 1.4e-3, so it gets a bound scaled to its peak.
        assert!(
            (got.2 - x_n2).abs() < 1e-3 && (got.3 - x_no).abs() < 2e-5,
            "x = {x_mm} mm: x_N2, x_NO = {:.6}, {:.6}; pinned {x_n2}, {x_no}",
            got.2,
            got.3
        );
    }
}
