//! General chemical-equilibrium solver (element-potential method).
//!
//! At equilibrium the number density of every species satisfies
//!
//! ```text
//! ln n_s = Σ_e a_es·λ_e  +  q_s·λ_c  +  φ_s(T)
//! ```
//!
//! where `a_es` are element counts, `q_s` the charge, `λ` the element/charge
//! potentials (Lagrange multipliers of the Gibbs minimization), and `φ_s(T)`
//! the concentration potential from the species partition function
//! ([`Species::ln_concentration_potential`]). The solver finds `λ` by damped
//! Newton on scale-invariant residuals (element-abundance ratios, charge
//! neutrality, and a pressure or density closure), all computed with
//! log-sum-exp shifts so that compositions spanning hundreds of orders of
//! magnitude (cold air has n(N⁺)/n(N₂) ~ 1e−300) stay well-conditioned.
//!
//! The same code path serves ionizing air and Titan N₂/CH₄ chemistry — the
//! species set and element abundances are the only inputs.

use crate::error::GasError;
use crate::species::Element;
use crate::thermo::Mixture;
use aerothermo_numerics::constants::K_BOLTZMANN;
use aerothermo_numerics::newton::{newton_solve, NewtonOptions};
use aerothermo_numerics::roots::{brent_expanding, RootError};
use aerothermo_numerics::telemetry::{counters, Counter};
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic id source distinguishing [`EquilibriumGas`] instances in the
/// per-thread warm-start cache (clones share the id: same mixture and
/// abundances means cached potentials stay valid).
static NEXT_GAS_ID: AtomicU64 = AtomicU64::new(0);

/// Lowest temperature the inversions probe \[K\]. It lies below the
/// range where the cold start converges for cold polyatomic mixtures
/// (Titan N₂/CH₄), so a bracket that expands down to it usually ends in a
/// failed solve there, counted as [`Counter::EquilibriumFloorFailures`].
const T_PROBE_FLOOR: f64 = 60.0;

/// Closure condition for the equilibrium solve.
#[derive(Debug, Clone, Copy)]
enum Closure {
    /// Fixed total pressure \[Pa\].
    Pressure(f64),
    /// Fixed mass density \[kg/m³\].
    Density(f64),
}

/// Per-thread warm-start cache for the element-potential Newton iteration.
///
/// Successive equilibrium solves along a table row, a Brent inversion, or a
/// body streamline differ by a few percent in `(T, closure)`; the converged
/// potentials `λ` of the previous solve are then an excellent Newton seed
/// that skips the 40-sweep fixed-point pre-balance entirely. Each entry
/// stores the gas identity, closure kind, `ln T`, `ln` of the closure value
/// (`p` or `ρ`), and the converged `λ`. A lookup accepts the nearest entry
/// inside the quantization window ([`warm_cache::LN_T_WINDOW`] ×
/// [`warm_cache::LN_V_WINDOW`] in ln-space); a state jumping outside the
/// window bypasses the cache and takes the cold start.
///
/// The cache is `thread_local`, so rayon workers never contend nor share
/// seeds — results stay deterministic for a fixed thread count, and the
/// cold-start fallback guards robustness when a warm seed fails to
/// converge.
mod warm_cache {
    use std::cell::RefCell;

    /// Entries kept per thread (small: a lookup is a linear scan that must
    /// stay negligible next to a ~10 µs solve).
    const CAPACITY: usize = 16;
    /// Quantization window in `ln T`: seeds farther than this in
    /// temperature are stale enough that the cold start wins.
    pub(super) const LN_T_WINDOW: f64 = 0.08;
    /// Quantization window in `ln p` / `ln ρ`.
    pub(super) const LN_V_WINDOW: f64 = 0.5;

    struct Entry {
        gas_id: u64,
        kind: u8,
        ln_t: f64,
        ln_v: f64,
        lambda: Vec<f64>,
    }

    thread_local! {
        static CACHE: RefCell<Vec<Entry>> = const { RefCell::new(Vec::new()) };
    }

    /// Nearest cached potentials inside the quantization window, counting
    /// the hit or miss.
    pub(super) fn lookup(gas_id: u64, kind: u8, ln_t: f64, ln_v: f64) -> Option<Vec<f64>> {
        use aerothermo_numerics::telemetry::{counters, Counter};
        let found = CACHE.with(|c| {
            let cache = c.borrow();
            cache
                .iter()
                .filter(|e| {
                    e.gas_id == gas_id
                        && e.kind == kind
                        && (e.ln_t - ln_t).abs() <= LN_T_WINDOW
                        && (e.ln_v - ln_v).abs() <= LN_V_WINDOW
                })
                .min_by(|a, b| {
                    let da = (a.ln_t - ln_t).abs() + (a.ln_v - ln_v).abs();
                    let db = (b.ln_t - ln_t).abs() + (b.ln_v - ln_v).abs();
                    da.total_cmp(&db)
                })
                .map(|e| e.lambda.clone())
        });
        counters::add(
            if found.is_some() {
                Counter::EquilibriumCacheHits
            } else {
                Counter::EquilibriumCacheMisses
            },
            1,
        );
        found
    }

    /// Record converged potentials, replacing any entry already inside the
    /// window (most-recent-first eviction beyond [`CAPACITY`]).
    pub(super) fn store(gas_id: u64, kind: u8, ln_t: f64, ln_v: f64, lambda: &[f64]) {
        CACHE.with(|c| {
            let mut cache = c.borrow_mut();
            if let Some(pos) = cache.iter().position(|e| {
                e.gas_id == gas_id
                    && e.kind == kind
                    && (e.ln_t - ln_t).abs() <= LN_T_WINDOW
                    && (e.ln_v - ln_v).abs() <= LN_V_WINDOW
            }) {
                cache.remove(pos);
            }
            cache.insert(
                0,
                Entry {
                    gas_id,
                    kind,
                    ln_t,
                    ln_v,
                    lambda: lambda.to_vec(),
                },
            );
            cache.truncate(CAPACITY);
        });
    }

    /// Drop this thread's entries.
    pub(super) fn clear_thread() {
        CACHE.with(|c| c.borrow_mut().clear());
    }
}

/// Drop the calling thread's warm-start cache entries.
///
/// The cache makes successive solves *on one thread* seed each other, so
/// a solve's converged-to-tolerance result can depend on what ran on the
/// thread before it. Batch executors that promise per-case determinism
/// regardless of scheduling (the sweep engine's worker pool) call this at
/// every case boundary so each case starts from the cold-start seed no
/// matter which worker it landed on or what that worker ran previously.
pub fn reset_thread_warm_cache() {
    warm_cache::clear_thread();
}

/// Reusable buffers for the equilibrium solve. The damped-Newton residual
/// is evaluated `O(n_unknowns × iterations)` times per state, and each
/// evaluation previously allocated three short-lived vectors (`ln n`, the
/// log-sum-exp weights, and the per-element nuclei sums); hoisting them
/// into a scratch that lives for a whole solve — or a whole
/// [`EquilibriumGas::at_trho_batch`] — removes the malloc traffic from the
/// innermost loop without changing any arithmetic.
#[derive(Debug, Default)]
struct SolveScratch {
    /// `ln n_s` work vector.
    lnn: Vec<f64>,
    /// Shifted weights `exp(ln n_s − m)`.
    w: Vec<f64>,
    /// Per-element shifted nuclei sums.
    nel: Vec<f64>,
    /// Concentration potentials φ_s(T) for the solve temperature.
    phi: Vec<f64>,
}

/// Reusable scratch for the allocation-free [`EquilibriumGas::at_tp_into`].
///
/// Holding one of these (plus a reused [`EqState`]) across a sweep of
/// solves keeps the hot path free of per-call heap traffic: the Newton
/// work buffers, the potential vector, and the composition arrays are all
/// grown once and reused.
#[derive(Debug, Default)]
pub struct EqSolveScratch {
    inner: SolveScratch,
}

/// Result of an equilibrium-composition solve.
#[derive(Debug, Clone)]
pub struct EqState {
    /// Temperature \[K\].
    pub temperature: f64,
    /// Pressure \[Pa\].
    pub pressure: f64,
    /// Density \[kg/m³\].
    pub density: f64,
    /// Species number densities \[1/m³\], mixture order.
    pub number_densities: Vec<f64>,
    /// Species mass fractions, mixture order.
    pub mass_fractions: Vec<f64>,
    /// Species mole fractions, mixture order.
    pub mole_fractions: Vec<f64>,
    /// Mixture internal energy \[J/kg\] including formation energies.
    pub energy: f64,
    /// Mixture enthalpy \[J/kg\].
    pub enthalpy: f64,
    /// Mixture molar mass \[kg/kmol\].
    pub molar_mass: f64,
}

impl EqState {
    /// An empty state to be filled by [`EquilibriumGas::at_tp_into`]. The
    /// composition vectors start empty and are sized by the first solve;
    /// reusing the same state across a sweep then performs no further
    /// allocation.
    #[must_use]
    pub fn empty() -> Self {
        Self {
            temperature: 0.0,
            pressure: 0.0,
            density: 0.0,
            number_densities: Vec::new(),
            mass_fractions: Vec::new(),
            mole_fractions: Vec::new(),
            energy: 0.0,
            enthalpy: 0.0,
            molar_mass: 0.0,
        }
    }
}

/// Equilibrium-gas model: a mixture plus fixed elemental abundances.
#[derive(Debug, Clone)]
pub struct EquilibriumGas {
    mix: Mixture,
    /// Elements present, in solver order.
    elements: Vec<Element>,
    /// Relative nuclei abundances `b_e` (same order as `elements`).
    abundances: Vec<f64>,
    /// `a[e * ns + s]`: atoms of element `e` in species `s`.
    a: Vec<f64>,
    /// Species charges.
    q: Vec<f64>,
    /// Whether any species is charged (enables the λ_c unknown).
    has_charge: bool,
    /// Cache identity (see [`NEXT_GAS_ID`]).
    id: u64,
}

impl EquilibriumGas {
    /// Build a solver for `mix` with elemental abundances `abundances`
    /// (relative nuclei mole numbers; they need not be normalized).
    ///
    /// # Panics
    /// Panics if an element with positive abundance appears in no species, or
    /// if a species contains an element with no declared abundance.
    #[must_use]
    pub fn new(mix: Mixture, abundances: &[(Element, f64)]) -> Self {
        let elements: Vec<Element> = abundances.iter().map(|(e, _)| *e).collect();
        let b: Vec<f64> = abundances.iter().map(|(_, v)| *v).collect();
        assert!(b.iter().all(|v| *v > 0.0), "abundances must be positive");
        let ns = mix.len();
        let ne = elements.len();
        let mut a = vec![0.0; ne * ns];
        for (s, sp) in mix.species().iter().enumerate() {
            for (el, count) in &sp.elements {
                let e = elements.iter().position(|x| x == el).unwrap_or_else(|| {
                    panic!("species {} has element {el:?} with no abundance", sp.name)
                });
                a[e * ns + s] = f64::from(*count);
            }
        }
        for (e, el) in elements.iter().enumerate() {
            assert!(
                (0..ns).any(|s| a[e * ns + s] > 0.0),
                "element {el:?} appears in no species"
            );
        }
        let q: Vec<f64> = mix.species().iter().map(|s| f64::from(s.charge)).collect();
        let has_charge = q.iter().any(|v| *v != 0.0);
        Self {
            mix,
            elements,
            abundances: b,
            a,
            q,
            has_charge,
            id: NEXT_GAS_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The underlying mixture.
    #[must_use]
    pub fn mixture(&self) -> &Mixture {
        &self.mix
    }

    /// The element list, in solver order.
    #[must_use]
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Elemental mass fractions implied by the abundances (useful to build a
    /// consistent cold-gas composition).
    #[must_use]
    pub fn abundances(&self) -> Vec<(Element, f64)> {
        self.elements
            .iter()
            .copied()
            .zip(self.abundances.iter().copied())
            .collect()
    }

    fn n_unknowns(&self) -> usize {
        self.elements.len() + usize::from(self.has_charge)
    }

    /// ln n_s for the current potentials.
    fn ln_n(&self, lambda: &[f64], phi: &[f64], out: &mut [f64]) {
        let ns = self.mix.len();
        let ne = self.elements.len();
        for s in 0..ns {
            let mut v = phi[s];
            for e in 0..ne {
                v += self.a[e * ns + s] * lambda[e];
            }
            if self.has_charge {
                v += self.q[s] * lambda[ne];
            }
            // No tight clamp here: the residuals use log-sum-exp shifts, so
            // extreme magnitudes are safe, and clamping would zero the
            // Jacobian rows of trace species. The wide guard only protects
            // against runaway Newton steps.
            out[s] = v.clamp(-1e6, 1e6);
        }
    }

    /// Scale-invariant residual vector; see module docs. `scr` supplies the
    /// work buffers (fully rewritten every call, so reuse is free of
    /// cross-call state).
    fn residual(
        &self,
        lambda: &[f64],
        phi: &[f64],
        t: f64,
        closure: Closure,
        res: &mut [f64],
        scr: &mut SolveScratch,
    ) {
        let ns = self.mix.len();
        let ne = self.elements.len();
        let SolveScratch { lnn, w, nel, .. } = scr;
        lnn.resize(ns, 0.0);
        self.ln_n(lambda, phi, lnn);

        // Global shift for log-sum-exp.
        let m = lnn.iter().fold(f64::NEG_INFINITY, |acc, &v| acc.max(v));
        w.clear();
        w.extend(lnn.iter().map(|&v| (v - m).exp()));

        // Element nuclei sums (shifted).
        nel.clear();
        nel.extend((0..ne).map(|e| (0..ns).map(|s| self.a[e * ns + s] * w[s]).sum::<f64>()));

        // Element-ratio residuals relative to element 0.
        let b = &self.abundances;
        for e in 1..ne {
            let num = nel[e] * b[0] - nel[0] * b[e];
            let den = nel[e] * b[0] + nel[0] * b[e] + 1e-300;
            res[e - 1] = num / den;
        }

        // Closure: pressure or density, in log form.
        let total_shifted: f64 = w.iter().sum();
        let closure_res = match closure {
            Closure::Pressure(p) => m + total_shifted.ln() + (K_BOLTZMANN * t).ln() - p.ln(),
            Closure::Density(rho) => {
                let mass_shifted: f64 = self
                    .mix
                    .species()
                    .iter()
                    .zip(w.iter())
                    .map(|(sp, wi)| sp.particle_mass() * wi)
                    .sum();
                m + mass_shifted.ln() - rho.ln()
            }
        };
        res[ne - 1] = closure_res;

        // Charge neutrality with its own shift over charged species.
        if self.has_charge {
            let mc = lnn
                .iter()
                .zip(&self.q)
                .filter(|(_, q)| **q != 0.0)
                .fold(f64::NEG_INFINITY, |acc, (&v, _)| acc.max(v));
            let mut num = 0.0;
            let mut den = 1e-300;
            for s in 0..ns {
                if self.q[s] != 0.0 {
                    let ws = (lnn[s] - mc).exp();
                    num += self.q[s] * ws;
                    den += self.q[s].abs() * ws;
                }
            }
            res[ne] = num / den;
        }
    }

    /// Initial potentials: place each element's nuclei at a plausible total
    /// density, as if fully atomized.
    fn initial_lambda(&self, phi: &[f64], t: f64, closure: Closure) -> Vec<f64> {
        let n_guess = match closure {
            Closure::Pressure(p) => p / (K_BOLTZMANN * t),
            Closure::Density(rho) => {
                // Use a nominal 20 kg/kmol molar mass for the guess.
                rho / (20.0 / aerothermo_numerics::constants::N_AVOGADRO)
            }
        }
        .max(1e5);
        let ln_target = n_guess.ln();
        let ns = self.mix.len();
        let ne = self.elements.len();
        let mut lambda = vec![0.0; self.n_unknowns()];
        for e in 0..ne {
            // Pick the species of this element with the fewest atoms of it
            // (prefer the monatomic carrier) to anchor the potential.
            let mut best: Option<(f64, f64)> = None; // (atoms, phi)
            for s in 0..ns {
                let aes = self.a[e * ns + s];
                if aes > 0.0 && self.q[s] == 0.0 {
                    let cand = (aes, phi[s]);
                    best = Some(match best {
                        None => cand,
                        Some(cur) if cand.0 < cur.0 => cand,
                        Some(cur) => cur,
                    });
                }
            }
            if let Some((aes, ph)) = best {
                lambda[e] = (ln_target - ph) / aes;
            }
        }
        // Fixed-point pre-balance: repeatedly nudge each element potential so
        // that its nuclei count matches the target, and center the charge
        // potential between the dominant cation and anion. This is slow but
        // extremely robust (each ln N_e is monotone in λ_e), and leaves
        // Newton with an O(1) residual instead of an O(100) one.
        let b_total: f64 = self.abundances.iter().sum();
        let ln_nuclei_target = (2.0 * n_guess).ln();
        let mut lnn = vec![0.0; ns];
        let mut w = vec![0.0; ns];
        for _sweep in 0..40 {
            self.ln_n(&lambda, phi, &mut lnn);
            let m = lnn.iter().fold(f64::NEG_INFINITY, |acc, &v| acc.max(v));
            for (wi, &v) in w.iter_mut().zip(lnn.iter()) {
                *wi = (v - m).exp();
            }
            for e in 0..ne {
                let s1: f64 = (0..ns).map(|s| self.a[e * ns + s] * w[s]).sum();
                let s2: f64 = (0..ns)
                    .map(|s| self.a[e * ns + s] * self.a[e * ns + s] * w[s])
                    .sum();
                if s1 <= 0.0 {
                    continue;
                }
                let ln_ne_cur = m + s1.ln();
                let abar = (s2 / s1).max(1.0);
                let target = ln_nuclei_target + (self.abundances[e] / b_total).ln();
                lambda[e] += 0.9 * (target - ln_ne_cur) / abar;
            }
            if self.has_charge {
                self.ln_n(&lambda, phi, &mut lnn);
                let mut max_cat = f64::NEG_INFINITY;
                let mut max_an = f64::NEG_INFINITY;
                for s in 0..ns {
                    if self.q[s] > 0.0 {
                        max_cat = max_cat.max(lnn[s] / self.q[s]);
                    } else if self.q[s] < 0.0 {
                        max_an = max_an.max(lnn[s] / (-self.q[s]));
                    }
                }
                if max_cat.is_finite() && max_an.is_finite() {
                    lambda[ne] += 0.5 * (max_an - max_cat);
                }
            }
        }
        lambda
    }

    /// One damped-Newton attempt on the potentials. When the charged species
    /// are numerically irrelevant at this temperature (their largest ln n is
    /// hundreds of units below the neutrals'), the charge potential is held
    /// at its pre-balanced value and excluded from the unknowns — its
    /// residual row would otherwise be flat to machine precision and drive
    /// the iteration off a cliff.
    fn newton_attempt(
        &self,
        lambda: &mut [f64],
        phi: &[f64],
        t: f64,
        closure: Closure,
        opts: &NewtonOptions,
        scr: &mut SolveScratch,
    ) -> Result<(), aerothermo_numerics::newton::NewtonError> {
        let ne = self.elements.len();
        let ns = self.mix.len();
        let freeze_charge = self.has_charge && {
            scr.lnn.resize(ns, 0.0);
            self.ln_n(lambda, phi, &mut scr.lnn);
            let m_all = scr.lnn.iter().fold(f64::NEG_INFINITY, |a, &v| a.max(v));
            let m_ch = scr
                .lnn
                .iter()
                .zip(&self.q)
                .filter(|(_, q)| **q != 0.0)
                .fold(f64::NEG_INFINITY, |a, (&v, _)| a.max(v));
            m_ch < m_all - 150.0
        };
        if freeze_charge {
            let lam_c = lambda[ne];
            let mut x = lambda[..ne].to_vec();
            // Hoisted out of the closure: both are fully rewritten per
            // residual evaluation.
            let mut full = vec![0.0; ne + 1];
            let mut rf = vec![0.0; ne + 1];
            let result = newton_solve(
                |x, f| {
                    full[..ne].copy_from_slice(x);
                    full[ne] = lam_c;
                    self.residual(&full, phi, t, closure, &mut rf, scr);
                    f.copy_from_slice(&rf[..ne]);
                },
                &mut x,
                opts,
            );
            lambda[..ne].copy_from_slice(&x);
            result.map(|_| ())
        } else {
            newton_solve(
                |x, f| self.residual(x, phi, t, closure, f, scr),
                lambda,
                opts,
            )
            .map(|_| ())
        }
    }

    fn solve(&self, t: f64, closure: Closure) -> Result<EqState, GasError> {
        let mut scratch = SolveScratch::default();
        self.solve_with(t, closure, &mut scratch)
    }

    fn solve_with(
        &self,
        t: f64,
        closure: Closure,
        scratch: &mut SolveScratch,
    ) -> Result<EqState, GasError> {
        let mut out = EqState::empty();
        self.solve_into(t, closure, scratch, &mut out)?;
        Ok(out)
    }

    /// Allocation-free core of every equilibrium solve: writes the state
    /// into `out`, reusing its composition vectors and the scratch's work
    /// buffers. A warm-cache seed gets one short attempt, then the cold
    /// start one full attempt; a state neither converges is an error.
    fn solve_into(
        &self,
        t: f64,
        closure: Closure,
        scratch: &mut SolveScratch,
        out: &mut EqState,
    ) -> Result<(), GasError> {
        let (Closure::Pressure(v) | Closure::Density(v)) = closure;
        if !(t.is_finite() && t > 0.0 && v.is_finite() && v > 0.0) {
            return Err(GasError::BadInput(format!(
                "equilibrium state at T={t}, {closure:?}: both must be finite and positive"
            )));
        }
        counters::add(Counter::EquilibriumStates, 1);
        let _sp = aerothermo_numerics::trace::span("equilibrium_state");
        let ns = self.mix.len();
        // Borrow-juggle the φ buffer out of the scratch so the scratch can
        // still be lent to the Newton attempts below.
        let mut phi = std::mem::take(&mut scratch.phi);
        phi.clear();
        phi.extend(
            self.mix
                .species()
                .iter()
                .map(|s| s.ln_concentration_potential(t)),
        );

        // The scale-free residuals make 1e-9 ample for composition work;
        // rank-deficient trace-species directions can stall the last decades
        // of a tighter tolerance (the newton solver also accepts 100× the
        // tolerance as "unconverged but usable").
        let opts = NewtonOptions {
            tol: 1e-9,
            max_iter: 200,
            fd_eps: 1e-7,
            min_lambda: 1e-6,
        };
        let (kind, ln_v) = match closure {
            Closure::Pressure(p) => (0u8, p.ln()),
            Closure::Density(rho) => (1u8, rho.ln()),
        };
        let ln_t = t.ln();
        let mut lambda;
        let mut attempt;
        match warm_cache::lookup(self.id, kind, ln_t, ln_v) {
            Some(seed) if seed.len() == self.n_unknowns() => {
                counters::add(Counter::NewtonWarmStarts, 1);
                lambda = seed;
                // A good warm seed converges in a handful of iterations;
                // give it a short budget so a stale seed costs little
                // before the cold-start fallback.
                let warm_opts = NewtonOptions {
                    max_iter: 25,
                    ..opts
                };
                attempt = self.newton_attempt(&mut lambda, &phi, t, closure, &warm_opts, scratch);
                if attempt.is_err() {
                    // Stale warm seed: fall back to the cold start.
                    counters::add(Counter::EquilibriumColdStarts, 1);
                    lambda = self.initial_lambda(&phi, t, closure);
                    attempt = self.newton_attempt(&mut lambda, &phi, t, closure, &opts, scratch);
                }
            }
            _ => {
                counters::add(Counter::EquilibriumColdStarts, 1);
                lambda = self.initial_lambda(&phi, t, closure);
                attempt = self.newton_attempt(&mut lambda, &phi, t, closure, &opts, scratch);
            }
        }
        // The cold start is the last attempt: a state it cannot converge
        // (cold polyatomic mixtures far below their working range, such as
        // Titan gas at an inversion's 60 K bracket floor) fails here.
        if let Err(e) = attempt {
            counters::add(Counter::EquilibriumFailures, 1);
            if t <= T_PROBE_FLOOR {
                counters::add(Counter::EquilibriumFloorFailures, 1);
            }
            scratch.phi = phi;
            return Err(GasError::EquilibriumNotConverged {
                temperature: t,
                detail: e.to_string(),
            });
        }
        warm_cache::store(self.id, kind, ln_t, ln_v, &lambda);

        scratch.lnn.resize(ns, 0.0);
        self.ln_n(&lambda, &phi, &mut scratch.lnn);
        scratch.phi = phi;
        let n = &mut out.number_densities;
        n.clear();
        n.extend(scratch.lnn.iter().map(|v| v.exp()));
        let rho: f64 = self
            .mix
            .species()
            .iter()
            .zip(n.iter())
            .map(|(sp, ni)| sp.particle_mass() * ni)
            .sum();
        let ntot: f64 = n.iter().sum();
        let p = ntot * K_BOLTZMANN * t;
        let y = &mut out.mass_fractions;
        y.clear();
        y.extend(
            self.mix
                .species()
                .iter()
                .zip(out.number_densities.iter())
                .map(|(sp, ni)| sp.particle_mass() * ni / rho),
        );
        let x = &mut out.mole_fractions;
        x.clear();
        x.extend(out.number_densities.iter().map(|ni| ni / ntot));
        let e = self.mix.e_total(t, &out.mass_fractions);
        let h = e + p / rho;
        let mbar = rho / ntot * aerothermo_numerics::constants::N_AVOGADRO;
        out.temperature = t;
        out.pressure = p;
        out.density = rho;
        out.energy = e;
        out.enthalpy = h;
        out.molar_mass = mbar;
        Ok(())
    }

    /// Equilibrium composition at fixed temperature and pressure.
    ///
    /// # Errors
    /// [`GasError::EquilibriumNotConverged`] when the Newton iteration
    /// cannot converge.
    pub fn at_tp(&self, t: f64, p: f64) -> Result<EqState, GasError> {
        self.solve(t, Closure::Pressure(p))
    }

    /// Equilibrium composition at fixed temperature and density.
    ///
    /// # Errors
    /// [`GasError::EquilibriumNotConverged`] when the Newton iteration
    /// cannot converge.
    pub fn at_trho(&self, t: f64, rho: f64) -> Result<EqState, GasError> {
        self.solve(t, Closure::Density(rho))
    }

    /// Allocation-free [`EquilibriumGas::at_tp`]: writes the state into
    /// `out`, reusing its composition vectors and the caller-held scratch.
    /// Results are bitwise identical to [`EquilibriumGas::at_tp`] — the
    /// arithmetic is shared; only the buffer ownership differs.
    ///
    /// # Errors
    /// Same as [`EquilibriumGas::at_tp`].
    pub fn at_tp_into(
        &self,
        t: f64,
        p: f64,
        scratch: &mut EqSolveScratch,
        out: &mut EqState,
    ) -> Result<(), GasError> {
        self.solve_into(t, Closure::Pressure(p), &mut scratch.inner, out)
    }

    /// Micro-batched [`EquilibriumGas::at_trho`]: solve a slice of
    /// `(T, ρ)` states in chunks of up to four lanes, sharing one scratch
    /// allocation and one `equilibrium_batch` tracing span per chunk.
    ///
    /// Lanes are processed *sequentially* with the exact per-lane
    /// warm-cache protocol (lookup → solve → store), so every returned
    /// state is bitwise identical to the corresponding individual
    /// [`EquilibriumGas::at_trho`] call made in the same order on the same
    /// thread — the speedup comes from hoisting the Newton residual's
    /// work buffers across the whole batch and amortizing the telemetry,
    /// not from changing the iteration. Ordering the slice along a sweep
    /// (a table row, a streamline) additionally makes each lane the next
    /// lane's warm seed.
    pub fn at_trho_batch(&self, states: &[(f64, f64)]) -> Vec<Result<EqState, GasError>> {
        let mut out = Vec::with_capacity(states.len());
        let mut scratch = SolveScratch::default();
        for chunk in states.chunks(4) {
            counters::add(Counter::EquilibriumBatches, 1);
            counters::add(Counter::EquilibriumBatchStates, chunk.len() as u64);
            counters::add(
                match chunk.len() {
                    1 => Counter::EquilibriumBatchLanes1,
                    2 => Counter::EquilibriumBatchLanes2,
                    3 => Counter::EquilibriumBatchLanes3,
                    _ => Counter::EquilibriumBatchLanes4,
                },
                1,
            );
            let _sp = aerothermo_numerics::trace::span("equilibrium_batch");
            for &(t, rho) in chunk {
                out.push(self.solve_with(t, Closure::Density(rho), &mut scratch));
            }
        }
        out
    }

    /// Equilibrium state at fixed density and specific internal energy
    /// (including formation energies, same reference as
    /// [`Mixture::e_total`]). This is the EOS call a conservative flow solver
    /// makes every step; the table in [`crate::eq_table`] caches it.
    ///
    /// # Errors
    /// [`GasError::InversionFailed`] when no temperature in
    /// \[60 K, 90 000 K\] matches `e`.
    pub fn at_rho_e(&self, rho: f64, e: f64) -> Result<EqState, GasError> {
        let closure = Closure::Density(rho);
        let t = self
            .temperature_where(closure, e, |st| st.energy)
            .map_err(|err| GasError::InversionFailed {
                context: format!("at_rho_e(rho={rho:.3e}, e={e:.3e})"),
                detail: err.to_string(),
            })?;
        self.solve(t, closure)
    }

    /// Equilibrium state at fixed pressure and enthalpy (used by
    /// stagnation-point analyses).
    ///
    /// # Errors
    /// [`GasError::InversionFailed`] when no temperature in range
    /// matches `h`.
    pub fn at_ph(&self, p: f64, h: f64) -> Result<EqState, GasError> {
        let closure = Closure::Pressure(p);
        let t = self
            .temperature_where(closure, h, |st| st.enthalpy)
            .map_err(|err| GasError::InversionFailed {
                context: format!("at_ph(p={p:.3e}, h={h:.3e})"),
                detail: err.to_string(),
            })?;
        self.solve(t, closure)
    }

    /// Temperature at which `property` of the state at `closure` equals
    /// `target`, searched outward from 2 000 K within
    /// \[[`T_PROBE_FLOOR`], 90 000 K\]: the inversion behind every
    /// `(ρ, e)`, `(p, h)` and `(ρ, p)` entry.
    ///
    /// # Errors
    /// The root finder's error when no sign change lies in range, or
    /// [`RootError::NonFinite`] at the first probe whose solve failed.
    fn temperature_where(
        &self,
        closure: Closure,
        target: f64,
        property: fn(&EqState) -> f64,
    ) -> Result<f64, RootError> {
        let f = |t| {
            self.solve(t, closure)
                .map_or(f64::NAN, |st| property(&st) - target)
        };
        brent_expanding(f, 2000.0, 1500.0, T_PROBE_FLOOR, 90_000.0, 1e-4, 60)
    }
}

impl crate::model::GasModel for EquilibriumGas {
    /// Direct (untabulated) equilibrium EOS. Each call runs the Newton
    /// solver — use [`crate::eq_table::EqTable`] inside flow solvers; this
    /// impl is for one-off jump/stagnation calculations where exactness
    /// beats speed.
    fn pressure(&self, rho: f64, e: f64) -> f64 {
        self.at_rho_e(rho, e)
            .map_or_else(|_| eos_fallback(0.4 * rho * e), |s| s.pressure)
    }

    fn temperature(&self, rho: f64, e: f64) -> f64 {
        self.at_rho_e(rho, e)
            .map_or_else(|_| eos_fallback(300.0), |s| s.temperature)
    }

    fn sound_speed(&self, rho: f64, e: f64) -> f64 {
        // Equilibrium sound speed from a² = ∂p/∂ρ|e + (p/ρ²)·∂p/∂e|ρ by
        // central differences on the exact solver.
        let p0 = crate::model::GasModel::pressure(self, rho, e);
        let dr = 1e-4 * rho;
        let de = 1e-4 * e.abs().max(1e4);
        let dp_drho = (crate::model::GasModel::pressure(self, rho + dr, e)
            - crate::model::GasModel::pressure(self, rho - dr, e))
            / (2.0 * dr);
        let dp_de = (crate::model::GasModel::pressure(self, rho, e + de)
            - crate::model::GasModel::pressure(self, rho, e - de))
            / (2.0 * de);
        (dp_drho + p0 / (rho * rho) * dp_de).max(1e3).sqrt()
    }

    fn energy(&self, rho: f64, p: f64) -> f64 {
        // Invert p(ρ, e) via the temperature parameterization: solve
        // p_eq(T, ρ) = p, then return e(T, ρ).
        let t = self
            .temperature_where(Closure::Density(rho), p, |s| s.pressure)
            .ok();
        let state = self.at_trho(t.unwrap_or(300.0), rho);
        if t.is_none() || state.is_err() {
            counters::add(Counter::EosFallbacks, 1);
        }
        state.map_or(2.5 * p / rho, |s| s.energy)
    }
}

/// Count a direct equation-of-state call that returns `default` because
/// its temperature inversion failed.
fn eos_fallback(default: f64) -> f64 {
    counters::add(Counter::EosFallbacks, 1);
    default
}

/// Standard 9-species ionizing-air equilibrium gas (N₂, O₂, NO, N, O, N⁺,
/// O⁺, NO⁺, e⁻) with N:O nuclei ratio 3.76:1.
///
/// ```
/// let air = aerothermo_gas::air9_equilibrium();
/// // Post-shock shuttle-entry conditions: strongly dissociated oxygen.
/// let state = air.at_tp(6000.0, 10_000.0).unwrap();
/// let i_o2 = air.mixture().index_of("O2").unwrap();
/// let i_o = air.mixture().index_of("O").unwrap();
/// assert!(state.mole_fractions[i_o] > state.mole_fractions[i_o2]);
/// ```
#[must_use]
pub fn air9_equilibrium() -> EquilibriumGas {
    use crate::species as sp;
    let mix = Mixture::new(vec![
        sp::n2(),
        sp::o2(),
        sp::no(),
        sp::n_atom(),
        sp::o_atom(),
        sp::n_ion(),
        sp::o_ion(),
        sp::no_ion(),
        sp::electron(),
    ]);
    EquilibriumGas::new(mix, &[(Element::N, 3.76), (Element::O, 1.0)])
}

/// 11-species ionizing air: the 9-species set plus N₂⁺ and O₂⁺ (the
/// molecular ions needed by nonequilibrium radiation — N₂⁺ first negative is
/// the dominant violet emitter).
#[must_use]
pub fn air11_equilibrium() -> EquilibriumGas {
    use crate::species as sp;
    let mix = Mixture::new(vec![
        sp::n2(),
        sp::o2(),
        sp::no(),
        sp::n_atom(),
        sp::o_atom(),
        sp::n_ion(),
        sp::o_ion(),
        sp::no_ion(),
        sp::n2_ion(),
        sp::o2_ion(),
        sp::electron(),
    ]);
    EquilibriumGas::new(mix, &[(Element::N, 3.76), (Element::O, 1.0)])
}

/// 5-species neutral air (adequate below ~9000 K, cheaper).
#[must_use]
pub fn air5_equilibrium() -> EquilibriumGas {
    use crate::species as sp;
    let mix = Mixture::new(vec![
        sp::n2(),
        sp::o2(),
        sp::no(),
        sp::n_atom(),
        sp::o_atom(),
    ]);
    EquilibriumGas::new(mix, &[(Element::N, 3.76), (Element::O, 1.0)])
}

/// Jupiter-atmosphere gas (Galileo class): H₂/He with dissociation and
/// hydrogen ionization — the working fluid of the paper's HYVIS/RASLE/COLTS
/// probe analyses. `he_mole_fraction` ≈ 0.11 for Jupiter.
#[must_use]
pub fn jupiter_equilibrium(he_mole_fraction: f64) -> EquilibriumGas {
    use crate::species as sp;
    let mix = Mixture::new(vec![
        sp::h2(),
        sp::h_atom(),
        sp::h_ion(),
        sp::helium(),
        sp::electron(),
    ]);
    let xh2 = 1.0 - he_mole_fraction;
    EquilibriumGas::new(
        mix,
        &[(Element::H, 2.0 * xh2), (Element::He, he_mole_fraction)],
    )
}

/// Titan-atmosphere gas: N₂ with a few percent CH₄; the shock layer
/// produces CN (the dominant radiator), HCN, C₂, H₂ and atoms.
/// `ch4_mole_fraction` is the freestream CH₄ mole fraction (≈ 0.03–0.08 for
/// Titan entry studies of the era).
#[must_use]
pub fn titan_equilibrium(ch4_mole_fraction: f64) -> EquilibriumGas {
    use crate::species as sp;
    let mix = Mixture::new(vec![
        sp::n2(),
        sp::ch4(),
        sp::cn(),
        sp::hcn(),
        sp::c2(),
        sp::h2(),
        sp::n_atom(),
        sp::c_atom(),
        sp::h_atom(),
        sp::n_ion(),
        sp::c_ion(),
        sp::h_ion(),
        sp::electron(),
    ]);
    let xm = ch4_mole_fraction;
    let xn2 = 1.0 - xm;
    EquilibriumGas::new(
        mix,
        &[
            (Element::N, 2.0 * xn2),
            (Element::C, xm),
            (Element::H, 4.0 * xm),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use aerothermo_numerics::telemetry::CounterSnapshot;

    fn idx(gas: &EquilibriumGas, name: &str) -> usize {
        gas.mixture().index_of(name).unwrap()
    }

    /// Warm-cache `(hits, misses)` on the calling thread since `before`.
    fn cache_traffic(before: &CounterSnapshot) -> (u64, u64) {
        let d = counters::thread_snapshot().delta_since(before);
        (
            d.get(Counter::EquilibriumCacheHits),
            d.get(Counter::EquilibriumCacheMisses),
        )
    }

    #[test]
    fn cold_air_is_molecular() {
        let gas = air9_equilibrium();
        let st = gas.at_tp(300.0, 101_325.0).unwrap();
        let x_n2 = st.mole_fractions[idx(&gas, "N2")];
        let x_o2 = st.mole_fractions[idx(&gas, "O2")];
        assert!((x_n2 - 0.79).abs() < 0.01, "x_N2 = {x_n2}");
        assert!((x_o2 - 0.21).abs() < 0.01, "x_O2 = {x_o2}");
        // Ideal-gas density check: ρ = p M / (R T).
        assert!((st.density - 1.177).abs() < 0.02, "rho = {}", st.density);
        // No measurable ionization.
        assert!(st.mole_fractions[idx(&gas, "e-")] < 1e-30);
    }

    #[test]
    fn oxygen_dissociates_before_nitrogen() {
        let gas = air9_equilibrium();
        // At 4000 K, 1 atm: O2 largely dissociated, N2 mostly intact.
        let st = gas.at_tp(4000.0, 101_325.0).unwrap();
        let x_o = st.mole_fractions[idx(&gas, "O")];
        let x_o2 = st.mole_fractions[idx(&gas, "O2")];
        let x_n2 = st.mole_fractions[idx(&gas, "N2")];
        assert!(x_o > x_o2, "O should dominate O2: {x_o} vs {x_o2}");
        assert!(x_n2 > 0.5, "N2 should survive: {x_n2}");
    }

    #[test]
    fn hot_air_fully_dissociated_and_ionizing() {
        let gas = air9_equilibrium();
        let st = gas.at_tp(15_000.0, 101_325.0).unwrap();
        let x_n2 = st.mole_fractions[idx(&gas, "N2")];
        let x_n = st.mole_fractions[idx(&gas, "N")];
        let x_nplus = st.mole_fractions[idx(&gas, "N+")];
        let x_e = st.mole_fractions[idx(&gas, "e-")];
        assert!(x_n2 < 0.02, "N2 should be gone: {x_n2}");
        // Air at 15 000 K / 1 atm is substantially ionized (Saha): nitrogen
        // nuclei split between N and N+.
        assert!(x_n + x_nplus > 0.4, "N-nuclei carriers: {x_n} + {x_nplus}");
        assert!(x_n > 0.1, "neutral N survives: {x_n}");
        assert!(x_e > 0.05, "strong ionization: {x_e}");
    }

    #[test]
    fn charge_neutrality_holds() {
        let gas = air9_equilibrium();
        for t in [300.0, 6000.0, 12_000.0, 20_000.0] {
            let st = gas.at_tp(t, 10_000.0).unwrap();
            let mut qsum = 0.0;
            let mut qabs = 1e-300;
            for (sp, n) in gas.mixture().species().iter().zip(&st.number_densities) {
                qsum += f64::from(sp.charge) * n;
                qabs += f64::from(sp.charge.abs()) * n;
            }
            assert!(qsum.abs() / qabs < 1e-6, "T={t}: charge imbalance");
        }
    }

    #[test]
    fn element_ratio_preserved() {
        let gas = air9_equilibrium();
        for t in [500.0, 5000.0, 15_000.0] {
            let st = gas.at_tp(t, 101_325.0).unwrap();
            let mut n_nuclei = 0.0;
            let mut o_nuclei = 0.0;
            for (sp, n) in gas.mixture().species().iter().zip(&st.number_densities) {
                n_nuclei += f64::from(sp.atoms_of(Element::N)) * n;
                o_nuclei += f64::from(sp.atoms_of(Element::O)) * n;
            }
            let ratio = n_nuclei / o_nuclei;
            assert!((ratio - 3.76).abs() < 1e-6 * 3.76, "T={t}: N/O = {ratio}");
        }
    }

    #[test]
    fn trho_and_tp_agree() {
        let gas = air9_equilibrium();
        let st1 = gas.at_tp(8000.0, 50_000.0).unwrap();
        let st2 = gas.at_trho(8000.0, st1.density).unwrap();
        assert!((st2.pressure - st1.pressure).abs() / st1.pressure < 1e-6);
        for (a, b) in st1.mole_fractions.iter().zip(&st2.mole_fractions) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn rho_e_inversion_roundtrip() {
        let gas = air9_equilibrium();
        let st = gas.at_tp(9000.0, 101_325.0).unwrap();
        let st2 = gas.at_rho_e(st.density, st.energy).unwrap();
        assert!(
            (st2.temperature - 9000.0).abs() < 5.0,
            "T = {}",
            st2.temperature
        );
    }

    #[test]
    fn mass_fractions_sum_to_one() {
        let gas = air9_equilibrium();
        for t in [300.0, 4000.0, 10_000.0, 18_000.0] {
            let st = gas.at_tp(t, 101_325.0).unwrap();
            let s: f64 = st.mass_fractions.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "T={t}: Σy = {s}");
        }
    }

    #[test]
    fn titan_produces_cn_at_high_t() {
        let gas = titan_equilibrium(0.05);
        let cold = gas.at_tp(300.0, 1000.0).unwrap();
        let x_ch4_cold = cold.mole_fractions[idx(&gas, "CH4")];
        assert!((x_ch4_cold - 0.05).abs() < 0.01, "cold CH4: {x_ch4_cold}");

        let hot = gas.at_tp(7000.0, 10_000.0).unwrap();
        let x_cn = hot.mole_fractions[idx(&gas, "CN")];
        let x_ch4 = hot.mole_fractions[idx(&gas, "CH4")];
        assert!(x_ch4 < 1e-6, "CH4 must crack: {x_ch4}");
        assert!(x_cn > 1e-4, "CN should appear in the shock layer: {x_cn}");
    }

    #[test]
    fn jupiter_gas_dissociates_then_ionizes() {
        let gas = jupiter_equilibrium(0.11);
        // Cold: molecular hydrogen plus helium.
        let cold = gas.at_tp(300.0, 1e5).unwrap();
        let x_h2 = cold.mole_fractions[idx(&gas, "H2")];
        let x_he = cold.mole_fractions[idx(&gas, "He")];
        assert!((x_h2 - 0.89).abs() < 0.01, "x_H2 = {x_h2}");
        assert!((x_he - 0.11).abs() < 0.01, "x_He = {x_he}");
        // 6000 K, low pressure: H2 dissociated to atoms.
        let warm = gas.at_tp(6000.0, 1e3).unwrap();
        assert!(
            warm.mole_fractions[idx(&gas, "H")] > 0.5,
            "H should dominate"
        );
        // 20 000 K: strong ionization.
        let hot = gas.at_tp(20_000.0, 1e4).unwrap();
        let x_e = hot.mole_fractions[idx(&gas, "e-")];
        assert!(x_e > 0.05, "x_e = {x_e}");
        // Helium nuclei conserved relative to hydrogen nuclei.
        let mut h_nuc = 0.0;
        let mut he_nuc = 0.0;
        for (sp, n) in gas.mixture().species().iter().zip(&hot.number_densities) {
            h_nuc += f64::from(sp.atoms_of(Element::H)) * n;
            he_nuc += f64::from(sp.atoms_of(Element::He)) * n;
        }
        let ratio = he_nuc / h_nuc;
        assert!((ratio - 0.11 / 1.78).abs() < 1e-3, "He/H = {ratio}");
    }

    #[test]
    fn enthalpy_exceeds_energy() {
        let gas = air5_equilibrium();
        let st = gas.at_tp(2000.0, 101_325.0).unwrap();
        assert!(st.enthalpy > st.energy);
        assert!((st.enthalpy - st.energy - st.pressure / st.density).abs() < 1.0);
    }

    #[test]
    fn warm_start_hit_matches_cold_solve() {
        // Run on a dedicated thread: the warm-start cache and the counters
        // read are thread-local, so parallel sibling tests cannot interfere.
        let (cold, warm, traffic) = std::thread::spawn(|| {
            let gas = air9_equilibrium();
            warm_cache::clear_thread();
            let s0 = counters::thread_snapshot();
            let _anchor = gas.at_tp(6000.0, 10_000.0).unwrap();
            // 6050 K is well inside LN_T_WINDOW of the anchor: warm path.
            let warm = gas.at_tp(6050.0, 10_000.0).unwrap();
            let traffic = cache_traffic(&s0);
            // Cold reference for the identical state.
            warm_cache::clear_thread();
            let cold = gas.at_tp(6050.0, 10_000.0).unwrap();
            (cold, warm, traffic)
        })
        .join()
        .unwrap();
        assert_eq!(traffic, (1, 1));
        assert!((warm.density - cold.density).abs() < 1e-6 * cold.density);
        assert!((warm.pressure - cold.pressure).abs() < 1e-6 * cold.pressure);
        for (a, b) in warm.mole_fractions.iter().zip(&cold.mole_fractions) {
            let scale = a.abs().max(b.abs());
            assert!(
                (a - b).abs() <= 1e-5 * scale + 1e-30,
                "warm {a:e} vs cold {b:e}"
            );
        }
    }

    #[test]
    fn cache_bypassed_when_state_jumps_outside_bucket() {
        let (hits, misses) = std::thread::spawn(|| {
            let gas = air9_equilibrium();
            warm_cache::clear_thread();
            let s0 = counters::thread_snapshot();
            gas.at_tp(1000.0, 101_325.0).unwrap();
            // ln-T jump of 1.79 ≫ LN_T_WINDOW: bypass.
            gas.at_tp(6000.0, 101_325.0).unwrap();
            // ln-p jump of 4.6 ≫ LN_V_WINDOW at fixed T: bypass.
            gas.at_tp(6000.0, 1000.0).unwrap();
            cache_traffic(&s0)
        })
        .join()
        .unwrap();
        assert_eq!(hits, 0, "far jumps must not warm-start");
        assert_eq!(misses, 3);
        // The exited thread's counts live on in the process-wide totals
        // (other tests may add more in parallel, so only a floor is
        // asserted).
        assert!(CounterSnapshot::take().get(Counter::EquilibriumCacheMisses) >= 3);
    }

    #[test]
    fn cache_is_per_thread_under_rayon_workers() {
        use rayon::prelude::*;
        let gas = air9_equilibrium();
        // Prime the calling thread's cache with the probed state.
        gas.at_tp(7000.0, 5000.0).unwrap();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let deltas: Vec<(u64, u64)> = pool.install(|| {
            (0..2usize)
                .into_par_iter()
                .map(|_| {
                    let s0 = counters::thread_snapshot();
                    gas.at_tp(7000.0, 5000.0).unwrap();
                    gas.at_tp(7010.0, 5000.0).unwrap();
                    cache_traffic(&s0)
                })
                .collect()
        });
        assert_eq!(deltas.len(), 2);
        for (hits, misses) in deltas {
            // Workers are fresh threads: the first solve must NOT see the
            // calling thread's seed (miss), the nearby second solve hits
            // the worker's own fresh entry.
            assert_eq!(misses, 1, "worker saw another thread's cache");
            assert_eq!(hits, 1);
        }
    }

    #[test]
    fn titan_at_the_probe_floor_fails_after_one_cold_attempt() {
        // fig02's freestream energy inversion expands its bracket down to
        // the floor at this density. The counters read are this thread's.
        let gas = titan_equilibrium(0.05);
        warm_cache::clear_thread();
        let before = counters::thread_snapshot();
        let result = gas.at_trho(T_PROBE_FLOOR, 2.9e-6);
        let delta = counters::thread_snapshot().delta_since(&before);
        assert!(
            matches!(result, Err(GasError::EquilibriumNotConverged { .. })),
            "{result:?}"
        );
        assert_eq!(delta.get(Counter::EquilibriumCacheMisses), 1);
        assert_eq!(delta.get(Counter::NewtonWarmStarts), 0);
        assert_eq!(delta.get(Counter::EquilibriumColdStarts), 1);
        assert_eq!(delta.get(Counter::NewtonSolves), 1);
        assert_eq!(delta.get(Counter::EquilibriumFailures), 1);
        assert_eq!(delta.get(Counter::EquilibriumFloorFailures), 1);
    }

    #[test]
    fn non_finite_or_non_positive_inputs_are_rejected_before_newton() {
        let gas = air9_equilibrium();
        let before = counters::thread_snapshot();
        for (t, v) in [
            (f64::NAN, 1e4),
            (0.0, 1e4),
            (-300.0, 1e4),
            (f64::INFINITY, 1.0),
            (300.0, f64::INFINITY),
            (300.0, 0.0),
            (300.0, -1.0),
            (300.0, f64::NAN),
        ] {
            for r in [gas.at_tp(t, v), gas.at_trho(t, v)] {
                assert!(matches!(r, Err(GasError::BadInput(_))), "{r:?}");
            }
        }
        let delta = counters::thread_snapshot().delta_since(&before);
        assert_eq!(delta.get(Counter::EquilibriumStates), 0);
        assert_eq!(delta.get(Counter::NewtonSolves), 0);
    }

    #[test]
    fn batch_solve_is_bitwise_identical_to_individual_solves() {
        // Dedicated thread: the warm cache and the telemetry thread
        // mirror are thread-local, so sibling tests cannot interfere.
        std::thread::spawn(|| {
            let gas = air9_equilibrium();
            // 7 states = one full 4-lane chunk plus a 3-lane tail,
            // ordered along a temperature sweep so warm starts engage.
            let states: Vec<(f64, f64)> =
                (0..7).map(|k| (3000.0 + 450.0 * k as f64, 0.01)).collect();

            warm_cache::clear_thread();
            let s0 = counters::thread_snapshot();
            let individual: Vec<EqState> = states
                .iter()
                .map(|&(t, rho)| gas.at_trho(t, rho).unwrap())
                .collect();
            let traffic_ind = cache_traffic(&s0);

            warm_cache::clear_thread();
            let before = counters::thread_snapshot();
            let batched: Vec<EqState> = gas
                .at_trho_batch(&states)
                .into_iter()
                .map(|r| r.unwrap())
                .collect();
            let delta = counters::thread_snapshot().delta_since(&before);

            // Identical warm-cache traffic: the batch follows the exact
            // per-lane lookup→solve→store protocol.
            assert_eq!(traffic_ind, cache_traffic(&before));
            // Batch bookkeeping: ceil(7/4) = 2 chunks, lane histogram
            // 4 + 3, all seven states counted.
            assert_eq!(delta.get(Counter::EquilibriumBatches), 2);
            assert_eq!(delta.get(Counter::EquilibriumBatchStates), 7);
            assert_eq!(delta.get(Counter::EquilibriumBatchLanes4), 1);
            assert_eq!(delta.get(Counter::EquilibriumBatchLanes3), 1);
            assert_eq!(delta.get(Counter::EquilibriumBatchLanes1), 0);
            assert_eq!(delta.get(Counter::EquilibriumStates), 7);

            for (a, b) in individual.iter().zip(&batched) {
                assert_eq!(a.temperature.to_bits(), b.temperature.to_bits());
                assert_eq!(a.pressure.to_bits(), b.pressure.to_bits());
                assert_eq!(a.density.to_bits(), b.density.to_bits());
                assert_eq!(a.energy.to_bits(), b.energy.to_bits());
                for (na, nb) in a.number_densities.iter().zip(&b.number_densities) {
                    assert_eq!(na.to_bits(), nb.to_bits());
                }
            }
        })
        .join()
        .unwrap();
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig {
            cases: 12,
            ..proptest::test_runner::ProptestConfig::default()
        })]

        /// Chunked 4-lane batching is equivalent to feeding the same states
        /// through single-state batches: results agree to ≤ 1e-13 relative
        /// (in fact bitwise — the lanes run the identical per-state
        /// protocol), and the warm-cache/batch counters stay consistent.
        #[test]
        fn four_lane_batches_match_single_lane_batches(
            t0 in 1500.0_f64..9000.0,
            dt in 50.0_f64..400.0,
            rho_exp in -4.0_f64..0.0,
            n in 1_usize..9,
        ) {
            let states: Vec<(f64, f64)> = (0..n)
                .map(|k| (t0 + dt * k as f64, 10.0_f64.powf(rho_exp)))
                .collect();
            type Obs = (Vec<EqState>, Vec<EqState>, [u64; 4], [u64; 2]);
            let st = states.clone();
            let (fours, singles, batch_counts, cache_counts): Obs =
                std::thread::spawn(move || {
                    let gas = air9_equilibrium();

                    warm_cache::clear_thread();
                    let c0 = counters::thread_snapshot();
                    let fours: Vec<EqState> = gas
                        .at_trho_batch(&st)
                        .into_iter()
                        .map(|r| r.unwrap())
                        .collect();
                    let (h_four, m_four) = cache_traffic(&c0);
                    let d_four = counters::thread_snapshot().delta_since(&c0);

                    warm_cache::clear_thread();
                    let c1 = counters::thread_snapshot();
                    let singles: Vec<EqState> = st
                        .iter()
                        .map(|&s| gas.at_trho_batch(&[s]).remove(0).unwrap())
                        .collect();
                    let (h_one, m_one) = cache_traffic(&c1);
                    let d_one = counters::thread_snapshot().delta_since(&c1);

                    (
                        fours,
                        singles,
                        [
                            d_four.get(Counter::EquilibriumBatches),
                            d_four.get(Counter::EquilibriumBatchStates),
                            d_one.get(Counter::EquilibriumBatches),
                            d_one.get(Counter::EquilibriumBatchStates),
                        ],
                        [h_four + m_four, h_one + m_one],
                    )
                })
                .join()
                .unwrap();

            // Chunk bookkeeping: ceil(n/4) chunks vs n single-state chunks,
            // with every state counted exactly once in both protocols.
            proptest::prop_assert_eq!(batch_counts[0], n.div_ceil(4) as u64);
            proptest::prop_assert_eq!(batch_counts[1], n as u64);
            proptest::prop_assert_eq!(batch_counts[2], n as u64);
            proptest::prop_assert_eq!(batch_counts[3], n as u64);
            // Identical warm-cache traffic (one lookup per state).
            proptest::prop_assert_eq!(cache_counts[0], cache_counts[1]);
            proptest::prop_assert_eq!(cache_counts[0], n as u64);

            for (a, b) in fours.iter().zip(&singles) {
                for (x, y) in [
                    (a.temperature, b.temperature),
                    (a.pressure, b.pressure),
                    (a.density, b.density),
                    (a.energy, b.energy),
                ] {
                    let scale = x.abs().max(y.abs()).max(1e-300);
                    proptest::prop_assert!(
                        (x - y).abs() <= 1e-13 * scale,
                        "lane mismatch: {x:e} vs {y:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn dissociation_raises_pressure_at_fixed_density() {
        // At fixed (rho, T) comparison is trivial; instead check the molar
        // mass drop across dissociation at fixed pressure.
        let gas = air9_equilibrium();
        let cold = gas.at_tp(1000.0, 101_325.0).unwrap();
        let hot = gas.at_tp(8000.0, 101_325.0).unwrap();
        assert!(
            hot.molar_mass < cold.molar_mass - 3.0,
            "Mbar should drop: {} -> {}",
            cold.molar_mass,
            hot.molar_mass
        );
    }
}
