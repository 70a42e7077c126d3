//! Post-shock thermochemical relaxation (the paper's Fig. 7).
//!
//! Steady one-dimensional flow in the shock-fixed frame: immediately behind
//! the (frozen) shock the translational temperature is enormous while the
//! vibrational temperature still holds its freestream value; finite-rate
//! chemistry and Landau-Teller energy exchange then relax the gas toward
//! equilibrium over a distance set by the binary-collision scaling.
//!
//! Mass, momentum, and total enthalpy are algebraic invariants of the
//! steady flow, so the marched unknowns are only the species mass fractions
//! and the vibronic energy; at each station the flow speed (hence ρ, p, T)
//! is recovered by a bracketed scalar solve. The stiff system is integrated
//! with the adaptive Rosenbrock-W marcher from `aerothermo-numerics`.

use crate::runctl::RetryOutcome;
use crate::shock::{frozen_shock, ShockState};
use aerothermo_gas::kinetics::ReactionSet;
use aerothermo_gas::relaxation::RelaxationModel;
use aerothermo_gas::source::{two_temperature_source, SourceState};
use aerothermo_numerics::constants::K_BOLTZMANN;
use aerothermo_numerics::ode::{stiff_integrate, AdaptiveOptions, OdeSystem};
use aerothermo_numerics::roots::brent_expanding;
use aerothermo_numerics::telemetry::{RunTelemetry, SolverError};
use aerothermo_numerics::trace;
use std::cell::Cell;

/// Upstream (freestream, shock-frame) conditions and composition.
#[derive(Debug, Clone)]
pub struct RelaxationProblem {
    /// Shock speed = upstream flow speed in the shock frame \[m/s\].
    pub u1: f64,
    /// Upstream temperature \[K\].
    pub t1: f64,
    /// Upstream pressure \[Pa\].
    pub p1: f64,
    /// Upstream mass fractions (mixture order).
    pub y1: Vec<f64>,
    /// Marching distance behind the shock \[m\].
    pub x_end: f64,
}

/// One station of the relaxation solution.
#[derive(Debug, Clone)]
pub struct RelaxationPoint {
    /// Distance behind the shock \[m\].
    pub x: f64,
    /// Translational-rotational temperature \[K\].
    pub t: f64,
    /// Vibrational-electronic temperature \[K\].
    pub tv: f64,
    /// Flow speed (shock frame) \[m/s\].
    pub u: f64,
    /// Density \[kg/m³\].
    pub rho: f64,
    /// Pressure \[Pa\].
    pub p: f64,
    /// Species mass fractions.
    pub y: Vec<f64>,
    /// Species mole fractions.
    pub x_mole: Vec<f64>,
    /// Total number density \[1/m³\].
    pub n_total: f64,
    /// Marched vibronic energy \[J/kg\].
    pub ev: f64,
    /// Total-enthalpy conservation residual, relative.
    pub h_residual: f64,
}

/// Solution of a relaxation march.
#[derive(Debug, Clone)]
pub struct RelaxationSolution {
    /// Stations, ordered in x.
    pub points: Vec<RelaxationPoint>,
    /// The frozen post-shock translational temperature \[K\].
    pub t_frozen: f64,
    /// Run observability: the algebraic-invariant audit findings when
    /// auditing is enabled (the march is timed as the `shock1d_march`
    /// trace span).
    pub telemetry: RunTelemetry,
}

impl RelaxationSolution {
    /// The state at `x`, every field interpolated linearly between the two
    /// stations around it; the returned point carries `x` itself. An `x`
    /// outside the march is clamped to its first or last station.
    ///
    /// # Panics
    /// Panics if the solution is empty — unreachable for solutions produced
    /// by [`solve`], which errors rather than returning an empty march (the
    /// integrator records the x = 0 state before its first step).
    #[must_use]
    pub fn at(&self, x: f64) -> RelaxationPoint {
        let first = self.points.first().expect("empty solution");
        let last = self.points.last().expect("empty solution");
        let x = x.clamp(first.x, last.x);
        let k = self.points.partition_point(|p| p.x < x);
        if k == 0 {
            return first.clone();
        }
        let (a, b) = (&self.points[k - 1], &self.points[k]);
        let w = (x - a.x) / (b.x - a.x);
        let lerp = |fa: f64, fb: f64| fa + w * (fb - fa);
        let lerp_all = |fa: &[f64], fb: &[f64]| -> Vec<f64> {
            fa.iter().zip(fb).map(|(p, q)| lerp(*p, *q)).collect()
        };
        RelaxationPoint {
            x,
            t: lerp(a.t, b.t),
            tv: lerp(a.tv, b.tv),
            u: lerp(a.u, b.u),
            rho: lerp(a.rho, b.rho),
            p: lerp(a.p, b.p),
            y: lerp_all(&a.y, &b.y),
            x_mole: lerp_all(&a.x_mole, &b.x_mole),
            n_total: lerp(a.n_total, b.n_total),
            ev: lerp(a.ev, b.ev),
            h_residual: lerp(a.h_residual, b.h_residual),
        }
    }

    /// Distance at which T and T_v first agree within `frac` (relative).
    #[must_use]
    pub fn equilibration_distance(&self, frac: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| (p.t - p.tv).abs() < frac * p.t)
            .map(|p| p.x)
    }
}

/// Solve the relaxation problem for a mechanism (mixture order defines `y`).
///
/// # Errors
/// Propagates shock-jump or integration failures with context.
pub fn solve(
    reactions: &ReactionSet,
    relaxation: &RelaxationModel,
    problem: &RelaxationProblem,
) -> Result<RelaxationSolution, SolverError> {
    solve_scaled(reactions, relaxation, problem, 1.0)
}

/// [`solve`] under the shared retry/backoff policy
/// ([`crate::runctl::retry_with_backoff`]): a recoverable integration
/// failure is retried with the adaptive step sizes scaled down. The returned
/// [`crate::runctl::RetryOutcome`] carries the solution plus the retries
/// consumed and the scale that succeeded.
///
/// # Errors
/// The last attempt's error, with the retries spent, once the budget is
/// exhausted, or immediately for non-recoverable failures (bad upstream
/// state, mechanism mismatch).
pub fn solve_with_retry(
    reactions: &ReactionSet,
    relaxation: &RelaxationModel,
    problem: &RelaxationProblem,
    max_retries: usize,
) -> Result<RetryOutcome<RelaxationSolution>, RetryOutcome<SolverError>> {
    crate::runctl::retry_with_backoff(max_retries, |scale| {
        solve_scaled(reactions, relaxation, problem, scale)
    })
}

/// The steady shock-frame march of one problem: its flux invariants, the
/// algebraic closure, and the right-hand side of the marched state
/// `z = [y_0..y_{ns-1}, ev]`.
struct March<'a> {
    reactions: &'a ReactionSet,
    relaxation: &'a RelaxationModel,
    /// Mass flux ρu \[kg/(m²·s)\].
    mdot: f64,
    /// Total pressure p + ρu² \[Pa\].
    ptot: f64,
    /// Total enthalpy h + u²/2 \[J/kg\].
    htot: f64,
    /// Warm-start caches for the algebraic closures.
    u_cache: Cell<f64>,
    tv_cache: Cell<f64>,
}

impl<'a> March<'a> {
    /// The march behind the frozen shock of `problem`, and that jump (which
    /// sets the flux invariants and the initial condition).
    fn new(
        reactions: &'a ReactionSet,
        relaxation: &'a RelaxationModel,
        problem: &RelaxationProblem,
    ) -> Result<(Self, ShockState), SolverError> {
        let mix = reactions.mixture();
        let jump = frozen_shock(mix, &problem.y1, problem.t1, problem.p1, problem.u1)
            .map_err(|e| format!("frozen shock failed: {e}"))?;
        let rho1 = problem.p1 / (mix.gas_constant(&problem.y1) * problem.t1);
        // Full equilibrium-mode enthalpy at upstream conditions (T = Tv).
        let h1 = mix.h_total(problem.t1, &problem.y1);
        let march = Self {
            reactions,
            relaxation,
            mdot: rho1 * problem.u1,
            ptot: problem.p1 + rho1 * problem.u1 * problem.u1,
            htot: h1 + 0.5 * problem.u1 * problem.u1,
            u_cache: Cell::new(jump.u),
            tv_cache: Cell::new(problem.t1),
        };
        Ok((march, jump))
    }

    /// Frozen-mode enthalpy: translation/rotation/formation at T plus the
    /// RT pressure term; the vibronic pool enters as the *marched* energy
    /// `ev` directly, so total enthalpy is conserved exactly even when the
    /// ev → T_v inversion saturates (T_v is only needed for rates).
    fn h_with_ev(&self, t: f64, y: &[f64], ev: f64) -> f64 {
        let mix = self.reactions.mixture();
        let mut h = ev;
        for (sp, yi) in mix.species().iter().zip(y) {
            if sp.name == "e-" {
                h += yi * sp.e_formation();
            } else {
                h += yi * (sp.e_trans(t) + sp.e_rot(t) + sp.e_formation());
            }
        }
        h + mix.gas_constant(y) * t
    }

    /// Closure: from marched state (y, ev) recover (u, rho, p, T, Tv).
    fn close(&self, y: &[f64], ev: f64) -> Result<(f64, f64, f64, f64, f64), String> {
        let mix = self.reactions.mixture();
        // The Tv inversion can only fail above the vibronic-energy ceiling of
        // its bracketing search; cap at 200 kK (beyond any post-shock state
        // here) and let the outer algebraic closure iterate back down.
        let tv = mix
            .tv_from_vibronic_energy(ev.max(0.0), y, self.tv_cache.get())
            .unwrap_or(200_000.0);
        self.tv_cache.set(tv.min(150_000.0));
        let r_gas = mix.gas_constant(y);
        let (mdot, ptot) = (self.mdot, self.ptot);
        let u_max = 0.999 * ptot / mdot;
        let f = |u: f64| -> f64 {
            let p = ptot - mdot * u;
            let t = u * p / (mdot * r_gas);
            self.h_with_ev(t, y, ev) + 0.5 * u * u - self.htot
        };
        let u0 = self.u_cache.get();
        let u = brent_expanding(f, u0, 0.05 * u0, 1.0, u_max, 1e-9, 60)
            .map_err(|e| format!("u closure: {e}"))?;
        self.u_cache.set(u);
        let rho = mdot / u;
        let p = ptot - mdot * u;
        let t = p / (rho * r_gas);
        Ok((u, rho, p, t, tv))
    }
}

impl OdeSystem for March<'_> {
    fn rhs(&self, _x: f64, z: &[f64], dz: &mut [f64]) {
        let ns = z.len() - 1;
        let (y, ev) = (&z[..ns], z[ns]);
        let Ok((u, rho, p, t, tv)) = self.close(y, ev) else {
            // No flow state carries this point. NaN (not zero, which would
            // freeze the state and pass as a converged step) makes the
            // integrator reject the step and back off.
            dz.fill(f64::NAN);
            return;
        };
        let state = SourceState { t, tv, rho, p, y };
        let q_v =
            two_temperature_source(self.reactions, self.relaxation, state, &mut dz[..ns], None);
        let rho_u = rho * u;
        for d in &mut dz[..ns] {
            *d /= rho_u;
        }
        dz[ns] = q_v / rho_u;
    }
}

/// Relaxation march at a given step-size scale (1.0 = nominal adaptive
/// steps; backoff shrinks the initial and maximum step).
#[allow(clippy::too_many_lines)]
fn solve_scaled(
    reactions: &ReactionSet,
    relaxation: &RelaxationModel,
    problem: &RelaxationProblem,
    step_scale: f64,
) -> Result<RelaxationSolution, SolverError> {
    let mix = reactions.mixture();
    let ns = mix.len();
    if problem.y1.len() != ns {
        return Err(SolverError::BadInput("y1 length mismatch".to_string()));
    }
    let mut telemetry = RunTelemetry::new();
    let march_span = trace::span("shock1d_march");

    let (march, jump) = March::new(reactions, relaxation, problem)?;
    let (mdot, ptot, htot) = (march.mdot, march.ptot, march.htot);

    // Initial condition: frozen composition, vibronic energy at t1.
    let mut z = problem.y1.clone();
    z.push(mix.e_vibronic(problem.t1, &problem.y1));

    let mut raw: Vec<(f64, Vec<f64>)> = Vec::new();
    stiff_integrate(
        &march,
        0.0,
        problem.x_end,
        &mut z,
        &AdaptiveOptions {
            rtol: 1e-5,
            atol: 1e-10,
            h0: 1e-9 * step_scale,
            hmin: 1e-16,
            hmax: problem.x_end / 50.0 * step_scale,
            max_steps: 200_000,
        },
        |x, state| raw.push((x, state.to_vec())),
    )
    .map_err(|e| format!("relaxation march: {e}"))?;

    // Convert the raw march to flow states.
    march.u_cache.set(jump.u);
    march.tv_cache.set(problem.t1);
    let mut points = Vec::with_capacity(raw.len());
    for (x, state) in raw {
        let y = state[..ns].to_vec();
        let ev = state[ns];
        let (u, rho, p, t, tv) = march.close(&y, ev)?;
        let x_mole = mix.mass_to_mole(&y);
        let n_total = p / (K_BOLTZMANN * t);
        let h_residual = (march.h_with_ev(t, &y, ev) + 0.5 * u * u - htot) / htot;
        points.push(RelaxationPoint {
            x,
            t,
            tv,
            u,
            rho,
            p,
            y,
            x_mole,
            n_total,
            ev,
            h_residual,
        });
    }

    drop(march_span);

    // Algebraic-invariant audits over the assembled stations: the steady
    // shock-frame flow conserves mdot, total pressure, and total enthalpy
    // exactly; mass fractions stay normalized; the state stays positive.
    if crate::audit::cadence() != 0 && !points.is_empty() {
        let mut mass_dev = 0.0_f64;
        let mut mom_dev = 0.0_f64;
        let mut h_dev = 0.0_f64;
        let mut ysum_dev = 0.0_f64;
        let mut min_t = f64::INFINITY;
        let mut min_t_at = 0usize;
        for (k, pt) in points.iter().enumerate() {
            mass_dev = mass_dev.max((pt.rho * pt.u - mdot).abs() / mdot);
            mom_dev = mom_dev.max((pt.p + pt.rho * pt.u * pt.u - ptot).abs() / ptot);
            h_dev = h_dev.max(pt.h_residual.abs());
            ysum_dev = ysum_dev.max((pt.y.iter().sum::<f64>() - 1.0).abs());
            if pt.t < min_t {
                min_t = pt.t;
                min_t_at = k;
            }
        }
        let n_pts = points.len();
        let findings = vec![
            crate::audit::graded(
                "mass_flux_invariant",
                mass_dev,
                crate::audit::INVARIANT_WARN,
                crate::audit::INVARIANT_FAIL,
                n_pts,
                format!("max |ρu − mdot|/mdot over {n_pts} stations"),
            ),
            crate::audit::graded(
                "momentum_flux_invariant",
                mom_dev,
                crate::audit::INVARIANT_WARN,
                crate::audit::INVARIANT_FAIL,
                n_pts,
                format!("max |p + ρu² − ptot|/ptot over {n_pts} stations"),
            ),
            crate::audit::graded(
                "total_enthalpy_invariant",
                h_dev,
                crate::audit::INVARIANT_WARN,
                crate::audit::INVARIANT_FAIL,
                n_pts,
                format!("max |h₀ residual| over {n_pts} stations"),
            ),
            crate::audit::mass_fraction_sum_finding(ysum_dev, (0, 0), n_pts),
            crate::audit::positivity_finding("temperature_positivity", min_t, (min_t_at, 0), n_pts),
        ];
        crate::audit::apply(&mut telemetry, findings)?;
    }

    Ok(RelaxationSolution {
        points,
        t_frozen: jump.t,
        telemetry,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aerothermo_gas::equilibrium::air9_equilibrium;
    use aerothermo_gas::kinetics::park_air9;
    use aerothermo_gas::relaxation::RelaxationModel;
    use aerothermo_numerics::ode::OdeError;

    fn park_problem() -> (ReactionSet, RelaxationModel, RelaxationProblem) {
        let gas = air9_equilibrium();
        let set = park_air9(gas.mixture());
        let relax = RelaxationModel::new(gas.mixture().clone());
        let mut y1 = vec![0.0; gas.mixture().len()];
        y1[0] = 0.767; // N2
        y1[1] = 0.233; // O2
        let problem = RelaxationProblem {
            u1: 10_000.0,
            t1: 300.0,
            p1: 13.3, // 0.1 torr
            y1,
            x_end: 0.05,
        };
        (set, relax, problem)
    }

    #[test]
    fn at_interpolates_between_stations_and_clamps_outside() {
        let point = |x: f64, t: f64| RelaxationPoint {
            x,
            t,
            tv: 0.5 * t,
            u: 1.0,
            rho: 2.0,
            p: 3.0,
            y: vec![1.0 - t / 1e4, t / 1e4],
            x_mole: vec![0.5, 0.5],
            n_total: 4.0,
            ev: t,
            h_residual: 0.0,
        };
        let sol = RelaxationSolution {
            points: vec![point(0.0, 1000.0), point(1e-3, 3000.0), point(3e-3, 2000.0)],
            t_frozen: 1000.0,
            telemetry: RunTelemetry::new(),
        };
        let mid = sol.at(2e-3);
        assert_eq!(mid.x, 2e-3);
        assert!((mid.t - 2500.0).abs() < 1e-9 && (mid.tv - 1250.0).abs() < 1e-9);
        assert!((mid.y[1] - 0.25).abs() < 1e-12 && (mid.ev - 2500.0).abs() < 1e-9);
        let quarter = sol.at(0.25e-3);
        assert_eq!(quarter.x, 0.25e-3);
        assert!((quarter.t - 1500.0).abs() < 1e-9);
        // A station is returned as it is; outside the march, the end.
        assert_eq!(sol.at(1e-3).t, 3000.0);
        assert_eq!((sol.at(-1.0).x, sol.at(-1.0).t), (0.0, 1000.0));
        assert_eq!((sol.at(1.0).x, sol.at(1.0).t), (3e-3, 2000.0));
    }

    #[test]
    fn park_fig7_structure() {
        // The qualitative structure of the paper's Fig. 7: T starts huge,
        // T_v starts cold, they approach each other downstream while N2
        // dissociates.
        let (set, relax, problem) = park_problem();
        let sol = solve(&set, &relax, &problem).unwrap();
        assert!(sol.points.len() > 50);

        let first = &sol.points[1];
        assert!(first.t > 30_000.0, "frozen T = {}", first.t);
        assert!(first.tv < 2_000.0, "initial Tv = {}", first.tv);

        let last = sol.points.last().unwrap();
        assert!(
            (last.t - last.tv).abs() < 0.25 * last.t,
            "T and Tv should approach: T={} Tv={}",
            last.t,
            last.tv
        );
        // Temperature relaxes downward as dissociation absorbs energy.
        assert!(last.t < 0.6 * sol.t_frozen, "T_end = {}", last.t);

        // N2 dissociates substantially.
        let n2_end = last.y[0];
        assert!(n2_end < 0.6, "y_N2 = {n2_end}");
        // O2 goes almost completely.
        assert!(last.y[1] < 0.02, "y_O2 = {}", last.y[1]);
        // Electrons appear.
        let ye = last.y[8];
        assert!(ye > 0.0, "no ionization: {ye}");
    }

    #[test]
    fn mass_fractions_stay_normalized() {
        let (set, relax, mut problem) = park_problem();
        problem.x_end = 0.01;
        let sol = solve(&set, &relax, &problem).unwrap();
        for p in &sol.points {
            let s: f64 = p.y.iter().sum();
            assert!((s - 1.0).abs() < 1e-4, "Σy = {s} at x = {}", p.x);
            assert!(p.y.iter().all(|v| *v > -1e-8), "negative y at {}", p.x);
        }
    }

    #[test]
    fn invariants_conserved_along_march() {
        let (set, relax, mut problem) = park_problem();
        problem.x_end = 0.01;
        let sol = solve(&set, &relax, &problem).unwrap();
        let rho1 = 13.3 / (set.mixture().gas_constant(&problem.y1) * 300.0);
        let mdot = rho1 * 10_000.0;
        let ptot = 13.3 + rho1 * 1e8;
        for p in sol.points.iter().step_by(10) {
            assert!((p.rho * p.u - mdot).abs() / mdot < 1e-6, "mass at {}", p.x);
            let mom = p.p + p.rho * p.u * p.u;
            assert!((mom - ptot).abs() / ptot < 1e-6, "momentum at {}", p.x);
        }
    }

    #[test]
    fn tv_rises_monotonically_early() {
        let (set, relax, mut problem) = park_problem();
        problem.x_end = 0.002;
        let sol = solve(&set, &relax, &problem).unwrap();
        // In the early relaxation zone Tv must climb toward T.
        let early: Vec<f64> = sol.points.iter().take(20).map(|p| p.tv).collect();
        assert!(early.windows(2).all(|w| w[1] >= w[0] - 1.0), "{early:?}");
    }

    #[test]
    fn failed_closure_rejects_the_step_instead_of_freezing_the_state() {
        let (set, relax, problem) = park_problem();
        let (march, _) = March::new(&set, &relax, &problem).unwrap();
        // All-zero mass fractions: no gas, so the algebraic closure has no
        // flow state to recover.
        let mut z = vec![0.0; set.mixture().len() + 1];
        assert!(march.close(&z[..9], 0.0).is_err());
        let mut dz = vec![0.0; z.len()];
        march.rhs(0.0, &z, &mut dz);
        assert!(dz.iter().all(|d| d.is_nan()), "{dz:?}");
        // The integrator backs off to its floor and reports the failure;
        // a zero derivative used to pass as a converged step.
        let opts = AdaptiveOptions {
            h0: 1e-9,
            hmin: 1e-16,
            hmax: 1e-3,
            ..AdaptiveOptions::default()
        };
        let err = stiff_integrate(&march, 0.0, 1e-3, &mut z, &opts, |_, _| {}).unwrap_err();
        assert_eq!(err, OdeError::NewtonFailure(0.0));
    }

    #[test]
    fn binary_scaling_relaxation_length() {
        // Doubling the upstream pressure should roughly halve the
        // equilibration distance (binary collision scaling).
        let (set, relax, mut problem) = park_problem();
        problem.x_end = 0.03;
        let sol_lo = solve(&set, &relax, &problem).unwrap();
        problem.p1 *= 2.0;
        let sol_hi = solve(&set, &relax, &problem).unwrap();
        let d_lo = sol_lo.equilibration_distance(0.05);
        let d_hi = sol_hi.equilibration_distance(0.05);
        if let (Some(lo), Some(hi)) = (d_lo, d_hi) {
            let ratio = lo / hi;
            assert!(ratio > 1.3 && ratio < 3.5, "scaling ratio = {ratio}");
        }
    }
}
