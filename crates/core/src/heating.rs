//! Stagnation-point aerothermal heating: convective and radiative, point
//! conditions and whole-trajectory pulses (the paper's Fig. 2 machinery).

use crate::stagnation::stagnation_state;
use aerothermo_atmosphere::trajectory::TrajectoryPoint;
use aerothermo_gas::equilibrium::{EqSolveScratch, EqState, EquilibriumGas};
use aerothermo_gas::transport::mixture_viscosity_with;
use aerothermo_gas::GasModel;
use aerothermo_numerics::telemetry::SolverError;
use aerothermo_numerics::trace;
use aerothermo_radiation::tangent_slab::{solve_slab_samples, Layer};
use aerothermo_radiation::{wavelength_grid, GasSample};
#[cfg(test)]
use aerothermo_solvers::blayer::SUTTON_GRAVES_EARTH;
use aerothermo_solvers::blayer::{
    fay_riddell, newtonian_velocity_gradient, sutton_graves, FayRiddellInputs,
};
use aerothermo_solvers::vsl::{solve as vsl_solve, VslProblem};

/// One point of a stagnation heating history.
#[derive(Debug, Clone, Copy)]
pub struct HeatPulsePoint {
    /// Time from entry interface \[s\].
    pub time: f64,
    /// Altitude \[m\].
    pub altitude: f64,
    /// Velocity \[m/s\].
    pub velocity: f64,
    /// Convective stagnation heating \[W/m²\].
    pub q_conv: f64,
    /// Radiative stagnation heating \[W/m²\].
    pub q_rad: f64,
}

/// Convective stagnation heating by the Sutton-Graves correlation.
#[inline]
#[must_use]
pub fn convective_sutton_graves(rho: f64, velocity: f64, nose_radius: f64, k: f64) -> f64 {
    sutton_graves(k, rho, nose_radius, velocity)
}

/// Tauber-Sutton radiative stagnation heating for Earth air \[W/m²\]:
/// `q_r = 4.736e4·Rn^a·ρ^1.22·f(V)` (the correlation yields W/cm²;
/// converted here), with `a = 1.072e6·V^{−1.88}·ρ^{−0.325}` and the
/// published tabulated velocity function f(V). Valid V ≈ 9–16 km/s;
/// returns 0 below 9 km/s where shock-layer radiation is negligible.
/// Silently extrapolates the velocity table above 16 km/s — see
/// [`crate::correlations::radiative_tauber_sutton_earth_checked`] for the
/// guarded variant.
#[inline]
#[must_use]
pub fn radiative_tauber_sutton_earth(rho: f64, velocity: f64, nose_radius: f64) -> f64 {
    // Tauber-Sutton Earth velocity function (V in km/s).
    const V_TAB: [f64; 17] = [
        9.0, 9.25, 9.5, 9.75, 10.0, 10.25, 10.5, 10.75, 11.0, 11.5, 12.0, 12.5, 13.0, 13.5, 14.0,
        15.0, 16.0,
    ];
    const F_TAB: [f64; 17] = [
        1.5, 4.3, 9.7, 19.5, 35.0, 55.0, 81.0, 115.0, 151.0, 238.0, 359.0, 495.0, 660.0, 850.0,
        1065.0, 1550.0, 2220.0,
    ];
    let v_km = velocity / 1000.0;
    if v_km < 9.0 {
        return 0.0;
    }
    let fv = aerothermo_numerics::interp::lerp_extrap(&V_TAB, &F_TAB, v_km).max(0.0);
    let a = (1.072e6 * velocity.powf(-1.88) * rho.powf(-0.325)).clamp(0.2, 1.0);
    // Correlation output is W/cm².
    1e4 * 4.736e4 * nose_radius.powf(a) * rho.powf(1.22) * fv
}

/// Reusable work buffers for [`convective_fay_riddell_equilibrium_with`]:
/// equilibrium Newton scratch, the edge/wall gas states, and the transport
/// mixing buffers. One instance amortizes every allocation on the
/// Fay-Riddell hot path across a sweep or surrogate table build.
#[derive(Debug)]
pub struct FayRiddellScratch {
    eq: EqSolveScratch,
    edge: EqState,
    wall: EqState,
    x: Vec<f64>,
    phi: Vec<f64>,
}

impl Default for FayRiddellScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl FayRiddellScratch {
    /// Fresh (empty) scratch; buffers size themselves on first use.
    #[must_use]
    pub fn new() -> Self {
        Self {
            eq: EqSolveScratch::default(),
            edge: EqState::empty(),
            wall: EqState::empty(),
            x: Vec::new(),
            phi: Vec::new(),
        }
    }
}

/// Fay-Riddell convective heating evaluated from first principles for an
/// equilibrium gas: shock → stagnation state, Newtonian velocity gradient,
/// real transport properties at edge and wall.
///
/// # Errors
/// Propagates shock/stagnation failures.
#[allow(clippy::too_many_arguments)]
pub fn convective_fay_riddell_equilibrium(
    gas: &EquilibriumGas,
    model: &dyn GasModel,
    rho_inf: f64,
    p_inf: f64,
    velocity: f64,
    nose_radius: f64,
    t_wall: f64,
    lewis: f64,
) -> Result<f64, SolverError> {
    let mut scratch = FayRiddellScratch::new();
    convective_fay_riddell_equilibrium_with(
        gas,
        model,
        rho_inf,
        p_inf,
        velocity,
        nose_radius,
        t_wall,
        lewis,
        &mut scratch,
    )
}

/// Allocation-free [`convective_fay_riddell_equilibrium`]: all per-call
/// heap traffic lands in the caller's [`FayRiddellScratch`], so repeated
/// evaluations (sweeps, surrogate table builds) run without touching the
/// allocator. Results are bitwise identical to the plain entry.
///
/// # Errors
/// Propagates shock/stagnation failures.
#[allow(clippy::too_many_arguments)]
pub fn convective_fay_riddell_equilibrium_with(
    gas: &EquilibriumGas,
    model: &dyn GasModel,
    rho_inf: f64,
    p_inf: f64,
    velocity: f64,
    nose_radius: f64,
    t_wall: f64,
    lewis: f64,
    scratch: &mut FayRiddellScratch,
) -> Result<f64, SolverError> {
    let st = stagnation_state(model, rho_inf, p_inf, velocity)?;
    gas.at_tp_into(
        st.t_stag.max(300.0),
        st.p_stag,
        &mut scratch.eq,
        &mut scratch.edge,
    )
    .map_err(|e| format!("edge state: {e}"))?;
    gas.at_tp_into(t_wall, st.p_stag, &mut scratch.eq, &mut scratch.wall)
        .map_err(|e| format!("wall state: {e}"))?;
    let edge = &scratch.edge;
    let wall = &scratch.wall;
    let mu_e = mixture_viscosity_with(
        gas.mixture(),
        st.t_stag,
        &edge.mass_fractions,
        &mut scratch.x,
        &mut scratch.phi,
    );
    let mu_w = mixture_viscosity_with(
        gas.mixture(),
        t_wall,
        &wall.mass_fractions,
        &mut scratch.x,
        &mut scratch.phi,
    );
    // Dissociation enthalpy fraction: formation-enthalpy content of the
    // edge gas relative to total enthalpy.
    let h_d: f64 = gas
        .mixture()
        .species()
        .iter()
        .zip(&edge.mass_fractions)
        .map(|(sp, y)| y * sp.e_formation())
        .sum();
    let h_d_frac = (h_d / st.h_stag).clamp(0.0, 1.0);
    Ok(fay_riddell(&FayRiddellInputs {
        rho_e: edge.density,
        mu_e,
        rho_w: wall.density,
        mu_w,
        due_dx: newtonian_velocity_gradient(nose_radius, st.p_stag, p_inf, edge.density),
        h0e: st.h_stag,
        hw: wall.enthalpy,
        pr: 0.71,
        lewis,
        h_d_frac,
    }))
}

/// Full-physics radiative stagnation heating: solve the radiating VSL
/// stagnation layer, then run spectral tangent-slab transport over its
/// stations. Expensive (seconds); used for spot checks and the Titan bench.
///
/// # Errors
/// Propagates VSL failures.
pub fn radiative_tangent_slab(
    gas: &EquilibriumGas,
    problem: &VslProblem,
    lambda_lo: f64,
    lambda_hi: f64,
    n_lambda: usize,
) -> Result<f64, SolverError> {
    let sol = vsl_solve(gas, problem)?;
    Ok(tangent_slab_over_stations(
        &sol, lambda_lo, lambda_hi, n_lambda,
    ))
}

/// Spectral tangent-slab wall flux \[W/m²\] over an already-converged VSL
/// layer, the transport timed as the `tangent_slab` trace span. Callers
/// that solved the layer themselves (e.g. via `solve_with_retry`) don't pay
/// for a second VSL solve the way the [`radiative_tangent_slab`]
/// convenience entry does.
pub fn tangent_slab_over_stations(
    sol: &aerothermo_solvers::vsl::VslSolution,
    lambda_lo: f64,
    lambda_hi: f64,
    n_lambda: usize,
) -> f64 {
    let lambda = wavelength_grid(lambda_lo, lambda_hi, n_lambda);
    let names: Vec<String> = sol.species_names.clone();
    // Layers from wall outward; thickness from station spacing.
    let mut layers = Vec::new();
    for w in sol.stations.windows(2) {
        let thickness = w[1].y - w[0].y;
        let t = 0.5 * (w[0].temperature + w[1].temperature);
        let densities: Vec<(String, f64)> = names
            .iter()
            .cloned()
            .zip(
                w[0].number_densities
                    .iter()
                    .zip(&w[1].number_densities)
                    .map(|(a, b)| 0.5 * (a + b)),
            )
            .collect();
        layers.push(Layer {
            thickness,
            sample: GasSample::equilibrium(t, densities),
        });
    }
    let rad = trace::spanned("tangent_slab", || {
        solve_slab_samples(&layers, &lambda, 1e-9)
    });
    rad.total_wall_flux()
}

/// Stagnation heating pulse along a flown trajectory using the engineering
/// correlations (`k_sg` Sutton-Graves constant; radiative callback lets the
/// caller choose correlation or full transport).
#[must_use]
pub fn heat_pulse(
    trajectory: &[TrajectoryPoint],
    nose_radius: f64,
    k_sg: f64,
    mut q_rad: impl FnMut(&TrajectoryPoint) -> f64,
) -> Vec<HeatPulsePoint> {
    trajectory
        .iter()
        .map(|p| HeatPulsePoint {
            time: p.time,
            altitude: p.altitude,
            velocity: p.velocity,
            q_conv: convective_sutton_graves(p.density, p.velocity, nose_radius, k_sg),
            q_rad: q_rad(p),
        })
        .collect()
}

/// Integrated heat load \[J/m²\] of a pulse (trapezoid over time).
#[must_use]
pub fn heat_load(pulse: &[HeatPulsePoint]) -> (f64, f64) {
    let mut conv = 0.0;
    let mut rad = 0.0;
    for w in pulse.windows(2) {
        let dt = w[1].time - w[0].time;
        conv += 0.5 * (w[0].q_conv + w[1].q_conv) * dt;
        rad += 0.5 * (w[0].q_rad + w[1].q_rad) * dt;
    }
    (conv, rad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aerothermo_atmosphere::planets::ExponentialAtmosphere;
    use aerothermo_atmosphere::trajectory::{fly, EntryConditions, StopConditions, Vehicle};
    use aerothermo_gas::equilibrium::air9_equilibrium;

    #[test]
    fn sutton_graves_magnitude() {
        // Shuttle-class: ρ=1.6e-4, V=6.7 km/s, Rn=0.6 m → q ≈ 0.86 MW/m²·√(ρ/R)...
        let q = convective_sutton_graves(1.6e-4, 6700.0, 0.6, SUTTON_GRAVES_EARTH);
        assert!(q > 2e5 && q < 2e6, "q = {q:.3e}");
    }

    #[test]
    fn tauber_sutton_thresholds() {
        // Below 9 km/s: negligible; grows an order of magnitude from 10 to
        // 12 km/s (the tabulated f(V) steepness).
        assert_eq!(radiative_tauber_sutton_earth(1e-4, 5000.0, 1.0), 0.0);
        let q10 = radiative_tauber_sutton_earth(5e-4, 10_000.0, 1.0);
        let q12 = radiative_tauber_sutton_earth(5e-4, 12_000.0, 1.0);
        assert!(
            (q12 / q10 - 359.0 / 35.0).abs() < 2.0,
            "f(V) ratio: {}",
            q12 / q10
        );
        // Magnitude check: Stardust-class (12.6 km/s, ρ = 3e-4, Rn = 0.23 m)
        // radiative heating is in the 100 W/cm² class.
        let q_stardust = radiative_tauber_sutton_earth(3e-4, 12_600.0, 0.23);
        assert!(
            q_stardust > 3e5 && q_stardust < 3e7,
            "q = {q_stardust:.3e} W/m²"
        );
    }

    #[test]
    fn fay_riddell_equilibrium_magnitude() {
        let gas = air9_equilibrium();
        let table = aerothermo_gas::eq_table::air9_table();
        let q =
            convective_fay_riddell_equilibrium(&gas, table, 1.6e-4, 10.5, 6700.0, 0.6, 1200.0, 1.4)
                .unwrap();
        let q_sg = convective_sutton_graves(1.6e-4, 6700.0, 0.6, SUTTON_GRAVES_EARTH);
        let ratio = q / q_sg;
        assert!(ratio > 0.4 && ratio < 2.5, "FR/SG = {ratio} (q = {q:.3e})");
    }

    #[test]
    fn heat_pulse_peaks_before_peak_deceleration_velocity() {
        // For ballistic entry, peak heating occurs at V ≈ V_E·e^{−1/6} ≈
        // 0.85·V_E, earlier than peak dynamic pressure (0.61·V_E).
        let atm = ExponentialAtmosphere::titan();
        let traj = fly(
            &atm,
            &Vehicle::titan_probe(),
            EntryConditions {
                altitude: 450_000.0,
                velocity: 12_000.0,
                gamma: -30f64.to_radians(),
            },
            StopConditions::default(),
        );
        let pulse = heat_pulse(&traj, 0.6, 1.7e-4, |_| 0.0);
        let peak = pulse
            .iter()
            .max_by(|a, b| a.q_conv.total_cmp(&b.q_conv))
            .unwrap();
        let v_frac = peak.velocity / 12_000.0;
        assert!(
            v_frac > 0.7 && v_frac < 0.95,
            "peak heating at V/V_E = {v_frac}"
        );
        let (load_c, _) = heat_load(&pulse);
        assert!(load_c > 0.0);
    }

    #[test]
    fn titan_radiative_tangent_slab_positive() {
        let gas = aerothermo_gas::titan_equilibrium(0.05);
        let problem = VslProblem {
            u_inf: 11_000.0,
            rho_inf: 3e-5,
            t_inf: 160.0,
            nose_radius: 0.6,
            t_wall: 1500.0,
            n_points: 36,
            radiating: true,
        };
        let q = radiative_tangent_slab(&gas, &problem, 0.25e-6, 0.9e-6, 300).unwrap();
        assert!(q > 1e2, "CN-layer radiative flux = {q:.3e}");
        assert!(q < 1e8);
    }
}
