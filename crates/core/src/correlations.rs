//! The stagnation-heating correlation family behind one dispatch enum.
//!
//! The paper's survey era produced a cluster of engineering correlations of
//! the same shape — `q ∝ √(ρ/Rn)·V^n` with slightly different constants and
//! velocity exponents — plus Lees' laminar distribution for spreading the
//! stagnation value over a body and Newtonian/modified-Newtonian pressure
//! for the edge conditions. This module collects them behind
//! [`HeatingModel`], the enum the surrogate tables and trajectory heating
//! histories dispatch through, and adds typed [`CorrelationError`] guards on
//! the velocity-table edges that the raw `heating` entries extrapolate
//! silently.
//!
//! All correlations take SI inputs (ρ \[kg/m³\], V \[m/s\], Rn \[m\]) and
//! return W/m². The classic constants are normalized here by sea-level
//! density [`RHO_SEA_LEVEL`] and circular-orbit speed [`V_CIRCULAR`].

use aerothermo_grid::bodies::Body;
use aerothermo_solvers::blayer::{sutton_graves, SUTTON_GRAVES_EARTH};

/// Sea-level air density \[kg/m³\] used to non-dimensionalize the classic
/// correlation constants.
pub const RHO_SEA_LEVEL: f64 = 1.225;

/// Circular-orbit reference speed \[m/s\] used by the Kemp-Riddell family.
pub const V_CIRCULAR: f64 = 7924.8;

/// Typed out-of-range / non-physical-input error for the correlation suite.
#[derive(Debug, Clone, PartialEq)]
pub enum CorrelationError {
    /// Velocity outside a correlation's tabulated/fitted validity range.
    VelocityOutOfRange {
        /// Offending velocity \[m/s\].
        velocity: f64,
        /// Lower validity bound \[m/s\].
        min: f64,
        /// Upper validity bound \[m/s\].
        max: f64,
    },
    /// A physically required-positive input was ≤ 0 (or NaN).
    NonPositive {
        /// Which input was non-positive.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for CorrelationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::VelocityOutOfRange { velocity, min, max } => write!(
                f,
                "velocity {velocity:.1} m/s outside correlation validity [{min:.0}, {max:.0}] m/s"
            ),
            Self::NonPositive { name, value } => {
                write!(f, "{name} must be positive, got {value:e}")
            }
        }
    }
}

impl std::error::Error for CorrelationError {}

/// Kemp-Riddell (1957) stagnation convective heating \[W/m²\]:
/// `q = 1.103e8/√Rn · √(ρ/ρ_sl) · (V/V_c)^3.25 · (1 − h_w/h_s)`.
///
/// `hw_frac` is the wall-to-stagnation enthalpy ratio `h_w/h_s` (0 for a
/// cold wall).
#[inline]
#[must_use]
pub fn kemp_riddell(rho: f64, velocity: f64, nose_radius: f64, hw_frac: f64) -> f64 {
    1.103e8 / nose_radius.sqrt()
        * (rho / RHO_SEA_LEVEL).sqrt()
        * (velocity / V_CIRCULAR).powf(3.25)
        * (1.0 - hw_frac)
}

/// Scala stagnation convective heating \[W/m²\]:
/// `q = 1.04e8/√Rn · √(ρ/ρ_sl) · (V/V_c)^3.5` — the steepest velocity
/// exponent of the family.
#[inline]
#[must_use]
pub fn scala(rho: f64, velocity: f64, nose_radius: f64) -> f64 {
    1.04e8 / nose_radius.sqrt() * (rho / RHO_SEA_LEVEL).sqrt() * (velocity / V_CIRCULAR).powf(3.5)
}

/// Detra-Kemp-Riddell stagnation convective heating \[W/m²\]:
/// `q = 1.1037e8/√Rn · √(ρ/ρ_sl) · (V/V_c)^3.15`.
#[inline]
#[must_use]
pub fn detra_kemp_riddell(rho: f64, velocity: f64, nose_radius: f64) -> f64 {
    1.1037e8 / nose_radius.sqrt()
        * (rho / RHO_SEA_LEVEL).sqrt()
        * (velocity / V_CIRCULAR).powf(3.15)
}

/// Stagnation-point convective-heating correlation selector: one enum, one
/// `q_stag` entry, so table builders and trajectory loops dispatch without
/// a zoo of function pointers. All variants are pure functions of
/// `(ρ, V, Rn)` — exactly the surrogate table axes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HeatingModel {
    /// Sutton-Graves `q = k·√(ρ/Rn)·V³` with an explicit constant
    /// (planet-dependent; [`SUTTON_GRAVES_EARTH`] for air).
    SuttonGraves {
        /// Correlation constant `k` \[SI\].
        k: f64,
    },
    /// Kemp-Riddell with wall-enthalpy ratio `hw_frac = h_w/h_s`.
    KempRiddell {
        /// Wall-to-stagnation enthalpy ratio (0 = cold wall).
        hw_frac: f64,
    },
    /// Scala (velocity exponent 3.5).
    Scala,
    /// Detra-Kemp-Riddell (velocity exponent 3.15).
    DetraKempRiddell,
}

impl HeatingModel {
    /// Earth-air Sutton-Graves, the default model of the figure benches.
    #[must_use]
    pub fn earth_sutton_graves() -> Self {
        Self::SuttonGraves {
            k: SUTTON_GRAVES_EARTH,
        }
    }

    /// Stagnation-point convective heat flux \[W/m²\] at freestream
    /// `(ρ, V)` on nose radius `Rn`.
    #[inline]
    #[must_use]
    pub fn q_stag(&self, rho: f64, velocity: f64, nose_radius: f64) -> f64 {
        match *self {
            Self::SuttonGraves { k } => sutton_graves(k, rho, nose_radius, velocity),
            Self::KempRiddell { hw_frac } => kemp_riddell(rho, velocity, nose_radius, hw_frac),
            Self::Scala => scala(rho, velocity, nose_radius),
            Self::DetraKempRiddell => detra_kemp_riddell(rho, velocity, nose_radius),
        }
    }

    /// Short display name for tables and reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::SuttonGraves { .. } => "sutton_graves",
            Self::KempRiddell { .. } => "kemp_riddell",
            Self::Scala => "scala",
            Self::DetraKempRiddell => "detra_kemp_riddell",
        }
    }
}

// ---------------------------------------------------------------------------
// Newtonian pressure over simple bodies
// ---------------------------------------------------------------------------

/// Newtonian pressure coefficient `Cp = 2·sin²θ` at local body angle θ
/// (angle between surface and freestream).
#[inline]
#[must_use]
pub fn newtonian_cp(theta: f64) -> f64 {
    let s = theta.sin();
    2.0 * s * s
}

/// Modified-Newtonian pressure coefficient `Cp = Cp_max·sin²θ`, with
/// `Cp_max` from the actual stagnation pressure (real-gas aware).
#[inline]
#[must_use]
pub fn modified_newtonian_cp(theta: f64, cp_max: f64) -> f64 {
    let s = theta.sin();
    cp_max * s * s
}

/// Stagnation pressure coefficient `Cp_max = (p_stag − p∞)/(½ρ∞V²)` for
/// modified-Newtonian theory.
#[inline]
#[must_use]
pub fn cp_max_from_stagnation(p_stag: f64, p_inf: f64, rho_inf: f64, v_inf: f64) -> f64 {
    (p_stag - p_inf) / (0.5 * rho_inf * v_inf * v_inf)
}

/// Surface pressure \[Pa\] distribution `(s, p(s))` over a simple
/// axisymmetric body by modified-Newtonian theory (`cp_max = 2` recovers
/// classic Newtonian flow). Stations are uniform in arc length.
#[must_use]
pub fn newtonian_pressure_distribution(
    body: &dyn Body,
    p_inf: f64,
    rho_inf: f64,
    v_inf: f64,
    cp_max: f64,
    n: usize,
) -> Vec<(f64, f64)> {
    let n = n.max(2);
    let smax = body.arc_length();
    let q_dyn = 0.5 * rho_inf * v_inf * v_inf;
    (0..n)
        .map(|k| {
            let s = smax * k as f64 / (n - 1) as f64;
            let theta = body.body_angle(s);
            (s, p_inf + q_dyn * modified_newtonian_cp(theta, cp_max))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Tauber-Sutton velocity-table guards
// ---------------------------------------------------------------------------

/// Validity range of the tabulated Tauber-Sutton Earth velocity function
/// \[m/s\]. Below the lower edge radiation is negligible (the correlation
/// returns 0); above the upper edge the table would silently extrapolate.
pub const TAUBER_SUTTON_V_RANGE: (f64, f64) = (9_000.0, 16_000.0);

/// Velocity \[m/s\] at which the checked/smooth Tauber-Sutton entry begins
/// ramping radiation on (the published table starts abruptly at
/// `f(9 km/s) = 1.5`; a trajectory decelerating through 9 km/s sees a jump
/// without this onset ramp).
pub const TAUBER_SUTTON_ONSET: f64 = 8_500.0;

/// [`crate::heating::radiative_tauber_sutton_earth`] with typed edge
/// guards: returns 0 below 9 km/s (physically negligible, inside the
/// correlation's intent) but refuses to extrapolate the tabulated velocity
/// function above 16 km/s.
///
/// # Errors
/// [`CorrelationError::VelocityOutOfRange`] above the table's 16 km/s edge;
/// [`CorrelationError::NonPositive`] for ρ or Rn ≤ 0 (or NaN).
pub fn radiative_tauber_sutton_earth_checked(
    rho: f64,
    velocity: f64,
    nose_radius: f64,
) -> Result<f64, CorrelationError> {
    if rho.is_nan() || rho <= 0.0 {
        return Err(CorrelationError::NonPositive {
            name: "density",
            value: rho,
        });
    }
    if nose_radius.is_nan() || nose_radius <= 0.0 {
        return Err(CorrelationError::NonPositive {
            name: "nose_radius",
            value: nose_radius,
        });
    }
    let (lo, hi) = TAUBER_SUTTON_V_RANGE;
    if velocity.is_nan() || velocity > hi {
        return Err(CorrelationError::VelocityOutOfRange {
            velocity,
            min: lo,
            max: hi,
        });
    }
    Ok(crate::heating::radiative_tauber_sutton_earth(
        rho,
        velocity,
        nose_radius,
    ))
}

/// Floor value \[W/m²\] the smooth-onset ramp starts from (physically
/// negligible; an order of magnitude below the surrogate error floor).
pub const TAUBER_SUTTON_RAMP_FLOOR: f64 = 0.1;

/// Smooth-onset Tauber-Sutton radiative heating \[W/m²\] for the surrogate
/// tables: identical to the raw correlation for `V ≥ 9 km/s` (clamped, not
/// extrapolated, above 16 km/s), but instead of the raw entry's hard jump
/// from 0 to `f = 1.5` at 9 km/s it ramps the 9 km/s value on
/// geometrically (log-linearly in V) from [`TAUBER_SUTTON_RAMP_FLOOR`]
/// over [`TAUBER_SUTTON_ONSET`]–9 km/s. Bilinear surfaces cannot meet a
/// relative-error bound across a jump discontinuity, and a ramp that is
/// log-linear in V is exactly representable by the surrogate's log-space
/// channels; the ramp replaces a modeling artifact, not physics — the
/// correlation is only claimed valid above 9 km/s anyway.
#[must_use]
pub fn radiative_tauber_sutton_earth_smooth(rho: f64, velocity: f64, nose_radius: f64) -> f64 {
    let (lo, hi) = TAUBER_SUTTON_V_RANGE;
    if velocity >= lo {
        return crate::heating::radiative_tauber_sutton_earth(rho, velocity.min(hi), nose_radius);
    }
    if velocity <= TAUBER_SUTTON_ONSET {
        return 0.0;
    }
    let t = (velocity - TAUBER_SUTTON_ONSET) / (lo - TAUBER_SUTTON_ONSET);
    let q9 = crate::heating::radiative_tauber_sutton_earth(rho, lo, nose_radius);
    if q9 <= TAUBER_SUTTON_RAMP_FLOOR {
        return q9 * t;
    }
    TAUBER_SUTTON_RAMP_FLOOR * (q9 / TAUBER_SUTTON_RAMP_FLOOR).powf(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aerothermo_grid::bodies::Hemisphere;

    const RHO: f64 = 1.6e-4;
    const V: f64 = 6_700.0;
    const RN: f64 = 0.6;

    #[test]
    fn family_agrees_at_shuttle_class_conditions() {
        // All four correlations are fits of the same physics; at the
        // shuttle-class reference point they agree within ~15%.
        let q_sg = HeatingModel::earth_sutton_graves().q_stag(RHO, V, RN);
        for model in [
            HeatingModel::KempRiddell { hw_frac: 0.0 },
            HeatingModel::Scala,
            HeatingModel::DetraKempRiddell,
        ] {
            let q = model.q_stag(RHO, V, RN);
            let ratio = q / q_sg;
            assert!(
                (0.85..1.15).contains(&ratio),
                "{}: q/q_sg = {ratio:.3}",
                model.name()
            );
        }
    }

    #[test]
    fn kemp_riddell_hot_wall_reduces_heating() {
        let cold = kemp_riddell(RHO, V, RN, 0.0);
        let hot = kemp_riddell(RHO, V, RN, 0.4);
        assert!((hot / cold - 0.6).abs() < 1e-12);
    }

    #[test]
    fn velocity_exponent_ordering() {
        // Doubling V separates the family by its exponents: Scala (3.5)
        // grows fastest, DKR (3.15) slowest of the three.
        let r = |m: HeatingModel| m.q_stag(RHO, 2.0 * V, RN) / m.q_stag(RHO, V, RN);
        let kr = r(HeatingModel::KempRiddell { hw_frac: 0.0 });
        let sc = r(HeatingModel::Scala);
        let dkr = r(HeatingModel::DetraKempRiddell);
        assert!(sc > kr && kr > dkr, "{sc} {kr} {dkr}");
        assert!((sc - 2f64.powf(3.5)).abs() < 1e-9);
    }

    #[test]
    fn newtonian_pressure_on_hemisphere() {
        let body = Hemisphere::new(1.0);
        let p_inf = 10.0;
        let dist = newtonian_pressure_distribution(&body, p_inf, RHO, V, 2.0, 50);
        // Stagnation point: full Newtonian recovery p ≈ p_inf + ρV².
        let p0 = dist[0].1;
        assert!((p0 - (p_inf + RHO * V * V)).abs() / p0 < 1e-9);
        // Monotone decay toward the shoulder.
        for w in dist.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-9);
        }
        // Modified-Newtonian with real-gas Cp_max < 2 sits below Newtonian.
        let cp_max = cp_max_from_stagnation(p_inf + 0.92 * RHO * V * V, p_inf, RHO, V);
        assert!(cp_max < 2.0 && cp_max > 1.5);
        assert!(modified_newtonian_cp(0.7, cp_max) < newtonian_cp(0.7));
    }

    #[test]
    fn tauber_sutton_checked_rejects_extrapolation() {
        assert!(radiative_tauber_sutton_earth_checked(1e-4, 17_000.0, 1.0).is_err());
        assert!(radiative_tauber_sutton_earth_checked(-1.0, 12_000.0, 1.0).is_err());
        assert!(radiative_tauber_sutton_earth_checked(1e-4, f64::NAN, 1.0).is_err());
        let q = radiative_tauber_sutton_earth_checked(3e-4, 12_600.0, 0.23).unwrap();
        assert!(
            (q - crate::heating::radiative_tauber_sutton_earth(3e-4, 12_600.0, 0.23)).abs() == 0.0
        );
        // Below the table: 0, not an error.
        assert_eq!(
            radiative_tauber_sutton_earth_checked(1e-4, 5_000.0, 1.0).unwrap(),
            0.0
        );
    }

    #[test]
    fn tauber_sutton_smooth_is_continuous_through_onset() {
        let rho = 5e-4;
        // Identical to raw above 9 km/s.
        assert_eq!(
            radiative_tauber_sutton_earth_smooth(rho, 12_000.0, 1.0),
            crate::heating::radiative_tauber_sutton_earth(rho, 12_000.0, 1.0)
        );
        // Zero at/below onset.
        assert_eq!(radiative_tauber_sutton_earth_smooth(rho, 8_500.0, 1.0), 0.0);
        // No jump: across the geometric ramp each 10 m/s step changes q by
        // a bounded factor (vs the raw entry's 0 → f(9 km/s) cliff), and
        // the step onto the ramp is physically negligible.
        let mut prev = 0.0;
        let mut v = 8_400.0;
        while v <= 9_100.0 {
            let q = radiative_tauber_sutton_earth_smooth(rho, v, 1.0);
            assert!(
                (prev == 0.0 && q < 1.0) || q / prev < 1.5,
                "jump {prev:.3e} -> {q:.3e} at {v}"
            );
            prev = q;
            v += 10.0;
        }
        // Ramp meets the table value continuously at 9 km/s (the geometric
        // ramp's ln-slope is ln(q9/floor)/500 per m/s ≈ 2.7%/(m/s) here).
        let q9 = radiative_tauber_sutton_earth_smooth(rho, 9_000.0, 1.0);
        let q9m = radiative_tauber_sutton_earth_smooth(rho, 8_999.0, 1.0);
        assert!((q9m / q9 - 1.0).abs() < 0.05, "{q9m:.4e} vs {q9:.4e}");
        // Clamped (not extrapolated) above 16 km/s.
        assert_eq!(
            radiative_tauber_sutton_earth_smooth(rho, 18_000.0, 1.0),
            radiative_tauber_sutton_earth_smooth(rho, 16_000.0, 1.0)
        );
    }
}
