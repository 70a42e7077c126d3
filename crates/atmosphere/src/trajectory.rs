//! Planar three-degree-of-freedom entry trajectories.
//!
//! Integrates the classical longitudinal entry equations over a spherical
//! non-rotating planet:
//!
//! ```text
//! dV/dt = −D/m − g·sin γ
//! dγ/dt = (V/r − g/V)·cos γ + L/(m·V)
//! dh/dt = V·sin γ
//! ds/dt = V·cos γ · R/r       (surface-range rate)
//! ```
//!
//! with `D = ½ρV²·C_D·A` and `L = (L/D)·D`. This is the machinery behind the
//! paper's Fig. 1 flight-domain envelopes and the Fig. 2 heating pulses.

use crate::Atmosphere;
use aerothermo_numerics::ode::{rkf45_integrate, AdaptiveOptions};

/// Vehicle mass/aero description for entry mechanics.
#[derive(Debug, Clone, Copy)]
pub struct Vehicle {
    /// Mass \[kg\].
    pub mass: f64,
    /// Aerodynamic reference area \[m²\].
    pub area: f64,
    /// Hypersonic drag coefficient.
    pub cd: f64,
    /// Lift-to-drag ratio (0 for ballistic entry).
    pub ld: f64,
    /// Nose radius \[m\] (used by the heating correlations downstream).
    pub nose_radius: f64,
}

impl Vehicle {
    /// Ballistic coefficient m/(C_D·A) \[kg/m²\].
    #[must_use]
    pub fn ballistic_coefficient(&self) -> f64 {
        self.mass / (self.cd * self.area)
    }

    /// A Titan-probe-like blunt capsule (Ref. 15 class).
    #[must_use]
    pub fn titan_probe() -> Self {
        Self {
            mass: 250.0,
            area: std::f64::consts::PI * 0.675 * 0.675,
            cd: 1.5,
            ld: 0.0,
            nose_radius: 0.6,
        }
    }

    /// A Shuttle-Orbiter-like lifting entry vehicle.
    #[must_use]
    pub fn shuttle_like() -> Self {
        Self {
            mass: 92_000.0,
            area: 250.0,
            cd: 0.84,
            ld: 1.1,
            nose_radius: 0.6,
        }
    }
}

/// One trajectory sample.
#[derive(Debug, Clone, Copy)]
pub struct TrajectoryPoint {
    /// Time from entry interface \[s\].
    pub time: f64,
    /// Altitude \[m\].
    pub altitude: f64,
    /// Velocity \[m/s\].
    pub velocity: f64,
    /// Flight-path angle \[rad\], negative downward.
    pub gamma: f64,
    /// Downrange distance \[m\].
    pub range: f64,
    /// Local density \[kg/m³\].
    pub density: f64,
    /// Local temperature \[K\].
    pub temperature: f64,
    /// Deceleration magnitude \[m/s²\] (drag only).
    pub deceleration: f64,
    /// Dynamic pressure ½ρV² \[Pa\].
    pub dynamic_pressure: f64,
}

/// Entry interface conditions.
#[derive(Debug, Clone, Copy)]
pub struct EntryConditions {
    /// Entry altitude \[m\].
    pub altitude: f64,
    /// Entry velocity \[m/s\].
    pub velocity: f64,
    /// Entry flight-path angle \[rad\], negative downward.
    pub gamma: f64,
}

/// Stopping rules for the integrator.
#[derive(Debug, Clone, Copy)]
pub struct StopConditions {
    /// Stop below this altitude \[m\].
    pub min_altitude: f64,
    /// Stop below this velocity \[m/s\].
    pub min_velocity: f64,
    /// Hard time limit \[s\].
    pub max_time: f64,
}

impl Default for StopConditions {
    fn default() -> Self {
        Self {
            min_altitude: 1_000.0,
            min_velocity: 200.0,
            max_time: 4_000.0,
        }
    }
}

/// Integrate an entry trajectory; returns samples at the integrator's
/// accepted steps (dense enough for heating-pulse work).
pub fn fly(
    atmosphere: &dyn Atmosphere,
    vehicle: &Vehicle,
    entry: EntryConditions,
    stop: StopConditions,
) -> Vec<TrajectoryPoint> {
    fly_observed(atmosphere, vehicle, entry, stop, |_| {})
}

/// [`fly`] with an observer invoked at every recorded sample as it is
/// produced — lets heating-history resolvers (e.g. the surrogate fast
/// path) ride the integration without a second pass over the output.
/// The returned trajectory is bitwise identical to [`fly`]'s.
pub fn fly_observed(
    atmosphere: &dyn Atmosphere,
    vehicle: &Vehicle,
    entry: EntryConditions,
    stop: StopConditions,
    mut observer: impl FnMut(&TrajectoryPoint),
) -> Vec<TrajectoryPoint> {
    let beta = vehicle.ballistic_coefficient();
    let rp = atmosphere.planet_radius();

    // State: [V, gamma, h, s]
    let rhs = |_t: f64, y: &[f64], d: &mut [f64]| {
        let v = y[0].max(1.0);
        let gamma = y[1];
        let h = y[2].max(0.0);
        let rho = atmosphere.density(h);
        let g = atmosphere.gravity(h);
        let r = rp + h;
        let drag_acc = 0.5 * rho * v * v / beta;
        let lift_acc = vehicle.ld * drag_acc;
        d[0] = -drag_acc - g * gamma.sin();
        d[1] = (v / r - g / v) * gamma.cos() + lift_acc / v;
        d[2] = v * gamma.sin();
        d[3] = v * gamma.cos() * rp / r;
    };

    let mut y = [entry.velocity, entry.gamma, entry.altitude, 0.0];
    let mut points = Vec::new();
    let mut done = false;
    // Integrate in windows so the stop conditions can cut the flight short.
    let window = 2.0;
    let mut t = 0.0;
    let opts = AdaptiveOptions {
        rtol: 1e-8,
        atol: 1e-8,
        h0: 0.05,
        hmax: 1.0,
        ..AdaptiveOptions::default()
    };
    let make_point = |t: f64, y: &[f64]| {
        let h = y[2].max(0.0);
        let rho = atmosphere.density(h);
        let v = y[0];
        TrajectoryPoint {
            time: t,
            altitude: h,
            velocity: v,
            gamma: y[1],
            range: y[3],
            density: rho,
            temperature: atmosphere.temperature(h),
            deceleration: 0.5 * rho * v * v / beta,
            dynamic_pressure: 0.5 * rho * v * v,
        }
    };
    let p0 = make_point(0.0, &y);
    observer(&p0);
    points.push(p0);
    while !done && t < stop.max_time {
        let t1 = t + window;
        let res = rkf45_integrate(&rhs, t, t1, &mut y, &opts, |_, _| {});
        if res.is_err() {
            break;
        }
        t = t1;
        let p = make_point(t, &y);
        observer(&p);
        points.push(p);
        if y[2] <= stop.min_altitude || y[0] <= stop.min_velocity || y[1] > 0.5 {
            done = true;
        }
    }
    points
}

/// Peak-deceleration point of a flown trajectory (`None` for an empty one).
#[must_use]
pub fn peak_deceleration(points: &[TrajectoryPoint]) -> Option<&TrajectoryPoint> {
    points
        .iter()
        .max_by(|a, b| a.deceleration.total_cmp(&b.deceleration))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planets::ExponentialAtmosphere;
    use crate::us76::Us76;

    #[test]
    fn ballistic_coefficient() {
        let v = Vehicle {
            mass: 100.0,
            area: 2.0,
            cd: 1.0,
            ld: 0.0,
            nose_radius: 0.5,
        };
        assert!((v.ballistic_coefficient() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn titan_entry_decelerates() {
        let atm = ExponentialAtmosphere::titan();
        let traj = fly(
            &atm,
            &Vehicle::titan_probe(),
            EntryConditions {
                altitude: 500_000.0,
                velocity: 12_000.0,
                gamma: -30f64.to_radians(),
            },
            StopConditions::default(),
        );
        assert!(traj.len() > 50);
        let last = traj.last().unwrap();
        assert!(last.velocity < 2_000.0, "v_end = {}", last.velocity);
        assert!(last.altitude < traj[0].altitude);
        // Peak deceleration in the tens of g's for steep Titan entry.
        let peak = peak_deceleration(&traj).unwrap();
        let g_load = peak.deceleration / 9.81;
        assert!(g_load > 3.0 && g_load < 300.0, "peak g = {g_load}");
    }

    #[test]
    fn allen_eggers_peak_velocity_fraction() {
        // For steep ballistic entry into an exponential atmosphere, peak
        // deceleration occurs near V = V_E·e^{−1/2} ≈ 0.607·V_E.
        let atm = ExponentialAtmosphere::new(
            "test-exp",
            &[(0.0, 1.2, 7_200.0, 240.0)],
            287.0,
            1.4,
            6.371e6,
            9.81,
        );
        let traj = fly(
            &atm,
            &Vehicle {
                mass: 500.0,
                area: 1.0,
                cd: 1.0,
                ld: 0.0,
                nose_radius: 0.3,
            },
            EntryConditions {
                altitude: 120_000.0,
                velocity: 7_000.0,
                gamma: -30f64.to_radians(),
            },
            StopConditions::default(),
        );
        let peak = peak_deceleration(&traj).unwrap();
        let frac = peak.velocity / 7_000.0;
        assert!((frac - 0.607).abs() < 0.08, "V_peak/V_E = {frac}");
    }

    #[test]
    fn shuttle_entry_glides() {
        let traj = fly(
            &Us76,
            &Vehicle::shuttle_like(),
            EntryConditions {
                altitude: 120_000.0,
                velocity: 7_800.0,
                gamma: -1.2f64.to_radians(),
            },
            StopConditions {
                max_time: 2_500.0,
                ..StopConditions::default()
            },
        );
        // A lifting entry stays high for a long time: altitude at 300 s
        // should still be above 55 km.
        let at300 = traj.iter().find(|p| p.time >= 300.0).unwrap();
        assert!(at300.altitude > 55_000.0, "h(300 s) = {}", at300.altitude);
    }

    #[test]
    fn energy_decreases() {
        let atm = ExponentialAtmosphere::titan();
        let traj = fly(
            &atm,
            &Vehicle::titan_probe(),
            EntryConditions {
                altitude: 400_000.0,
                velocity: 12_000.0,
                gamma: -25f64.to_radians(),
            },
            StopConditions::default(),
        );
        // Specific mechanical energy must decrease monotonically (drag only
        // removes energy).
        let energy = |p: &TrajectoryPoint| 0.5 * p.velocity * p.velocity + 1.352 * p.altitude;
        let mut prev = energy(&traj[0]);
        for p in &traj[1..] {
            let e = energy(p);
            assert!(e <= prev * 1.0001, "energy grew at t={}", p.time);
            prev = e;
        }
    }
}
