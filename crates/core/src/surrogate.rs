//! Trajectory-scale surrogate fast path: precomputed bilinear heating
//! response surfaces over (altitude × velocity).
//!
//! Every exact stagnation-heating query walks normal shock → stagnation
//! recompression → EOS → correlation — microseconds per point, dominated by
//! the equilibrium gas model. Entry-trajectory work asks the same question
//! millions of times over a bounded (h, V) corridor, so this module builds
//! the answer once: four response channels (stagnation pressure and
//! temperature, convective and radiative heat flux) sampled on a tensor
//! grid and served by allocation-free bilinear lookups at
//! [`SurrogateTable::query`] / [`SurrogateTable::query_batch`].
//!
//! # Accuracy contract
//!
//! The builder refines the grid until, at every refinement sample (cell
//! centers and edge midpoints), the surrogate-vs-exact relative error of
//! every channel is ≤ `tolerance/2`. Pressure and the two fluxes are stored
//! in log space — their exact responses are near-log-linear in (h, V), so
//! between samples the bilinear error stays below the documented bound
//! `tolerance` (default [`DEFAULT_TOLERANCE`]) across the whole table
//! domain; the `tests/surrogate_fastpath.rs` proptest enforces this at
//! random off-grid points. Relative error is measured against floors
//! ([`P_FLOOR`] Pa, [`T_FLOOR`] K, [`Q_FLOOR`] W/m²) so physically
//! negligible channels (e.g. radiative flux below the Tauber-Sutton onset)
//! can't inflate the metric. Queries outside the table domain clamp to its
//! edges — the bound applies inside the domain only.
//!
//! Radiative heating uses the smooth-onset Tauber-Sutton variant
//! ([`crate::correlations::radiative_tauber_sutton_earth_smooth`]): a
//! bilinear surface cannot meet a relative-error bound across the raw
//! correlation's jump at 9 km/s.

use std::collections::HashMap;

use crate::correlations::{radiative_tauber_sutton_earth_smooth, HeatingModel};
use crate::heating::HeatPulsePoint;
use crate::stagnation::stagnation_state;
use aerothermo_atmosphere::trajectory::{
    fly_observed, EntryConditions, StopConditions, TrajectoryPoint, Vehicle,
};
use aerothermo_atmosphere::Atmosphere;
use aerothermo_gas::GasModel;
use aerothermo_numerics::telemetry::{counters, Counter, SolverError};

/// Default documented max-relative-error bound of a built table.
pub const DEFAULT_TOLERANCE: f64 = 0.02;

/// Relative-error floor for the stagnation-pressure channel \[Pa\].
pub const P_FLOOR: f64 = 1e-2;

/// Relative-error floor for the stagnation-temperature channel \[K\].
pub const T_FLOOR: f64 = 1.0;

/// Relative-error floor for the heat-flux channels \[W/m²\] — fluxes below
/// 100 W/m² are irrelevant to entry heating and are only held to an
/// absolute error of `tolerance · Q_FLOOR`.
pub const Q_FLOOR: f64 = 100.0;

/// Offset added before taking logs of the flux channels so exact zeros
/// (e.g. no radiation) stay representable.
const Q_EPS: f64 = 1e-3;

/// Refinement never grows an axis beyond this many nodes.
const MAX_AXIS_NODES: usize = 2048;

/// Refinement pass budget; each pass at most halves every violating cell.
const MAX_PASSES: usize = 16;

/// One surrogate answer: the four response channels at a freestream
/// (altitude, velocity) point.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SurrogateQuery {
    /// Stagnation (pitot) pressure \[Pa\].
    pub p_stag: f64,
    /// Stagnation temperature \[K\].
    pub t_stag: f64,
    /// Convective stagnation heat flux \[W/m²\].
    pub q_conv: f64,
    /// Radiative stagnation heat flux \[W/m²\].
    pub q_rad: f64,
}

/// The exact response the surrogate approximates: anything that can map
/// (altitude, velocity) to the four channels. [`ExactResponse`] is the
/// production implementation; tests substitute analytic functions.
pub trait StagnationResponse {
    /// Evaluate the exact response at `(altitude [m], velocity [m/s])`.
    ///
    /// # Errors
    /// Propagates shock/EOS failures (e.g. subsonic freestream).
    fn evaluate(&mut self, altitude: f64, velocity: f64) -> Result<SurrogateQuery, SolverError>;
}

/// Radiative-channel model for [`ExactResponse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RadiativeModel {
    /// No radiative heating (outer-planet/correlation-free studies).
    None,
    /// Smooth-onset Tauber-Sutton for Earth air.
    TauberSuttonEarthSmooth,
}

/// The production exact path: atmosphere → freestream, shock + EOS →
/// stagnation state, [`HeatingModel`] correlation → convective flux,
/// [`RadiativeModel`] → radiative flux.
pub struct ExactResponse<'a> {
    /// Atmosphere supplying ρ(h), p(h).
    pub atmosphere: &'a dyn Atmosphere,
    /// Gas model for the shock/stagnation pipeline (e.g. the Tannehill-style
    /// equilibrium table).
    pub gas: &'a dyn GasModel,
    /// Convective-heating correlation.
    pub model: HeatingModel,
    /// Radiative-heating model.
    pub radiative: RadiativeModel,
    /// Nose radius \[m\].
    pub nose_radius: f64,
}

impl StagnationResponse for ExactResponse<'_> {
    fn evaluate(&mut self, altitude: f64, velocity: f64) -> Result<SurrogateQuery, SolverError> {
        let rho = self.atmosphere.density(altitude);
        let p = self.atmosphere.pressure(altitude);
        let st = stagnation_state(self.gas, rho, p, velocity)?;
        let q_conv = self.model.q_stag(rho, velocity, self.nose_radius);
        let q_rad = match self.radiative {
            RadiativeModel::None => 0.0,
            RadiativeModel::TauberSuttonEarthSmooth => {
                radiative_tauber_sutton_earth_smooth(rho, velocity, self.nose_radius)
            }
        };
        Ok(SurrogateQuery {
            p_stag: st.p_stag,
            t_stag: st.t_stag,
            q_conv,
            q_rad,
        })
    }
}

/// Build statistics recorded by [`SurrogateBuilder::build`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildStats {
    /// Exact-path evaluations spent building the table (cache-deduplicated).
    pub exact_evals: usize,
    /// Refinement passes run (0 = the initial grid already met the bound).
    pub refine_passes: usize,
    /// Worst sampled relative error remaining at the end of the build.
    pub max_sampled_rel_err: f64,
}

/// Precomputed bilinear response surfaces over (altitude × velocity) with
/// an allocation-free batched query engine. Build once with
/// [`SurrogateBuilder`], query millions of times.
#[derive(Debug, Clone)]
pub struct SurrogateTable {
    h_axis: Vec<f64>,
    v_axis: Vec<f64>,
    /// Node channels, interleaved `[(ln p, T, ln(q_c+ε), ln(q_r+ε)); nh·nv]`
    /// in row-major `(i_h · nv + j_v)` order.
    data: Vec<f64>,
    tolerance: f64,
    stats: BuildStats,
}

/// Clamped bracket: interval index and interpolation fraction on a sorted
/// axis.
#[inline]
fn bracket(axis: &[f64], x: f64) -> (usize, f64) {
    let n = axis.len();
    if x <= axis[0] {
        return (0, 0.0);
    }
    if x >= axis[n - 1] {
        return (n - 2, 1.0);
    }
    let i = (axis.partition_point(|&a| a <= x) - 1).min(n - 2);
    (i, (x - axis[i]) / (axis[i + 1] - axis[i]))
}

impl SurrogateTable {
    /// The documented max-relative-error bound versus the exact path.
    #[must_use]
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// Build statistics (exact evaluations, refinement passes).
    #[must_use]
    pub fn stats(&self) -> BuildStats {
        self.stats
    }

    /// Table domain `((h_lo, h_hi), (v_lo, v_hi))`.
    #[must_use]
    pub fn domain(&self) -> ((f64, f64), (f64, f64)) {
        (
            (self.h_axis[0], *self.h_axis.last().unwrap()),
            (self.v_axis[0], *self.v_axis.last().unwrap()),
        )
    }

    /// Raw bilinear node interpolation of the four stored channels — shared
    /// verbatim by the single and batched entries (and the builder's own
    /// error sampling), so batch-vs-single results are bitwise identical by
    /// construction.
    #[inline]
    fn interpolate(&self, altitude: f64, velocity: f64) -> SurrogateQuery {
        let (i, tx) = bracket(&self.h_axis, altitude);
        let (j, ty) = bracket(&self.v_axis, velocity);
        let nv = self.v_axis.len();
        let b00 = (i * nv + j) * 4;
        let b01 = b00 + 4;
        let b10 = ((i + 1) * nv + j) * 4;
        let b11 = b10 + 4;
        let w00 = (1.0 - tx) * (1.0 - ty);
        let w01 = (1.0 - tx) * ty;
        let w10 = tx * (1.0 - ty);
        let w11 = tx * ty;
        let d = &self.data;
        let ch =
            |c: usize| w00 * d[b00 + c] + w01 * d[b01 + c] + w10 * d[b10 + c] + w11 * d[b11 + c];
        SurrogateQuery {
            p_stag: ch(0).exp(),
            t_stag: ch(1),
            q_conv: (ch(2).exp() - Q_EPS).max(0.0),
            q_rad: (ch(3).exp() - Q_EPS).max(0.0),
        }
    }

    /// Whether `(altitude, velocity)` lies inside the table corridor, i.e.
    /// whether [`SurrogateTable::query`] interpolates rather than clamps.
    /// A resident-table server uses this to route out-of-corridor queries
    /// to the exact [`StagnationResponse`] path instead of silently
    /// answering with edge-clamped values.
    #[inline]
    #[must_use]
    pub fn contains(&self, altitude: f64, velocity: f64) -> bool {
        let ((h0, h1), (v0, v1)) = self.domain();
        altitude >= h0 && altitude <= h1 && velocity >= v0 && velocity <= v1
    }

    /// Single surrogate query at `(altitude [m], velocity [m/s])`.
    /// Out-of-domain inputs clamp to the table edges.
    #[inline]
    #[must_use]
    pub fn query(&self, altitude: f64, velocity: f64) -> SurrogateQuery {
        counters::add(Counter::SurrogateQueries, 1);
        self.interpolate(altitude, velocity)
    }

    /// Batched surrogate queries: `out[k] = query(altitude[k], velocity[k])`
    /// without per-query counter traffic or any allocation. Results are
    /// bitwise identical to [`SurrogateTable::query`] on the same inputs.
    ///
    /// # Panics
    /// Panics on input/output length mismatch.
    pub fn query_batch(&self, altitude: &[f64], velocity: &[f64], out: &mut [SurrogateQuery]) {
        assert!(
            altitude.len() == velocity.len() && altitude.len() == out.len(),
            "query_batch length mismatch: {} / {} / {}",
            altitude.len(),
            velocity.len(),
            out.len()
        );
        counters::add(Counter::SurrogateQueries, altitude.len() as u64);
        for ((o, &h), &v) in out.iter_mut().zip(altitude).zip(velocity) {
            *o = self.interpolate(h, v);
        }
    }
}

/// Builder for [`SurrogateTable`]: domain, initial grid, tolerance, then
/// [`SurrogateBuilder::build`] against any [`StagnationResponse`].
#[derive(Debug, Clone)]
pub struct SurrogateBuilder {
    h_range: (f64, f64),
    v_range: (f64, f64),
    nh: usize,
    nv: usize,
    tolerance: f64,
}

/// Per-channel relative error of `s` versus exact `e` under the documented
/// floors; returns the worst channel.
fn rel_err(s: &SurrogateQuery, e: &SurrogateQuery) -> f64 {
    let p = (s.p_stag - e.p_stag).abs() / e.p_stag.abs().max(P_FLOOR);
    let t = (s.t_stag - e.t_stag).abs() / e.t_stag.abs().max(T_FLOOR);
    let qc = (s.q_conv - e.q_conv).abs() / e.q_conv.abs().max(Q_FLOOR);
    let qr = (s.q_rad - e.q_rad).abs() / e.q_rad.abs().max(Q_FLOOR);
    p.max(t).max(qc).max(qr)
}

impl SurrogateBuilder {
    /// Start a builder over `h_range` \[m\] × `v_range` \[m/s\] with the
    /// default 33×33 initial grid and [`DEFAULT_TOLERANCE`].
    #[must_use]
    pub fn new(h_range: (f64, f64), v_range: (f64, f64)) -> Self {
        Self {
            h_range,
            v_range,
            nh: 33,
            nv: 33,
            tolerance: DEFAULT_TOLERANCE,
        }
    }

    /// Initial tensor-grid resolution before refinement (min 4×4).
    #[must_use]
    pub fn initial_grid(mut self, nh: usize, nv: usize) -> Self {
        self.nh = nh.max(4);
        self.nv = nv.max(4);
        self
    }

    /// Documented max-relative-error bound (the builder refines to half of
    /// it at the sample points).
    #[must_use]
    pub fn tolerance(mut self, tol: f64) -> Self {
        self.tolerance = tol.max(1e-4);
        self
    }

    /// Build the table, refining the grid locally wherever the sampled
    /// error exceeds `tolerance/2`.
    ///
    /// # Errors
    /// Propagates exact-path failures, and fails if the bound is still
    /// violated when an axis hits the refinement cap (a jump discontinuity
    /// in the response — see the module docs on smooth radiative onset).
    pub fn build(
        &self,
        response: &mut dyn StagnationResponse,
    ) -> Result<SurrogateTable, SolverError> {
        let (h0, h1) = self.h_range;
        let (v0, v1) = self.v_range;
        if h0.is_nan() || h1.is_nan() || v0.is_nan() || v1.is_nan() || h1 <= h0 || v1 <= v0 {
            return Err(SolverError::BadInput(format!(
                "surrogate domain must be non-degenerate: h [{h0}, {h1}], v [{v0}, {v1}]"
            )));
        }
        let linspace = |a: f64, b: f64, n: usize| -> Vec<f64> {
            (0..n)
                .map(|k| a + (b - a) * k as f64 / (n - 1) as f64)
                .collect()
        };
        let mut h_axis = linspace(h0, h1, self.nh);
        let mut v_axis = linspace(v0, v1, self.nv);

        // Exact evaluations are cached by input bit patterns: refinement
        // revisits the same nodes/samples across passes.
        let mut cache: HashMap<(u64, u64), SurrogateQuery> = HashMap::new();
        let mut exact = |h: f64,
                         v: f64,
                         cache: &mut HashMap<(u64, u64), SurrogateQuery>|
         -> Result<SurrogateQuery, SolverError> {
            if let Some(q) = cache.get(&(h.to_bits(), v.to_bits())) {
                return Ok(*q);
            }
            let q = response.evaluate(h, v)?;
            cache.insert((h.to_bits(), v.to_bits()), q);
            Ok(q)
        };

        let internal_tol = 0.5 * self.tolerance;
        let mut passes = 0usize;
        loop {
            // Fill node channels for the current grid.
            let nv = v_axis.len();
            let mut data = vec![0.0f64; h_axis.len() * nv * 4];
            for (i, &h) in h_axis.iter().enumerate() {
                for (j, &v) in v_axis.iter().enumerate() {
                    let q = exact(h, v, &mut cache)?;
                    let b = (i * nv + j) * 4;
                    data[b] = q.p_stag.ln();
                    data[b + 1] = q.t_stag;
                    data[b + 2] = (q.q_conv + Q_EPS).ln();
                    data[b + 3] = (q.q_rad + Q_EPS).ln();
                }
            }
            let table = SurrogateTable {
                h_axis: h_axis.clone(),
                v_axis: v_axis.clone(),
                data,
                tolerance: self.tolerance,
                stats: BuildStats::default(),
            };

            // Sample every cell at its center and edge midpoints. The edge
            // midpoints attribute error to one axis (an h-edge midpoint
            // sits on a v node, so its error is pure h-direction linear
            // interpolation error, and vice versa); only a cell whose sole
            // violation is the center (mixed curvature) splits both axes.
            let mut split_h = vec![false; h_axis.len() - 1];
            let mut split_v = vec![false; v_axis.len() - 1];
            let mut worst = 0.0f64;
            for i in 0..h_axis.len() - 1 {
                let hc = 0.5 * (h_axis[i] + h_axis[i + 1]);
                for j in 0..v_axis.len() - 1 {
                    let vc = 0.5 * (v_axis[j] + v_axis[j + 1]);
                    let mut err_at = |h: f64,
                                      v: f64,
                                      cache: &mut HashMap<(u64, u64), SurrogateQuery>|
                     -> Result<f64, SolverError> {
                        let e = exact(h, v, cache)?;
                        Ok(rel_err(&table.interpolate(h, v), &e))
                    };
                    let eh = err_at(hc, v_axis[j], &mut cache)?.max(err_at(
                        hc,
                        v_axis[j + 1],
                        &mut cache,
                    )?);
                    let ev = err_at(h_axis[i], vc, &mut cache)?.max(err_at(
                        h_axis[i + 1],
                        vc,
                        &mut cache,
                    )?);
                    let ec = err_at(hc, vc, &mut cache)?;
                    worst = worst.max(eh).max(ev).max(ec);
                    if eh > internal_tol {
                        split_h[i] = true;
                    }
                    if ev > internal_tol {
                        split_v[j] = true;
                    }
                    if ec > internal_tol && eh <= internal_tol && ev <= internal_tol {
                        split_h[i] = true;
                        split_v[j] = true;
                    }
                }
            }

            if !split_h.iter().any(|&s| s) && !split_v.iter().any(|&s| s) {
                let mut table = table;
                table.stats = BuildStats {
                    exact_evals: cache.len(),
                    refine_passes: passes,
                    max_sampled_rel_err: worst,
                };
                counters::add(Counter::SurrogateBuilds, 1);
                return Ok(table);
            }
            passes += 1;
            let capped = h_axis.len() >= MAX_AXIS_NODES || v_axis.len() >= MAX_AXIS_NODES;
            if passes >= MAX_PASSES || capped {
                return Err(SolverError::BadInput(format!(
                    "surrogate refinement stalled at rel err {worst:.3e} \
                     (tol {internal_tol:.1e}) after {passes} passes on a \
                     {}x{} grid — response likely discontinuous in-domain",
                    h_axis.len(),
                    v_axis.len()
                )));
            }
            let refine = |axis: &[f64], split: &[bool]| -> Vec<f64> {
                let mut out = Vec::with_capacity(axis.len() + split.iter().filter(|&&s| s).count());
                for k in 0..axis.len() - 1 {
                    out.push(axis[k]);
                    if split[k] {
                        out.push(0.5 * (axis[k] + axis[k + 1]));
                    }
                }
                out.push(*axis.last().unwrap());
                out
            };
            h_axis = refine(&h_axis, &split_h);
            v_axis = refine(&v_axis, &split_v);
        }
    }
}

/// Resolve a full entry heating history through the surrogate: integrate
/// the 3-DOF trajectory and answer every recorded sample's stagnation
/// heating from the table in the same pass. Replaces the exact-path
/// per-point walk of [`crate::heating::heat_pulse`] at table-lookup cost.
#[must_use]
pub fn fly_heating_history(
    atmosphere: &dyn Atmosphere,
    vehicle: &Vehicle,
    entry: EntryConditions,
    stop: StopConditions,
    table: &SurrogateTable,
) -> Vec<HeatPulsePoint> {
    let mut pulse: Vec<HeatPulsePoint> = Vec::new();
    let _ = fly_observed(atmosphere, vehicle, entry, stop, |p: &TrajectoryPoint| {
        let q = table.query(p.altitude, p.velocity);
        pulse.push(HeatPulsePoint {
            time: p.time,
            altitude: p.altitude,
            velocity: p.velocity,
            q_conv: q.q_conv,
            q_rad: q.q_rad,
        });
    });
    pulse
}

#[cfg(test)]
mod tests {
    use super::*;
    use aerothermo_atmosphere::us76::Us76;
    use aerothermo_gas::eq_table::air9_table;

    /// Analytic smooth response for cheap builder tests.
    struct Analytic;
    impl StagnationResponse for Analytic {
        fn evaluate(&mut self, h: f64, v: f64) -> Result<SurrogateQuery, SolverError> {
            let rho = 1.2 * (-h / 7_200.0).exp();
            Ok(SurrogateQuery {
                p_stag: 0.92 * rho * v * v,
                t_stag: 250.0 + 3.2e-4 * v * v,
                q_conv: 1.74e-4 * rho.sqrt() * v.powi(3),
                q_rad: 0.0,
            })
        }
    }

    fn analytic_table() -> SurrogateTable {
        SurrogateBuilder::new((30_000.0, 80_000.0), (3_000.0, 12_000.0))
            .initial_grid(17, 17)
            .tolerance(0.02)
            .build(&mut Analytic)
            .unwrap()
    }

    #[test]
    fn analytic_bound_holds_on_dense_scan() {
        let table = analytic_table();
        let ((h0, h1), (v0, v1)) = table.domain();
        let mut worst = 0.0f64;
        for a in 0..97 {
            for b in 0..97 {
                let h = h0 + (h1 - h0) * a as f64 / 96.0;
                let v = v0 + (v1 - v0) * b as f64 / 96.0;
                let e = Analytic.evaluate(h, v).unwrap();
                let s = table.interpolate(h, v);
                worst = worst.max(rel_err(&s, &e));
            }
        }
        assert!(worst <= table.tolerance(), "max rel err {worst:.3e}");
    }

    #[test]
    fn batch_matches_single_bitwise() {
        let table = analytic_table();
        let hs: Vec<f64> = (0..257).map(|k| 30_000.0 + 190.0 * k as f64).collect();
        let vs: Vec<f64> = (0..257).map(|k| 3_000.0 + 33.0 * k as f64).collect();
        let mut out = vec![SurrogateQuery::default(); hs.len()];
        table.query_batch(&hs, &vs, &mut out);
        for ((o, &h), &v) in out.iter().zip(&hs).zip(&vs) {
            let s = table.query(h, v);
            assert!(o.p_stag.to_bits() == s.p_stag.to_bits());
            assert!(o.t_stag.to_bits() == s.t_stag.to_bits());
            assert!(o.q_conv.to_bits() == s.q_conv.to_bits());
            assert!(o.q_rad.to_bits() == s.q_rad.to_bits());
        }
    }

    #[test]
    fn out_of_domain_clamps_to_edges() {
        let table = analytic_table();
        let ((h0, h1), (v0, v1)) = table.domain();
        let lo = table.query(h0 - 5_000.0, v0 - 500.0);
        let edge = table.query(h0, v0);
        assert_eq!(lo, edge);
        let hi = table.query(h1 + 5_000.0, v1 + 500.0);
        assert_eq!(hi, table.query(h1, v1));
    }

    #[test]
    fn discontinuous_response_fails_with_typed_error() {
        struct Jump;
        impl StagnationResponse for Jump {
            fn evaluate(&mut self, _h: f64, v: f64) -> Result<SurrogateQuery, SolverError> {
                Ok(SurrogateQuery {
                    p_stag: 1.0,
                    t_stag: 300.0,
                    q_conv: if v > 7_000.0 { 1e6 } else { 1e3 },
                    q_rad: 0.0,
                })
            }
        }
        let err = SurrogateBuilder::new((30_000.0, 80_000.0), (3_000.0, 12_000.0))
            .initial_grid(5, 5)
            .tolerance(0.01)
            .build(&mut Jump)
            .unwrap_err();
        assert!(matches!(err, SolverError::BadInput(_)), "{err}");
    }

    #[test]
    fn earth_exact_response_table_builds_and_bounds() {
        let mut response = ExactResponse {
            atmosphere: &Us76,
            gas: air9_table(),
            model: HeatingModel::earth_sutton_graves(),
            radiative: RadiativeModel::TauberSuttonEarthSmooth,
            nose_radius: 0.6,
        };
        let table = SurrogateBuilder::new((40_000.0, 80_000.0), (4_000.0, 13_000.0))
            .initial_grid(17, 17)
            .tolerance(0.02)
            .build(&mut response)
            .unwrap();
        let stats = table.stats();
        assert!(stats.max_sampled_rel_err <= 0.5 * table.tolerance());
        // Spot-check off-grid points against the exact path.
        for (h, v) in [
            (55_432.0, 6_713.0),
            (43_219.0, 11_987.0),
            (71_003.0, 9_004.0),
            (62_500.0, 4_512.0),
        ] {
            let e = response.evaluate(h, v).unwrap();
            let s = table.query(h, v);
            let err = rel_err(&s, &e);
            assert!(err <= table.tolerance(), "({h}, {v}): rel err {err:.3e}");
        }
        // The shuttle-class reference point lands where it should.
        let q = table.query(65_500.0, 6_700.0);
        assert!(
            q.q_conv > 2e5 && q.q_conv < 2e6,
            "q_conv = {:.3e}",
            q.q_conv
        );
        assert!(q.t_stag > 4_000.0 && q.t_stag < 9_000.0);
    }

    #[test]
    fn heating_history_through_surrogate_matches_exact_pulse() {
        let mut response = ExactResponse {
            atmosphere: &Us76,
            gas: air9_table(),
            model: HeatingModel::earth_sutton_graves(),
            radiative: RadiativeModel::None,
            nose_radius: 0.6,
        };
        let table = SurrogateBuilder::new((5_000.0, 122_000.0), (500.0, 8_000.0))
            .initial_grid(25, 25)
            .tolerance(0.02)
            .build(&mut response);
        // Low-velocity corner of this wide corridor is subsonic — the exact
        // path refuses it, which is fine for this test's narrower flight.
        let table = match table {
            Ok(t) => t,
            Err(_) => SurrogateBuilder::new((20_000.0, 122_000.0), (2_000.0, 8_000.0))
                .initial_grid(25, 25)
                .tolerance(0.02)
                .build(&mut response)
                .unwrap(),
        };
        let entry = EntryConditions {
            altitude: 120_000.0,
            velocity: 7_800.0,
            gamma: -1.2f64.to_radians(),
        };
        let stop = StopConditions {
            min_velocity: 2_500.0,
            max_time: 1_500.0,
            ..StopConditions::default()
        };
        let pulse = fly_heating_history(&Us76, &Vehicle::shuttle_like(), entry, stop, &table);
        assert!(pulse.len() > 50);
        // Same trajectory through the exact correlation for comparison.
        let traj =
            aerothermo_atmosphere::trajectory::fly(&Us76, &Vehicle::shuttle_like(), entry, stop);
        let exact = crate::heating::heat_pulse(
            &traj,
            0.6,
            aerothermo_solvers::blayer::SUTTON_GRAVES_EARTH,
            |_| 0.0,
        );
        assert_eq!(pulse.len(), exact.len());
        let (load_s, _) = crate::heating::heat_load(&pulse);
        let (load_e, _) = crate::heating::heat_load(&exact);
        assert!(
            (load_s / load_e - 1.0).abs() < 0.03,
            "surrogate load {load_s:.3e} vs exact {load_e:.3e}"
        );
    }
}
