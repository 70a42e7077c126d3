//! Viscous shock layer (VSL) with equilibrium chemistry and radiative loss
//! — the solver class behind the paper's Figs. 2–3 (Titan probe heating
//! environment and species profiles) and fig06's windward-heating
//! cross-check.
//!
//! The full shock layer between body and bow shock is solved on the
//! stagnation line of an axisymmetric blunt body. With `u = x·U(y)` the
//! exact stagnation-line reduction of the (thin) shock-layer equations is
//!
//! ```text
//! continuity :  (ρv)' = −2ρU
//! momentum   :  ρvU' + ρU² = ρ_δ a²  + (μU')'          a = du_e/dx
//! energy     :  ρv h'      = (Γ h')' + S_rad            Γ = μ/Pr  (Le = 1)
//! ```
//!
//! with no-slip/isothermal wall BCs and Rankine-Hugoniot edge conditions at
//! `y = δ`; the shock standoff `δ` is the eigenvalue fixed by the mass
//! balance `2∫ρU dy = ρ∞u∞`. The gas is in local thermochemical
//! equilibrium: all properties come from the element-potential solver at
//! the (constant) stagnation pressure, tabulated once per solve. The total
//! enthalpy form with Le = 1 carries the reaction (diffusion) energy flux
//! exactly as the era's VSL codes did.
//!
//! The windward [`march`] solves the same column at each body station in
//! local similarity: `u(y)` replaces `U(y)`, and only these terms change
//! (stagnation line | march station):
//!
//! ```text
//! continuity     (ρv)' = −2c·ρU       c = 1 | ½Λ,  Λ = d ln(u_e·r_b)/ds
//! mass balance   2w·∫ρU dy = target   w = 1 | ½,   target = ρ∞u∞ | ½ρ∞u∞·r_b
//! density        ρ_table(T)·scale     scale = 1 | p_e/p_stag
//! edge U, h      a, h_edge | u_e, h_e
//! ρU² and ρ_δa²  present | absent     (dp/ds enters through u_e)
//! ```
//!
//! Both share one preamble (freestream state, equilibrium shock, property
//! table, grid), one column solve (under-relaxed Picard iterations over the
//! momentum and energy tridiagonals, secant on δ) and one optically thin
//! radiative wall flux ½∫E dy.

use crate::runctl::RetryOutcome;
use aerothermo_gas::equilibrium::EquilibriumGas;
use aerothermo_gas::error::GasError;
use aerothermo_gas::transport::{mixture_conductivity, mixture_viscosity};
use aerothermo_numerics::interp::MonotoneCubic;
use aerothermo_numerics::telemetry::{RunTelemetry, SolverError};
use aerothermo_numerics::trace;
use aerothermo_numerics::tridiag::solve_tridiag;
use aerothermo_radiation::spectra::SpectralGrid;
use rayon::prelude::*;

/// VSL problem definition.
#[derive(Debug, Clone)]
pub struct VslProblem {
    /// Freestream velocity \[m/s\].
    pub u_inf: f64,
    /// Freestream density \[kg/m³\].
    pub rho_inf: f64,
    /// Freestream temperature \[K\].
    pub t_inf: f64,
    /// Nose radius \[m\].
    pub nose_radius: f64,
    /// Wall temperature \[K\].
    pub t_wall: f64,
    /// Grid points across the layer.
    pub n_points: usize,
    /// Include the radiative source/loss term (thin emission approximation).
    pub radiating: bool,
}

/// One station of the converged shock-layer profile.
#[derive(Debug, Clone)]
pub struct VslStation {
    /// Distance from the wall \[m\].
    pub y: f64,
    /// Temperature \[K\].
    pub temperature: f64,
    /// Density \[kg/m³\].
    pub density: f64,
    /// Total enthalpy \[J/kg\].
    pub enthalpy: f64,
    /// Tangential velocity-gradient function U \[1/s\].
    pub u_grad: f64,
    /// Normal mass flux ρv \[kg/(m²·s)\] (negative toward the wall).
    pub mass_flux: f64,
    /// Equilibrium species mole fractions (mixture order).
    pub mole_fractions: Vec<f64>,
    /// Equilibrium species number densities \[1/m³\].
    pub number_densities: Vec<f64>,
}

/// Converged VSL solution.
#[derive(Debug, Clone)]
pub struct VslSolution {
    /// Shock standoff distance \[m\].
    pub standoff: f64,
    /// Stagnation (edge) pressure \[Pa\].
    pub p_stag: f64,
    /// Post-shock (edge) temperature \[K\].
    pub t_edge: f64,
    /// Convective wall heat flux \[W/m²\].
    pub q_conv: f64,
    /// Radiative wall heat flux (thin-emission half-volume estimate)
    /// \[W/m²\]; 0 when `radiating` was off.
    pub q_rad_thin: f64,
    /// Stations from wall (first) to shock (last).
    pub stations: Vec<VslStation>,
    /// Species names (mixture order).
    pub species_names: Vec<String>,
    /// Run observability: the standoff mass-balance residual history and
    /// any audit findings.
    pub telemetry: RunTelemetry,
}

impl VslSolution {
    /// Mole-fraction profile of species `name` as `(y/δ, x)` pairs.
    #[must_use]
    pub fn species_profile(&self, name: &str) -> Vec<(f64, f64)> {
        let idx = self.species_names.iter().position(|n| n == name);
        let Some(idx) = idx else { return Vec::new() };
        self.stations
            .iter()
            .map(|s| (s.y / self.standoff, s.mole_fractions[idx]))
            .collect()
    }
}

/// Property tables at fixed pressure, parameterized by temperature.
struct PropertyTable {
    h_of_t: MonotoneCubic,
    t_of_h: MonotoneCubic,
    rho_of_t: MonotoneCubic,
    mu_of_t: MonotoneCubic,
    k_of_t: MonotoneCubic,
    cp_of_t: MonotoneCubic,
    /// Optically-thin volumetric radiative loss 4π·∫j_λdλ \[W/m³\] from the
    /// full spectral model (atomic lines + molecular bands) on the
    /// equilibrium composition at (T, p); built for radiating problems
    /// only, the one kind that reads it.
    sink_of_t: Option<MonotoneCubic>,
    t_min: f64,
    t_max: f64,
}

impl PropertyTable {
    fn build(
        gas: &EquilibriumGas,
        p: f64,
        t_min: f64,
        t_max: f64,
        radiating: bool,
    ) -> Result<Self, SolverError> {
        let n = 96;
        let ts: Vec<f64> = (0..n)
            .map(|i| t_min * (t_max / t_min).powf(i as f64 / (n - 1) as f64))
            .collect();
        let names: Vec<String> = gas
            .mixture()
            .species()
            .iter()
            .map(|s| s.name.to_string())
            .collect();
        let spectral = radiating.then(|| {
            let lam = aerothermo_radiation::wavelength_grid(0.2e-6, 1.1e-6, 240);
            SpectralGrid::new(&lam, 2e-9)
        });
        let rows: Result<Vec<(f64, f64, f64, f64, Option<f64>)>, GasError> = ts
            .par_iter()
            .map(|&t| {
                let st = gas.at_tp(t, p)?;
                let mu = mixture_viscosity(gas.mixture(), t, &st.mass_fractions);
                let k = mixture_conductivity(gas.mixture(), t, &st.mass_fractions);
                let sink = spectral.as_ref().map(|grid| {
                    let sample = aerothermo_radiation::GasSample::equilibrium(
                        t,
                        names
                            .iter()
                            .cloned()
                            .zip(st.number_densities.iter().copied())
                            .collect(),
                    );
                    4.0 * std::f64::consts::PI * grid.spectrum(&sample).total_emission()
                });
                Ok((st.enthalpy, st.density, mu, k, sink))
            })
            .collect();
        let rows = rows.map_err(SolverError::from)?;
        let h: Vec<f64> = rows.iter().map(|r| r.0).collect();
        let rho: Vec<f64> = rows.iter().map(|r| r.1).collect();
        let mu: Vec<f64> = rows.iter().map(|r| r.2).collect();
        let k: Vec<f64> = rows.iter().map(|r| r.3).collect();
        let sink: Option<Vec<f64>> = rows.iter().map(|r| r.4).collect();
        // Equilibrium cp = dh/dT (finite differences on the table).
        let mut cp = vec![0.0; n];
        for i in 0..n {
            let (i0, i1) = if i == 0 {
                (0, 1)
            } else if i == n - 1 {
                (n - 2, n - 1)
            } else {
                (i - 1, i + 1)
            };
            cp[i] = (h[i1] - h[i0]) / (ts[i1] - ts[i0]);
        }
        Ok(Self {
            h_of_t: MonotoneCubic::new(ts.clone(), h.clone()),
            t_of_h: MonotoneCubic::new(h, ts.clone()),
            rho_of_t: MonotoneCubic::new(ts.clone(), rho),
            mu_of_t: MonotoneCubic::new(ts.clone(), mu),
            k_of_t: MonotoneCubic::new(ts.clone(), k),
            cp_of_t: MonotoneCubic::new(ts.clone(), cp),
            sink_of_t: sink.map(|sink| MonotoneCubic::new(ts, sink)),
            t_min,
            t_max,
        })
    }

    fn t(&self, h: f64) -> f64 {
        self.t_of_h.eval(h).clamp(self.t_min, self.t_max)
    }
}

/// The shock-layer preamble shared by the stagnation line and the march:
/// freestream pressure, equilibrium shock jump, the stagnation-pressure
/// property table and the wall-to-shock grid.
struct ShockLayer {
    p_inf: f64,
    /// Freestream total enthalpy \[J/kg\].
    h0: f64,
    p_stag: f64,
    t_edge: f64,
    rho_edge: f64,
    h_edge: f64,
    t_wall: f64,
    h_wall: f64,
    /// Enthalpy bounds of the table, the clamp on each energy update.
    h_lo: f64,
    h_hi: f64,
    /// Freestream mass flux ρ∞u∞ \[kg/(m²·s)\].
    mdot: f64,
    table: PropertyTable,
    /// Two-sided clustered coordinate y/δ: boundary layer at the wall,
    /// shock at the edge.
    xi: Vec<f64>,
}

impl ShockLayer {
    fn new(gas: &EquilibriumGas, problem: &VslProblem) -> Result<Self, SolverError> {
        // Cold-gas molar mass. The composition is frozen molecular well below
        // ~1000 K, so evaluate the equilibrium at a comfortable 600 K — same
        // molar mass, far better conditioning than the 100–200 K freestream
        // for C/H/N mixtures.
        let fs = gas
            .at_trho(problem.t_inf.max(600.0), problem.rho_inf)
            .map_err(|e| format!("freestream state: {e}"))?;
        let p_inf = problem.rho_inf * aerothermo_numerics::constants::R_UNIVERSAL * problem.t_inf
            / fs.molar_mass;
        // Post-shock equilibrium edge state.
        let jump = crate::shock::normal_shock(gas, problem.rho_inf, p_inf, problem.u_inf)
            .map_err(|e| format!("equilibrium shock: {e}"))?;
        // Stagnation pressure: post-shock static + dynamic recompression.
        let p_stag = jump.p + 0.5 * jump.rho * jump.u * jump.u;
        let t_edge = jump.t;
        // The shock-layer temperatures live in [t_wall, t_edge]; the table
        // floor only needs modest margin below the wall. Very low
        // temperatures (< 250 K) strain the equilibrium solver in C/H/N
        // mixtures without being used.
        let t_lo = (0.6 * problem.t_wall).max(250.0);
        let t_hi = (t_edge * 1.35).min(45_000.0);
        let table = trace::spanned("vsl_property_table", || {
            PropertyTable::build(gas, p_stag, t_lo, t_hi, problem.radiating)
        })?;
        Ok(Self {
            p_inf,
            h0: fs.enthalpy + 0.5 * problem.u_inf * problem.u_inf,
            p_stag,
            t_edge,
            rho_edge: table.rho_of_t.eval(t_edge),
            h_edge: table.h_of_t.eval(t_edge),
            t_wall: problem.t_wall,
            h_wall: table.h_of_t.eval(problem.t_wall),
            h_lo: table.h_of_t.eval(t_lo),
            h_hi: table.h_of_t.eval(t_hi),
            mdot: problem.rho_inf * problem.u_inf,
            table,
            xi: aerothermo_grid::stretch::tanh_two_sided(problem.n_points.max(12), 2.2),
        })
    }

    /// Temperature and density (relative to the stagnation-pressure table
    /// by `density_scale`) at each enthalpy of `h`.
    fn state(&self, h: &[f64], density_scale: f64, t: &mut [f64], rho: &mut [f64]) {
        for ((ti, ri), &hv) in t.iter_mut().zip(rho.iter_mut()).zip(h) {
            *ti = self.table.t(hv);
            *ri = self.table.rho_of_t.eval(*ti) * density_scale;
        }
    }

    /// Solve one shock-layer column, the two-point problem of [`ColumnTerms`]:
    /// under-relaxed Picard iterations over the momentum and energy
    /// tridiagonals at fixed δ, with a secant on δ for the mass balance.
    fn solve_column(&self, terms: &ColumnTerms, relax_scale: f64) -> Result<Column, SolverError> {
        let (table, xi) = (&self.table, &self.xi);
        let n = xi.len();
        let mut delta = terms.delta0;
        let mut u: Vec<f64> = xi.iter().map(|&z| terms.u_edge * z).collect();
        let mut h: Vec<f64> = xi
            .iter()
            .map(|&z| self.h_wall + (terms.h_edge - self.h_wall) * z)
            .collect();
        // Work buffers, reused by every iteration.
        let work = || vec![0.0; n];
        let (mut y, mut t, mut rho, mut mu, mut gam) = (work(), work(), work(), work(), work());
        let (mut rv, mut lo, mut di, mut up) = (work(), work(), work(), work());
        let (mut u_new, mut h_new) = (work(), work());
        // Dirichlet end rows: no-slip isothermal wall, Rankine–Hugoniot edge.
        (di[0], di[n - 1]) = (1.0, 1.0);
        // Nominal 0.7, rescaled by the retry policy's or the run
        // controller's backoff (exactly 0.7 at scale 1.0).
        let relax = 0.7 * relax_scale;
        let mut delta_prev = delta;
        let mut mass_prev = f64::NAN;
        let mut mass_residuals = Vec::new();
        let (mut converged, mut q_conv) = (false, 0.0);

        for _outer in 0..40 {
            for (yi, &z) in y.iter_mut().zip(xi) {
                *yi = z * delta;
            }
            for _inner in 0..terms.inner_iters {
                self.state(&h, terms.density_scale, &mut t, &mut rho);
                for ((m, g), &tv) in mu.iter_mut().zip(gam.iter_mut()).zip(&t) {
                    *m = table.mu_of_t.eval(tv);
                    *g = table.k_of_t.eval(tv) / table.cp_of_t.eval(tv).max(1.0);
                }
                continuity(terms.continuity, &rho, &u, &y, &mut rv);

                // Momentum for U (u on the march): (μU')' − ρvU' = source.
                assemble(&mu, &rv, &y, &mut lo, &mut di, &mut up);
                u_new.fill(0.0);
                u_new[n - 1] = terms.u_edge;
                if let Some(source) = terms.pressure_source {
                    // ρU² sink (Picard) and pressure source.
                    for i in 1..n - 1 {
                        di[i] -= rho[i] * u[i].abs();
                        u_new[i] = source;
                    }
                }
                solve_tridiag(&lo, &di, &up, &mut u_new)
                    .map_err(|e| format!("VSL momentum solve: {e}"))?;

                // Total enthalpy (Le = 1): (Γh')' − ρvh' = optically-thin
                // radiative loss from the spectral model (the strongly
                // self-absorbed band heads make this an upper bound; the
                // refined tangent-slab transport runs in post-processing).
                assemble(&gam, &rv, &y, &mut lo, &mut di, &mut up);
                h_new.fill(0.0);
                (h_new[0], h_new[n - 1]) = (self.h_wall, terms.h_edge);
                if let Some(sink) = &table.sink_of_t {
                    for i in 1..n - 1 {
                        h_new[i] += sink.eval(t[i]);
                    }
                }
                solve_tridiag(&lo, &di, &up, &mut h_new)
                    .map_err(|e| format!("VSL energy solve: {e}"))?;

                // Under-relaxed update; track convergence.
                let mut du = 0.0_f64;
                for i in 0..n {
                    let u_next = (1.0 - relax) * u[i] + relax * u_new[i];
                    let h_next =
                        (1.0 - relax) * h[i] + relax * h_new[i].clamp(self.h_lo, self.h_hi);
                    du = du.max((u_next - u[i]).abs() / terms.u_norm);
                    du = du.max((h_next - h[i]).abs() / terms.h_edge.abs().max(1.0));
                    u[i] = u_next;
                    h[i] = h_next;
                }
                if du < 1e-8 {
                    break;
                }
            }

            // Mass-balance eigencondition on δ.
            self.state(&h, terms.density_scale, &mut t, &mut rho);
            let mut mass = 0.0;
            for i in 1..n {
                mass +=
                    terms.mass_weight * (rho[i] * u[i] + rho[i - 1] * u[i - 1]) * (y[i] - y[i - 1]);
            }
            let resid = mass - terms.mass_target;
            mass_residuals.push((resid / terms.mass_target).abs());
            if resid.abs() < terms.mass_tol * terms.mass_target {
                // Wall heat flux from the enthalpy gradient: q = Γ dh/dy.
                let g0 = table.k_of_t.eval(self.t_wall) / table.cp_of_t.eval(self.t_wall);
                q_conv = g0 * (h[1] - h[0]) / (y[1] - y[0]);
                converged = true;
                break;
            }
            // Secant / proportional update of δ (mass grows ~linearly with δ).
            let new_delta = if mass_prev.is_finite() && (mass - mass_prev).abs() > 1e-12 {
                let d = delta - resid * (delta - delta_prev) / (mass - mass_prev);
                if d > 0.2 * delta && d < 5.0 * delta {
                    d
                } else {
                    delta * (terms.mass_target / mass).clamp(0.5, 2.0)
                }
            } else {
                delta * (terms.mass_target / mass).clamp(0.5, 2.0)
            };
            delta_prev = delta;
            mass_prev = mass;
            delta = new_delta;
        }
        Ok(Column {
            converged,
            delta,
            q_conv,
            u,
            h,
            t,
            rho,
            y,
            mass_residuals,
        })
    }

    /// Thin-emission radiative wall flux ½∫E dy: half of the (isotropic)
    /// volume emission reaches the wall, the optically thin limit of the
    /// tangent slab. 0 for a non-radiating table.
    fn thin_wall_flux(&self, t: &[f64], y: &[f64]) -> f64 {
        let Some(sink) = &self.table.sink_of_t else {
            return 0.0;
        };
        let mut q = 0.0;
        for i in 1..t.len() {
            q += 0.25 * (sink.eval(t[i]) + sink.eval(t[i - 1])) * (y[i] - y[i - 1]);
        }
        q
    }
}

/// The terms that tell one shock-layer column from another (stagnation
/// line | march station). Continuity `ρv(y) = −2c·∫ρU dy` and the mass
/// balance `2w·∫ρU dy = target` fix the layer thickness δ.
struct ColumnTerms {
    /// Continuity coefficient c: 1 | ½Λ.
    continuity: f64,
    /// Mass weight w: 1 | ½.
    mass_weight: f64,
    /// Mass-balance target: ρ∞u∞ | ½ρ∞u∞·r_b.
    mass_target: f64,
    /// Relative mass-balance tolerance: 1e-5 | 1e-4.
    mass_tol: f64,
    /// Density relative to the stagnation-pressure table: 1 | p_e/p_stag.
    density_scale: f64,
    /// Edge values of U and h: (a, h_edge) | (u_e, h_e).
    u_edge: f64,
    h_edge: f64,
    /// Scale of the U change in the convergence norm: a | max(u_e, 1).
    u_norm: f64,
    /// Stagnation line only: the pressure source −ρ_e·a², which comes with
    /// the Picard-linearized ρU² sink.
    pressure_source: Option<f64>,
    /// Picard iterations per δ: 60 | 50.
    inner_iters: usize,
    /// Initial layer thickness \[m\].
    delta0: f64,
}

/// One solved shock-layer column: the last iterate, converged or not.
struct Column {
    converged: bool,
    delta: f64,
    /// Convective wall heat flux \[W/m²\]; 0 unless converged.
    q_conv: f64,
    u: Vec<f64>,
    h: Vec<f64>,
    t: Vec<f64>,
    rho: Vec<f64>,
    y: Vec<f64>,
    /// Relative mass-balance residual of each δ pass.
    mass_residuals: Vec<f64>,
}

/// Continuity `ρv(y) = −2c·∫ρU dy` from `ρv(0) = 0`, trapezoid rule.
fn continuity(c: f64, rho: &[f64], u: &[f64], y: &[f64], rv: &mut [f64]) {
    for i in 1..y.len() {
        rv[i] = rv[i - 1] - c * (rho[i] * u[i] + rho[i - 1] * u[i - 1]) * (y[i] - y[i - 1]);
    }
}

/// Interior rows of the operator (wφ')' − ρvφ' on the stretched grid `y`,
/// with the convection upwinded on the sign of ρv (v < 0 takes its
/// information from +y).
fn assemble(w: &[f64], rv: &[f64], y: &[f64], lo: &mut [f64], di: &mut [f64], up: &mut [f64]) {
    for i in 1..y.len() - 1 {
        let dym = y[i] - y[i - 1];
        let dyp = y[i + 1] - y[i];
        let wm = 0.5 * (w[i] + w[i - 1]) / dym;
        let wp = 0.5 * (w[i] + w[i + 1]) / dyp;
        let vol = 0.5 * (dym + dyp);
        lo[i] = wm / vol;
        up[i] = wp / vol;
        di[i] = -(wm + wp) / vol;
        let conv = rv[i];
        if conv >= 0.0 {
            di[i] -= conv / dym;
            lo[i] += conv / dym;
        } else {
            di[i] += conv / dyp;
            up[i] -= conv / dyp;
        }
    }
}

/// Solve the stagnation-line VSL for an equilibrium gas.
///
/// The returned solution carries a [`RunTelemetry`] sink with the standoff
/// mass-balance residual history. The property table and the relaxation
/// are timed as the `vsl_property_table` and `vsl_relax` trace spans.
///
/// # Errors
/// Propagates shock-jump, property-table, and convergence failures as
/// typed [`SolverError`]s ([`SolverError::IterationLimit`] when the
/// standoff iteration exhausts its budget).
pub fn solve(gas: &EquilibriumGas, problem: &VslProblem) -> Result<VslSolution, SolverError> {
    let layer = ShockLayer::new(gas, problem)?;
    solve_scaled(gas, problem, &layer, 1.0)
}

/// [`solve`] under the shared retry/backoff policy
/// ([`crate::runctl::retry_with_backoff`]): on a recoverable failure (the
/// standoff iteration exhausting its budget, non-finite contamination) the
/// under-relaxation factor is scaled down and the column solve repeated
/// on the same preamble. The returned [`crate::runctl::RetryOutcome`]
/// carries the solution plus the retries consumed and the scale that
/// succeeded.
///
/// # Errors
/// The last attempt's error, with the retries spent, once the budget is
/// exhausted, or immediately for non-recoverable failures and for preamble
/// failures (freestream state, equilibrium shock, property table), whose
/// inputs do not depend on the scale.
pub fn solve_with_retry(
    gas: &EquilibriumGas,
    problem: &VslProblem,
    max_retries: usize,
) -> Result<RetryOutcome<VslSolution>, RetryOutcome<SolverError>> {
    let layer = ShockLayer::new(gas, problem).map_err(|value| RetryOutcome {
        value,
        retries: 0,
        final_scale: 1.0,
    })?;
    crate::runctl::retry_with_backoff(max_retries, |scale| {
        solve_scaled(gas, problem, &layer, scale)
    })
}

/// Stagnation column solve and station assembly on a built preamble at a
/// given under-relaxation scale (1.0 = the nominal 0.7 factor; backoff
/// multiplies it down).
fn solve_scaled(
    gas: &EquilibriumGas,
    problem: &VslProblem,
    layer: &ShockLayer,
    relax_scale: f64,
) -> Result<VslSolution, SolverError> {
    let mut telemetry = RunTelemetry::new();
    let (p_stag, rho_edge, mdot) = (layer.p_stag, layer.rho_edge, layer.mdot);

    // Newtonian edge velocity gradient.
    let a_grad = (2.0 * (p_stag - layer.p_inf).max(0.0) / rho_edge).sqrt() / problem.nose_radius;
    let relax_span = trace::span("vsl_relax");
    let column = layer.solve_column(
        &ColumnTerms {
            continuity: 1.0,
            mass_weight: 1.0,
            mass_target: mdot,
            mass_tol: 1e-5,
            density_scale: 1.0,
            u_edge: a_grad,
            h_edge: layer.h_edge,
            u_norm: a_grad,
            pressure_source: Some(-rho_edge * a_grad * a_grad),
            inner_iters: 60,
            // From 2∫ρU ≈ ρ_e·a·δ.
            delta0: 0.6 * mdot / (rho_edge * a_grad),
        },
        relax_scale,
    )?;
    drop(relax_span);
    let Column {
        y, t, rho, u, h, ..
    } = &column;
    let mass_residuals = &column.mass_residuals;
    telemetry.record_history("standoff_mass_residual", mass_residuals.clone());
    let mass_resid = mass_residuals.last().copied().unwrap_or(f64::NAN);
    if !column.converged {
        return Err(SolverError::IterationLimit {
            context: "VSL standoff iteration".to_string(),
            iters: 40,
            residual: mass_resid,
        });
    }

    // Assemble stations with equilibrium compositions (parallel).
    let n = y.len();
    let mut rv = vec![0.0; n];
    continuity(1.0, rho, u, y, &mut rv);
    let stations: Result<Vec<VslStation>, GasError> = (0..n)
        .into_par_iter()
        .map(|i| {
            let st = gas.at_tp(t[i], p_stag)?;
            Ok(VslStation {
                y: y[i],
                temperature: t[i],
                density: rho[i],
                enthalpy: h[i],
                u_grad: u[i],
                mass_flux: rv[i],
                mole_fractions: st.mole_fractions,
                number_densities: st.number_densities,
            })
        })
        .collect();
    let stations = stations?;
    let q_rad_thin = layer.thin_wall_flux(t, y);

    // Physics audits over the converged layer: mass-balance closure,
    // radiative-sink nonnegativity, and state positivity.
    if crate::audit::cadence() != 0 {
        let mut min_t = f64::INFINITY;
        let mut min_t_at = 0usize;
        let mut min_sink = f64::INFINITY;
        let mut max_sink = 0.0_f64;
        for (i, &ti) in t.iter().enumerate() {
            if ti < min_t {
                min_t = ti;
                min_t_at = i;
            }
            if let Some(sink) = &layer.table.sink_of_t {
                let s = sink.eval(ti);
                min_sink = min_sink.min(s);
                max_sink = max_sink.max(s);
            }
        }
        let mut findings = vec![
            crate::audit::graded(
                "standoff_mass_balance",
                mass_resid,
                1e-4,
                1e-2,
                mass_residuals.len(),
                format!("relative 2∫ρU dy defect at δ = {:.4e} m", column.delta),
            ),
            crate::audit::positivity_finding("temperature_positivity", min_t, (min_t_at, 0), n),
        ];
        if problem.radiating {
            findings.push(crate::audit::graded(
                "radiative_flux_nonnegativity",
                (-min_sink).max(0.0) / max_sink.max(1e-300),
                1e-12,
                1e-3,
                n,
                format!("min volumetric sink {min_sink:.3e} W/m³"),
            ));
        }
        crate::audit::apply(&mut telemetry, findings)?;
    }

    Ok(VslSolution {
        standoff: column.delta,
        p_stag,
        t_edge: layer.t_edge,
        q_conv: column.q_conv,
        q_rad_thin,
        stations,
        species_names: gas
            .mixture()
            .species()
            .iter()
            .map(|s| s.name.to_string())
            .collect(),
        telemetry,
    })
}

/// One station of a downstream VSL march.
#[derive(Debug, Clone)]
pub struct VslMarchStation {
    /// Arc length from the stagnation point \[m\].
    pub s: f64,
    /// Local body radius \[m\].
    pub r_body: f64,
    /// Edge pressure \[Pa\] (modified Newtonian).
    pub p_edge: f64,
    /// Edge tangential velocity \[m/s\].
    pub u_edge: f64,
    /// Shock-layer thickness \[m\].
    pub delta: f64,
    /// Convective wall heat flux \[W/m²\].
    pub q_conv: f64,
    /// Optically-thin radiative wall flux \[W/m²\].
    pub q_rad_thin: f64,
}

/// Result of a windward-forebody VSL march: the converged stations plus the
/// run telemetry (the station heating history and any audit findings).
#[derive(Debug, Clone, Default)]
pub struct VslMarchSolution {
    /// Converged stations ordered by arc length (non-converged ones skipped).
    pub stations: Vec<VslMarchStation>,
    /// The `station_q_conv` history and the audit findings of the march.
    pub telemetry: RunTelemetry,
}

/// Station-stepped form of the windward-forebody VSL march (see [`march`]).
///
/// The station-independent preamble (freestream state, equilibrium shock
/// jump, property table, stagnation quantities) is computed once in
/// [`VslMarcher::new`]; each call to [`VslMarcher::advance_station`] then
/// solves one station, so the run controller can checkpoint, roll back, and
/// rescale the under-relaxation between stations.
pub struct VslMarcher<'a> {
    problem: VslProblem,
    body: &'a dyn aerothermo_grid::bodies::Body,
    n_stations: usize,
    gas_desc: String,
    // Station-independent preamble.
    layer: ShockLayer,
    gamma_e: f64,
    smax: f64,
    // Run-control state.
    next_station: usize,
    relax_scale: f64,
    stations: Vec<VslMarchStation>,
    telemetry: RunTelemetry,
}

impl<'a> VslMarcher<'a> {
    /// Compute the station-independent preamble and position the march at
    /// station 1.
    ///
    /// # Errors
    /// Propagates freestream-state, equilibrium-shock, and property-table
    /// failures.
    pub fn new(
        gas: &EquilibriumGas,
        problem: &VslProblem,
        body: &'a dyn aerothermo_grid::bodies::Body,
        n_stations: usize,
    ) -> Result<Self, SolverError> {
        let layer = ShockLayer::new(gas, problem)?;
        // Effective expansion exponent at the stagnation state.
        let gamma_e = {
            let rho_s = layer.rho_edge;
            let e_s = layer.h_edge - layer.p_stag / rho_s;
            1.0 + layer.p_stag / (rho_s * e_s.max(1e3))
        };
        Ok(Self {
            problem: problem.clone(),
            body,
            n_stations,
            gas_desc: format!("equilibrium({} species)", gas.mixture().species().len()),
            layer,
            gamma_e,
            smax: body.arc_length(),
            next_station: 1,
            relax_scale: 1.0,
            stations: Vec::new(),
            telemetry: RunTelemetry::new(),
        })
    }

    /// Stations converged so far.
    #[must_use]
    pub fn stations(&self) -> &[VslMarchStation] {
        &self.stations
    }

    /// Modified-Newtonian edge pressure and isentropic effective-γ edge
    /// velocity at arc length `s`.
    fn edge(&self, s: f64) -> (f64, f64) {
        let (p_inf, p_stag, gamma_e) = (self.layer.p_inf, self.layer.p_stag, self.gamma_e);
        let p_e = p_inf + (p_stag - p_inf) * self.body.body_angle(s).sin().powi(2);
        let u_e =
            (2.0 * self.layer.h0 * (1.0 - (p_e / p_stag).powf((gamma_e - 1.0) / gamma_e)).max(0.0))
                .sqrt();
        (p_e, u_e)
    }

    /// Solve one station's shock-layer column. `Ok(None)` when the station
    /// is geometrically degenerate or fails to converge (the march skips
    /// it).
    fn solve_station(&self, k: usize) -> Result<Option<VslMarchStation>, SolverError> {
        let _sp = trace::span("vsl_station");
        let (layer, smax) = (&self.layer, self.smax);
        let s = smax * k as f64 / self.n_stations as f64;
        let (_, r_b) = self.body.point(s);
        if r_b < 1e-6 {
            return Ok(None);
        }
        let (p_e, u_e) = self.edge(s);
        if u_e < 1.0 {
            return Ok(None);
        }
        let h_e = (layer.h0 - 0.5 * u_e * u_e).max(layer.h_wall * 1.05);
        let p_scale = p_e / layer.p_stag;

        // Axisymmetric divergence rate Λ = d ln(u_e·r_b)/ds by differences.
        let lambda = {
            let s2 = (s + 1e-3 * smax).min(smax);
            let (_, rb2) = self.body.point(s2);
            let (_, ue2) = self.edge(s2);
            ((ue2 * rb2).max(1e-30).ln() - (u_e * r_b).max(1e-30).ln()) / (s2 - s).max(1e-12)
        }
        .max(1e-6);

        // Mass balance target: ∫ρu dy = ρ∞·u∞·r_b/2.
        let mass_target = 0.5 * layer.mdot * r_b;
        let rho_e = layer.table.rho_of_t.eval(layer.table.t(h_e)) * p_scale;
        // Tangential momentum in local similarity: dp/ds is absorbed in the
        // u_e edge condition, so the column carries no pressure source.
        let column = layer.solve_column(
            &ColumnTerms {
                continuity: 0.5 * lambda,
                mass_weight: 0.5,
                mass_target,
                mass_tol: 1e-4,
                density_scale: p_scale,
                u_edge: u_e,
                h_edge: h_e,
                u_norm: u_e.max(1.0),
                pressure_source: None,
                inner_iters: 50,
                delta0: (mass_target / (0.5 * rho_e * u_e)).max(1e-6),
            },
            self.relax_scale,
        )?;
        Ok(column.converged.then(|| VslMarchStation {
            s,
            r_body: r_b,
            p_edge: p_e,
            u_edge: u_e,
            delta: column.delta,
            q_conv: column.q_conv,
            q_rad_thin: layer.thin_wall_flux(&column.t, &column.y),
        }))
    }

    /// Solve the next station and record it if it converged; skipped
    /// stations advance the cursor without adding a record. Returns whether
    /// the station converged.
    ///
    /// # Errors
    /// Propagates tridiagonal-solve failures at the station.
    pub fn advance_station(&mut self) -> Result<bool, SolverError> {
        let k = self.next_station;
        let station = self.solve_station(k)?;
        self.next_station = k + 1;
        match station {
            Some(st) => {
                self.stations.push(st);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Close out the march: heating history and the physics audits over the
    /// converged stations.
    ///
    /// # Errors
    /// [`SolverError::Numerical`] when no station converged; hard audit
    /// failures from [`crate::audit::apply`].
    pub fn finish(mut self) -> Result<VslMarchSolution, SolverError> {
        let out = std::mem::take(&mut self.stations);
        if out.is_empty() {
            return Err(SolverError::Numerical(
                "VSL march: no station converged".to_string(),
            ));
        }
        self.telemetry.record_history(
            "station_q_conv",
            out.iter().map(|st| st.q_conv).collect::<Vec<_>>(),
        );

        // Physics audits over the converged stations: layer thickness and
        // wall fluxes must stay positive (radiative flux nonnegative)
        // everywhere.
        if crate::audit::cadence() != 0 {
            let mut min_delta = f64::INFINITY;
            let mut min_delta_at = 0usize;
            let mut min_q_conv = f64::INFINITY;
            let mut min_q_conv_at = 0usize;
            let mut min_q_rad = f64::INFINITY;
            let mut max_q_rad = 0.0_f64;
            for (k, st) in out.iter().enumerate() {
                if st.delta < min_delta {
                    min_delta = st.delta;
                    min_delta_at = k;
                }
                if st.q_conv < min_q_conv {
                    min_q_conv = st.q_conv;
                    min_q_conv_at = k;
                }
                min_q_rad = min_q_rad.min(st.q_rad_thin);
                max_q_rad = max_q_rad.max(st.q_rad_thin);
            }
            let mut findings = vec![
                crate::audit::positivity_finding(
                    "layer_thickness_positivity",
                    min_delta,
                    (min_delta_at, 0),
                    out.len(),
                ),
                crate::audit::positivity_finding(
                    "convective_flux_positivity",
                    min_q_conv,
                    (min_q_conv_at, 0),
                    out.len(),
                ),
            ];
            if self.problem.radiating {
                findings.push(crate::audit::graded(
                    "radiative_flux_nonnegativity",
                    (-min_q_rad).max(0.0) / max_q_rad.max(1e-300),
                    1e-12,
                    1e-3,
                    out.len(),
                    format!("min station radiative wall flux {min_q_rad:.3e} W/m²"),
                ));
            }
            crate::audit::apply(&mut self.telemetry, findings)?;
        }
        Ok(VslMarchSolution {
            stations: out,
            telemetry: self.telemetry,
        })
    }
}

impl crate::runctl::Steppable for VslMarcher<'_> {
    fn advance(&mut self) -> Result<f64, SolverError> {
        // Detect contaminated station records (fault injection / upstream
        // table pathologies) before doing more work on top of them.
        for (k, st) in self.stations.iter().enumerate() {
            if !(st.q_conv.is_finite() && st.delta.is_finite() && st.u_edge.is_finite()) {
                return Err(SolverError::NonFinite {
                    field: "q_conv",
                    i: k,
                    j: 0,
                });
            }
        }
        if self.next_station > self.n_stations {
            return Ok(0.0);
        }
        self.advance_station()?;
        // Stations converge or are skipped outright; the progress unit is
        // the station, so report a flat residual and let the non-finite
        // checks drive rollback.
        Ok(1.0)
    }

    fn progress(&self) -> usize {
        self.next_station - 1
    }

    fn save_state(&self) -> crate::runctl::Snapshot {
        let mut data = Vec::with_capacity(7 * self.stations.len());
        for st in &self.stations {
            data.extend_from_slice(&[
                st.s,
                st.r_body,
                st.p_edge,
                st.u_edge,
                st.delta,
                st.q_conv,
                st.q_rad_thin,
            ]);
        }
        crate::runctl::Snapshot {
            step: self.next_station,
            cfl_scale: self.relax_scale,
            data,
        }
    }

    fn restore_state(&mut self, snap: &crate::runctl::Snapshot) -> Result<(), SolverError> {
        if !snap.data.len().is_multiple_of(7) {
            return Err(SolverError::BadInput(format!(
                "vsl_march restore: state length {} is not a whole number of stations",
                snap.data.len()
            )));
        }
        self.stations = snap
            .data
            .chunks_exact(7)
            .map(|row| VslMarchStation {
                s: row[0],
                r_body: row[1],
                p_edge: row[2],
                u_edge: row[3],
                delta: row[4],
                q_conv: row[5],
                q_rad_thin: row[6],
            })
            .collect();
        self.next_station = snap.step;
        self.relax_scale = snap.cfl_scale;
        Ok(())
    }

    fn cfl_scale(&self) -> f64 {
        self.relax_scale
    }

    fn set_cfl_scale(&mut self, scale: f64) {
        self.relax_scale = scale;
    }

    fn meta(&self) -> crate::runctl::RunMeta {
        crate::runctl::RunMeta {
            tag: "vsl_march".to_string(),
            gas: self.gas_desc.clone(),
            shape: (self.n_stations, self.layer.xi.len(), 7),
        }
    }

    fn telemetry_mut(&mut self) -> &mut RunTelemetry {
        &mut self.telemetry
    }

    fn poison(&mut self) {
        match self.stations.last_mut() {
            Some(st) => st.q_conv = f64::NAN,
            None => self.stations.push(VslMarchStation {
                s: 0.0,
                r_body: 0.0,
                p_edge: 0.0,
                u_edge: 0.0,
                delta: 0.0,
                q_conv: f64::NAN,
                q_rad_thin: 0.0,
            }),
        }
    }
}

/// Windward-forebody VSL march: solves the shock layer at stations along an
/// axisymmetric body in the local-similarity approximation — the mode in
/// which the era's VSL codes produced whole-forebody heating environments.
///
/// At each station the shock-layer column of the stagnation solver is
/// re-solved with:
///
/// * modified-Newtonian edge pressure `p_e(s)` and the isentropic
///   effective-γ edge velocity `u_e(s)`,
/// * the streamwise-divergence continuity
///   `ρv(y) = −Λ(s)·∫ρu dy`, `Λ = d ln(u_e·r_b)/ds` (axisymmetric growth),
/// * the shock-swallowing mass balance `∫ρu dy = ρ∞·u∞·r_b/2` fixing the
///   local layer thickness δ(s).
///
/// Equilibrium properties come from the stagnation-pressure table with
/// ideal-gas pressure scaling of the density (composition shifts with
/// pressure are second order across the windward layer).
///
/// Delegates to [`VslMarcher`]; drive the marcher directly (or through
/// [`crate::runctl::run_controlled`]) for checkpoint/rollback control.
///
/// # Errors
/// Propagates shock and table failures; stations that fail to converge are
/// skipped with their index reported in the error when all fail.
pub fn march(
    gas: &EquilibriumGas,
    problem: &VslProblem,
    body: &dyn aerothermo_grid::bodies::Body,
    n_stations: usize,
) -> Result<VslMarchSolution, SolverError> {
    let mut marcher = VslMarcher::new(gas, problem, body, n_stations)?;
    while marcher.next_station <= n_stations {
        marcher.advance_station()?;
    }
    marcher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aerothermo_gas::equilibrium::{air9_equilibrium, titan_equilibrium};

    fn shuttle_problem() -> VslProblem {
        VslProblem {
            u_inf: 6700.0,
            rho_inf: 1.6e-4,
            t_inf: 230.0,
            nose_radius: 0.6,
            t_wall: 1200.0,
            n_points: 48,
            radiating: false,
        }
    }

    #[test]
    fn air_stagnation_layer_structure() {
        let gas = air9_equilibrium();
        let sol = solve(&gas, &shuttle_problem()).unwrap();
        // Real-gas standoff on a sphere: δ/Rn ≈ 0.03–0.10.
        let ratio = sol.standoff / 0.6;
        assert!(ratio > 0.02 && ratio < 0.15, "δ/Rn = {ratio}");
        // Edge temperature: equilibrium post-shock at 6.7 km/s ≈ 6000–7500 K.
        assert!(
            sol.t_edge > 5000.0 && sol.t_edge < 9000.0,
            "T_edge = {}",
            sol.t_edge
        );
        // Wall heat flux: 1e5–1e6 W/m² class.
        assert!(
            sol.q_conv > 2e4 && sol.q_conv < 2e6,
            "q_conv = {:.3e}",
            sol.q_conv
        );
        // Monotone temperature from wall to edge.
        let t_mid = sol.stations[sol.stations.len() / 2].temperature;
        assert!(t_mid > 1200.0 && t_mid < sol.t_edge * 1.05);
    }

    #[test]
    fn air_vsl_matches_fay_riddell_class() {
        let gas = air9_equilibrium();
        let problem = shuttle_problem();
        let sol = solve(&gas, &problem).unwrap();
        let q_sg = crate::blayer::sutton_graves(
            crate::blayer::SUTTON_GRAVES_EARTH,
            problem.rho_inf,
            problem.nose_radius,
            problem.u_inf,
        );
        let ratio = sol.q_conv / q_sg;
        assert!(ratio > 0.3 && ratio < 3.0, "q_VSL/q_SG = {ratio}");
    }

    #[test]
    fn species_recombine_at_cool_wall() {
        // Equilibrium chemistry: dissociated at the hot edge, recombined N2
        // near the 1200 K wall — the structure of the paper's Fig. 3.
        let gas = air9_equilibrium();
        let sol = solve(&gas, &shuttle_problem()).unwrap();
        let profile = sol.species_profile("N2");
        let x_wall = profile.first().unwrap().1;
        let x_edge = profile.last().unwrap().1;
        assert!(x_wall > 0.5, "N2 at wall: {x_wall}");
        // At 6.7 km/s the edge is hot enough to dissociate O2 fully and N2
        // partially.
        let o2 = sol.species_profile("O2");
        assert!(
            o2.last().unwrap().1 < 0.02,
            "O2 at edge: {}",
            o2.last().unwrap().1
        );
        assert!(x_edge < x_wall, "N2 must be depleted at the edge");
    }

    #[test]
    fn mass_balance_closed() {
        let gas = air9_equilibrium();
        let p = shuttle_problem();
        let sol = solve(&gas, &p).unwrap();
        // Recompute 2∫ρU dy from the stations.
        let mut mass = 0.0;
        for w in sol.stations.windows(2) {
            mass += (w[1].density * w[1].u_grad + w[0].density * w[0].u_grad) * (w[1].y - w[0].y);
        }
        let mdot = p.rho_inf * p.u_inf;
        assert!(
            (mass - mdot).abs() / mdot < 1e-3,
            "mass defect: {mass} vs {mdot}"
        );
    }

    #[test]
    fn titan_entry_layer_produces_cn() {
        // Titan probe at 12 km/s entry peak-heating-like condition: the
        // shock layer must contain CN (the paper's Fig. 3 radiator).
        let gas = titan_equilibrium(0.05);
        let problem = VslProblem {
            u_inf: 12_000.0,
            rho_inf: 4.0e-5,
            t_inf: 160.0,
            nose_radius: 0.6,
            t_wall: 1500.0,
            n_points: 40,
            radiating: true,
        };
        let sol = solve(&gas, &problem).unwrap();
        let cn = sol.species_profile("CN");
        let cn_max = cn.iter().map(|(_, x)| *x).fold(0.0, f64::max);
        assert!(cn_max > 1e-4, "CN peak mole fraction: {cn_max}");
        assert!(sol.q_rad_thin > 0.0);
        assert!(
            sol.standoff > 0.005 && sol.standoff < 0.2,
            "δ = {}",
            sol.standoff
        );
    }

    #[test]
    fn only_radiating_solves_compute_spectra() {
        // One thread, so every spectrum the solve computes counts in this
        // thread's scope.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let gas = air9_equilibrium();
        let spectrum_points = |problem: &VslProblem| {
            pool.install(|| {
                let scope = aerothermo_numerics::telemetry::TelemetryScope::begin();
                solve(&gas, problem).unwrap();
                scope
                    .thread_delta()
                    .get(aerothermo_numerics::telemetry::Counter::SpectrumPoints)
            })
        };
        assert_eq!(spectrum_points(&shuttle_problem()), 0);
        let radiating = VslProblem {
            radiating: true,
            ..shuttle_problem()
        };
        // One property table: 96 temperatures × 240 wavelengths.
        assert_eq!(spectrum_points(&radiating), 96 * 240);
    }

    #[test]
    fn march_heating_tracks_lees_distribution() {
        // The downstream march over a hemisphere must reproduce the Lees
        // laminar heating falloff within engineering accuracy.
        let gas = air9_equilibrium();
        let problem = shuttle_problem();
        let body = aerothermo_grid::bodies::Hemisphere::new(problem.nose_radius);
        let stations = march(&gas, &problem, &body, 10).unwrap().stations;
        assert!(
            stations.len() >= 7,
            "stations converged: {}",
            stations.len()
        );

        let stag = solve(&gas, &problem).unwrap();
        for st in &stations {
            let theta = st.s / problem.nose_radius;
            if theta > 1.3 {
                continue; // Newtonian pressure degrades near the shoulder
            }
            let lees = crate::blayer::lees_hemisphere_ratio(theta);
            let ratio = st.q_conv / stag.q_conv;
            assert!(
                (ratio - lees).abs() < 0.35,
                "θ = {theta:.2}: march q/q0 = {ratio:.3}, Lees = {lees:.3}"
            );
        }
        // Layer thickens away from the stagnation point.
        assert!(
            stations.last().unwrap().delta > stations[0].delta,
            "δ must grow downstream"
        );
        // Edge velocity grows toward the shoulder.
        assert!(stations.last().unwrap().u_edge > stations[0].u_edge);
    }

    #[test]
    fn march_thin_radiative_flux_starts_at_the_stagnation_value() {
        // fig03's radiating Titan probe: the first march station sits next
        // to the stagnation point, so its optically thin wall flux must
        // match the stagnation line's ½∫E dy.
        let gas = titan_equilibrium(0.05);
        let problem = VslProblem {
            u_inf: 10_100.0,
            rho_inf: 4.6e-4,
            t_inf: 165.0,
            nose_radius: 0.6,
            t_wall: 1800.0,
            n_points: 56,
            radiating: true,
        };
        let body = aerothermo_grid::bodies::Hemisphere::new(problem.nose_radius);
        let first = march(&gas, &problem, &body, 20).unwrap().stations[0].clone();
        let stag = solve(&gas, &problem).unwrap();
        let ratio = first.q_rad_thin / stag.q_rad_thin;
        assert!(
            (0.8..=1.25).contains(&ratio),
            "first-station q_rad_thin / stagnation q_rad_thin = {ratio:.3}"
        );
    }

    #[test]
    fn thicker_layer_for_larger_nose() {
        let gas = air9_equilibrium();
        let mut p = shuttle_problem();
        let sol1 = solve(&gas, &p).unwrap();
        p.nose_radius = 1.2;
        let sol2 = solve(&gas, &p).unwrap();
        let r = sol2.standoff / sol1.standoff;
        assert!((r - 2.0).abs() < 0.4, "standoff should scale with Rn: {r}");
    }
}
