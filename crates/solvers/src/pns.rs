//! Parabolized Navier-Stokes (PNS) space marching.
//!
//! When the inviscid streamwise flow is supersonic and there is no flow
//! reversal, the steady equations parabolize: the solution can be *marched*
//! station by station along the body at a fraction of the cost of a full NS
//! relaxation — the paper's slender-body workhorse (its Fig. 6 windward
//! heating came from such a code). Two classic ingredients:
//!
//! * **Vigneron splitting** — inside the subsonic wall layer only the
//!   fraction `ω = min(1, σγM_ξ²/(1+(γ−1)M_ξ²))` of the streamwise pressure
//!   is retained in the marching flux, keeping the march well-posed,
//! * **line-implicit station solve** — each cross-flow column is converged
//!   with the upstream column frozen (single sweep) by backward-Euler
//!   pseudo-time Newton steps: the column Jacobian is block tridiagonal in
//!   j, built by coloured finite differences of the station residual and
//!   solved with [`aerothermo_numerics::tridiag::solve_block_tridiag`].
//!
//! The cross-flow (j) faces call the same kernels as the field solvers:
//! the AUSM+ flux and boundary ghost-face flux of [`crate::euler2d`]
//! (slip wall below, freestream inflow above) and the thin-layer viscous
//! flux of [`crate::ns2d`], so PNS heating is directly comparable with the
//! full-NS result.
//!
//! The solver has no march loop of its own: [`PnsSolver::new`] takes the
//! first station to relax, and [`crate::runctl::run_controlled`] with
//! `max_units` = the grid's `nci` drives it, one station per
//! [`crate::runctl::Steppable::advance`], with checkpoints, rollback and
//! the flight recorder. [`PnsSolver::solution`] then holds the wall data.

use crate::euler2d::{ausm_flux, boundary_flux, convective_spectral_sum, Bc, Primitive, NEQ};
use crate::ns2d::{JFace, Transport};
use aerothermo_gas::GasModel;
use aerothermo_grid::{Geometry, Metrics, StructuredGrid};
use aerothermo_numerics::telemetry::{RunTelemetry, SolverError};
use aerothermo_numerics::tridiag::solve_block_tridiag;
use aerothermo_numerics::{trace, Field3};

/// Pseudo-time CFL law of the station solve: the first step runs at
/// `CFL_START` × the nominal CFL; an accepted step multiplies the CFL by
/// `CFL_GROW`, a rejected one by `CFL_CUT`. A step is accepted when the
/// scaled four-equation residual norm grows by at most `ACCEPT_GROWTH`.
const CFL_START: f64 = 10.0;
const CFL_GROW: f64 = 2.0;
const CFL_CUT: f64 = 0.25;
const ACCEPT_GROWTH: f64 = 1.2;
/// Relative finite-difference step of the column Jacobian.
const FD_STEP: f64 = 1e-7;
/// Values per completed station in a snapshot: x, wall pressure, wall heat
/// flux, steps and residual ratio.
const ROW: usize = 5;

/// PNS options.
#[derive(Debug, Clone)]
pub struct PnsOptions {
    /// Nominal pseudo-time CFL; the station solve starts at 10× this.
    pub cfl: f64,
    /// Maximum backward-Euler steps (accepted or rejected) per station.
    pub max_station_iters: usize,
    /// Residual drop per station, relative to the column as initialised
    /// from the upstream station.
    pub station_tol: f64,
    /// Vigneron safety factor σ.
    pub sigma: f64,
    /// Isothermal wall temperature \[K\]; `None` = inviscid march.
    pub t_wall: Option<f64>,
}

impl Default for PnsOptions {
    fn default() -> Self {
        Self {
            cfl: 0.35,
            max_station_iters: 200,
            station_tol: 1e-6,
            sigma: 0.85,
            t_wall: None,
        }
    }
}

/// Result of a PNS march.
#[derive(Debug, Clone, Default)]
pub struct PnsSolution {
    /// Arc-length-ish station coordinate: x of the wall-cell centroid.
    pub station_x: Vec<f64>,
    /// Wall pressure per station \[Pa\].
    pub wall_pressure: Vec<f64>,
    /// Wall heat flux per station \[W/m²\] (0 for inviscid marches).
    pub wall_heat_flux: Vec<f64>,
    /// Backward-Euler steps used per station.
    pub iterations: Vec<usize>,
    /// Final residual norm per station over the norm of the column as
    /// initialised; below `station_tol` when the station converged.
    pub residual_ratio: Vec<f64>,
}

/// One evaluated station column: conserved vectors (`NEQ` per cell),
/// primitives, cell residuals and the scaled residual norm.
struct Column {
    u: Vec<f64>,
    q: Vec<Primitive>,
    res: Vec<f64>,
    norm: f64,
}

/// PNS marching solver bound to a grid and gas model.
pub struct PnsSolver<'a> {
    grid: &'a StructuredGrid,
    metrics: Metrics,
    gas: &'a dyn GasModel,
    transport: Transport,
    opts: PnsOptions,
    freestream: (f64, f64, f64, f64),
    /// Conserved state for all cells (station columns filled as the march
    /// proceeds).
    pub u: Field3<f64>,
    /// Next station the march will relax (run-control cursor).
    next_station: usize,
    /// Wall data accumulated by the march so far.
    solution: PnsSolution,
    /// Run-control CFL scale (1.0 = nominal; halved on rollback).
    cfl_scale: f64,
    /// Run observability: per-station step and residual ratio histories.
    pub telemetry: RunTelemetry,
}

impl<'a> PnsSolver<'a> {
    /// Create a marching solver; all columns start at the freestream
    /// `(ρ, u_x, u_r, p)` (the usual sharp-body starter). The march relaxes
    /// stations `i_start..nci` (`i_start` at least 1); the columns before
    /// it are taken as given.
    #[must_use]
    pub fn new(
        grid: &'a StructuredGrid,
        gas: &'a dyn GasModel,
        opts: PnsOptions,
        freestream: (f64, f64, f64, f64),
        i_start: usize,
    ) -> Self {
        let (rho, ux, ur, p) = freestream;
        let e = gas.energy(rho, p);
        let mut u = Field3::zeros(grid.nci(), grid.ncj(), NEQ);
        for i in 0..grid.nci() {
            for j in 0..grid.ncj() {
                let c = u.vector_mut(i, j);
                c[0] = rho;
                c[1] = rho * ux;
                c[2] = rho * ur;
                c[3] = rho * (e + 0.5 * (ux * ux + ur * ur));
            }
        }
        let metrics = Metrics::new(grid);
        Self {
            grid,
            metrics,
            gas,
            transport: Transport::air(),
            opts,
            freestream,
            u,
            next_station: i_start.max(1),
            solution: PnsSolution::default(),
            cfl_scale: 1.0,
            telemetry: RunTelemetry::new(),
        }
    }

    fn primitive_of(&self, c: &[f64]) -> Primitive {
        let rho = c[0].max(1e-12);
        let ux = c[1] / rho;
        let ur = c[2] / rho;
        let e_tot = c[3] / rho;
        let e = (e_tot - 0.5 * (ux * ux + ur * ur)).max(1e-6 * e_tot.abs().max(1e-300));
        let p = self.gas.pressure(rho, e).max(1e-8);
        let a = self.gas.sound_speed(rho, e).max(1.0);
        Primitive {
            rho,
            ux,
            ur,
            p,
            a,
            h0: e + p / rho + 0.5 * (ux * ux + ur * ur),
        }
    }

    /// Primitive state of a cell.
    #[must_use]
    pub fn primitive(&self, i: usize, j: usize) -> Primitive {
        self.primitive_of(self.u.vector(i, j))
    }

    fn temperature(&self, q: &Primitive) -> f64 {
        let e = self.gas.energy(q.rho, q.p);
        self.gas.temperature(q.rho, e)
    }

    /// Vigneron-weighted streamwise flux through an i-face with
    /// area-weighted normal `(sx, sr)`, fully upwinded on the given state.
    fn vigneron_flux(&self, q: &Primitive, sx: f64, sr: f64) -> [f64; NEQ] {
        let area = (sx * sx + sr * sr).sqrt().max(1e-300);
        let nx = sx / area;
        let nr = sr / area;
        let un = q.ux * nx + q.ur * nr;
        let m_xi = un / q.a;
        let gamma = self.gas.gamma_eff(q.rho, self.gas.energy(q.rho, q.p));
        let omega = if m_xi >= 1.0 {
            1.0
        } else {
            (self.opts.sigma * gamma * m_xi * m_xi / (1.0 + (gamma - 1.0) * m_xi * m_xi)).min(1.0)
        };
        let pv = omega * q.p;
        let mdot = q.rho * un;
        [
            mdot * area,
            (mdot * q.ux + pv * nx) * area,
            (mdot * q.ur + pv * nr) * area,
            (mdot * q.h0) * area,
        ]
    }

    /// Residual of cell (i, j) during the station-i relaxation: upstream
    /// i-flux frozen from column i−1, downstream i-flux upwinded on the
    /// local cell, AUSM + viscous in j.
    fn station_residual(&self, i: usize, j: usize, col: &[Primitive]) -> [f64; NEQ] {
        let m = &self.metrics;
        let ncj = self.grid.ncj();
        let mut res = [0.0; NEQ];
        let qc = col[j];

        // Upstream face (i): Vigneron flux of the frozen upstream cell.
        {
            let sx = m.si_x[(i, j)];
            let sr = m.si_r[(i, j)];
            let qu = self.primitive(i - 1, j);
            let f = self.vigneron_flux(&qu, sx, sr);
            for k in 0..NEQ {
                res[k] += f[k];
            }
        }
        // Downstream face (i+1): Vigneron flux of the current cell.
        {
            let sx = m.si_x[(i + 1, j)];
            let sr = m.si_r[(i + 1, j)];
            let f = self.vigneron_flux(&qc, sx, sr);
            for k in 0..NEQ {
                res[k] -= f[k];
            }
        }
        // Cross-flow faces: slip wall below (the inviscid part), freestream
        // inflow above.
        {
            let sx = m.sj_x[(i, j)];
            let sr = m.sj_r[(i, j)];
            let f = if j == 0 {
                boundary_flux(self.gas, Bc::SlipWall, &qc, sx, sr, true)
            } else {
                ausm_flux(&col[j - 1], &qc, sx, sr)
            };
            for k in 0..NEQ {
                res[k] += f[k];
            }
        }
        {
            let sx = m.sj_x[(i, j + 1)];
            let sr = m.sj_r[(i, j + 1)];
            let f = if j + 1 == ncj {
                let (rho, ux, ur, p) = self.freestream;
                let inflow = Bc::Inflow { rho, ux, ur, p };
                boundary_flux(self.gas, inflow, &qc, sx, sr, false)
            } else {
                ausm_flux(&qc, &col[j + 1], sx, sr)
            };
            for k in 0..NEQ {
                res[k] -= f[k];
            }
        }

        // Thin-layer viscous terms in j (only when a wall temperature is
        // set). Signs: dU/dt·V = −∮F·n̂ + ∮G·n̂.
        if let Some(t_wall) = self.opts.t_wall {
            let cell = |j: usize| (col[j], self.temperature(&col[j]));
            let here = cell(j);
            let (grid, tr) = (self.grid, &self.transport);
            let g = tr.thin_layer_flux(
                &JFace::new(grid, m, i, j),
                j.checked_sub(1).map(cell).ok_or(t_wall),
                here,
            );
            for k in 0..NEQ {
                res[k] -= g[k];
            }
            if j + 1 < ncj {
                let face = JFace::new(grid, m, i, j + 1);
                let g = tr.thin_layer_flux(&face, Ok(here), cell(j + 1));
                for k in 0..NEQ {
                    res[k] += g[k];
                }
            }
        }

        if self.grid.geometry == Geometry::Axisymmetric {
            res[2] += qc.p * m.plane_area[(i, j)];
        }
        res
    }

    /// Spectral radius λ of cell (i, j) summed over its four faces, plus
    /// the thin-layer viscous term; the local pseudo-time step is
    /// `Δτ = CFL·V/λ`.
    fn spectral_radius(&self, i: usize, j: usize, q: &Primitive) -> f64 {
        let m = &self.metrics;
        let mut lam = convective_spectral_sum(m, i, j, q);
        if self.opts.t_wall.is_some() {
            let mu = (self.transport.viscosity)(self.temperature(q));
            let sx = m.sj_x[(i, j)];
            let sr = m.sj_r[(i, j)];
            lam += 4.0 * mu / q.rho * (sx * sx + sr * sr) / m.volume[(i, j)];
        }
        lam.max(1e-300)
    }

    /// Freestream scales `(fluxes, conserved)`: the residual norm divides
    /// each equation by its freestream flux, and the Jacobian's difference
    /// steps are relative to `max(|U|, U∞)`.
    fn freestream_scales(&self) -> ([f64; NEQ], [f64; NEQ]) {
        let (rho, ux, ur, p) = self.freestream;
        let v = (ux * ux + ur * ur).sqrt();
        let e = self.gas.energy(rho, p);
        let h0 = e + p / rho + 0.5 * v * v;
        (
            [rho * v, rho * v * v + p, rho * v * v + p, rho * v * h0],
            [rho, rho * v, rho * v, rho * (e + 0.5 * v * v)],
        )
    }

    /// Residuals of every cell of station `i`, `NEQ` per cell.
    fn column_residual(&self, i: usize, col: &[Primitive], res: &mut [f64]) {
        for (j, r) in res.chunks_exact_mut(NEQ).enumerate() {
            r.copy_from_slice(&self.station_residual(i, j, col));
        }
    }

    /// The station-`i` column holding `u`, evaluated: primitives, cell
    /// residuals, and the RMS over cells and equations of `R/(V·F∞)`.
    fn column(&self, i: usize, u: Vec<f64>, flux: &[f64; NEQ]) -> Column {
        let q: Vec<Primitive> = u.chunks_exact(NEQ).map(|c| self.primitive_of(c)).collect();
        let mut res = vec![0.0; u.len()];
        self.column_residual(i, &q, &mut res);
        let mut sum = 0.0;
        for (j, r) in res.chunks_exact(NEQ).enumerate() {
            let v = self.metrics.volume[(i, j)];
            for k in 0..NEQ {
                sum += (r[k] / (v * flux[k])).powi(2);
            }
        }
        let norm = (sum / res.len() as f64).sqrt();
        Column { u, q, res, norm }
    }

    /// `−∂R/∂U` of station `i` as sub-, main- and super-diagonal blocks
    /// (row-major `NEQ × NEQ` per cell), by forward differences of
    /// [`Self::station_residual`]. The residual of cell j reaches only
    /// cells j−1..j+1, so the cells of one colour `j mod 3` are perturbed
    /// together: 3 colours × `NEQ` components = 12 column residuals.
    fn column_jacobian(&self, i: usize, cur: &Column, u_ref: &[f64; NEQ], blocks: [&mut [f64]; 3]) {
        let Column { u, q, res, .. } = cur;
        let ncj = q.len();
        let [a, b, c] = blocks;
        let mut up = u.clone();
        let mut qp = q.clone();
        let mut rp = vec![0.0; res.len()];
        for colour in 0..3 {
            for k in 0..NEQ {
                for j in (colour..ncj).step_by(3) {
                    let x = u[j * NEQ + k];
                    up[j * NEQ + k] = x + FD_STEP * x.abs().max(u_ref[k]);
                    qp[j] = self.primitive_of(&up[j * NEQ..(j + 1) * NEQ]);
                }
                self.column_residual(i, &qp, &mut rp);
                for j in 0..ncj {
                    // Cell 0 has no A block and the last cell no C block.
                    let Some(jp) =
                        (j.saturating_sub(1)..(j + 2).min(ncj)).find(|jj| jj % 3 == colour)
                    else {
                        continue;
                    };
                    let h = up[jp * NEQ + k] - u[jp * NEQ + k];
                    let block = match jp + 1 - j {
                        0 => &mut a[..],
                        1 => &mut b[..],
                        _ => &mut c[..],
                    };
                    let blk = &mut block[j * NEQ * NEQ..(j + 1) * NEQ * NEQ];
                    for l in 0..NEQ {
                        blk[l * NEQ + k] = -(rp[j * NEQ + l] - res[j * NEQ + l]) / h;
                    }
                }
                for j in (colour..ncj).step_by(3) {
                    up[j * NEQ + k] = u[j * NEQ + k];
                    qp[j] = q[j];
                }
            }
        }
    }

    /// Relax station `i` by backward-Euler pseudo-time Newton steps on the
    /// whole column, `(V/Δτ·I − ∂R/∂U)·ΔU = R`, one block-tridiagonal solve
    /// per step. The Jacobian is lagged: it is rebuilt only when a step is
    /// rejected after the state has moved since the last build. A step that
    /// leaves a cell with non-positive density or internal energy is
    /// rejected. A station that exhausts its budget keeps its
    /// lowest-residual iterate. Returns the steps taken (accepted and
    /// rejected) and the final residual norm over the norm of the column
    /// as initialised from upstream.
    fn relax_station(&mut self, i: usize) -> (usize, f64) {
        let _sp = trace::span("pns_station");
        let ncj = self.grid.ncj();
        let n = ncj * NEQ;
        let nb = n * NEQ;
        let (flux_ref, u_ref) = self.freestream_scales();
        let base = i * n;
        let mut cur = self.column(i, self.u.as_slice()[base..base + n].to_vec(), &flux_ref);
        let norm0 = cur.norm;
        let mut best = (norm0, cur.u.clone());
        let mut cfl = CFL_START * self.opts.cfl * self.cfl_scale;
        let (mut a, mut b, mut c) = (vec![0.0; nb], vec![0.0; nb], vec![0.0; nb]);
        let mut diag = vec![0.0; nb];
        let mut rate = vec![0.0; ncj];
        let (mut rebuild, mut stale) = (true, false);
        let mut steps = 0;
        while steps < self.opts.max_station_iters && cur.norm / norm0 >= self.opts.station_tol {
            steps += 1;
            if rebuild {
                self.column_jacobian(i, &cur, &u_ref, [&mut a, &mut b, &mut c]);
                for (j, r) in rate.iter_mut().enumerate() {
                    *r = self.spectral_radius(i, j, &cur.q[j]);
                }
                (rebuild, stale) = (false, false);
            }
            diag.copy_from_slice(&b);
            for (j, r) in rate.iter().enumerate() {
                for k in 0..NEQ {
                    diag[(j * NEQ + k) * NEQ + k] += r / cfl;
                }
            }
            let mut du = cur.res.clone();
            let trial = solve_block_tridiag(&a, &diag, &c, &mut du, ncj, NEQ)
                .ok()
                .map(|()| {
                    cur.u
                        .iter()
                        .zip(&du)
                        .map(|(x, d)| x + d)
                        .collect::<Vec<_>>()
                })
                .filter(|u| {
                    u.chunks_exact(NEQ).all(|c| {
                        c[0] > 0.0 && c[3] - 0.5 * (c[1] * c[1] + c[2] * c[2]) / c[0] > 0.0
                    })
                })
                .map(|u| self.column(i, u, &flux_ref))
                .filter(|t| t.norm <= ACCEPT_GROWTH * cur.norm);
            if let Some(t) = trial {
                cur = t;
                if cur.norm < best.0 {
                    best = (cur.norm, cur.u.clone());
                }
                cfl *= CFL_GROW;
                stale = true;
            } else {
                cfl *= CFL_CUT;
                rebuild = stale;
            }
        }
        let (norm, u) = if best.0 < cur.norm {
            best
        } else {
            (cur.norm, cur.u)
        };
        self.u.as_mut_slice()[base..base + n].copy_from_slice(&u);
        // A column that starts at zero residual is converged as it stands.
        (steps, if norm == 0.0 { 0.0 } else { norm / norm0 })
    }

    /// Wall data accumulated by the march so far.
    #[must_use]
    pub fn solution(&self) -> &PnsSolution {
        &self.solution
    }

    /// Wall heat flux at station `i` \[W/m²\] (0 for inviscid marches).
    #[must_use]
    pub fn wall_heat_flux(&self, i: usize) -> f64 {
        let Some(t_wall) = self.opts.t_wall else {
            return 0.0;
        };
        let dn = JFace::new(self.grid, &self.metrics, i, 0).dn;
        let q = self.primitive(i, 0);
        let t1 = self.temperature(&q);
        let k = self.transport.conductivity(0.5 * (t1 + t_wall));
        k * (t1 - t_wall) / dn
    }
}

impl crate::runctl::Steppable for PnsSolver<'_> {
    /// Relax the next station from the upstream column and append its wall
    /// data. A station that merely exhausts its step budget is kept (its
    /// step count and residual ratio are recorded); only state
    /// contamination or a hard audit failure is an error.
    fn advance(&mut self) -> Result<f64, SolverError> {
        const FIELD_NAMES: [&str; NEQ] = ["rho", "rho_ux", "rho_ur", "rho_E"];
        let i = self.next_station;
        if i >= self.grid.nci() {
            return Ok(0.0);
        }
        for j in 0..self.grid.ncj() {
            let up: Vec<f64> = self.u.vector(i - 1, j).to_vec();
            self.u.vector_mut(i, j).copy_from_slice(&up);
        }
        let (iters, ratio) = self.relax_station(i);
        for j in 0..self.grid.ncj() {
            let cell = self.u.vector(i, j);
            for (k, name) in FIELD_NAMES.iter().enumerate() {
                if !cell[k].is_finite() {
                    return Err(SolverError::NonFinite { field: name, i, j });
                }
            }
        }
        if crate::audit::due(i) {
            let findings = crate::audit::station_positivity(&self.u, i, i);
            crate::audit::apply(&mut self.telemetry, findings)?;
        }
        let q0 = self.primitive(i, 0);
        self.solution.station_x.push(self.metrics.xc[(i, 0)]);
        self.solution.wall_pressure.push(q0.p);
        self.solution.wall_heat_flux.push(self.wall_heat_flux(i));
        self.solution.iterations.push(iters);
        self.solution.residual_ratio.push(ratio);
        self.next_station = i + 1;
        // Stations either converge or exhaust a bounded budget; the
        // controller's progress unit is the station itself, so report a flat
        // residual and let the non-finite/audit checks drive rollback.
        Ok(1.0)
    }

    fn progress(&self) -> usize {
        self.next_station
    }

    /// Snapshot the march state: the conserved field plus the accumulated
    /// wall rows (`ROW` values per completed station), cursor in `step`.
    fn save_state(&self) -> crate::runctl::Snapshot {
        let mut data = self.u.as_slice().to_vec();
        for k in 0..self.solution.station_x.len() {
            data.push(self.solution.station_x[k]);
            data.push(self.solution.wall_pressure[k]);
            data.push(self.solution.wall_heat_flux[k]);
            data.push(self.solution.iterations[k] as f64);
            data.push(self.solution.residual_ratio[k]);
        }
        crate::runctl::Snapshot {
            step: self.next_station,
            cfl_scale: self.cfl_scale,
            data,
        }
    }

    /// Rejects a payload that is not this solver's field plus a whole
    /// number of wall rows, or a cursor outside `1..=nci`.
    fn restore_state(&mut self, snap: &crate::runctl::Snapshot) -> Result<(), SolverError> {
        let field_len = self.u.as_slice().len();
        if snap.data.len() < field_len || !(snap.data.len() - field_len).is_multiple_of(ROW) {
            return Err(SolverError::BadInput(format!(
                "pns restore: state length {} incompatible with field length {field_len}",
                snap.data.len()
            )));
        }
        let nci = self.grid.nci();
        if snap.step == 0 || snap.step > nci {
            return Err(SolverError::BadInput(format!(
                "pns restore: station cursor {} outside 1..={nci}",
                snap.step
            )));
        }
        self.u
            .as_mut_slice()
            .copy_from_slice(&snap.data[..field_len]);
        let rows = (snap.data.len() - field_len) / ROW;
        self.solution = PnsSolution::default();
        for row in snap.data[field_len..].chunks_exact(ROW) {
            self.solution.station_x.push(row[0]);
            self.solution.wall_pressure.push(row[1]);
            self.solution.wall_heat_flux.push(row[2]);
            self.solution.iterations.push(row[3] as usize);
            self.solution.residual_ratio.push(row[4]);
        }
        debug_assert_eq!(self.solution.station_x.len(), rows);
        self.next_station = snap.step;
        self.cfl_scale = snap.cfl_scale;
        Ok(())
    }

    fn cfl_scale(&self) -> f64 {
        self.cfl_scale
    }

    fn set_cfl_scale(&mut self, scale: f64) {
        self.cfl_scale = scale;
    }

    fn meta(&self) -> crate::runctl::RunMeta {
        crate::runctl::RunMeta {
            tag: "pns".to_string(),
            gas: self.gas.describe(),
            shape: self.u.shape(),
        }
    }

    fn telemetry_mut(&mut self) -> &mut RunTelemetry {
        &mut self.telemetry
    }

    fn finalize(&mut self, _converged: bool) -> Result<(), SolverError> {
        if crate::audit::cadence() != 0 && self.next_station > 1 {
            let findings = crate::audit::station_positivity(&self.u, 1, self.next_station - 1);
            crate::audit::apply(&mut self.telemetry, findings)?;
        }
        self.telemetry.record_history(
            "station_iterations",
            self.solution.iterations.iter().map(|&n| n as f64).collect(),
        );
        self.telemetry.record_history(
            "station_residual_ratio",
            self.solution.residual_ratio.clone(),
        );
        Ok(())
    }

    fn poison(&mut self) {
        // Contaminate the upstream column the next station will copy from,
        // so the very next advance trips the non-finite scan.
        let i = self.next_station.saturating_sub(1);
        let j = self.grid.ncj() / 2;
        self.u.vector_mut(i, j)[0] = f64::NAN;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runctl::run_to;
    use aerothermo_gas::IdealGas;
    use aerothermo_grid::bodies::SphereCone;
    use aerothermo_grid::stretch;

    fn cone_grid(half_angle_deg: f64, length: f64, ni: usize, nj: usize) -> StructuredGrid {
        let body = SphereCone {
            rn: 0.01,
            half_angle: half_angle_deg.to_radians(),
            length,
        };
        let dist = stretch::tanh_one_sided(nj, 2.5);
        StructuredGrid::blunt_body(&body, ni, nj, &|sb| 0.02 + 0.35 * sb * length, &dist)
    }

    #[test]
    fn restore_rejects_a_station_cursor_out_of_range() {
        use crate::runctl::{Snapshot, Steppable};
        let gas = IdealGas::air();
        let grid = cone_grid(15.0, 1.0, 12, 8);
        let mut solver = PnsSolver::new(
            &grid,
            &gas,
            PnsOptions::default(),
            (0.0079, 2400.0, 0.0, 500.0),
            1,
        );
        let snap = solver.save_state();
        for step in [0, grid.nci() + 1] {
            let bad = Snapshot {
                step,
                ..snap.clone()
            };
            assert!(
                matches!(solver.restore_state(&bad), Err(SolverError::BadInput(_))),
                "cursor {step} accepted"
            );
        }
        // A finished march (cursor = nci) is a valid snapshot; advancing it
        // is a no-op.
        let done = Snapshot {
            step: grid.nci(),
            ..snap
        };
        solver
            .restore_state(&done)
            .expect("finished march restores");
        assert_eq!(Steppable::advance(&mut solver).expect("no-op advance"), 0.0);
    }

    #[test]
    fn cone_surface_pressure_near_taylor_maccoll() {
        // 15° sharp-ish cone at M∞ = 8: Taylor-Maccoll gives β = 17.93°,
        // p_c/p∞ = 7.55, surface Cp = 0.1461 (computed by integrating the
        // Taylor-Maccoll equation for these exact conditions).
        let gas = IdealGas::air();
        let t_inf = 220.0;
        let p_inf = 500.0;
        let rho_inf = p_inf / (287.05 * t_inf);
        let a_inf = (1.4_f64 * 287.05 * t_inf).sqrt();
        let v_inf = 8.0 * a_inf;
        let grid = cone_grid(15.0, 1.5, 90, 40);
        let mut solver = PnsSolver::new(
            &grid,
            &gas,
            PnsOptions {
                t_wall: None,
                ..PnsOptions::default()
            },
            (rho_inf, v_inf, 0.0, p_inf),
            6,
        );
        run_to(&mut solver, grid.nci(), 0.0);
        let sol = solver.solution();
        // Use the last quarter of stations (conical asymptote).
        let nst = sol.wall_pressure.len();
        let p_cone: f64 =
            sol.wall_pressure[3 * nst / 4..].iter().sum::<f64>() / (nst - 3 * nst / 4) as f64;
        let cp = (p_cone - p_inf) / (0.5 * rho_inf * v_inf * v_inf);
        assert!(
            (cp - 0.1461).abs() < 0.015,
            "cone Cp = {cp:.4} (Taylor-Maccoll = 0.1461)"
        );
    }

    #[test]
    fn march_is_cheap_per_station() {
        // The whole point of PNS: station cost bounded; iterations should
        // decay once the conical flow is established.
        let gas = IdealGas::air();
        let t_inf = 220.0;
        let p_inf = 500.0;
        let rho_inf = p_inf / (287.05 * t_inf);
        let v_inf = 8.0 * (1.4_f64 * 287.05 * t_inf).sqrt();
        let grid = cone_grid(15.0, 1.0, 50, 30);
        let mut solver = PnsSolver::new(
            &grid,
            &gas,
            PnsOptions {
                t_wall: None,
                ..PnsOptions::default()
            },
            (rho_inf, v_inf, 0.0, p_inf),
            6,
        );
        run_to(&mut solver, grid.nci(), 0.0);
        let sol = solver.solution();
        let tail_iters = *sol.iterations.last().unwrap();
        assert!(
            tail_iters < solver.opts.max_station_iters,
            "station failed to converge"
        );
    }

    #[test]
    fn viscous_cone_heating_decays_downstream() {
        // Laminar cone heating ~ s^{-1/2}: the PNS wall heat flux must decay
        // monotonically (after the start-up stations) along the cone.
        let gas = IdealGas::air();
        let t_inf = 220.0;
        let p_inf = 2000.0;
        let rho_inf = p_inf / (287.05 * t_inf);
        let v_inf = 8.0 * (1.4_f64 * 287.05 * t_inf).sqrt();
        let grid = cone_grid(10.0, 1.2, 70, 44);
        let mut solver = PnsSolver::new(
            &grid,
            &gas,
            PnsOptions {
                t_wall: Some(300.0),
                ..PnsOptions::default()
            },
            (rho_inf, v_inf, 0.0, p_inf),
            8,
        );
        run_to(&mut solver, grid.nci(), 0.0);
        let sol = solver.solution();
        let n = sol.wall_heat_flux.len();
        let q_quarter = sol.wall_heat_flux[n / 4];
        let q_end = sol.wall_heat_flux[n - 1];
        assert!(q_quarter > 0.0 && q_end > 0.0, "heating must be positive");
        assert!(
            q_end < q_quarter,
            "heating should decay: {q_quarter:.3e} -> {q_end:.3e}"
        );
        // x^-1/2 scaling between the two probes, loosely.
        let x_q = sol.station_x[n / 4];
        let x_e = sol.station_x[n - 1];
        let expected = (x_q / x_e).sqrt(); // q ∝ x^{-1/2}
        let actual = q_end / q_quarter;
        assert!(
            (actual / expected - 1.0).abs() < 0.3,
            "decay exponent off: actual ratio {actual:.3}, x^-1/2 gives {expected:.3}"
        );
    }
}
