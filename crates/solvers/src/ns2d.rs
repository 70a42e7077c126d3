//! Laminar thin-layer Navier-Stokes solver.
//!
//! Extends the finite-volume Euler discretization of [`crate::euler2d`] with
//! viscous fluxes in the body-normal (`j`) direction — the thin-layer
//! approximation every production hypersonic NS code of the paper's era
//! used, appropriate when the grid is wall-clustered and streamwise
//! diffusion is negligible. The wall is no-slip and isothermal; wall heat
//! flux (the quantity the paper's heating figures report) comes from the
//! wall-normal temperature gradient.
//!
//! Molecular transport: Sutherland viscosity with constant Prandtl number
//! by default, or any user closure `μ(T)`.

#[cfg(test)]
use crate::euler2d::Bc;
use crate::euler2d::{
    convective_spectral_sum, BcSet, EulerOptions, EulerScratch, EulerSolver, PrimSoA, Primitive,
    NEQ,
};
use aerothermo_gas::transport::sutherland_air;
use aerothermo_gas::GasModel;
use aerothermo_grid::{Metrics, StructuredGrid};
use aerothermo_numerics::telemetry::{counters, Counter, RunTelemetry, SolverError};
use aerothermo_numerics::trace;
use rayon::prelude::*;

/// Reusable viscous-assembly scratch: per-cell temperatures and the
/// once-per-face thin-layer j-fluxes. Allocated on the first step, reused
/// afterwards.
#[derive(Debug, Default)]
struct NsScratch {
    /// Cell temperatures \[K\], row-major `i * ncj + j`.
    temp: Vec<f64>,
    /// Viscous j-face fluxes, laid out `i * (ncj + 1) + jface`; the outer
    /// boundary face (`jface == ncj`) carries zero flux (freestream).
    fv: Vec<[f64; NEQ]>,
}

/// Molecular-transport closure.
#[derive(Clone)]
pub struct Transport {
    /// Dynamic viscosity as a function of temperature \[Pa·s\].
    pub viscosity: fn(f64) -> f64,
    /// Prandtl number.
    pub prandtl: f64,
    /// Specific heat at constant pressure \[J/(kg·K)\] (for conductivity
    /// from Pr).
    pub cp: f64,
}

impl Transport {
    /// Sutherland air with Pr = 0.72.
    #[must_use]
    pub fn air() -> Self {
        Self {
            viscosity: sutherland_air,
            prandtl: 0.72,
            cp: 1004.5,
        }
    }

    /// Thermal conductivity \[W/(m·K)\] at `t`.
    #[must_use]
    pub fn conductivity(&self, t: f64) -> f64 {
        (self.viscosity)(t) * self.cp / self.prandtl
    }

    /// Thin-layer viscous flux·area through the j-face `face`, oriented
    /// along the +j normal, between the `lower` and `upper` cells (state
    /// and temperature). `lower = Err(t_wall)` makes the lower side the
    /// no-slip isothermal wall at `t_wall`, differenced one-sidedly from the
    /// wall-face midpoint to the first cell centroid.
    #[inline(always)]
    pub(crate) fn thin_layer_flux(
        &self,
        face: &JFace,
        lower: Result<(Primitive, f64), f64>,
        upper: (Primitive, f64),
    ) -> [f64; NEQ] {
        let JFace { nx, nr, dn, area } = *face;
        let (qr, tr) = upper;
        // No-slip: the stress does no work on the stationary wall.
        let ((ql, tl), (u_face_x, u_face_r)) = match lower {
            Ok((ql, tl)) => ((ql, tl), (0.5 * (ql.ux + qr.ux), 0.5 * (ql.ur + qr.ur))),
            Err(t_wall) => (
                (
                    Primitive {
                        ux: 0.0,
                        ur: 0.0,
                        ..qr
                    },
                    t_wall,
                ),
                (0.0, 0.0),
            ),
        };
        let t_face = 0.5 * (tl + tr);
        let mu = (self.viscosity)(t_face);
        // `conductivity(t_face)` without a second viscosity call.
        let k = mu * self.cp / self.prandtl;
        let dudn = (qr.ux - ql.ux) / dn;
        let dvdn = (qr.ur - ql.ur) / dn;
        let dtdn = (tr - tl) / dn;
        // Thin-layer stress: τ·n = μ[∂u/∂n + (1/3)·n·∂(u·n)/∂n].
        let dundn = dudn * nx + dvdn * nr;
        let tau_x = mu * (dudn + dundn * nx / 3.0);
        let tau_r = mu * (dvdn + dundn * nr / 3.0);
        let q_heat = k * dtdn;
        [
            0.0,
            tau_x * area,
            tau_r * area,
            (tau_x * u_face_x + tau_r * u_face_r + q_heat) * area,
        ]
    }
}

/// Thin-layer geometry of one j-face: its unit normal `(nx, nr)`, the
/// normal distance `dn` its gradients difference across, and its area.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JFace {
    pub(crate) nx: f64,
    pub(crate) nr: f64,
    pub(crate) dn: f64,
    pub(crate) area: f64,
}

impl JFace {
    /// Geometry of j-face `(i, jface)` below the outer boundary. `dn`
    /// (floored at 1e-12) runs from the wall-face midpoint to the wall
    /// cell's centroid at `jface == 0`, between the two adjacent cell
    /// centroids otherwise.
    pub(crate) fn new(grid: &StructuredGrid, m: &Metrics, i: usize, jface: usize) -> Self {
        let sx = m.sj_x[(i, jface)];
        let sr = m.sj_r[(i, jface)];
        let area = (sx * sx + sr * sr).sqrt().max(1e-300);
        let nx = sx / area;
        let nr = sr / area;
        let (x0, r0) = if jface == 0 {
            (
                0.5 * (grid.x[(i, 0)] + grid.x[(i + 1, 0)]),
                0.5 * (grid.r[(i, 0)] + grid.r[(i + 1, 0)]),
            )
        } else {
            (m.xc[(i, jface - 1)], m.rc[(i, jface - 1)])
        };
        let dn = ((m.xc[(i, jface)] - x0) * nx + (m.rc[(i, jface)] - r0) * nr)
            .abs()
            .max(1e-12);
        Self { nx, nr, dn, area }
    }
}

/// Thin-layer NS solver: an Euler core plus wall-normal viscous fluxes.
pub struct NsSolver<'a> {
    /// The underlying inviscid discretization (owns the state).
    pub inviscid: EulerSolver<'a>,
    transport: Transport,
    /// Isothermal wall temperature \[K\].
    pub t_wall: f64,
    /// Geometry of every viscous j-face, `i * ncj + jface` (the outer
    /// boundary face carries no viscous flux and has no entry).
    jfaces: Vec<JFace>,
    vscratch: NsScratch,
}

impl<'a> NsSolver<'a> {
    /// Create a viscous solver. The `bc.j_lo` side is treated as the
    /// no-slip isothermal wall (its inviscid flux remains the slip-wall
    /// pressure flux, standard for cell-centered schemes).
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        grid: &'a StructuredGrid,
        gas: &'a dyn GasModel,
        bc: BcSet,
        opts: EulerOptions,
        freestream: (f64, f64, f64, f64),
        transport: Transport,
        t_wall: f64,
    ) -> Self {
        let inviscid = EulerSolver::new(grid, gas, bc, opts, freestream);
        let (nci, ncj) = (inviscid.nci(), inviscid.ncj());
        let jfaces = (0..nci * ncj)
            .map(|idx| JFace::new(grid, inviscid.grid_metrics(), idx / ncj, idx % ncj))
            .collect();
        Self {
            inviscid,
            transport,
            t_wall,
            jfaces,
            vscratch: NsScratch::default(),
        }
    }

    /// Temperature of cell `(i, j)` \[K\].
    #[must_use]
    pub fn temperature(&self, i: usize, j: usize) -> f64 {
        let q = self.inviscid.primitive(i, j);
        let e = self.inviscid.internal_energy(i, j);
        self.inviscid.gas().temperature(q.rho, e)
    }

    /// Viscous residual contribution of cell `(i, j)` evaluated cell by
    /// cell (thin layer: −bottom face, +top face, each through
    /// [`Self::viscous_face_flux`] on geometry computed here, none on the
    /// outer boundary face): the reference the face-based viscous gather is
    /// tested against.
    #[cfg(test)]
    fn viscous_residual(&self, prim: &PrimSoA, temp: &[f64], i: usize, j: usize) -> [f64; NEQ] {
        let (grid, m) = (self.inviscid.grid(), self.inviscid.grid_metrics());
        let flux = |jface: usize| {
            if jface == self.inviscid.ncj() {
                return [0.0; NEQ];
            }
            let face = JFace::new(grid, m, i, jface);
            self.viscous_face_flux(prim, temp, i, jface, &face)
        };
        let (fb, ft) = (flux(j), flux(j + 1));
        let mut res = [0.0; NEQ];
        for k in 0..NEQ {
            res[k] -= fb[k];
            res[k] += ft[k];
        }
        res
    }

    /// Viscous flux through j-face `(i, jface)` below the outer boundary,
    /// of geometry `face`, from cached primitives and temperatures; the
    /// wall face is the no-slip isothermal wall.
    fn viscous_face_flux(
        &self,
        prim: &PrimSoA,
        temp: &[f64],
        i: usize,
        jface: usize,
        face: &JFace,
    ) -> [f64; NEQ] {
        let ncj = self.inviscid.ncj();
        let cell = |j: usize| (prim.get(i * ncj + j), temp[i * ncj + j]);
        self.transport.thin_layer_flux(
            face,
            if jface > 0 {
                Ok(cell(jface - 1))
            } else {
                Err(self.t_wall)
            },
            cell(jface),
        )
    }

    /// Fill the viscous scratch: every cell temperature once, from the
    /// face assembly's primitives `prim` and internal energies `e`, then
    /// each viscous j-face exactly once (row-parallel, race-free); the
    /// outer boundary face carries no viscous flux (freestream).
    fn assemble_viscous(&self, prim: &PrimSoA, e: &[f64], scratch: &mut NsScratch) {
        let nci = self.inviscid.nci();
        let ncj = self.inviscid.ncj();
        scratch.temp.resize(nci * ncj, 0.0);
        scratch.fv.resize(nci * (ncj + 1), [0.0; NEQ]);

        scratch
            .temp
            .par_chunks_mut(ncj)
            .enumerate()
            .for_each(|(i, row)| {
                for (j, t) in row.iter_mut().enumerate() {
                    let idx = i * ncj + j;
                    *t = self.inviscid.gas().temperature(prim.rho[idx], e[idx]);
                }
            });

        let temp: &[f64] = &scratch.temp;
        scratch
            .fv
            .par_chunks_mut(ncj + 1)
            .enumerate()
            .for_each(|(i, row)| {
                let (faces, outer) = row.split_at_mut(ncj);
                let geometry = &self.jfaces[i * ncj..(i + 1) * ncj];
                for ((jface, f), face) in faces.iter_mut().enumerate().zip(geometry) {
                    *f = self.viscous_face_flux(prim, temp, i, jface, face);
                }
                outer[0] = [0.0; NEQ];
            });
        counters::add(Counter::FacesEvaluated, (nci * ncj) as u64);
    }

    /// The residual operator: the Euler fill plus the viscous j-faces in
    /// `esc.res`, and each cell's viscous local time step at `cfl` in
    /// `esc.dt`. Reads the state, never writes it.
    fn fill_residual(
        &self,
        esc: &mut EulerScratch,
        vsc: &mut NsScratch,
        first_order: bool,
        cfl: f64,
    ) {
        self.inviscid.fill_residual(esc, first_order);
        self.assemble_viscous(&esc.prim, &esc.e, vsc);
        let ncj = self.inviscid.ncj();
        for (idx, (res, dt)) in esc.res.iter_mut().zip(&mut esc.dt).enumerate() {
            let (i, j) = (idx / ncj, idx % ncj);
            // Viscous gather in viscous_residual's accumulation order:
            // −bottom face, +top face.
            let fb = &vsc.fv[i * (ncj + 1) + j];
            let ft = &vsc.fv[i * (ncj + 1) + j + 1];
            for k in 0..NEQ {
                let mut vv = 0.0;
                vv -= fb[k];
                vv += ft[k];
                res[k] += vv;
            }
            *dt = self.viscous_dt(&esc.prim.get(idx), vsc.temp[idx], i, j, cfl);
        }
    }

    /// One explicit step; returns the density-residual norm.
    pub fn step(&mut self) -> f64 {
        let _sp = trace::span("ns_step");
        let (first_order, cfl) = self.inviscid.schedule();
        let mut esc = std::mem::take(&mut self.inviscid.scratch);
        let mut vsc = std::mem::take(&mut self.vscratch);
        self.fill_residual(&mut esc, &mut vsc, first_order, cfl);
        self.vscratch = vsc;
        self.inviscid.update(esc)
    }

    /// Time step with the viscous spectral radius added, given the cell's
    /// cached primitives and temperature.
    fn viscous_dt(&self, q: &Primitive, t: f64, i: usize, j: usize, cfl: f64) -> f64 {
        let m = self.inviscid.grid_metrics();
        let mu = (self.transport.viscosity)(t);
        let lam_c = convective_spectral_sum(m, i, j, q);
        let area_j = {
            let sx = m.sj_x[(i, j)];
            let sr = m.sj_r[(i, j)];
            (sx * sx + sr * sr).sqrt()
        };
        let vol = m.volume[(i, j)];
        let lam_v = 4.0 * mu / q.rho * area_j * area_j / vol;
        cfl * vol / (lam_c + lam_v).max(1e-300)
    }

    /// Wall heat flux \[W/m²\] at cell column `i` (positive = into the
    /// wall), from the one-sided wall-normal temperature gradient.
    #[must_use]
    pub fn wall_heat_flux(&self, i: usize) -> f64 {
        let dn = self.jfaces[i * self.inviscid.ncj()].dn;
        let t1 = self.temperature(i, 0);
        let t_face = 0.5 * (t1 + self.t_wall);
        let k = self.transport.conductivity(t_face);
        k * (t1 - self.t_wall) / dn
    }

    /// Wall shear stress magnitude \[Pa\] at cell column `i`.
    #[must_use]
    pub fn wall_shear(&self, i: usize) -> f64 {
        let JFace { nx, nr, dn, .. } = self.jfaces[i * self.inviscid.ncj()];
        let q = self.inviscid.primitive(i, 0);
        // Tangential component of the first-cell velocity.
        let un = q.ux * nx + q.ur * nr;
        let utx = q.ux - un * nx;
        let utr = q.ur - un * nr;
        let ut = (utx * utx + utr * utr).sqrt();
        let t_face = 0.5 * (self.temperature(i, 0) + self.t_wall);
        (self.transport.viscosity)(t_face) * ut / dn
    }
}

impl crate::runctl::Steppable for NsSolver<'_> {
    fn advance(&mut self) -> Result<f64, SolverError> {
        let n = self.progress();
        let r = self.step();
        if !r.is_finite() {
            return Err(self
                .inviscid
                .locate_nonfinite()
                .unwrap_or(SolverError::NonFinite {
                    field: "residual",
                    i: n,
                    j: 0,
                }));
        }
        if crate::audit::due(n) {
            let findings = crate::audit::audit_ns(&self.inviscid, n, false);
            crate::audit::apply(&mut self.inviscid.telemetry, findings)?;
        }
        Ok(r)
    }

    fn progress(&self) -> usize {
        self.inviscid.progress()
    }

    fn startup_units(&self) -> usize {
        self.inviscid.startup_units()
    }

    /// The Euler core's snapshot: it owns the conserved field, the step
    /// counter and the CFL scale, and both scratch structs are recomputed
    /// every step.
    fn save_state(&self) -> crate::runctl::Snapshot {
        self.inviscid.save_state()
    }

    fn restore_state(&mut self, snap: &crate::runctl::Snapshot) -> Result<(), SolverError> {
        self.inviscid.restore_state(snap)
    }

    fn cfl_scale(&self) -> f64 {
        self.inviscid.cfl_scale()
    }

    fn set_cfl_scale(&mut self, scale: f64) {
        self.inviscid.set_cfl_scale(scale);
    }

    fn set_first_order_fallback(&mut self, on: bool) {
        self.inviscid.set_first_order_fallback(on);
    }

    fn meta(&self) -> crate::runctl::RunMeta {
        crate::runctl::RunMeta {
            tag: "ns2d".to_string(),
            gas: self.inviscid.gas().describe(),
            shape: self.inviscid.u.shape(),
        }
    }

    fn telemetry_mut(&mut self) -> &mut RunTelemetry {
        &mut self.inviscid.telemetry
    }

    fn finalize(&mut self, converged: bool) -> Result<(), SolverError> {
        if crate::audit::cadence() != 0 {
            let findings = crate::audit::audit_ns(&self.inviscid, self.progress(), converged);
            crate::audit::apply(&mut self.inviscid.telemetry, findings)?;
        }
        Ok(())
    }

    fn poison(&mut self) {
        let (i, j) = (self.inviscid.nci() / 2, self.inviscid.ncj() / 2);
        self.inviscid.u.vector_mut(i, j)[0] = f64::NAN;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blayer::{fay_riddell, newtonian_velocity_gradient, FayRiddellInputs};
    use crate::euler2d::RHO_FLOOR;
    use crate::runctl::{run_to, startup_schedule, Steppable};
    use aerothermo_gas::IdealGas;
    use aerothermo_grid::bodies::Hemisphere;
    use aerothermo_grid::{stretch, Geometry, StructuredGrid};

    /// Viscous wall flow with deterministic per-cell perturbations of the
    /// freestream (admissible: positive density and pressure).
    fn perturbed_ns_solver<'a>(
        grid: &'a StructuredGrid,
        gas: &'a IdealGas,
        mach: f64,
        amp: f64,
        seed: u64,
    ) -> NsSolver<'a> {
        let t = 250.0;
        let p0 = 2000.0;
        let rho0 = p0 / (287.05 * t);
        let a0 = (1.4_f64 * 287.05 * t).sqrt();
        let v0 = mach * a0;
        let fs = (rho0, v0, 0.0, p0);
        let bc = BcSet {
            i_lo: Bc::Inflow {
                rho: fs.0,
                ux: fs.1,
                ur: fs.2,
                p: fs.3,
            },
            i_hi: Bc::Outflow,
            j_lo: Bc::SlipWall,
            j_hi: Bc::Inflow {
                rho: fs.0,
                ux: fs.1,
                ur: fs.2,
                p: fs.3,
            },
        };
        let opts = EulerOptions {
            startup_steps: 0,
            ..EulerOptions::default()
        };
        let mut solver = NsSolver::new(grid, gas, bc, opts, fs, Transport::air(), 300.0);
        let mut state = seed | 1;
        let mut noise = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        for i in 0..grid.nci() {
            for j in 0..grid.ncj() {
                let rho = rho0 * (1.0 + amp * noise());
                let p = p0 * (1.0 + amp * noise());
                let ux = v0 * (1.0 + amp * noise());
                let ur = 0.3 * v0 * amp * noise();
                let e = gas.energy(rho, p);
                let cell = solver.inviscid.u.vector_mut(i, j);
                cell[0] = rho;
                cell[1] = rho * ux;
                cell[2] = rho * ur;
                cell[3] = rho * (e + 0.5 * (ux * ux + ur * ur));
            }
        }
        solver
    }

    /// The oracle residual of every cell: the inviscid `cell_residual` plus
    /// `viscous_residual`, fed primitives and temperatures decoded cell by
    /// cell (never the step's caches), so a wrong cache fill fails too.
    fn oracle_residuals(solver: &NsSolver, first_order: bool) -> Vec<[f64; NEQ]> {
        let ncj = solver.inviscid.ncj();
        let n = solver.inviscid.nci() * ncj;
        let prim = crate::euler2d::tests::prims(&solver.inviscid);
        let temp: Vec<f64> = (0..n)
            .map(|idx| solver.temperature(idx / ncj, idx % ncj))
            .collect();
        (0..n)
            .map(|idx| {
                let (i, j) = (idx / ncj, idx % ncj);
                let mut cc = solver.inviscid.cell_residual(&prim, i, j, first_order);
                let vc = solver.viscous_residual(&prim, &temp, i, j);
                for k in 0..NEQ {
                    cc[k] += vc[k];
                }
                cc
            })
            .collect()
    }

    /// First cell and equation where the residual operator (inviscid +
    /// viscous faces) and the cell-by-cell reference residual differ, with
    /// both values.
    fn face_vs_cell_mismatch(
        solver: &NsSolver,
        first_order: bool,
    ) -> Option<(usize, usize, usize, f64, f64)> {
        let ncj = solver.inviscid.ncj();
        let (mut esc, mut vsc) = (EulerScratch::default(), NsScratch::default());
        solver.fill_residual(&mut esc, &mut vsc, first_order, 0.5);
        let oracle = oracle_residuals(solver, first_order);
        for (idx, (fb, cc)) in esc.res.iter().zip(&oracle).enumerate() {
            if let Some(k) = (0..NEQ).find(|&k| fb[k] != cc[k]) {
                return Some((idx / ncj, idx % ncj, k, fb[k], cc[k]));
            }
        }
        None
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig {
            cases: 24,
            ..proptest::test_runner::ProptestConfig::default()
        })]

        /// The face-based viscous+inviscid assembly equals the cell-by-cell
        /// reference exactly on randomized admissible states — both
        /// reconstruction orders, both geometries.
        #[test]
        fn face_based_matches_cell_centered_ns_residuals(
            mach in 0.5_f64..4.0,
            amp in 0.01_f64..0.12,
            seed in 0_u64..1_000_000,
        ) {
            let gas = IdealGas::air();
            for geometry in [Geometry::Planar, Geometry::Axisymmetric] {
                let grid = StructuredGrid::rectangle(7, 9, 0.2, 0.1, geometry);
                let solver = perturbed_ns_solver(&grid, &gas, mach, amp, seed);
                for first_order in [true, false] {
                    let d = face_vs_cell_mismatch(&solver, first_order);
                    proptest::prop_assert!(
                        d.is_none(),
                        "(i, j, k, face, cell) = {d:?} ({geometry:?}, first_order = {first_order})"
                    );
                }
            }
        }
    }

    #[test]
    fn quiescent_gas_cools_toward_wall_temperature() {
        // Closed box of hot gas between cold isothermal walls (j_lo) and a
        // symmetry top: conduction must cool the near-wall gas, heat flux
        // into the wall positive.
        let gas = IdealGas::air();
        let grid = StructuredGrid::rectangle(4, 20, 0.1, 0.01, Geometry::Planar);
        let bc = BcSet {
            i_lo: Bc::SlipWall,
            i_hi: Bc::SlipWall,
            j_lo: Bc::SlipWall,
            j_hi: Bc::SlipWall,
        };
        let opts = EulerOptions {
            startup_steps: 0,
            cfl: 0.3,
            ..EulerOptions::default()
        };
        // Gas at 600 K, wall at 300 K.
        let rho = 101_325.0 / (287.05 * 600.0);
        let mut solver = NsSolver::new(
            &grid,
            &gas,
            bc,
            opts,
            (rho, 0.0, 0.0, 101_325.0),
            Transport::air(),
            300.0,
        );
        let t0 = solver.temperature(1, 0);
        let q0 = solver.wall_heat_flux(1);
        assert!(q0 > 0.0, "heat must flow into the cold wall: {q0}");
        for _ in 0..2000 {
            solver.step();
        }
        let t1 = solver.temperature(1, 0);
        assert!(t1 < t0 - 1.0, "near-wall gas should cool: {t0} -> {t1}");
    }

    #[test]
    fn hemisphere_viscous_stagnation_heating_vs_fay_riddell() {
        // Mach 8 over a 0.1 m hemisphere at wind-tunnel-like conditions;
        // the NS wall heat flux at the stagnation point should agree with
        // Fay-Riddell within a factor ~2 on this coarse grid.
        let gas = IdealGas::air();
        let rn = 0.1;
        let body = Hemisphere::new(rn);
        let dist = stretch::tanh_one_sided(61, 4.0);
        let grid =
            StructuredGrid::blunt_body(&body, 21, 61, &|sb| (0.035 + 0.03 * sb) * rn / 0.1, &dist);
        let t_inf = 220.0;
        let p_inf = 500.0;
        let rho_inf = p_inf / (287.05 * t_inf);
        let a_inf = (1.4_f64 * 287.05 * t_inf).sqrt();
        let v_inf = 8.0 * a_inf;
        let fs = (rho_inf, v_inf, 0.0, p_inf);
        let bc = BcSet {
            i_lo: Bc::SlipWall,
            i_hi: Bc::Outflow,
            j_lo: Bc::SlipWall,
            j_hi: Bc::Inflow {
                rho: fs.0,
                ux: fs.1,
                ur: fs.2,
                p: fs.3,
            },
        };
        let t_wall = 300.0;
        let opts = EulerOptions {
            cfl: 0.4,
            startup_steps: 500,
            ..EulerOptions::default()
        };
        let mut solver = NsSolver::new(&grid, &gas, bc, opts, fs, Transport::air(), t_wall);
        // The diffusive near-wall layer converges slowly under local time
        // stepping; average the flux over the tail of the run to smooth the
        // residual limit cycle.
        run_to(&mut solver, 15_000, 1e-9);
        let mut q_ns = 0.0;
        for _ in 0..5 {
            let end = solver.progress() + 1_000;
            run_to(&mut solver, end, 1e-9);
            q_ns += solver.wall_heat_flux(0) / 5.0;
        }

        // Fay-Riddell reference.
        let (p_ratio, rho_ratio, t_ratio, _) = crate::shock::perfect_gas_jump(8.0, 1.4);
        let p_e = p_inf * p_ratio * 1.094; // post-shock + isentropic recompression ≈ pitot
        let t_e = t_inf * t_ratio * 1.02;
        let rho_e = rho_inf * rho_ratio * p_e / (p_inf * p_ratio) * t_inf * t_ratio / t_e;
        let mu_e = sutherland_air(t_e);
        let rho_w = p_e / (287.05 * t_wall);
        let q_fr = fay_riddell(&FayRiddellInputs {
            rho_e,
            mu_e,
            rho_w,
            mu_w: sutherland_air(t_wall),
            due_dx: newtonian_velocity_gradient(rn, p_e, p_inf, rho_e),
            h0e: 1004.5 * t_inf + 0.5 * v_inf * v_inf,
            hw: 1004.5 * t_wall,
            pr: 0.72,
            lewis: 1.0,
            h_d_frac: 0.0,
        });
        let ratio = q_ns / q_fr;
        assert!(
            ratio > 0.4 && ratio < 3.0,
            "q_NS = {q_ns:.3e}, q_FR = {q_fr:.3e}, ratio = {ratio:.2}"
        );
    }

    #[test]
    fn wall_shear_positive_downstream_of_stagnation() {
        let gas = IdealGas::air();
        let rn = 0.1;
        let body = Hemisphere::new(rn);
        let dist = stretch::tanh_one_sided(41, 3.5);
        let grid =
            StructuredGrid::blunt_body(&body, 17, 41, &|sb| (0.035 + 0.03 * sb) * rn / 0.1, &dist);
        let t_inf = 220.0;
        let p_inf = 500.0;
        let rho_inf = p_inf / (287.05 * t_inf);
        let v_inf = 6.0 * (1.4_f64 * 287.05 * t_inf).sqrt();
        let fs = (rho_inf, v_inf, 0.0, p_inf);
        let bc = BcSet {
            i_lo: Bc::SlipWall,
            i_hi: Bc::Outflow,
            j_lo: Bc::SlipWall,
            j_hi: Bc::Inflow {
                rho: fs.0,
                ux: fs.1,
                ur: fs.2,
                p: fs.3,
            },
        };
        let opts = EulerOptions {
            cfl: 0.4,
            startup_steps: 400,
            ..EulerOptions::default()
        };
        let mut solver = NsSolver::new(&grid, &gas, bc, opts, fs, Transport::air(), 300.0);
        run_to(&mut solver, 3000, 1e-2);
        // Shear grows away from the stagnation point then stays positive.
        let tau_stag = solver.wall_shear(0);
        let tau_mid = solver.wall_shear(8);
        assert!(tau_mid > tau_stag, "{tau_stag} vs {tau_mid}");
        assert!(tau_mid > 0.0);
    }

    /// `step()` built from the cell-by-cell oracles: `oracle_residuals`,
    /// `viscous_dt` on cells decoded one by one, and its own update, floor
    /// and norm arithmetic. The history test below pins the production
    /// step to this.
    fn reference_step(solver: &mut NsSolver, opts: &EulerOptions) -> f64 {
        let (startup, cfl) = startup_schedule(solver.progress(), opts.startup_steps, opts.cfl);
        let ncj = solver.inviscid.ncj();
        let n = solver.inviscid.nci() * ncj;
        let res = oracle_residuals(solver, startup);
        let dts: Vec<f64> = (0..n)
            .map(|idx| {
                let (i, j) = (idx / ncj, idx % ncj);
                let q = solver.inviscid.primitive(i, j);
                solver.viscous_dt(&q, solver.temperature(i, j), i, j, cfl)
            })
            .collect();
        let mut resnorm = 0.0;
        for (idx, (res, dt)) in res.into_iter().zip(dts).enumerate() {
            let (i, j) = (idx / ncj, idx % ncj);
            let v = solver.inviscid.grid_metrics().volume[(i, j)];
            let cell = solver.inviscid.u.vector_mut(i, j);
            let scale = dt / v;
            for k in 0..NEQ {
                cell[k] += scale * res[k];
            }
            if cell[0] < RHO_FLOOR {
                cell[0] = RHO_FLOOR;
            }
            let r = res[0] / v;
            resnorm += r * r;
        }
        solver.inviscid.steps_taken += 1;
        (resnorm / n as f64).sqrt()
    }

    #[test]
    fn ns_residual_history_matches_cell_centered_reference() {
        // First 50 residuals of a viscous hemisphere run: production step
        // vs the oracle-built step, on identical twin solvers.
        let gas = IdealGas::air();
        let rn = 0.1;
        let body = Hemisphere::new(rn);
        let dist = stretch::tanh_one_sided(31, 3.5);
        let grid = StructuredGrid::blunt_body(&body, 13, 31, &|sb| 0.035 + 0.03 * sb, &dist);
        let t_inf = 220.0;
        let p_inf = 500.0;
        let rho_inf = p_inf / (287.05 * t_inf);
        let fs = (rho_inf, 8.0 * (1.4_f64 * 287.05 * t_inf).sqrt(), 0.0, p_inf);
        let bc = BcSet {
            i_lo: Bc::SlipWall,
            i_hi: Bc::Outflow,
            j_lo: Bc::SlipWall,
            j_hi: Bc::Inflow {
                rho: fs.0,
                ux: fs.1,
                ur: fs.2,
                p: fs.3,
            },
        };
        // startup_steps = 30 so the compared window crosses the first-order
        // → second-order switch.
        let opts = EulerOptions {
            cfl: 0.4,
            startup_steps: 30,
            ..EulerOptions::default()
        };
        let twin = || NsSolver::new(&grid, &gas, bc, opts.clone(), fs, Transport::air(), 300.0);
        let (mut fast, mut reference) = (twin(), twin());
        for n in 0..50 {
            let rf = fast.step();
            let rr = reference_step(&mut reference, &opts);
            assert!(
                rf == rr,
                "residual diverged at step {n}: step {rf:.17e} vs reference {rr:.17e}"
            );
        }
        let (a, b) = (fast.inviscid.u.as_slice(), reference.inviscid.u.as_slice());
        assert!(a == b, "states diverged after 50 steps");
    }
}
