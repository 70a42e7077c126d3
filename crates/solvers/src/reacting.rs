//! Two-temperature nonequilibrium reacting Euler solver.
//!
//! The paper's closing section names the coupling of nonequilibrium
//! phenomena to multidimensional flowfield codes as the discipline's biggest
//! challenge, and describes the practical strategy of the era: the species
//! and flowfield equations are advanced in a *loosely coupled* manner, the
//! stiff chemistry handled by its own implicit integrator. This module
//! implements exactly that:
//!
//! * conserved state per cell: `[ρ₁…ρ_ns, ρu_x, ρu_r, ρE, ρe_v]` — partial
//!   densities, momentum, total energy, and the vibronic energy of the
//!   two-temperature model,
//! * convection: the same AUSM+ / local-time-step machinery as
//!   [`crate::euler2d`], with species mass fractions and vibronic energy
//!   carried upwind,
//! * source terms: operator-split per cell — after the shared explicit
//!   update, the Park reaction set and the Landau-Teller exchange are
//!   integrated over each cell's convective time step by the adaptive
//!   Rosenbrock-W integrator (ROS34PW2) of `aerothermo-numerics`, the same
//!   kernel that drives the 1-D relaxation solver, so the two agree by
//!   construction.
//!
//! Temperature recovery is closed-form: translation/rotation carry
//! `e − e_v − e_formation` with a composition-dependent but
//! temperature-independent `c_v,tr`, so no per-cell Newton is needed on the
//! convective side.

use crate::euler2d::{convective_spectral_sum, explicit_update, AusmFace, Line, Primitive};
use aerothermo_gas::kinetics::{ReactionSet, MAX_SPECIES};
use aerothermo_gas::relaxation::RelaxationModel;
use aerothermo_gas::source::{two_temperature_source, SourceState};
use aerothermo_gas::thermo::Mixture;
use aerothermo_grid::{Geometry, Metrics, StructuredGrid};
use aerothermo_numerics::ode::{stiff_integrate, AdaptiveOptions};
use aerothermo_numerics::telemetry::{counters, Counter, RunTelemetry, SolverError};
use aerothermo_numerics::{trace, Field3};
use rayon::prelude::*;
use std::cell::Cell as StdCell;

/// Mixture-density floor of the primitive decode \[kg/m³\].
const RHO_FLOOR: f64 = 1e-14;

/// Boundary condition for one block side.
#[derive(Debug, Clone)]
pub enum ReactingBc {
    /// Supersonic inflow at the given freestream.
    Inflow(FreeStream),
    /// Zero-gradient outflow.
    Outflow,
    /// Inviscid slip wall / symmetry.
    SlipWall,
}

/// Freestream description for the reacting solver.
#[derive(Debug, Clone)]
pub struct FreeStream {
    /// Mass fractions (mixture order).
    pub y: Vec<f64>,
    /// Density \[kg/m³\].
    pub rho: f64,
    /// Axial velocity \[m/s\].
    pub ux: f64,
    /// Radial velocity \[m/s\].
    pub ur: f64,
    /// Temperature \[K\] (thermal equilibrium upstream: T_v = T).
    pub t: f64,
}

/// Boundary conditions for the four sides.
#[derive(Debug, Clone)]
pub struct ReactingBcSet {
    /// i = 0 side.
    pub i_lo: ReactingBc,
    /// i = ni−1 side.
    pub i_hi: ReactingBc,
    /// j = 0 side (body).
    pub j_lo: ReactingBc,
    /// j = nj−1 side (outer).
    pub j_hi: ReactingBc,
}

/// One block side as the face sweeps see it. The inflow ghost state never
/// changes, so it is decoded once, when the solver is built.
#[derive(Debug, Default)]
enum Side {
    Inflow(ReactingPrimitive),
    #[default]
    Outflow,
    SlipWall,
}

/// Solver options.
#[derive(Debug, Clone)]
pub struct ReactingOptions {
    /// CFL number.
    pub cfl: f64,
    /// First-order, chemistry-frozen startup steps.
    pub startup_steps: usize,
    /// Disable chemistry entirely (frozen-flow mode, for testing).
    pub frozen: bool,
}

impl Default for ReactingOptions {
    fn default() -> Self {
        Self {
            cfl: 0.4,
            startup_steps: 300,
            frozen: false,
        }
    }
}

/// Primitive state of a reacting cell.
#[derive(Debug, Clone, Default)]
pub struct ReactingPrimitive {
    /// Mass fractions.
    pub y: Vec<f64>,
    /// Mixture density \[kg/m³\].
    pub rho: f64,
    /// Axial velocity \[m/s\].
    pub ux: f64,
    /// Radial velocity \[m/s\].
    pub ur: f64,
    /// Pressure \[Pa\].
    pub p: f64,
    /// Translational-rotational temperature \[K\].
    pub t: f64,
    /// Vibronic temperature \[K\].
    pub tv: f64,
    /// Vibronic energy per unit mass \[J/kg\].
    pub ev: f64,
    /// Frozen sound speed \[m/s\].
    pub a: f64,
    /// Total specific enthalpy \[J/kg\].
    pub h0: f64,
}

impl ReactingPrimitive {
    /// Borrowed view of this primitive (the form the flux kernels take, so
    /// cached SoA cells and owned ghost states share one code path).
    fn as_view(&self) -> ReactingPrimRef<'_> {
        ReactingPrimRef {
            y: &self.y,
            rho: self.rho,
            ux: self.ux,
            ur: self.ur,
            p: self.p,
            ev: self.ev,
            a: self.a,
            h0: self.h0,
        }
    }
}

/// Borrowed per-cell view into [`ReactingPrimSoA`] (or an owned
/// [`ReactingPrimitive`] via [`ReactingPrimitive::as_view`]).
#[derive(Debug, Clone, Copy)]
struct ReactingPrimRef<'s> {
    y: &'s [f64],
    rho: f64,
    ux: f64,
    ur: f64,
    p: f64,
    ev: f64,
    a: f64,
    h0: f64,
}

impl ReactingPrimRef<'_> {
    /// The mixture-level fields as an Euler primitive, the form the shared
    /// AUSM+ core and spectral radius take.
    fn mixture(self) -> Primitive {
        Primitive {
            rho: self.rho,
            ux: self.ux,
            ur: self.ur,
            p: self.p,
            a: self.a,
            h0: self.h0,
        }
    }
}

/// Structure-of-arrays cache of every cell's reacting primitives: one flat
/// lane per scalar field plus a cell-major mass-fraction matrix with stride
/// `ns` — a handful of dense buffers instead of `nci·ncj` heap `y` vectors,
/// so the per-step decode writes and the face-sweep reads stream linearly.
#[derive(Debug, Default)]
struct ReactingPrimSoA {
    ns: usize,
    /// Mass fractions, cell-major `idx * ns + s`.
    y: Vec<f64>,
    rho: Vec<f64>,
    ux: Vec<f64>,
    ur: Vec<f64>,
    p: Vec<f64>,
    ev: Vec<f64>,
    a: Vec<f64>,
    h0: Vec<f64>,
}

impl ReactingPrimSoA {
    fn resize(&mut self, n: usize, ns: usize) {
        self.ns = ns;
        self.y.resize(n * ns, 0.0);
        self.rho.resize(n, 0.0);
        self.ux.resize(n, 0.0);
        self.ur.resize(n, 0.0);
        self.p.resize(n, 0.0);
        self.ev.resize(n, 0.0);
        self.a.resize(n, 0.0);
        self.h0.resize(n, 0.0);
    }

    fn view(&self, idx: usize) -> ReactingPrimRef<'_> {
        ReactingPrimRef {
            y: &self.y[idx * self.ns..(idx + 1) * self.ns],
            rho: self.rho[idx],
            ux: self.ux[idx],
            ur: self.ur[idx],
            p: self.p[idx],
            ev: self.ev[idx],
            a: self.a[idx],
            h0: self.h0[idx],
        }
    }

    fn set(&mut self, idx: usize, q: &ReactingPrimitive) {
        self.y[idx * self.ns..(idx + 1) * self.ns].copy_from_slice(&q.y);
        self.rho[idx] = q.rho;
        self.ux[idx] = q.ux;
        self.ur[idx] = q.ur;
        self.p[idx] = q.p;
        self.ev[idx] = q.ev;
        self.a[idx] = q.a;
        self.h0[idx] = q.h0;
    }
}

/// Reusable face-based-assembly scratch for the reacting solver: cached
/// cell primitives (their `y` vectors are reused across steps) and flat
/// face-flux buffers with stride `neq`. Allocated on the first step, reused
/// afterwards — the interior of the step loop is allocation-free.
#[derive(Debug, Default)]
struct ReactingScratch {
    /// Cell primitives, row-major `i * ncj + j`, in SoA layout.
    prim: ReactingPrimSoA,
    /// Reusable decode target for the primitive fill (keeps the per-cell
    /// `y` allocation out of the loop).
    tmp: ReactingPrimitive,
    /// i-face fluxes, flat `(iface * ncj + j) * neq`.
    fi: Vec<f64>,
    /// j-face fluxes, flat `(i * (ncj + 1) + jface) * neq`.
    fj: Vec<f64>,
    /// Per-cell local time steps (consumed by the explicit update and the
    /// chemistry substep).
    dts: Vec<f64>,
    /// Per-cell net residuals, flat `(i * ncj + j) * neq`.
    res: Vec<f64>,
}

/// The reacting finite-volume solver.
pub struct ReactingSolver<'a> {
    grid: &'a StructuredGrid,
    metrics: Metrics,
    mix: &'a Mixture,
    reactions: &'a ReactionSet,
    relaxation: &'a RelaxationModel,
    bc: ReactingBcSet,
    /// `bc` resolved for the face sweeps, in i-lo, i-hi, j-lo, j-hi order.
    sides: [Side; 4],
    opts: ReactingOptions,
    ns: usize,
    neq: usize,
    /// Conserved state, shape (nci, ncj, ns + 4).
    pub u: Field3<f64>,
    steps: usize,
    /// Run-control CFL scale (1.0 = nominal; halved on rollback).
    cfl_scale: f64,
    /// Run observability: residual histories and audit findings.
    pub telemetry: RunTelemetry,
    scratch: ReactingScratch,
}

impl<'a> ReactingSolver<'a> {
    /// Create the solver with every cell at the freestream.
    ///
    /// # Panics
    /// Panics if the freestream mass fractions mismatch the mixture.
    #[must_use]
    pub fn new(
        grid: &'a StructuredGrid,
        reactions: &'a ReactionSet,
        relaxation: &'a RelaxationModel,
        bc: ReactingBcSet,
        opts: ReactingOptions,
        freestream: &FreeStream,
    ) -> Self {
        let mix = reactions.mixture();
        let ns = mix.len();
        assert_eq!(freestream.y.len(), ns);
        let neq = ns + 4;
        let cons = Self::conserved_from_freestream(mix, freestream);
        let mut u = Field3::zeros(grid.nci(), grid.ncj(), neq);
        for i in 0..grid.nci() {
            for j in 0..grid.ncj() {
                u.vector_mut(i, j).copy_from_slice(&cons);
            }
        }
        let metrics = Metrics::new(grid);
        let mut solver = Self {
            grid,
            metrics,
            mix,
            reactions,
            relaxation,
            bc,
            sides: Default::default(),
            opts,
            ns,
            neq,
            u,
            steps: 0,
            cfl_scale: 1.0,
            telemetry: RunTelemetry::new(),
            scratch: ReactingScratch::default(),
        };
        let bc = &solver.bc;
        solver.sides = [&bc.i_lo, &bc.i_hi, &bc.j_lo, &bc.j_hi].map(|bc| match bc {
            ReactingBc::Inflow(fs) => {
                let c = Self::conserved_from_freestream(mix, fs);
                Side::Inflow(solver.primitive_of(&c, fs.t))
            }
            ReactingBc::Outflow => Side::Outflow,
            ReactingBc::SlipWall => Side::SlipWall,
        });
        solver
    }

    fn conserved_from_freestream(mix: &Mixture, fs: &FreeStream) -> Vec<f64> {
        let ns = mix.len();
        let ev = mix.e_vibronic(fs.t, &fs.y);
        let e = mix.e_total(fs.t, &fs.y);
        let ke = 0.5 * (fs.ux * fs.ux + fs.ur * fs.ur);
        let mut c = vec![0.0; ns + 4];
        for s in 0..ns {
            c[s] = fs.rho * fs.y[s];
        }
        c[ns] = fs.rho * fs.ux;
        c[ns + 1] = fs.rho * fs.ur;
        c[ns + 2] = fs.rho * (e + ke);
        c[ns + 3] = fs.rho * ev;
        c
    }

    /// Translational-rotational specific heat at constant volume
    /// \[J/(kg·K)\] — temperature independent.
    fn cv_tr(&self, y: &[f64]) -> f64 {
        let mut cv = 0.0;
        for (sp, yi) in self.mix.species().iter().zip(y) {
            if sp.name == "e-" {
                continue; // electron translational energy rides in e_v
            }
            let dof_rot = match sp.rot {
                aerothermo_gas::Rotation::None => 0.0,
                aerothermo_gas::Rotation::Linear { .. } => 2.0,
                aerothermo_gas::Rotation::Nonlinear { .. } => 3.0,
            };
            cv += yi * (1.5 + 0.5 * dof_rot) * sp.gas_constant();
        }
        cv
    }

    fn e_formation(&self, y: &[f64]) -> f64 {
        self.mix
            .species()
            .iter()
            .zip(y)
            .map(|(sp, yi)| yi * sp.e_formation())
            .sum()
    }

    /// Decode a conserved vector (with warm-started T_v inversion).
    fn primitive_of(&self, c: &[f64], tv_guess: f64) -> ReactingPrimitive {
        let mut out = ReactingPrimitive::default();
        self.primitive_into(c, tv_guess, &mut out);
        out
    }

    /// [`Self::primitive_of`] writing into `out`, reusing its `y`
    /// allocation — the form the per-step primitive cache uses.
    fn primitive_into(&self, c: &[f64], tv_guess: f64, out: &mut ReactingPrimitive) {
        let mut y = std::mem::take(&mut out.y);
        y.resize(self.ns, 0.0);
        *out = self.decode(c, tv_guess, &mut y);
        out.y = y;
    }

    /// Decode a conserved vector with its mass fractions written to `y`
    /// (length `ns`, so it may live on the stack); the returned `y` is
    /// empty and unallocated.
    fn decode(&self, c: &[f64], tv_guess: f64, y: &mut [f64]) -> ReactingPrimitive {
        let ns = self.ns;
        let mut rho = 0.0;
        for s in 0..ns {
            rho += c[s].max(0.0);
        }
        let rho = rho.max(RHO_FLOOR);
        for s in 0..ns {
            y[s] = c[s].max(0.0) / rho;
        }
        let ux = c[ns] / rho;
        let ur = c[ns + 1] / rho;
        let ke = 0.5 * (ux * ux + ur * ur);
        let e = (c[ns + 2] / rho - ke).max(1e3);
        let ev = (c[ns + 3] / rho).max(0.0);
        let cv_tr = self.cv_tr(y).max(10.0);
        let t = ((e - ev - self.e_formation(y)) / cv_tr).clamp(20.0, 120_000.0);
        let tv = self
            .mix
            .tv_from_vibronic_energy(ev, y, tv_guess)
            .unwrap_or(tv_guess)
            .clamp(20.0, 120_000.0);
        let r_gas = self.mix.gas_constant(y);
        let p = (rho * r_gas * t).max(1e-8);
        // Frozen sound speed with the active vibrational capacity.
        let cv = cv_tr
            + self
                .mix
                .species()
                .iter()
                .zip(y.iter())
                .map(|(sp, yi)| yi * sp.cv_vib(tv))
                .sum::<f64>();
        let gamma = 1.0 + r_gas / cv.max(1.0);
        let a = (gamma * p / rho).sqrt().max(1.0);
        let h0 = e + p / rho + ke;
        ReactingPrimitive {
            y: Vec::new(),
            rho,
            ux,
            ur,
            p,
            t,
            tv,
            ev,
            a,
            h0,
        }
    }

    /// Primitive state of cell `(i, j)`.
    #[must_use]
    pub fn primitive(&self, i: usize, j: usize) -> ReactingPrimitive {
        self.primitive_of(self.u.vector(i, j), 3000.0)
    }

    /// Number of cells along i.
    #[must_use]
    pub fn nci(&self) -> usize {
        self.grid.nci()
    }

    /// Number of cells along j.
    #[must_use]
    pub fn ncj(&self) -> usize {
        self.grid.ncj()
    }

    /// The species mixture the solver was built on.
    #[must_use]
    pub fn mixture(&self) -> &Mixture {
        self.mix
    }

    /// Mass fractions of the first inflow boundary, scanning i-lo, i-hi,
    /// j-lo, j-hi — the reference composition for element-conservation
    /// audits. `None` for closed (wall/outflow-only) problems.
    #[must_use]
    pub fn freestream_composition(&self) -> Option<Vec<f64>> {
        [&self.bc.i_lo, &self.bc.i_hi, &self.bc.j_lo, &self.bc.j_hi]
            .into_iter()
            .find_map(|bc| match bc {
                ReactingBc::Inflow(fs) => Some(fs.y.clone()),
                _ => None,
            })
    }

    /// AUSM+ flux·area of the reacting state vector into a caller-provided
    /// `neq`-wide slice (no per-face allocation): the shared AUSM+ core
    /// with the species, momentum, h0 and e_v rows carried upwind.
    fn ausm_flux_into(
        &self,
        left: ReactingPrimRef<'_>,
        right: ReactingPrimRef<'_>,
        sx: f64,
        sr: f64,
        f: &mut [f64],
    ) {
        let ns = self.ns;
        let face = AusmFace::new(&left.mixture(), &right.mixture(), sx, sr);
        let (mdot, p_half, area) = (face.mdot, face.p_half, face.area);
        let up = face.upwind(&left, &right);

        for s in 0..ns {
            f[s] = mdot * up.y[s] * area;
        }
        f[ns] = (mdot * up.ux + p_half * face.nx) * area;
        f[ns + 1] = (mdot * up.ur + p_half * face.nr) * area;
        f[ns + 2] = mdot * up.h0 * area;
        f[ns + 3] = mdot * up.ev * area;
    }

    /// Flux through face `f` of `line` with area-weighted normal `(sx, sr)`
    /// from cached primitives, the boundary ghost faces included.
    fn face_flux_into(
        &self,
        prim: &ReactingPrimSoA,
        line: &Line<&Side>,
        f: usize,
        sx: f64,
        sr: f64,
        out: &mut [f64],
    ) {
        if f == 0 || f == line.n {
            let area = (sx * sx + sr * sr).sqrt().max(1e-300);
            let (side, qc, nx, nr) = if f == 0 {
                (line.lo, prim.view(line.base), -sx / area, -sr / area)
            } else {
                (line.hi, prim.view(line.cell(f - 1)), sx / area, sr / area)
            };
            let g = match side {
                Side::Inflow(q) => q.as_view(),
                Side::Outflow => qc,
                Side::SlipWall => {
                    let un = qc.ux * nx + qc.ur * nr;
                    ReactingPrimRef {
                        ux: qc.ux - 2.0 * un * nx,
                        ur: qc.ur - 2.0 * un * nr,
                        ..qc
                    }
                }
            };
            if f == 0 {
                self.ausm_flux_into(g, qc, sx, sr, out);
            } else {
                self.ausm_flux_into(qc, g, sx, sr, out);
            }
        } else {
            let (ql, qr) = (prim.view(line.cell(f - 1)), prim.view(line.cell(f)));
            self.ausm_flux_into(ql, qr, sx, sr, out);
        }
    }

    /// Fill the scratch buffers for the current state: decode every cell's
    /// primitives once (reusing their allocations), then sweep each i- and
    /// j-face exactly once, row-parallel over disjoint chunks.
    fn assemble_faces(&self, scratch: &mut ReactingScratch) {
        let nci = self.grid.nci();
        let ncj = self.grid.ncj();
        let neq = self.neq;
        scratch.prim.resize(nci * ncj, self.ns);
        scratch.fi.resize((nci + 1) * ncj * neq, 0.0);
        scratch.fj.resize(nci * (ncj + 1) * neq, 0.0);

        for i in 0..nci {
            for j in 0..ncj {
                self.primitive_into(self.u.vector(i, j), 3000.0, &mut scratch.tmp);
                scratch.prim.set(i * ncj + j, &scratch.tmp);
            }
        }

        let prim: &ReactingPrimSoA = &scratch.prim;
        let (m, [i_lo, i_hi, j_lo, j_hi]) = (&self.metrics, &self.sides);
        scratch
            .fi
            .par_chunks_mut(ncj * neq)
            .enumerate()
            .for_each(|(iface, col)| {
                for (j, f) in col.chunks_exact_mut(neq).enumerate() {
                    let line = Line::along_i(j, nci, ncj, i_lo, i_hi);
                    let (sx, sr) = (m.si_x[(iface, j)], m.si_r[(iface, j)]);
                    self.face_flux_into(prim, &line, iface, sx, sr, f);
                }
            });
        scratch
            .fj
            .par_chunks_mut((ncj + 1) * neq)
            .enumerate()
            .for_each(|(i, row)| {
                let line = Line::along_j(i, ncj, j_lo, j_hi);
                for (jface, f) in row.chunks_exact_mut(neq).enumerate() {
                    let (sx, sr) = (m.sj_x[(i, jface)], m.sj_r[(i, jface)]);
                    self.face_flux_into(prim, &line, jface, sx, sr, f);
                }
            });
        counters::add(
            Counter::FacesEvaluated,
            ((nci + 1) * ncj + nci * (ncj + 1)) as u64,
        );
    }

    /// Net residual of cell (i, j) gathered from the assembled face fluxes
    /// (+i-lo, −i-hi, +j-lo, −j-hi, axisymmetric source last): the order
    /// the test-only cell-by-cell reference `cell_residual` sums in.
    fn gather_residual_into(&self, scratch: &ReactingScratch, i: usize, j: usize, res: &mut [f64]) {
        let ncj = self.grid.ncj();
        let neq = self.neq;
        let fil = &scratch.fi[(i * ncj + j) * neq..(i * ncj + j + 1) * neq];
        let fih = &scratch.fi[((i + 1) * ncj + j) * neq..((i + 1) * ncj + j + 1) * neq];
        let base = i * (ncj + 1) + j;
        let fjl = &scratch.fj[base * neq..(base + 1) * neq];
        let fjh = &scratch.fj[(base + 1) * neq..(base + 2) * neq];
        for k in 0..neq {
            let mut r = fil[k];
            r -= fih[k];
            r += fjl[k];
            r -= fjh[k];
            res[k] = r;
        }
        if self.grid.geometry == Geometry::Axisymmetric {
            res[self.ns + 1] += scratch.prim.p[i * ncj + j] * self.metrics.plane_area[(i, j)];
        }
    }

    /// Convective residual of cell (i, j) evaluated cell by cell: each of
    /// its four faces through [`Self::face_flux_into`], summed in
    /// [`Self::gather_residual_into`]'s order. The reference the face-based
    /// assembly is tested against. First order: the strong shocks of the
    /// target problems are grid-aligned and the chemistry length scales
    /// dominate.
    #[cfg(test)]
    fn cell_residual(&self, prim: &ReactingPrimSoA, i: usize, j: usize) -> Vec<f64> {
        let (nci, ncj, neq) = (self.grid.nci(), self.grid.ncj(), self.neq);
        let m = &self.metrics;
        let [i_lo, i_hi, j_lo, j_hi] = &self.sides;
        let il = Line::along_i(j, nci, ncj, i_lo, i_hi);
        let jl = Line::along_j(i, ncj, j_lo, j_hi);
        let faces = [
            (&il, i, m.si_x[(i, j)], m.si_r[(i, j)]),
            (&il, i + 1, m.si_x[(i + 1, j)], m.si_r[(i + 1, j)]),
            (&jl, j, m.sj_x[(i, j)], m.sj_r[(i, j)]),
            (&jl, j + 1, m.sj_x[(i, j + 1)], m.sj_r[(i, j + 1)]),
        ];
        let f: Vec<Vec<f64>> = faces
            .into_iter()
            .map(|(line, k, sx, sr)| {
                let mut out = vec![0.0; neq];
                self.face_flux_into(prim, line, k, sx, sr, &mut out);
                out
            })
            .collect();
        let mut res: Vec<f64> = (0..neq)
            .map(|k| f[0][k] - f[1][k] + f[2][k] - f[3][k])
            .collect();
        if self.grid.geometry == Geometry::Axisymmetric {
            res[self.ns + 1] += prim.p[i * ncj + j] * m.plane_area[(i, j)];
        }
        res
    }

    fn local_dt(&self, q: ReactingPrimRef<'_>, i: usize, j: usize, cfl: f64) -> f64 {
        let m = &self.metrics;
        cfl * m.volume[(i, j)] / convective_spectral_sum(m, i, j, &q.mixture()).max(1e-300)
    }

    /// Operator-split chemistry + relaxation update of one cell over `dt`
    /// at frozen density, momentum, and total energy.
    fn chemistry_substep(&self, c: &mut [f64], dt: f64) {
        let ns = self.ns;
        let rho: f64 = (0..ns).map(|s| c[s].max(0.0)).sum();
        if rho <= 0.0 {
            return;
        }
        // Fast path: cold cells (undisturbed freestream) have reaction and
        // relaxation time scales of years — skip the stiff solve entirely.
        {
            let q = self.decode(c, 1000.0, &mut [0.0; MAX_SPECIES][..ns]);
            if q.t < 1200.0 && (q.tv - q.t).abs() < 150.0 {
                return;
            }
        }
        let tv_cache = StdCell::new(3000.0);
        // State vector for the stiff march: [ρ_1..ρ_ns, ρ e_v].
        let mut z_buf = [0.0; MAX_SPECIES + 1];
        let z = &mut z_buf[..=ns];
        z[..ns].copy_from_slice(&c[..ns]);
        z[ns] = c[ns + 3];
        let e_total = c[ns + 2];
        let mom = (c[ns], c[ns + 1]);

        let rhs = |_t: f64, z: &[f64], dz: &mut [f64]| {
            let rho: f64 = (0..ns).map(|s| z[s].max(0.0)).sum();
            let mut y = [0.0; MAX_SPECIES];
            for s in 0..ns {
                y[s] = z[s].max(0.0) / rho;
            }
            let y = &y[..ns];
            let ux = mom.0 / rho;
            let ur = mom.1 / rho;
            let ke = 0.5 * (ux * ux + ur * ur);
            let e = (e_total / rho - ke).max(1e3);
            let ev = (z[ns] / rho).max(0.0);
            let cv_tr = self.cv_tr(y).max(10.0);
            let t = ((e - ev - self.e_formation(y)) / cv_tr).clamp(50.0, 120_000.0);
            let tv = self
                .mix
                .tv_from_vibronic_energy(ev, y, tv_cache.get())
                .unwrap_or(tv_cache.get())
                .clamp(50.0, 120_000.0);
            tv_cache.set(tv);

            let p = rho * self.mix.gas_constant(y) * t;
            let state = SourceState { t, tv, rho, p, y };
            dz[ns] =
                two_temperature_source(self.reactions, self.relaxation, state, &mut dz[..ns], None);
        };

        let ok = stiff_integrate(
            &rhs,
            0.0,
            dt,
            z,
            &AdaptiveOptions {
                rtol: 1e-4,
                atol: 1e-9,
                h0: dt * 1e-3,
                hmin: dt * 1e-12,
                hmax: dt,
                max_steps: 20_000,
            },
            |_, _| {},
        );
        if ok.is_ok() {
            for s in 0..ns {
                c[s] = z[s].max(0.0);
            }
            c[ns + 3] = z[ns].max(0.0);
        }
    }

    /// The residual operator: assemble the faces of the current state,
    /// gather every cell's net residual into `scratch.res` and its local
    /// time step at `cfl` into `scratch.dts`. Reads `u`, never writes it.
    fn fill_residual(&self, scratch: &mut ReactingScratch, cfl: f64) {
        self.assemble_faces(scratch);
        let (ncj, neq) = (self.grid.ncj(), self.neq);
        let n = self.grid.nci() * ncj;
        let mut res = std::mem::take(&mut scratch.res);
        res.resize(n * neq, 0.0);
        scratch.dts.resize(n, 0.0);
        for (idx, r) in res.chunks_exact_mut(neq).enumerate() {
            let (i, j) = (idx / ncj, idx % ncj);
            self.gather_residual_into(scratch, i, j, r);
            scratch.dts[idx] = self.local_dt(scratch.prim.view(idx), i, j, cfl);
        }
        scratch.res = res;
    }

    /// One explicit convective step with operator-split chemistry; returns
    /// the density residual norm.
    pub fn step(&mut self) -> f64 {
        let _sp = trace::span("reacting_step");
        // Shared startup schedule: `first` also gates the chemistry substep
        // (frozen through the startup transient), so the run-control
        // first-order fallback intentionally does not apply here.
        let (first, cfl) = crate::runctl::startup_schedule(
            self.steps,
            self.opts.startup_steps,
            self.cfl_scale * self.opts.cfl,
        );
        let nci = self.grid.nci();
        let ncj = self.grid.ncj();

        let mut scratch = std::mem::take(&mut self.scratch);
        self.fill_residual(&mut scratch, cfl);
        let (res, dts) = (&scratch.res, &scratch.dts);
        // Species densities are floored at zero; the norm sums their rows.
        let resnorm = explicit_update(&mut self.u, &self.metrics.volume, res, dts, self.ns, 0.0);

        // Chemistry substep (skipped while the startup transient rings or in
        // frozen mode), cell-parallel.
        if !first && !self.opts.frozen {
            let _sp = trace::span("chemistry_substeps");
            counters::add(Counter::ChemistrySubsteps, (nci * ncj) as u64);
            let dts = &scratch.dts;
            // Each cell in place; `u` is moved out so the substeps can
            // borrow the solver.
            let mut u = std::mem::replace(&mut self.u, Field3::zeros(0, 0, 0));
            u.as_mut_slice()
                .par_chunks_mut(self.neq)
                .enumerate()
                .for_each(|(idx, c)| self.chemistry_substep(c, dts[idx]));
            self.u = u;
        }

        self.scratch = scratch;
        self.steps += 1;
        resnorm
    }

    /// First cell whose conserved state is non-finite, as a typed error.
    fn locate_nonfinite(&self) -> Option<SolverError> {
        for i in 0..self.grid.nci() {
            for j in 0..self.grid.ncj() {
                let cell = self.u.vector(i, j);
                for (k, v) in cell.iter().enumerate() {
                    if !v.is_finite() {
                        let field = if k < self.ns {
                            "species_density"
                        } else if k == self.ns {
                            "rho_ux"
                        } else if k == self.ns + 1 {
                            "rho_ur"
                        } else if k == self.ns + 2 {
                            "rho_E"
                        } else {
                            "rho_ev"
                        };
                        return Some(SolverError::NonFinite { field, i, j });
                    }
                }
            }
        }
        None
    }

    /// Stagnation-line profile: primitives of column i = 0, wall to outer.
    #[must_use]
    pub fn stagnation_line(&self) -> Vec<ReactingPrimitive> {
        (0..self.grid.ncj()).map(|j| self.primitive(0, j)).collect()
    }
}

impl crate::runctl::Steppable for ReactingSolver<'_> {
    fn advance(&mut self) -> Result<f64, SolverError> {
        let n = self.steps;
        let r = self.step();
        if !r.is_finite() {
            return Err(self.locate_nonfinite().unwrap_or(SolverError::NonFinite {
                field: "residual",
                i: n,
                j: 0,
            }));
        }
        if crate::audit::due(n) {
            let findings = crate::audit::audit_reacting(self, n);
            crate::audit::apply(&mut self.telemetry, findings)?;
        }
        Ok(r)
    }

    fn progress(&self) -> usize {
        self.steps
    }

    fn startup_units(&self) -> usize {
        self.opts.startup_steps
    }

    /// Conserved field, step counter and CFL scale; scratch is recomputed
    /// every step and excluded.
    fn save_state(&self) -> crate::runctl::Snapshot {
        crate::runctl::Snapshot {
            step: self.steps,
            cfl_scale: self.cfl_scale,
            data: self.u.as_slice().to_vec(),
        }
    }

    fn restore_state(&mut self, snap: &crate::runctl::Snapshot) -> Result<(), SolverError> {
        snap.restore_field("reacting", self.u.as_mut_slice())?;
        self.steps = snap.step;
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
            tag: "reacting".to_string(),
            gas: format!("mixture({} species)", self.ns),
            shape: self.u.shape(),
        }
    }

    fn telemetry_mut(&mut self) -> &mut RunTelemetry {
        &mut self.telemetry
    }

    fn finalize(&mut self, _converged: bool) -> Result<(), SolverError> {
        if crate::audit::cadence() != 0 {
            let findings = crate::audit::audit_reacting(self, self.steps);
            crate::audit::apply(&mut self.telemetry, findings)?;
        }
        Ok(())
    }

    fn poison(&mut self) {
        let (i, j) = (self.grid.nci() / 2, self.grid.ncj() / 2);
        self.u.vector_mut(i, j)[0] = f64::NAN;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runctl::run_to;
    use aerothermo_gas::equilibrium::air9_equilibrium;
    use aerothermo_gas::kinetics::park_air9;
    use aerothermo_grid::bodies::Hemisphere;
    use aerothermo_grid::stretch;

    fn air_freestream(rho: f64, v: f64, t: f64, ns: usize) -> FreeStream {
        let mut y = vec![0.0; ns];
        y[0] = 0.767;
        y[1] = 0.233;
        FreeStream {
            y,
            rho,
            ux: v,
            ur: 0.0,
            t,
        }
    }

    #[test]
    fn frozen_uniform_flow_preserved() {
        let gas = air9_equilibrium();
        let set = park_air9(gas.mixture());
        let relax = RelaxationModel::new(gas.mixture().clone());
        let grid = StructuredGrid::rectangle(12, 8, 1.0, 0.5, Geometry::Planar);
        let fs = air_freestream(1e-3, 2000.0, 300.0, gas.mixture().len());
        let bc = ReactingBcSet {
            i_lo: ReactingBc::Inflow(fs.clone()),
            i_hi: ReactingBc::Outflow,
            j_lo: ReactingBc::SlipWall,
            j_hi: ReactingBc::SlipWall,
        };
        let opts = ReactingOptions {
            frozen: true,
            startup_steps: 0,
            ..ReactingOptions::default()
        };
        let mut solver = ReactingSolver::new(&grid, &set, &relax, bc, opts, &fs);
        for _ in 0..40 {
            solver.step();
        }
        for i in 0..grid.nci() {
            for j in 0..grid.ncj() {
                let q = solver.primitive(i, j);
                assert!((q.rho - 1e-3).abs() / 1e-3 < 1e-9, "rho drift at ({i},{j})");
                assert!((q.t - 300.0).abs() < 0.01, "T drift: {}", q.t);
                assert!((q.y[0] - 0.767).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn element_ratio_preserved_through_shock_and_chemistry() {
        let gas = air9_equilibrium();
        let set = park_air9(gas.mixture());
        let relax = RelaxationModel::new(gas.mixture().clone());
        let rn = 0.05;
        let body = Hemisphere::new(rn);
        let dist = stretch::uniform(25);
        let grid = StructuredGrid::blunt_body(&body, 11, 25, &|sb| (0.3 + 0.2 * sb) * rn, &dist);
        let fs = air_freestream(5e-4, 5500.0, 250.0, gas.mixture().len());
        let bc = ReactingBcSet {
            i_lo: ReactingBc::SlipWall,
            i_hi: ReactingBc::Outflow,
            j_lo: ReactingBc::SlipWall,
            j_hi: ReactingBc::Inflow(fs.clone()),
        };
        let opts = ReactingOptions {
            startup_steps: 150,
            ..ReactingOptions::default()
        };
        let mut solver = ReactingSolver::new(&grid, &set, &relax, bc, opts, &fs);
        run_to(&mut solver, 320, 0.0);

        // Elemental N:O nuclei ratio must be 767/28.0134 : ... in every cell
        // regardless of how far chemistry has gone.
        let mix = gas.mixture();
        let target = {
            let n: f64 = 2.0 * 0.767 / 28.0134;
            let o: f64 = 2.0 * 0.233 / 31.9988;
            n / o
        };
        for i in 0..grid.nci() {
            for j in 0..grid.ncj() {
                let q = solver.primitive(i, j);
                let mut n_nuc = 0.0;
                let mut o_nuc = 0.0;
                for (sp, y) in mix.species().iter().zip(&q.y) {
                    n_nuc += f64::from(sp.atoms_of(aerothermo_gas::Element::N)) * y / sp.molar_mass;
                    o_nuc += f64::from(sp.atoms_of(aerothermo_gas::Element::O)) * y / sp.molar_mass;
                }
                let ratio = n_nuc / o_nuc;
                assert!(
                    (ratio - target).abs() / target < 0.02,
                    "element ratio at ({i},{j}): {ratio} vs {target}"
                );
            }
        }
    }

    #[test]
    fn bow_shock_chemistry_relaxes_along_stagnation_line() {
        // 5.5 km/s blunt body: O2 must dissociate progressively from the
        // shock toward the body, Tv lags T right behind the shock, and both
        // converge near the stagnation point.
        let gas = air9_equilibrium();
        let set = park_air9(gas.mixture());
        let relax = RelaxationModel::new(gas.mixture().clone());
        let rn = 0.05;
        let body = Hemisphere::new(rn);
        let dist = stretch::uniform(27);
        let grid = StructuredGrid::blunt_body(&body, 11, 27, &|sb| (0.3 + 0.2 * sb) * rn, &dist);
        let fs = air_freestream(1.5e-3, 5500.0, 250.0, gas.mixture().len());
        let bc = ReactingBcSet {
            i_lo: ReactingBc::SlipWall,
            i_hi: ReactingBc::Outflow,
            j_lo: ReactingBc::SlipWall,
            j_hi: ReactingBc::Inflow(fs.clone()),
        };
        let opts = ReactingOptions {
            startup_steps: 200,
            ..ReactingOptions::default()
        };
        let mut solver = ReactingSolver::new(&grid, &set, &relax, bc, opts, &fs);
        run_to(&mut solver, 520, 0.0);

        let line = solver.stagnation_line();
        // Find the shock: outermost cell with T > 2×T∞.
        let j_shock = (0..line.len())
            .rev()
            .find(|&j| line[j].t > 500.0)
            .expect("no shock captured");
        let behind = &line[j_shock.saturating_sub(1)];
        let stag = &line[1];
        assert!(behind.t > 4000.0, "post-shock T = {}", behind.t);
        // Nonequilibrium signature: Tv below T just behind the shock.
        assert!(
            behind.tv < 0.9 * behind.t,
            "Tv should lag: T = {}, Tv = {}",
            behind.t,
            behind.tv
        );
        // O2 more dissociated at the body than right behind the shock.
        let o2_behind = behind.y[1];
        let o2_stag = stag.y[1];
        assert!(
            o2_stag < 0.8 * o2_behind,
            "O2 must relax toward dissociation: shock {o2_behind:.4} vs body {o2_stag:.4}"
        );
        // Atomic oxygen produced.
        assert!(stag.y[4] > 0.01, "y_O at stagnation: {}", stag.y[4]);
        // Total enthalpy roughly preserved along the steady stagnation line.
        let h0_free = {
            let e = gas.mixture().e_total(250.0, &fs.y);
            let r = gas.mixture().gas_constant(&fs.y);
            e + r * 250.0 + 0.5 * 5500.0_f64.powi(2)
        };
        assert!(
            (stag.h0 - h0_free).abs() / h0_free < 0.05,
            "h0 at stagnation: {:.4e} vs freestream {:.4e}",
            stag.h0,
            h0_free
        );
    }

    #[test]
    fn face_based_matches_cell_centered_reacting_residuals() {
        let gas = air9_equilibrium();
        let set = park_air9(gas.mixture());
        let relax = RelaxationModel::new(gas.mixture().clone());
        for geometry in [Geometry::Planar, Geometry::Axisymmetric] {
            let grid = StructuredGrid::rectangle(9, 7, 0.4, 0.2, geometry);
            let fs = air_freestream(1e-3, 2500.0, 300.0, gas.mixture().len());
            let bc = ReactingBcSet {
                i_lo: ReactingBc::Inflow(fs.clone()),
                i_hi: ReactingBc::Outflow,
                j_lo: ReactingBc::SlipWall,
                j_hi: ReactingBc::Inflow(fs.clone()),
            };
            let opts = ReactingOptions {
                frozen: true,
                startup_steps: 0,
                ..ReactingOptions::default()
            };
            let mut solver = ReactingSolver::new(&grid, &set, &relax, bc, opts, &fs);
            // Deterministic multiplicative perturbation keeping the state
            // admissible: densities scaled, momenta damped (internal energy
            // only grows), energy bumped.
            let neq = solver.neq;
            let ns = solver.ns;
            let mut state = 0x9e37_79b9_7f4a_7c15_u64;
            let mut noise = move || {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
            };
            for i in 0..grid.nci() {
                for j in 0..grid.ncj() {
                    let fr = 1.0 + 0.1 * noise();
                    let fm = 0.95 + 0.05 * noise();
                    let fe = 1.0 + 0.04 * noise().abs();
                    let cell = solver.u.vector_mut(i, j);
                    for v in cell.iter_mut().take(neq) {
                        *v *= fr;
                    }
                    cell[ns] *= fm;
                    cell[ns + 1] = cell[ns] * 0.05 * noise();
                    cell[ns + 3] *= fe;
                }
            }
            let mut scratch = ReactingScratch::default();
            solver.fill_residual(&mut scratch, 0.4);
            let prim = decoded_prims(&solver);
            let ncj = grid.ncj();
            for (idx, fb) in scratch.res.chunks_exact(neq).enumerate() {
                let (i, j) = (idx / ncj, idx % ncj);
                let cc = solver.cell_residual(&prim, i, j);
                assert!(fb == cc, "({i}, {j}) {geometry:?}: {fb:?} vs {cc:?}");
            }
        }
    }

    /// Every cell's primitives in the cache layout, decoded one by one
    /// through [`ReactingSolver::primitive`], never the step's cache.
    fn decoded_prims(solver: &ReactingSolver) -> ReactingPrimSoA {
        let ncj = solver.ncj();
        let mut prim = ReactingPrimSoA::default();
        prim.resize(solver.nci() * ncj, solver.ns);
        for idx in 0..solver.nci() * ncj {
            prim.set(idx, &solver.primitive(idx / ncj, idx % ncj));
        }
        prim
    }

    /// Frozen `step()` built from the cell-by-cell oracle: `cell_residual`
    /// and `local_dt` on cells decoded one by one, and its own update,
    /// species floor and norm arithmetic.
    fn reference_step(solver: &mut ReactingSolver) -> f64 {
        let (_, cfl) = crate::runctl::startup_schedule(
            solver.steps,
            solver.opts.startup_steps,
            solver.opts.cfl,
        );
        let (ncj, ns) = (solver.ncj(), solver.ns);
        let n = solver.nci() * ncj;
        let prim = decoded_prims(solver);
        let updates: Vec<(Vec<f64>, f64)> = (0..n)
            .map(|idx| {
                let (i, j) = (idx / ncj, idx % ncj);
                let dt = solver.local_dt(prim.view(idx), i, j, cfl);
                (solver.cell_residual(&prim, i, j), dt)
            })
            .collect();
        let mut resnorm = 0.0;
        for (idx, (res, dt)) in updates.into_iter().enumerate() {
            let (i, j) = (idx / ncj, idx % ncj);
            let v = solver.metrics.volume[(i, j)];
            let cell = solver.u.vector_mut(i, j);
            let scale = dt / v;
            for (c, r) in cell.iter_mut().zip(&res) {
                *c += scale * r;
            }
            let mut drho = 0.0;
            for s in 0..ns {
                if cell[s] < 0.0 {
                    cell[s] = 0.0;
                }
                drho += res[s];
            }
            let r = drho / v;
            resnorm += r * r;
        }
        solver.steps += 1;
        (resnorm / n as f64).sqrt()
    }

    #[test]
    fn reacting_residual_history_matches_cell_centered_reference() {
        // First 50 residuals of a frozen 5.5 km/s hemisphere run: production
        // step vs the oracle-built step, on identical twin solvers.
        let gas = air9_equilibrium();
        let set = park_air9(gas.mixture());
        let relax = RelaxationModel::new(gas.mixture().clone());
        let rn = 0.05;
        let body = Hemisphere::new(rn);
        let dist = stretch::uniform(25);
        let grid = StructuredGrid::blunt_body(&body, 11, 25, &|sb| (0.3 + 0.2 * sb) * rn, &dist);
        let fs = air_freestream(5e-4, 5500.0, 250.0, gas.mixture().len());
        let bc = ReactingBcSet {
            i_lo: ReactingBc::SlipWall,
            i_hi: ReactingBc::Outflow,
            j_lo: ReactingBc::SlipWall,
            j_hi: ReactingBc::Inflow(fs.clone()),
        };
        // startup_steps = 30 so the compared window crosses the start-up
        // CFL switch.
        let opts = ReactingOptions {
            frozen: true,
            startup_steps: 30,
            ..ReactingOptions::default()
        };
        let twin = || ReactingSolver::new(&grid, &set, &relax, bc.clone(), opts.clone(), &fs);
        let (mut fast, mut reference) = (twin(), twin());
        for n in 0..50 {
            let rf = fast.step();
            let rr = reference_step(&mut reference);
            assert!(
                rf == rr,
                "residual diverged at step {n}: step {rf:.17e} vs reference {rr:.17e}"
            );
        }
        assert!(
            fast.u.as_slice() == reference.u.as_slice(),
            "states diverged after 50 steps"
        );
    }
}
