//! Finite-volume Euler solver (planar / axisymmetric) — the "E" of E+BL.
//!
//! Cell-centered finite volume on a structured body-fitted grid with AUSM+
//! interface fluxes, MUSCL reconstruction with TVD limiters, and explicit
//! local-time-step marching to the steady state. The equation of state is
//! abstract ([`GasModel`]), so the same scheme runs calorically perfect air,
//! effective-γ hypersonic models, and tabulated equilibrium air — exactly
//! the "sophisticated ideal-gas fluid codes + established real-gas models"
//! coupling path the paper describes.
//!
//! Conserved variables per cell: `[ρ, ρu_x, ρu_r, ρE]` with
//! `E = e + (u_x² + u_r²)/2`. In axisymmetric mode all face areas and
//! volumes are per-radian and the geometric pressure source
//! `p·A_meridian` appears in the r-momentum equation.

use crate::audit;
use aerothermo_gas::GasModel;
use aerothermo_grid::{Metrics, StructuredGrid};
use aerothermo_numerics::limiters::Limiter;
use aerothermo_numerics::simd::F64x4;
use aerothermo_numerics::telemetry::{counters, Counter, RunTelemetry, SolverError};
use aerothermo_numerics::{trace, Field3};
use rayon::prelude::*;

/// Number of conserved variables.
pub const NEQ: usize = 4;

/// Structure-of-arrays cell primitives, row-major `i * ncj + j` per lane.
///
/// The flux kernels read each primitive component for four consecutive
/// cells at a time; separate contiguous lanes turn those reads into plain
/// vector loads ([`F64x4::load`]) instead of a gather over interleaved
/// `Primitive` records. The layout is observable only through
/// [`PrimSoA::get`]/[`PrimSoA::set`]: pack/unpack round-trips bitwise.
#[derive(Debug, Default, Clone)]
pub struct PrimSoA {
    /// Density lane \[kg/m³\].
    pub rho: Vec<f64>,
    /// Axial-velocity lane \[m/s\].
    pub ux: Vec<f64>,
    /// Radial-velocity lane \[m/s\].
    pub ur: Vec<f64>,
    /// Pressure lane \[Pa\].
    pub p: Vec<f64>,
    /// Sound-speed lane \[m/s\].
    pub a: Vec<f64>,
    /// Total-enthalpy lane \[J/kg\].
    pub h0: Vec<f64>,
}

impl PrimSoA {
    /// Number of cells stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rho.len()
    }

    /// Whether the container is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rho.is_empty()
    }

    /// Resize every lane to `n` cells (new cells zero-filled).
    pub fn resize(&mut self, n: usize) {
        self.rho.resize(n, 0.0);
        self.ux.resize(n, 0.0);
        self.ur.resize(n, 0.0);
        self.p.resize(n, 0.0);
        self.a.resize(n, 0.0);
        self.h0.resize(n, 0.0);
    }

    /// Gather the cell at flat index `idx` back into record form.
    #[inline]
    #[must_use]
    pub fn get(&self, idx: usize) -> Primitive {
        Primitive {
            rho: self.rho[idx],
            ux: self.ux[idx],
            ur: self.ur[idx],
            p: self.p[idx],
            a: self.a[idx],
            h0: self.h0[idx],
        }
    }

    /// Scatter a record into the lanes at flat index `idx`.
    #[inline]
    pub fn set(&mut self, idx: usize, q: Primitive) {
        self.rho[idx] = q.rho;
        self.ux[idx] = q.ux;
        self.ur[idx] = q.ur;
        self.p[idx] = q.p;
        self.a[idx] = q.a;
        self.h0[idx] = q.h0;
    }

    /// Build from a record slice (the AoS→SoA transpose).
    #[must_use]
    pub fn pack(prims: &[Primitive]) -> Self {
        let mut soa = Self::default();
        soa.resize(prims.len());
        for (idx, q) in prims.iter().enumerate() {
            soa.set(idx, *q);
        }
        soa
    }

    /// Recover the record vector (the SoA→AoS transpose).
    #[must_use]
    pub fn unpack(&self) -> Vec<Primitive> {
        (0..self.len()).map(|idx| self.get(idx)).collect()
    }

    /// Vector load of cells `idx..idx + 4` into one register per lane.
    #[inline]
    fn load4(&self, idx: usize) -> Prim4 {
        Prim4 {
            rho: F64x4::load(&self.rho[idx..]),
            ux: F64x4::load(&self.ux[idx..]),
            ur: F64x4::load(&self.ur[idx..]),
            p: F64x4::load(&self.p[idx..]),
            a: F64x4::load(&self.a[idx..]),
            h0: F64x4::load(&self.h0[idx..]),
        }
    }
}

/// Four primitive states, one per vector lane.
#[derive(Debug, Clone, Copy)]
struct Prim4 {
    rho: F64x4,
    ux: F64x4,
    ur: F64x4,
    p: F64x4,
    a: F64x4,
    h0: F64x4,
}

/// Reusable face-based-assembly scratch owned by the solver: cached cell
/// primitives and the single-sweep face fluxes. Allocated on the first
/// step, reused (never reallocated) afterwards — the step loop itself is
/// allocation-free.
#[derive(Debug, Default)]
pub(crate) struct EulerScratch {
    /// Cell primitives in structure-of-arrays layout (see [`PrimSoA`]).
    pub(crate) prim: PrimSoA,
    /// i-face fluxes, laid out `iface * ncj + j` (each i-face column is a
    /// contiguous, independently writable chunk).
    pub(crate) fi: Vec<[f64; NEQ]>,
    /// j-face fluxes, laid out `i * (ncj + 1) + jface` (each cell row's
    /// faces are contiguous).
    pub(crate) fj: Vec<[f64; NEQ]>,
}

/// Primitive state at a cell.
#[derive(Debug, Clone, Copy)]
pub struct Primitive {
    /// Density \[kg/m³\].
    pub rho: f64,
    /// Axial velocity \[m/s\].
    pub ux: f64,
    /// Radial velocity \[m/s\].
    pub ur: f64,
    /// Pressure \[Pa\].
    pub p: f64,
    /// Sound speed \[m/s\].
    pub a: f64,
    /// Total specific enthalpy \[J/kg\].
    pub h0: f64,
}

/// Boundary condition applied to one side of the block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bc {
    /// Supersonic inflow at the given freestream primitive state.
    Inflow {
        /// Freestream density \[kg/m³\].
        rho: f64,
        /// Freestream axial velocity \[m/s\].
        ux: f64,
        /// Freestream radial velocity \[m/s\].
        ur: f64,
        /// Freestream pressure \[Pa\].
        p: f64,
    },
    /// Zero-gradient (supersonic) outflow.
    Outflow,
    /// Inviscid slip wall / symmetry plane (normal velocity mirrored).
    SlipWall,
}

/// Boundary conditions for the four block sides.
#[derive(Debug, Clone, Copy)]
pub struct BcSet {
    /// i = 0 side (stagnation line on blunt-body grids).
    pub i_lo: Bc,
    /// i = ni−1 side (downstream edge).
    pub i_hi: Bc,
    /// j = 0 side (body surface).
    pub j_lo: Bc,
    /// j = nj−1 side (outer/freestream boundary).
    pub j_hi: Bc,
}

/// Solver options.
#[derive(Debug, Clone)]
pub struct EulerOptions {
    /// CFL number for local time stepping.
    pub cfl: f64,
    /// Number of initial first-order, reduced-CFL steps (impulsive-start
    /// robustness).
    pub startup_steps: usize,
    /// Slope limiter for MUSCL.
    pub limiter: Limiter,
    /// Density floor \[kg/m³\].
    pub rho_floor: f64,
    /// Pressure floor \[Pa\].
    pub p_floor: f64,
}

impl Default for EulerOptions {
    fn default() -> Self {
        Self {
            cfl: 0.5,
            startup_steps: 200,
            limiter: Limiter::Minmod,
            rho_floor: 1e-10,
            p_floor: 1e-6,
        }
    }
}

/// The finite-volume Euler solver.
pub struct EulerSolver<'a> {
    grid: &'a StructuredGrid,
    pub(crate) metrics: Metrics,
    gas: &'a dyn GasModel,
    bc: BcSet,
    opts: EulerOptions,
    /// Conserved variables, shape (nci, ncj, NEQ).
    pub u: Field3<f64>,
    steps_taken: usize,
    /// Run-control CFL scale (1.0 = nominal; halved on rollback).
    cfl_scale: f64,
    /// Run-control safety mode: force first-order reconstruction
    /// independent of the startup schedule.
    force_first_order: bool,
    /// Run observability: phase timings, residual histories, counter deltas.
    pub telemetry: RunTelemetry,
    /// Face-based-assembly buffers (see [`EulerScratch`]).
    pub(crate) scratch: EulerScratch,
}

impl<'a> EulerSolver<'a> {
    /// Create a solver with every cell initialized to the given freestream
    /// `(ρ, u_x, u_r, p)`.
    #[must_use]
    pub fn new(
        grid: &'a StructuredGrid,
        gas: &'a dyn GasModel,
        bc: BcSet,
        opts: EulerOptions,
        freestream: (f64, f64, f64, f64),
    ) -> Self {
        let (rho, ux, ur, p) = freestream;
        let e = gas.energy(rho, p);
        let nci = grid.nci();
        let ncj = grid.ncj();
        let mut u = Field3::zeros(nci, ncj, NEQ);
        for i in 0..nci {
            for j in 0..ncj {
                let cell = u.vector_mut(i, j);
                cell[0] = rho;
                cell[1] = rho * ux;
                cell[2] = rho * ur;
                cell[3] = rho * (e + 0.5 * (ux * ux + ur * ur));
            }
        }
        let metrics = Metrics::new(grid);
        Self {
            grid,
            metrics,
            gas,
            bc,
            opts,
            u,
            steps_taken: 0,
            cfl_scale: 1.0,
            force_first_order: false,
            telemetry: RunTelemetry::new(),
            scratch: EulerScratch::default(),
        }
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

    /// Grid metrics (cell centroids, volumes, face normals).
    #[must_use]
    pub fn grid_metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The underlying grid.
    #[must_use]
    pub fn grid(&self) -> &StructuredGrid {
        self.grid
    }

    /// The gas model in use.
    #[must_use]
    pub fn gas(&self) -> &dyn GasModel {
        self.gas
    }

    /// Primitive state of cell `(i, j)`.
    #[must_use]
    pub fn primitive(&self, i: usize, j: usize) -> Primitive {
        self.primitive_of(self.u.vector(i, j))
    }

    /// Specific internal energy of cell `(i, j)` \[J/kg\].
    #[must_use]
    pub fn internal_energy(&self, i: usize, j: usize) -> f64 {
        let c = self.u.vector(i, j);
        let rho = c[0].max(self.opts.rho_floor);
        let ux = c[1] / rho;
        let ur = c[2] / rho;
        let e_tot = c[3] / rho;
        (e_tot - 0.5 * (ux * ux + ur * ur)).max(1e-6 * e_tot.abs().max(1e-300))
    }

    fn primitive_of(&self, c: &[f64]) -> Primitive {
        let rho = c[0].max(self.opts.rho_floor);
        let ux = c[1] / rho;
        let ur = c[2] / rho;
        let e_tot = c[3] / rho;
        let e = (e_tot - 0.5 * (ux * ux + ur * ur)).max(1e-6 * e_tot.abs().max(1e-300));
        // The paired lookup shares the EOS setup work (table coordinates,
        // clamps) and is bitwise identical to the two individual calls.
        let (p_raw, a_raw) = self.gas.pressure_sound_speed(rho, e);
        let p = p_raw.max(self.opts.p_floor);
        let a = a_raw.max(1.0);
        Primitive {
            rho,
            ux,
            ur,
            p,
            a,
            h0: e + p / rho + 0.5 * (ux * ux + ur * ur),
        }
    }

    /// Ghost primitive for a boundary face with outward unit normal
    /// `(nx, nr)` (pointing out of the domain) given the interior state.
    fn ghost(&self, bc: Bc, interior: &Primitive, nx: f64, nr: f64) -> Primitive {
        match bc {
            Bc::Inflow { rho, ux, ur, p } => {
                let e = self.gas.energy(rho, p);
                Primitive {
                    rho,
                    ux,
                    ur,
                    p,
                    a: self.gas.sound_speed(rho, e).max(1.0),
                    h0: e + p / rho + 0.5 * (ux * ux + ur * ur),
                }
            }
            Bc::Outflow => *interior,
            Bc::SlipWall => {
                let un = interior.ux * nx + interior.ur * nr;
                Primitive {
                    ux: interior.ux - 2.0 * un * nx,
                    ur: interior.ur - 2.0 * un * nr,
                    ..*interior
                }
            }
        }
    }

    /// AUSM+ flux across a face with area-weighted normal `(sx, sr)`;
    /// returns flux·area.
    fn ausm_flux(left: &Primitive, right: &Primitive, sx: f64, sr: f64) -> [f64; NEQ] {
        let area = (sx * sx + sr * sr).sqrt().max(1e-300);
        let nx = sx / area;
        let nr = sr / area;
        let unl = left.ux * nx + left.ur * nr;
        let unr = right.ux * nx + right.ur * nr;
        let a_half = 0.5 * (left.a + right.a);
        let ml = unl / a_half;
        let mr = unr / a_half;

        // AUSM+ split functions (β = 1/8, α = 3/16).
        let m4p = |m: f64| -> f64 {
            if m.abs() >= 1.0 {
                0.5 * (m + m.abs())
            } else {
                let s = m * m - 1.0;
                0.25 * (m + 1.0) * (m + 1.0) + 0.125 * s * s
            }
        };
        let m4m = |m: f64| -> f64 {
            if m.abs() >= 1.0 {
                0.5 * (m - m.abs())
            } else {
                let s = m * m - 1.0;
                -0.25 * (m - 1.0) * (m - 1.0) - 0.125 * s * s
            }
        };
        let p5p = |m: f64| -> f64 {
            if m.abs() >= 1.0 {
                0.5 * (1.0 + m.signum())
            } else {
                let s = m * m - 1.0;
                0.25 * (m + 1.0) * (m + 1.0) * (2.0 - m) + 0.1875 * m * s * s
            }
        };
        let p5m = |m: f64| -> f64 {
            if m.abs() >= 1.0 {
                0.5 * (1.0 - m.signum())
            } else {
                let s = m * m - 1.0;
                0.25 * (m - 1.0) * (m - 1.0) * (2.0 + m) - 0.1875 * m * s * s
            }
        };

        let m_half = m4p(ml) + m4m(mr);
        let p_half = p5p(ml) * left.p + p5m(mr) * right.p;
        let mdot = a_half * (m_half.max(0.0) * left.rho + m_half.min(0.0) * right.rho);

        let psi = if mdot >= 0.0 {
            [1.0, left.ux, left.ur, left.h0]
        } else {
            [1.0, right.ux, right.ur, right.h0]
        };
        [
            (mdot * psi[0]) * area,
            (mdot * psi[1] + p_half * nx) * area,
            (mdot * psi[2] + p_half * nr) * area,
            (mdot * psi[3]) * area,
        ]
    }

    fn recon(
        &self,
        lim: Limiter,
        c: &Primitive,
        dl: [f64; 4],
        du: [f64; 4],
        sign: f64,
    ) -> Primitive {
        let s0 = lim.slope(dl[0], du[0]);
        let s1 = lim.slope(dl[1], du[1]);
        let s2 = lim.slope(dl[2], du[2]);
        let s3 = lim.slope(dl[3], du[3]);
        let rho = (c.rho + sign * 0.5 * s0).max(self.opts.rho_floor);
        let p = (c.p + sign * 0.5 * s3).max(self.opts.p_floor);
        let e = self.gas.energy(rho, p);
        let ux = c.ux + sign * 0.5 * s1;
        let ur = c.ur + sign * 0.5 * s2;
        Primitive {
            rho,
            ux,
            ur,
            p,
            a: self.gas.sound_speed(rho, e).max(1.0),
            h0: e + p / rho + 0.5 * (ux * ux + ur * ur),
        }
    }

    fn delta(a: &Primitive, b: &Primitive) -> [f64; 4] {
        [b.rho - a.rho, b.ux - a.ux, b.ur - a.ur, b.p - a.p]
    }

    /// Four-lane [`Self::delta`].
    #[inline]
    fn delta4(a: &Prim4, b: &Prim4) -> [F64x4; 4] {
        [b.rho - a.rho, b.ux - a.ux, b.ur - a.ur, b.p - a.p]
    }

    /// Four-lane [`Self::recon`]: the same expressions transcribed onto
    /// [`F64x4`] (identical association order and floor semantics, so each
    /// lane matches the scalar reconstruction bit-for-bit; the EOS calls go
    /// through [`GasModel::energy4`]/[`GasModel::sound_speed4`], which are
    /// per-lane-identical by contract).
    #[inline]
    fn recon4(&self, lim: Limiter, c: &Prim4, dl: [F64x4; 4], du: [F64x4; 4], sign: f64) -> Prim4 {
        let s0 = lim.slope4(dl[0], du[0]);
        let s1 = lim.slope4(dl[1], du[1]);
        let s2 = lim.slope4(dl[2], du[2]);
        let s3 = lim.slope4(dl[3], du[3]);
        // `sign` is ±1, so `sign * 0.5` is exact and the splat-multiply
        // reproduces the scalar `sign * 0.5 * s` product order.
        let half = F64x4::splat(sign * 0.5);
        let rho = (c.rho + half * s0).max(F64x4::splat(self.opts.rho_floor));
        let p = (c.p + half * s3).max(F64x4::splat(self.opts.p_floor));
        let e = F64x4::from_array(self.gas.energy4(rho.to_array(), p.to_array()));
        let ux = c.ux + half * s1;
        let ur = c.ur + half * s2;
        let a = F64x4::from_array(self.gas.sound_speed4(rho.to_array(), e.to_array()))
            .max(F64x4::splat(1.0));
        let h0 = e + p / rho + F64x4::splat(0.5) * (ux * ux + ur * ur);
        Prim4 {
            rho,
            ux,
            ur,
            p,
            a,
            h0,
        }
    }

    /// Four-lane [`Self::ausm_flux`]: branchless AUSM+ with the split
    /// functions evaluated on all lanes and blended by [`F64x4::select`].
    /// Every expression keeps the scalar association order, and the
    /// select masks reproduce the scalar branch conditions exactly (the
    /// discarded branch's lanes never leak: select is a bitwise blend).
    #[inline]
    fn ausm_flux4(left: &Prim4, right: &Prim4, sx: F64x4, sr: F64x4) -> [F64x4; NEQ] {
        let one = F64x4::splat(1.0);
        let zero = F64x4::splat(0.0);
        let area = (sx * sx + sr * sr).sqrt().max(F64x4::splat(1e-300));
        let nx = sx / area;
        let nr = sr / area;
        let unl = left.ux * nx + left.ur * nr;
        let unr = right.ux * nx + right.ur * nr;
        let a_half = F64x4::splat(0.5) * (left.a + right.a);
        let ml = unl / a_half;
        let mr = unr / a_half;

        // AUSM+ split functions (β = 1/8, α = 3/16), supersonic/subsonic
        // branches computed on all lanes and selected on |m| ≥ 1.
        let signum = |m: F64x4| F64x4::select(m.lt(zero), F64x4::splat(-1.0), one);
        let m4p = |m: F64x4| -> F64x4 {
            let sup = F64x4::splat(0.5) * (m + m.abs());
            let s = m * m - one;
            let sub = F64x4::splat(0.25) * (m + one) * (m + one) + F64x4::splat(0.125) * s * s;
            F64x4::select(m.abs().ge(one), sup, sub)
        };
        let m4m = |m: F64x4| -> F64x4 {
            let sup = F64x4::splat(0.5) * (m - m.abs());
            let s = m * m - one;
            let sub = F64x4::splat(-0.25) * (m - one) * (m - one) - F64x4::splat(0.125) * s * s;
            F64x4::select(m.abs().ge(one), sup, sub)
        };
        let p5p = |m: F64x4| -> F64x4 {
            let sup = F64x4::splat(0.5) * (one + signum(m));
            let s = m * m - one;
            let sub = F64x4::splat(0.25) * (m + one) * (m + one) * (F64x4::splat(2.0) - m)
                + F64x4::splat(0.1875) * m * s * s;
            F64x4::select(m.abs().ge(one), sup, sub)
        };
        let p5m = |m: F64x4| -> F64x4 {
            let sup = F64x4::splat(0.5) * (one - signum(m));
            let s = m * m - one;
            let sub = F64x4::splat(0.25) * (m - one) * (m - one) * (F64x4::splat(2.0) + m)
                - F64x4::splat(0.1875) * m * s * s;
            F64x4::select(m.abs().ge(one), sup, sub)
        };

        let m_half = m4p(ml) + m4m(mr);
        let p_half = p5p(ml) * left.p + p5m(mr) * right.p;
        let mdot = a_half * (m_half.max(zero) * left.rho + m_half.min(zero) * right.rho);

        let upwind_left = mdot.ge(zero);
        let psi1 = F64x4::select(upwind_left, left.ux, right.ux);
        let psi2 = F64x4::select(upwind_left, left.ur, right.ur);
        let psi3 = F64x4::select(upwind_left, left.h0, right.h0);
        // ψ₀ = 1, and mdot·1 is exact, so the mass row folds to mdot·area.
        [
            mdot * area,
            (mdot * psi1 + p_half * nx) * area,
            (mdot * psi2 + p_half * nr) * area,
            (mdot * psi3) * area,
        ]
    }

    /// Transpose `[equation][lane]` vector fluxes into four `[f64; NEQ]`
    /// face records.
    #[inline]
    fn store_flux4(f: &[F64x4; NEQ], out: &mut [[f64; NEQ]]) {
        let rows = [
            f[0].to_array(),
            f[1].to_array(),
            f[2].to_array(),
            f[3].to_array(),
        ];
        for (lane, o) in out.iter_mut().enumerate().take(4) {
            *o = [rows[0][lane], rows[1][lane], rows[2][lane], rows[3][lane]];
        }
    }

    /// Vectorized flux for the four i-faces `(iface, j0..j0+4)`. Only valid
    /// for fully interior columns (`2 ≤ iface ≤ nci−2`), where both sides
    /// reconstruct: the i-stencil never moves in j, so all four lanes share
    /// one code path and the cell loads are contiguous row segments.
    fn i_face_flux4(
        &self,
        prim: &PrimSoA,
        iface: usize,
        j0: usize,
        lim: Limiter,
        out: &mut [[f64; NEQ]],
    ) {
        let ncj = self.ncj();
        let il = iface - 1;
        let ir = iface;
        let qll = prim.load4((il - 1) * ncj + j0);
        let ql = prim.load4(il * ncj + j0);
        let qr = prim.load4(ir * ncj + j0);
        let qrr = prim.load4((ir + 1) * ncj + j0);
        let left = self.recon4(
            lim,
            &ql,
            Self::delta4(&qll, &ql),
            Self::delta4(&ql, &qr),
            1.0,
        );
        let right = self.recon4(
            lim,
            &qr,
            Self::delta4(&ql, &qr),
            Self::delta4(&qr, &qrr),
            -1.0,
        );
        let m = &self.metrics;
        let sx = F64x4::load(&m.si_x.as_slice()[iface * ncj + j0..]);
        let sr = F64x4::load(&m.si_r.as_slice()[iface * ncj + j0..]);
        Self::store_flux4(&Self::ausm_flux4(&left, &right, sx, sr), out);
    }

    /// Vectorized flux for the four j-faces `(i, jf0..jf0+4)`. Only valid
    /// when the whole chunk is fully interior (`2 ≤ jf0` and
    /// `jf0+3 ≤ ncj−2`): the j-stencil slides along the row, so the four
    /// lanes' cell loads are the same row segment shifted by −2…+1.
    fn j_face_flux4(
        &self,
        prim: &PrimSoA,
        i: usize,
        jf0: usize,
        lim: Limiter,
        out: &mut [[f64; NEQ]],
    ) {
        let ncj = self.ncj();
        let base = i * ncj;
        let qll = prim.load4(base + jf0 - 2);
        let ql = prim.load4(base + jf0 - 1);
        let qr = prim.load4(base + jf0);
        let qrr = prim.load4(base + jf0 + 1);
        let left = self.recon4(
            lim,
            &ql,
            Self::delta4(&qll, &ql),
            Self::delta4(&ql, &qr),
            1.0,
        );
        let right = self.recon4(
            lim,
            &qr,
            Self::delta4(&ql, &qr),
            Self::delta4(&qr, &qrr),
            -1.0,
        );
        let m = &self.metrics;
        let sx = F64x4::load(&m.sj_x.as_slice()[i * (ncj + 1) + jf0..]);
        let sr = F64x4::load(&m.sj_r.as_slice()[i * (ncj + 1) + jf0..]);
        Self::store_flux4(&Self::ausm_flux4(&left, &right, sx, sr), out);
    }

    /// Reconstructed states at the interior i-face `(iface, j)` between
    /// cells `(iface−1, j)` and `(iface, j)`.
    fn face_states_i(&self, iface: usize, j: usize, first_order: bool) -> (Primitive, Primitive) {
        let lim = if first_order {
            Limiter::FirstOrder
        } else {
            self.opts.limiter
        };
        let il = iface - 1;
        let ir = iface;
        let ql = self.primitive(il, j);
        let qr = self.primitive(ir, j);
        let left = if il >= 1 {
            let qll = self.primitive(il - 1, j);
            self.recon(lim, &ql, Self::delta(&qll, &ql), Self::delta(&ql, &qr), 1.0)
        } else {
            ql
        };
        let right = if ir + 1 < self.nci() {
            let qrr = self.primitive(ir + 1, j);
            self.recon(
                lim,
                &qr,
                Self::delta(&ql, &qr),
                Self::delta(&qr, &qrr),
                -1.0,
            )
        } else {
            qr
        };
        (left, right)
    }

    /// Reconstructed states at the interior j-face `(i, jface)`.
    fn face_states_j(&self, i: usize, jface: usize, first_order: bool) -> (Primitive, Primitive) {
        let lim = if first_order {
            Limiter::FirstOrder
        } else {
            self.opts.limiter
        };
        let jl = jface - 1;
        let jr = jface;
        let ql = self.primitive(i, jl);
        let qr = self.primitive(i, jr);
        let left = if jl >= 1 {
            let qll = self.primitive(i, jl - 1);
            self.recon(lim, &ql, Self::delta(&qll, &ql), Self::delta(&ql, &qr), 1.0)
        } else {
            ql
        };
        let right = if jr + 1 < self.ncj() {
            let qrr = self.primitive(i, jr + 1);
            self.recon(
                lim,
                &qr,
                Self::delta(&ql, &qr),
                Self::delta(&qr, &qrr),
                -1.0,
            )
        } else {
            qr
        };
        (left, right)
    }

    /// [`Self::face_states_i`] reading the per-step primitive cache instead
    /// of re-deriving primitives from the conserved state (bit-identical:
    /// [`Self::primitive_of`] is deterministic).
    fn face_states_i_cached(
        &self,
        prim: &PrimSoA,
        iface: usize,
        j: usize,
        first_order: bool,
    ) -> (Primitive, Primitive) {
        let ncj = self.ncj();
        let lim = if first_order {
            Limiter::FirstOrder
        } else {
            self.opts.limiter
        };
        let il = iface - 1;
        let ir = iface;
        let ql = prim.get(il * ncj + j);
        let qr = prim.get(ir * ncj + j);
        let left = if il >= 1 {
            let qll = prim.get((il - 1) * ncj + j);
            self.recon(lim, &ql, Self::delta(&qll, &ql), Self::delta(&ql, &qr), 1.0)
        } else {
            ql
        };
        let right = if ir + 1 < self.nci() {
            let qrr = prim.get((ir + 1) * ncj + j);
            self.recon(
                lim,
                &qr,
                Self::delta(&ql, &qr),
                Self::delta(&qr, &qrr),
                -1.0,
            )
        } else {
            qr
        };
        (left, right)
    }

    /// [`Self::face_states_j`] reading the per-step primitive cache.
    fn face_states_j_cached(
        &self,
        prim: &PrimSoA,
        i: usize,
        jface: usize,
        first_order: bool,
    ) -> (Primitive, Primitive) {
        let ncj = self.ncj();
        let lim = if first_order {
            Limiter::FirstOrder
        } else {
            self.opts.limiter
        };
        let jl = jface - 1;
        let jr = jface;
        let ql = prim.get(i * ncj + jl);
        let qr = prim.get(i * ncj + jr);
        let left = if jl >= 1 {
            let qll = prim.get(i * ncj + jl - 1);
            self.recon(lim, &ql, Self::delta(&qll, &ql), Self::delta(&ql, &qr), 1.0)
        } else {
            ql
        };
        let right = if jr + 1 < ncj {
            let qrr = prim.get(i * ncj + jr + 1);
            self.recon(
                lim,
                &qr,
                Self::delta(&ql, &qr),
                Self::delta(&qr, &qrr),
                -1.0,
            )
        } else {
            qr
        };
        (left, right)
    }

    /// Flux through i-face `(iface, j)` from cached primitives, including
    /// the boundary ghost faces; the per-face arithmetic is exactly that of
    /// [`Self::cell_residual`].
    fn i_face_flux(&self, prim: &PrimSoA, iface: usize, j: usize, first_order: bool) -> [f64; NEQ] {
        let m = &self.metrics;
        let ncj = self.ncj();
        let sx = m.si_x[(iface, j)];
        let sr = m.si_r[(iface, j)];
        if iface == 0 {
            let qc = prim.get(j);
            let area = (sx * sx + sr * sr).sqrt().max(1e-300);
            let ghost = self.ghost(self.bc.i_lo, &qc, -sx / area, -sr / area);
            Self::ausm_flux(&ghost, &qc, sx, sr)
        } else if iface == self.nci() {
            let qc = prim.get((iface - 1) * ncj + j);
            let area = (sx * sx + sr * sr).sqrt().max(1e-300);
            let ghost = self.ghost(self.bc.i_hi, &qc, sx / area, sr / area);
            Self::ausm_flux(&qc, &ghost, sx, sr)
        } else {
            let (l, r) = self.face_states_i_cached(prim, iface, j, first_order);
            Self::ausm_flux(&l, &r, sx, sr)
        }
    }

    /// Flux through j-face `(i, jface)` from cached primitives.
    fn j_face_flux(&self, prim: &PrimSoA, i: usize, jface: usize, first_order: bool) -> [f64; NEQ] {
        let m = &self.metrics;
        let ncj = self.ncj();
        let sx = m.sj_x[(i, jface)];
        let sr = m.sj_r[(i, jface)];
        if jface == 0 {
            let qc = prim.get(i * ncj);
            let area = (sx * sx + sr * sr).sqrt().max(1e-300);
            let ghost = self.ghost(self.bc.j_lo, &qc, -sx / area, -sr / area);
            Self::ausm_flux(&ghost, &qc, sx, sr)
        } else if jface == ncj {
            let qc = prim.get(i * ncj + jface - 1);
            let area = (sx * sx + sr * sr).sqrt().max(1e-300);
            let ghost = self.ghost(self.bc.j_hi, &qc, sx / area, sr / area);
            Self::ausm_flux(&qc, &ghost, sx, sr)
        } else {
            let (l, r) = self.face_states_j_cached(prim, i, jface, first_order);
            Self::ausm_flux(&l, &r, sx, sr)
        }
    }

    /// Fill the scratch buffers for the current state: cache every cell's
    /// primitives once, then sweep each i-face and j-face exactly once
    /// (row-parallel over disjoint chunks, so race-free and deterministic) —
    /// half the flux arithmetic of the cell-centered sweep, which evaluated
    /// every interior face twice.
    pub(crate) fn assemble_faces(&self, scratch: &mut EulerScratch, first_order: bool) {
        let _sp = trace::span("face_sweep");
        let nci = self.nci();
        let ncj = self.ncj();
        scratch.prim.resize(nci * ncj);
        scratch.fi.resize((nci + 1) * ncj, [0.0; NEQ]);
        scratch.fj.resize(nci * (ncj + 1), [0.0; NEQ]);

        for i in 0..nci {
            for j in 0..ncj {
                scratch
                    .prim
                    .set(i * ncj + j, self.primitive_of(self.u.vector(i, j)));
            }
        }

        let lim = if first_order {
            Limiter::FirstOrder
        } else {
            self.opts.limiter
        };
        let prim: &PrimSoA = &scratch.prim;
        let _kernel = trace::span("flux_kernel_simd");
        scratch
            .fi
            .par_chunks_mut(ncj)
            .enumerate()
            .for_each(|(iface, col)| {
                // Fully interior columns (both sides reconstruct) take the
                // four-lane kernel over j; boundary-adjacent columns and the
                // ragged tail fall back to the bitwise-identical scalar path.
                if iface >= 2 && iface + 2 <= nci {
                    let mut j0 = 0usize;
                    while j0 + 4 <= ncj {
                        self.i_face_flux4(prim, iface, j0, lim, &mut col[j0..j0 + 4]);
                        j0 += 4;
                    }
                    for (j, f) in col.iter_mut().enumerate().skip(j0) {
                        *f = self.i_face_flux(prim, iface, j, first_order);
                    }
                } else {
                    for (j, f) in col.iter_mut().enumerate() {
                        *f = self.i_face_flux(prim, iface, j, first_order);
                    }
                }
            });
        scratch
            .fj
            .par_chunks_mut(ncj + 1)
            .enumerate()
            .for_each(|(i, row)| {
                let mut jf = 0usize;
                while jf <= ncj {
                    if jf >= 2 && jf + 3 <= ncj.saturating_sub(2) {
                        self.j_face_flux4(prim, i, jf, lim, &mut row[jf..jf + 4]);
                        jf += 4;
                    } else {
                        row[jf] = self.j_face_flux(prim, i, jf, first_order);
                        jf += 1;
                    }
                }
            });
        counters::add(
            Counter::FacesEvaluated,
            ((nci + 1) * ncj + nci * (ncj + 1)) as u64,
        );
        let simd_i = if nci >= 4 {
            (nci - 3) * (ncj / 4) * 4
        } else {
            0
        };
        let simd_j = if ncj >= 7 {
            nci * ((ncj - 3) / 4) * 4
        } else {
            0
        };
        counters::add(Counter::FluxSimdFaces, (simd_i + simd_j) as u64);
    }

    /// Net residual of cell (i, j) gathered from the assembled face fluxes,
    /// in the same floating-point accumulation order as
    /// [`Self::cell_residual`] (+left i, −right i, +bottom j, −top j,
    /// axisymmetric source last) so states and residual norms match the
    /// cell-centered reference bit-for-bit.
    #[inline]
    pub(crate) fn gather_residual(&self, scratch: &EulerScratch, i: usize, j: usize) -> [f64; NEQ] {
        let ncj = self.ncj();
        let fl = &scratch.fi[i * ncj + j];
        let fr = &scratch.fi[(i + 1) * ncj + j];
        let fb = &scratch.fj[i * (ncj + 1) + j];
        let ft = &scratch.fj[i * (ncj + 1) + j + 1];
        let mut res = [0.0; NEQ];
        for k in 0..NEQ {
            let mut r = fl[k];
            r -= fr[k];
            r += fb[k];
            r -= ft[k];
            res[k] = r;
        }
        if self.grid.geometry == aerothermo_grid::Geometry::Axisymmetric {
            res[2] += scratch.prim.p[i * ncj + j] * self.metrics.plane_area[(i, j)];
        }
        res
    }

    /// Inviscid residual (net flux into the cell, `dU/dt·V`) of cell (i, j).
    ///
    /// Retained as the cell-centered reference implementation: it evaluates
    /// every interior face twice and is used by the Sod test and the
    /// property/regression tests that pin the face-based assembly to it.
    /// The step loops use [`Self::assemble_faces`] +
    /// [`Self::gather_residual`] instead.
    pub fn cell_residual(&self, i: usize, j: usize, first_order: bool) -> [f64; NEQ] {
        let m = &self.metrics;
        let mut res = [0.0; NEQ];
        let qc = self.primitive(i, j);

        // Left i-face: flux in (+).
        {
            let sx = m.si_x[(i, j)];
            let sr = m.si_r[(i, j)];
            let f = if i == 0 {
                let area = (sx * sx + sr * sr).sqrt().max(1e-300);
                let ghost = self.ghost(self.bc.i_lo, &qc, -sx / area, -sr / area);
                Self::ausm_flux(&ghost, &qc, sx, sr)
            } else {
                let (l, r) = self.face_states_i(i, j, first_order);
                Self::ausm_flux(&l, &r, sx, sr)
            };
            for k in 0..NEQ {
                res[k] += f[k];
            }
        }
        // Right i-face: flux out (−).
        {
            let sx = m.si_x[(i + 1, j)];
            let sr = m.si_r[(i + 1, j)];
            let f = if i + 1 == self.nci() {
                let area = (sx * sx + sr * sr).sqrt().max(1e-300);
                let ghost = self.ghost(self.bc.i_hi, &qc, sx / area, sr / area);
                Self::ausm_flux(&qc, &ghost, sx, sr)
            } else {
                let (l, r) = self.face_states_i(i + 1, j, first_order);
                Self::ausm_flux(&l, &r, sx, sr)
            };
            for k in 0..NEQ {
                res[k] -= f[k];
            }
        }
        // Bottom j-face: flux in (+).
        {
            let sx = m.sj_x[(i, j)];
            let sr = m.sj_r[(i, j)];
            let f = if j == 0 {
                let area = (sx * sx + sr * sr).sqrt().max(1e-300);
                let ghost = self.ghost(self.bc.j_lo, &qc, -sx / area, -sr / area);
                Self::ausm_flux(&ghost, &qc, sx, sr)
            } else {
                let (l, r) = self.face_states_j(i, j, first_order);
                Self::ausm_flux(&l, &r, sx, sr)
            };
            for k in 0..NEQ {
                res[k] += f[k];
            }
        }
        // Top j-face: flux out (−).
        {
            let sx = m.sj_x[(i, j + 1)];
            let sr = m.sj_r[(i, j + 1)];
            let f = if j + 1 == self.ncj() {
                let area = (sx * sx + sr * sr).sqrt().max(1e-300);
                let ghost = self.ghost(self.bc.j_hi, &qc, sx / area, sr / area);
                Self::ausm_flux(&qc, &ghost, sx, sr)
            } else {
                let (l, r) = self.face_states_j(i, j + 1, first_order);
                Self::ausm_flux(&l, &r, sx, sr)
            };
            for k in 0..NEQ {
                res[k] -= f[k];
            }
        }

        // Axisymmetric geometric source: the face normals do not close in r;
        // the imbalance (= meridian-plane area) carries the cell pressure.
        if self.grid.geometry == aerothermo_grid::Geometry::Axisymmetric {
            res[2] += qc.p * m.plane_area[(i, j)];
        }
        res
    }

    /// Local time step of cell (i, j) given its primitives.
    fn local_dt(&self, q: &Primitive, i: usize, j: usize, cfl: f64) -> f64 {
        let m = &self.metrics;
        let spectral = |sx: f64, sr: f64| -> f64 {
            let area = (sx * sx + sr * sr).sqrt();
            (q.ux * sx + q.ur * sr).abs() + q.a * area
        };
        let lam = spectral(m.si_x[(i, j)], m.si_r[(i, j)])
            + spectral(m.si_x[(i + 1, j)], m.si_r[(i + 1, j)])
            + spectral(m.sj_x[(i, j)], m.sj_r[(i, j)])
            + spectral(m.sj_x[(i, j + 1)], m.sj_r[(i, j + 1)]);
        cfl * m.volume[(i, j)] / lam.max(1e-300)
    }

    /// Advance one explicit step with local time stepping; returns the
    /// density-residual L2 norm (per cell).
    pub fn step(&mut self) -> f64 {
        let _sp = trace::span("euler_step");
        let (startup, cfl) = crate::runctl::startup_schedule(
            self.steps_taken,
            self.opts.startup_steps,
            self.cfl_scale * self.opts.cfl,
        );
        let first_order = startup || self.force_first_order;
        let nci = self.nci();
        let ncj = self.ncj();

        // Face-based assembly into solver-owned scratch: primitives cached
        // once, each face swept once, no per-step allocation after warmup.
        let mut scratch = std::mem::take(&mut self.scratch);
        self.assemble_faces(&mut scratch, first_order);

        let mut resnorm = 0.0;
        for i in 0..nci {
            for j in 0..ncj {
                let res = self.gather_residual(&scratch, i, j);
                let dt = self.local_dt(&scratch.prim.get(i * ncj + j), i, j, cfl);
                let v = self.metrics.volume[(i, j)];
                let cell = self.u.vector_mut(i, j);
                let scale = dt / v;
                for k in 0..NEQ {
                    cell[k] += scale * res[k];
                }
                if cell[0] < self.opts.rho_floor {
                    cell[0] = self.opts.rho_floor;
                }
                let r = res[0] / v;
                resnorm += r * r;
            }
        }
        self.scratch = scratch;
        self.steps_taken += 1;
        (resnorm / (nci * ncj) as f64).sqrt()
    }

    /// Advance one *time-accurate* step with a caller-supplied global time
    /// step (for unsteady verification problems like the Sod tube).
    pub fn step_global_dt(&mut self, dt: f64) {
        let first_order = crate::runctl::startup_schedule(
            self.steps_taken,
            self.opts.startup_steps,
            self.opts.cfl,
        )
        .0 || self.force_first_order;
        let nci = self.nci();
        let ncj = self.ncj();
        let mut scratch = std::mem::take(&mut self.scratch);
        self.assemble_faces(&mut scratch, first_order);
        for i in 0..nci {
            for j in 0..ncj {
                let res = self.gather_residual(&scratch, i, j);
                let v = self.metrics.volume[(i, j)];
                let cell = self.u.vector_mut(i, j);
                for k in 0..NEQ {
                    cell[k] += dt / v * res[k];
                }
                if cell[0] < self.opts.rho_floor {
                    cell[0] = self.opts.rho_floor;
                }
            }
        }
        self.scratch = scratch;
        self.steps_taken += 1;
    }

    /// Global flux budget per conserved equation: `(net, gross)` where
    /// `net` is the signed flux into the domain through all four
    /// boundaries plus the geometric (axisymmetric) source, and `gross`
    /// is the sum of the contributing magnitudes (the throughput scale).
    ///
    /// Interior fluxes telescope out of the cell-residual sum, so
    /// `net = Σ_cells residual` identically; at a converged steady state
    /// every cell residual vanishes and `|net|/gross → 0`. The mass and
    /// energy rows are the conservation statements the paper's shock-layer
    /// budgets rest on; the momentum rows close because wall pressure
    /// forces enter through the slip-wall ghost fluxes.
    #[must_use]
    pub fn boundary_flux_budget(&self) -> [(f64, f64); NEQ] {
        let m = &self.metrics;
        let mut budget = [(0.0_f64, 0.0_f64); NEQ];
        let tally = |f: &[f64; NEQ], sign: f64, budget: &mut [(f64, f64); NEQ]| {
            for k in 0..NEQ {
                budget[k].0 += sign * f[k];
                budget[k].1 += f[k].abs();
            }
        };
        for j in 0..self.ncj() {
            // i-lo boundary: flux in (+).
            {
                let sx = m.si_x[(0, j)];
                let sr = m.si_r[(0, j)];
                let area = (sx * sx + sr * sr).sqrt().max(1e-300);
                let qc = self.primitive(0, j);
                let ghost = self.ghost(self.bc.i_lo, &qc, -sx / area, -sr / area);
                tally(&Self::ausm_flux(&ghost, &qc, sx, sr), 1.0, &mut budget);
            }
            // i-hi boundary: flux out (−).
            {
                let i = self.nci();
                let sx = m.si_x[(i, j)];
                let sr = m.si_r[(i, j)];
                let area = (sx * sx + sr * sr).sqrt().max(1e-300);
                let qc = self.primitive(i - 1, j);
                let ghost = self.ghost(self.bc.i_hi, &qc, sx / area, sr / area);
                tally(&Self::ausm_flux(&qc, &ghost, sx, sr), -1.0, &mut budget);
            }
        }
        for i in 0..self.nci() {
            // j-lo boundary (body): flux in (+).
            {
                let sx = m.sj_x[(i, 0)];
                let sr = m.sj_r[(i, 0)];
                let area = (sx * sx + sr * sr).sqrt().max(1e-300);
                let qc = self.primitive(i, 0);
                let ghost = self.ghost(self.bc.j_lo, &qc, -sx / area, -sr / area);
                tally(&Self::ausm_flux(&ghost, &qc, sx, sr), 1.0, &mut budget);
            }
            // j-hi boundary (outer): flux out (−).
            {
                let j = self.ncj();
                let sx = m.sj_x[(i, j)];
                let sr = m.sj_r[(i, j)];
                let area = (sx * sx + sr * sr).sqrt().max(1e-300);
                let qc = self.primitive(i, j - 1);
                let ghost = self.ghost(self.bc.j_hi, &qc, sx / area, sr / area);
                tally(&Self::ausm_flux(&qc, &ghost, sx, sr), -1.0, &mut budget);
            }
        }
        if self.grid.geometry == aerothermo_grid::Geometry::Axisymmetric {
            for i in 0..self.nci() {
                for j in 0..self.ncj() {
                    let src = self.primitive(i, j).p * m.plane_area[(i, j)];
                    budget[2].0 += src;
                    budget[2].1 += src.abs();
                }
            }
        }
        budget
    }

    /// First cell whose conserved state is non-finite, as a typed error.
    pub(crate) fn locate_nonfinite(&self) -> Option<SolverError> {
        const FIELD_NAMES: [&str; NEQ] = ["rho", "rho_ux", "rho_ur", "rho_E"];
        for i in 0..self.grid.nci() {
            for j in 0..self.grid.ncj() {
                let cell = self.u.vector(i, j);
                for (k, name) in FIELD_NAMES.iter().enumerate() {
                    if !cell[k].is_finite() {
                        return Some(SolverError::NonFinite { field: name, i, j });
                    }
                }
            }
        }
        None
    }

    /// Outermost cell index along grid line `i` whose density exceeds
    /// `threshold × ρ∞` — the captured-shock location.
    #[must_use]
    pub fn shock_index(&self, i: usize, rho_inf: f64, threshold: f64) -> Option<usize> {
        (0..self.ncj())
            .rev()
            .find(|&j| self.primitive(i, j).rho > threshold * rho_inf)
    }

    /// Stagnation-line shock standoff distance (i = 0): distance from the
    /// wall cell center to the shock cell center.
    #[must_use]
    pub fn standoff(&self, rho_inf: f64) -> Option<f64> {
        let j_shock = self.shock_index(0, rho_inf, 1.5)?;
        let m = &self.metrics;
        let dx = m.xc[(0, j_shock)] - m.xc[(0, 0)];
        let dr = m.rc[(0, j_shock)] - m.rc[(0, 0)];
        Some((dx * dx + dr * dr).sqrt())
    }

    /// Surface pressure along the body (cells at j = 0).
    #[must_use]
    pub fn wall_pressure(&self) -> Vec<f64> {
        (0..self.nci()).map(|i| self.primitive(i, 0).p).collect()
    }
}

impl crate::runctl::Steppable for EulerSolver<'_> {
    fn advance(&mut self) -> Result<f64, SolverError> {
        let n = self.steps_taken;
        let r = self.step();
        if !r.is_finite() {
            return Err(self.locate_nonfinite().unwrap_or(SolverError::NonFinite {
                field: "residual",
                i: n,
                j: 0,
            }));
        }
        if audit::due(n) {
            let findings = audit::audit_euler(self, n, false);
            audit::apply(&mut self.telemetry, findings)?;
        }
        Ok(r)
    }

    fn progress(&self) -> usize {
        self.steps_taken
    }

    fn startup_units(&self) -> usize {
        self.opts.startup_steps
    }

    /// The conserved field (exact bits), the step counter (it drives the
    /// startup schedule), and the CFL scale. Scratch buffers are recomputed
    /// every step and excluded, so restoring and continuing is
    /// bitwise-identical to an uninterrupted run.
    fn save_state(&self) -> crate::runctl::Snapshot {
        crate::runctl::Snapshot {
            step: self.steps_taken,
            cfl_scale: self.cfl_scale,
            data: self.u.as_slice().to_vec(),
        }
    }

    fn restore_state(&mut self, snap: &crate::runctl::Snapshot) -> Result<(), SolverError> {
        snap.restore_field("euler2d", self.u.as_mut_slice())?;
        self.steps_taken = snap.step;
        self.cfl_scale = snap.cfl_scale;
        Ok(())
    }

    fn cfl_scale(&self) -> f64 {
        self.cfl_scale
    }

    fn set_cfl_scale(&mut self, scale: f64) {
        self.cfl_scale = scale;
    }

    fn set_first_order_fallback(&mut self, on: bool) {
        self.force_first_order = on;
    }

    fn meta(&self) -> crate::runctl::RunMeta {
        crate::runctl::RunMeta {
            tag: "euler2d".to_string(),
            gas: self.gas.describe(),
            shape: self.u.shape(),
        }
    }

    fn telemetry_mut(&mut self) -> &mut RunTelemetry {
        &mut self.telemetry
    }

    fn finalize(&mut self, converged: bool) -> Result<(), SolverError> {
        // Converged-state audit: the flux budgets are only required to close
        // once the march has settled, so grade them at full strictness here.
        if audit::cadence() != 0 {
            let findings = audit::audit_euler(self, self.steps_taken, converged);
            audit::apply(&mut self.telemetry, findings)?;
        }
        Ok(())
    }

    fn poison(&mut self) {
        let (i, j) = (self.nci() / 2, self.ncj() / 2);
        self.u.vector_mut(i, j)[0] = f64::NAN;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runctl::run_to;
    use aerothermo_gas::IdealGas;
    use aerothermo_grid::bodies::Hemisphere;
    use aerothermo_grid::{stretch, Geometry, StructuredGrid};

    fn freestream_mach(gas: &IdealGas, t: f64, p: f64, mach: f64) -> (f64, f64, f64, f64) {
        let rho = p / (gas.r * t);
        let a = (gas.gamma * gas.r * t).sqrt();
        (rho, mach * a, 0.0, p)
    }

    #[test]
    fn uniform_flow_is_preserved() {
        // A uniform supersonic stream through a rectangle must stay uniform
        // (free-stream preservation / GCL).
        let gas = IdealGas::air();
        let grid = StructuredGrid::rectangle(20, 10, 1.0, 0.5, Geometry::Planar);
        let fs = freestream_mach(&gas, 300.0, 1e4, 2.0);
        let bc = BcSet {
            i_lo: Bc::Inflow {
                rho: fs.0,
                ux: fs.1,
                ur: fs.2,
                p: fs.3,
            },
            i_hi: Bc::Outflow,
            j_lo: Bc::SlipWall,
            j_hi: Bc::SlipWall,
        };
        let mut solver = EulerSolver::new(&grid, &gas, bc, EulerOptions::default(), fs);
        for _ in 0..50 {
            solver.step();
        }
        for i in 0..solver.nci() {
            for j in 0..solver.ncj() {
                let q = solver.primitive(i, j);
                assert!(
                    (q.rho - fs.0).abs() / fs.0 < 1e-10,
                    "rho drifted at ({i},{j})"
                );
                assert!((q.p - fs.3).abs() / fs.3 < 1e-9, "p drifted at ({i},{j})");
            }
        }
    }

    #[test]
    fn sod_shock_tube_plateaus() {
        // Classic Sod problem run time-accurately on a pseudo-1D grid.
        let gas = IdealGas {
            gamma: 1.4,
            r: 287.0,
        };
        let grid = StructuredGrid::rectangle(201, 3, 1.0, 0.02, Geometry::Planar);
        let bc = BcSet {
            i_lo: Bc::Outflow,
            i_hi: Bc::Outflow,
            j_lo: Bc::SlipWall,
            j_hi: Bc::SlipWall,
        };
        let opts = EulerOptions {
            startup_steps: 0,
            cfl: 0.4,
            ..EulerOptions::default()
        };
        let mut solver = EulerSolver::new(&grid, &gas, bc, opts, (1.0, 0.0, 0.0, 1.0));
        // Right half: rho = 0.125, p = 0.1.
        for i in 100..200 {
            for j in 0..2 {
                let e = gas.energy(0.125, 0.1);
                let c = solver.u.vector_mut(i, j);
                c[0] = 0.125;
                c[1] = 0.0;
                c[2] = 0.0;
                c[3] = 0.125 * e;
            }
        }
        // Global-step march to t = 0.2 (dx = 5e-3, wave speeds ~1.8).
        let dt = 5e-4;
        let nsteps = (0.2 / dt) as usize;
        for _ in 0..nsteps {
            let nci = solver.nci();
            let ncj = solver.ncj();
            let mut updates = Vec::new();
            for i in 0..nci {
                for j in 0..ncj {
                    updates.push((i, j, solver.cell_residual(i, j, false)));
                }
            }
            for (i, j, res) in updates {
                let v = solver.metrics.volume[(i, j)];
                let cell = solver.u.vector_mut(i, j);
                for k in 0..NEQ {
                    cell[k] += dt / v * res[k];
                }
            }
        }
        // Exact: p* = 0.30313, u* = 0.92745 between contact and shock.
        let q = solver.primitive(160, 1);
        assert!((q.p - 0.30313).abs() < 0.03, "plateau p = {}", q.p);
        assert!((q.ux - 0.92745).abs() < 0.08, "plateau u = {}", q.ux);
        // Shock near x = 0.85 at t = 0.2.
        let rho_l = solver.primitive(165, 1).rho;
        let rho_r = solver.primitive(180, 1).rho;
        assert!(
            rho_l > 0.2 && rho_r < 0.14,
            "shock structure: {rho_l} {rho_r}"
        );
    }

    #[test]
    fn hemisphere_bow_shock_ideal_gas() {
        // Mach 8 over a unit hemisphere: standoff Δ/Rn ≈ 0.14 (Billig),
        // stagnation pressure = Rayleigh pitot.
        let gas = IdealGas::air();
        let body = Hemisphere::new(1.0);
        let dist = stretch::uniform(49);
        let grid = StructuredGrid::blunt_body(&body, 31, 49, &|sb| 0.35 + 0.3 * sb, &dist);
        let fs = freestream_mach(&gas, 220.0, 100.0, 8.0);
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
        let mut solver = EulerSolver::new(&grid, &gas, bc, opts, fs);
        let ratio = run_to(&mut solver, 4000, 1e-3).ratio;
        assert!(ratio < 0.1, "poor convergence: ratio = {ratio}");

        let standoff = solver.standoff(fs.0).expect("no shock detected");
        assert!(
            standoff > 0.08 && standoff < 0.30,
            "standoff = {standoff} (expected ~0.14)"
        );

        let p_stag = solver.primitive(0, 0).p;
        let pitot = 82.87 * fs.3;
        assert!(
            (p_stag - pitot).abs() / pitot < 0.15,
            "p_stag = {p_stag}, Rayleigh = {pitot}"
        );
    }

    #[test]
    fn effective_gamma_thinner_shock_layer() {
        // The real-gas effect of the paper's Fig. 4: lower effective γ →
        // higher compression → smaller standoff.
        let body = Hemisphere::new(1.0);
        let dist = stretch::uniform(49);
        let grid = StructuredGrid::blunt_body(&body, 25, 49, &|sb| 0.35 + 0.3 * sb, &dist);

        let run = |gamma: f64| -> f64 {
            let gas = IdealGas::effective_gamma(gamma);
            let t = 220.0;
            let p = 100.0;
            let rho = p / (gas.r * t);
            let a = (gas.gamma * gas.r * t).sqrt();
            let fs = (rho, 8.0 * a, 0.0, p);
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
            let mut solver = EulerSolver::new(&grid, &gas, bc, opts, fs);
            run_to(&mut solver, 3000, 1e-3);
            solver.standoff(fs.0).unwrap()
        };
        let d14 = run(1.4);
        let d12 = run(1.2);
        assert!(
            d12 < 0.8 * d14,
            "γ=1.2 standoff {d12} should be well below γ=1.4 {d14}"
        );
    }

    /// Build a solver whose state is the freestream plus deterministic
    /// per-cell perturbations (admissible: positive density and pressure).
    fn perturbed_solver<'a>(
        grid: &'a StructuredGrid,
        gas: &'a IdealGas,
        mach: f64,
        amp: f64,
        seed: u64,
    ) -> EulerSolver<'a> {
        let t = 250.0;
        let p0 = 2000.0;
        let rho0 = p0 / (gas.r * t);
        let a0 = (gas.gamma * gas.r * t).sqrt();
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
        let mut solver = EulerSolver::new(grid, gas, bc, opts, fs);
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
                let cell = solver.u.vector_mut(i, j);
                cell[0] = rho;
                cell[1] = rho * ux;
                cell[2] = rho * ur;
                cell[3] = rho * (e + 0.5 * (ux * ux + ur * ur));
            }
        }
        solver
    }

    /// Maximum relative difference between the face-based assembly and the
    /// cell-centered reference residuals over all cells and equations.
    fn max_face_vs_cell_rel_diff(solver: &EulerSolver, first_order: bool) -> f64 {
        let mut scratch = EulerScratch::default();
        solver.assemble_faces(&mut scratch, first_order);
        let mut worst = 0.0_f64;
        for i in 0..solver.nci() {
            for j in 0..solver.ncj() {
                let fb = solver.gather_residual(&scratch, i, j);
                let cc = solver.cell_residual(i, j, first_order);
                let scale = cc.iter().fold(1e-300_f64, |m, v| m.max(v.abs()));
                for k in 0..NEQ {
                    worst = worst.max((fb[k] - cc[k]).abs() / cc[k].abs().max(scale));
                }
            }
        }
        worst
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig {
            cases: 24,
            ..proptest::test_runner::ProptestConfig::default()
        })]

        /// The AoS→SoA→AoS transpose is lossless: every lane value survives
        /// `pack`/`unpack` bit-for-bit, and indexed `get` agrees with the
        /// source record at every cell.
        #[test]
        fn prim_soa_aos_roundtrip_is_bitwise(
            seed in 0_u64..1_000_000,
            n in 1_usize..40,
        ) {
            // Full-range bit patterns (including subnormals, infinities and
            // NaNs rejected): the transpose is a pure data movement, so any
            // representable f64 must survive.
            let mut state = seed | 1;
            let mut noise = move || {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let v = f64::from_bits(state.rotate_left(17));
                if v.is_nan() { 0.0 } else { v }
            };
            let aos: Vec<Primitive> = (0..n)
                .map(|_| Primitive {
                    rho: noise(),
                    ux: noise(),
                    ur: noise(),
                    p: noise(),
                    a: noise(),
                    h0: noise(),
                })
                .collect();
            let soa = PrimSoA::pack(&aos);
            proptest::prop_assert_eq!(soa.len(), aos.len());
            let back = soa.unpack();
            for (idx, (orig, round)) in aos.iter().zip(&back).enumerate() {
                let got = soa.get(idx);
                for (x, y, z) in [
                    (orig.rho, round.rho, got.rho),
                    (orig.ux, round.ux, got.ux),
                    (orig.ur, round.ur, got.ur),
                    (orig.p, round.p, got.p),
                    (orig.a, round.a, got.a),
                    (orig.h0, round.h0, got.h0),
                ] {
                    proptest::prop_assert_eq!(x.to_bits(), y.to_bits());
                    proptest::prop_assert_eq!(x.to_bits(), z.to_bits());
                }
            }
        }

        /// The face-based residual assembly agrees with the cell-centered
        /// reference on randomized admissible states — both reconstruction
        /// orders, both geometries.
        #[test]
        fn face_based_matches_cell_centered_residuals(
            mach in 0.5_f64..5.0,
            amp in 0.01_f64..0.15,
            seed in 0_u64..1_000_000,
        ) {
            let gas = IdealGas::air();
            for geometry in [Geometry::Planar, Geometry::Axisymmetric] {
                let grid = StructuredGrid::rectangle(9, 7, 0.5, 0.3, geometry);
                let solver = perturbed_solver(&grid, &gas, mach, amp, seed);
                for first_order in [true, false] {
                    let d = max_face_vs_cell_rel_diff(&solver, first_order);
                    proptest::prop_assert!(
                        d <= 1e-13,
                        "rel diff {d:.3e} ({geometry:?}, first_order = {first_order})"
                    );
                }
            }
        }
    }

    /// Pre-refactor `step()`: cell-centered residuals, per-cell `local_dt`,
    /// identical update/floor/resnorm arithmetic. The regression test below
    /// pins the face-based step's residual history to this.
    fn reference_step(solver: &mut EulerSolver) -> f64 {
        // Startup scheduling through the same shared helper the production
        // step uses, so the parity tests exercise identical scheduling.
        let (startup, cfl) = crate::runctl::startup_schedule(
            solver.steps_taken,
            solver.opts.startup_steps,
            solver.cfl_scale * solver.opts.cfl,
        );
        let first_order = startup || solver.force_first_order;
        let nci = solver.nci();
        let ncj = solver.ncj();
        let updates: Vec<([f64; NEQ], f64)> = (0..nci * ncj)
            .map(|idx| {
                let i = idx / ncj;
                let j = idx % ncj;
                let q = solver.primitive(i, j);
                (
                    solver.cell_residual(i, j, first_order),
                    solver.local_dt(&q, i, j, cfl),
                )
            })
            .collect();
        let mut resnorm = 0.0;
        for (idx, (res, dt)) in updates.into_iter().enumerate() {
            let i = idx / ncj;
            let j = idx % ncj;
            let v = solver.metrics.volume[(i, j)];
            let cell = solver.u.vector_mut(i, j);
            let scale = dt / v;
            for k in 0..NEQ {
                cell[k] += scale * res[k];
            }
            if cell[0] < solver.opts.rho_floor {
                cell[0] = solver.opts.rho_floor;
            }
            let r = res[0] / v;
            resnorm += r * r;
        }
        solver.steps_taken += 1;
        (resnorm / (nci * ncj) as f64).sqrt()
    }

    #[test]
    fn residual_history_matches_cell_centered_reference() {
        // First 50 residuals of a hemisphere run: face-based step vs the
        // pre-refactor cell-centered step, on identical twin solvers.
        let gas = IdealGas::air();
        let body = Hemisphere::new(1.0);
        let dist = stretch::uniform(31);
        let grid = StructuredGrid::blunt_body(&body, 13, 31, &|sb| 0.35 + 0.3 * sb, &dist);
        let t = 220.0;
        let p = 100.0;
        let rho = p / (gas.r * t);
        let a = (gas.gamma * gas.r * t).sqrt();
        let fs = (rho, 8.0 * a, 0.0, p);
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
        let mut fast = EulerSolver::new(&grid, &gas, bc, opts.clone(), fs);
        let mut reference = EulerSolver::new(&grid, &gas, bc, opts, fs);
        for n in 0..50 {
            let rf = fast.step();
            let rr = reference_step(&mut reference);
            assert!(
                (rf - rr).abs() <= 1e-12 * rr.abs().max(1e-300),
                "residual diverged at step {n}: face {rf:.17e} vs reference {rr:.17e}"
            );
        }
        // The states themselves must agree too.
        for i in 0..fast.nci() {
            for j in 0..fast.ncj() {
                let a = fast.u.vector(i, j);
                let b = reference.u.vector(i, j);
                for k in 0..NEQ {
                    assert!(
                        (a[k] - b[k]).abs() <= 1e-12 * b[k].abs().max(1e-300),
                        "state diverged at ({i},{j})[{k}]"
                    );
                }
            }
        }
    }
}
