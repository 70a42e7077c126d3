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
//!
//! The finite-volume face kernels live here once and serve every solver
//! level built on this discretization: the scalar AUSM+ core
//! (`AusmFace`, also behind the reacting and PNS cross-flow fluxes),
//! the boundary ghost states and ghost-face flux, the convective spectral
//! radius, and one stride-based face stencil (`Line`) that walks
//! i-lines and j-lines alike, in scalar and four-lane form. So does the
//! explicit operator around them: each field solver's residual fill
//! writes per-cell residual and time-step buffers without touching the
//! state, and one `explicit_update` advances euler2d, ns2d and reacting.

use crate::audit;
use aerothermo_gas::GasModel;
use aerothermo_grid::{Metrics, StructuredGrid};
use aerothermo_numerics::limiters::Limiter;
use aerothermo_numerics::simd::F64x4;
use aerothermo_numerics::telemetry::{counters, Counter, RunTelemetry, SolverError};
use aerothermo_numerics::{trace, Field2, Field3};
use rayon::prelude::*;

/// Number of conserved variables.
pub const NEQ: usize = 4;

/// Density floor of the primitive decode, the reconstruction and the
/// explicit update \[kg/m³\].
pub(crate) const RHO_FLOOR: f64 = 1e-10;

/// Pressure floor of the primitive decode and the reconstruction \[Pa\].
const P_FLOOR: f64 = 1e-6;

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
/// primitives, the single-sweep face fluxes, and the per-cell residual and
/// time-step buffers the explicit update reads. Allocated on the first
/// step, reused (never reallocated) afterwards — the step loop itself is
/// allocation-free.
#[derive(Debug, Default)]
pub(crate) struct EulerScratch {
    /// Cell primitives in structure-of-arrays layout (see [`PrimSoA`]).
    pub(crate) prim: PrimSoA,
    /// Cell specific internal energies \[J/kg\] from the same decode,
    /// row-major `i * ncj + j` (ns2d's viscous temperatures read them).
    pub(crate) e: Vec<f64>,
    /// i-face fluxes, laid out `iface * ncj + j` (each i-face column is a
    /// contiguous, independently writable chunk).
    pub(crate) fi: Vec<[f64; NEQ]>,
    /// j-face fluxes, laid out `i * (ncj + 1) + jface` (each cell row's
    /// faces are contiguous).
    pub(crate) fj: Vec<[f64; NEQ]>,
    /// Net cell residuals, row-major `i * ncj + j`.
    pub(crate) res: Vec<[f64; NEQ]>,
    /// Cell time steps, row-major `i * ncj + j`.
    pub(crate) dt: Vec<f64>,
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
}

impl Default for EulerOptions {
    fn default() -> Self {
        Self {
            cfl: 0.5,
            startup_steps: 200,
            limiter: Limiter::Minmod,
        }
    }
}

/// One grid line of cells for the stride-based face stencil: cell `k`
/// (`0 ≤ k < n`) sits at flat index `base + k·stride`, face `f`
/// (`0 ≤ f ≤ n`) lies between cells `f − 1` and `f`, and `lo`/`hi` are the
/// boundary conditions at faces `0` and `n`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Line<B> {
    pub(crate) base: usize,
    pub(crate) stride: usize,
    pub(crate) n: usize,
    pub(crate) lo: B,
    pub(crate) hi: B,
}

impl<B> Line<B> {
    /// Cell row `j` of an `nci × ncj` block, traversed along i.
    pub(crate) fn along_i(j: usize, nci: usize, ncj: usize, lo: B, hi: B) -> Self {
        Self {
            base: j,
            stride: ncj,
            n: nci,
            lo,
            hi,
        }
    }

    /// Cell column `i` of a block with `ncj` cells along j, traversed
    /// along j.
    pub(crate) fn along_j(i: usize, ncj: usize, lo: B, hi: B) -> Self {
        Self {
            base: i * ncj,
            stride: 1,
            n: ncj,
            lo,
            hi,
        }
    }

    /// Flat index of cell `k`.
    pub(crate) fn cell(&self, k: usize) -> usize {
        self.base + k * self.stride
    }
}

// The shared face kernels below, `EulerSolver::face_flux{,4}` and the ns2d
// thin-layer flux are `#[inline(always)]`: with several call sites each,
// LLVM kept them out of line, and the Euler, NS and PNS steps ran 5–12%
// slower than with the per-caller copies they replaced.

/// The scalar AUSM+ interface quantities every convective face flux is
/// built from: mass flux ṁ, interface pressure p½, the face unit normal
/// and its area. [`EulerSolver::ausm_flux4`] is the four-lane form.
pub(crate) struct AusmFace {
    pub(crate) mdot: f64,
    pub(crate) p_half: f64,
    pub(crate) nx: f64,
    pub(crate) nr: f64,
    pub(crate) area: f64,
}

impl AusmFace {
    /// Interface quantities between the mixture states `left` and `right`
    /// across a face with area-weighted normal `(sx, sr)`.
    #[inline(always)]
    pub(crate) fn new(left: &Primitive, right: &Primitive, sx: f64, sr: f64) -> Self {
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
        Self {
            mdot,
            p_half,
            nx,
            nr,
            area,
        }
    }

    /// The upwind side: `left` when mass crosses the face along its normal
    /// (ṁ ≥ 0), `right` otherwise.
    pub(crate) fn upwind<'q, T>(&self, left: &'q T, right: &'q T) -> &'q T {
        if self.mdot >= 0.0 {
            left
        } else {
            right
        }
    }
}

/// AUSM+ flux across a face with area-weighted normal `(sx, sr)`;
/// returns flux·area.
#[inline(always)]
pub(crate) fn ausm_flux(left: &Primitive, right: &Primitive, sx: f64, sr: f64) -> [f64; NEQ] {
    let f = AusmFace::new(left, right, sx, sr);
    let up = f.upwind(left, right);
    // ψ₀ = 1, and mdot·1 is exact, so the mass row is mdot·area.
    [
        f.mdot * f.area,
        (f.mdot * up.ux + f.p_half * f.nx) * f.area,
        (f.mdot * up.ur + f.p_half * f.nr) * f.area,
        (f.mdot * up.h0) * f.area,
    ]
}

/// Ghost primitive for a boundary face with outward unit normal
/// `(nx, nr)` (pointing out of the domain) given the interior state.
pub(crate) fn ghost(
    gas: &dyn GasModel,
    bc: Bc,
    interior: &Primitive,
    nx: f64,
    nr: f64,
) -> Primitive {
    match bc {
        Bc::Inflow { rho, ux, ur, p } => {
            let e = gas.energy(rho, p);
            Primitive {
                rho,
                ux,
                ur,
                p,
                a: gas.sound_speed(rho, e).max(1.0),
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

/// Flux·area through a boundary face with area-weighted normal `(sx, sr)`
/// between the boundary cell's state `q` and the ghost state of `bc`: the
/// ghost is the left state on a line's `lo` face and the right state on
/// its `hi` face.
#[inline(always)]
pub(crate) fn boundary_flux(
    gas: &dyn GasModel,
    bc: Bc,
    q: &Primitive,
    sx: f64,
    sr: f64,
    lo: bool,
) -> [f64; NEQ] {
    let area = (sx * sx + sr * sr).sqrt().max(1e-300);
    if lo {
        ausm_flux(&ghost(gas, bc, q, -sx / area, -sr / area), q, sx, sr)
    } else {
        ausm_flux(q, &ghost(gas, bc, q, sx / area, sr / area), sx, sr)
    }
}

/// Convective spectral radius of cell `(i, j)` in state `q`, summed over
/// its four faces: Σ |u·S| + a·|S|. Local time steps are CFL·V over this
/// sum plus any viscous term.
#[inline(always)]
pub(crate) fn convective_spectral_sum(m: &Metrics, i: usize, j: usize, q: &Primitive) -> f64 {
    let face = |sx: f64, sr: f64| -> f64 {
        let area = (sx * sx + sr * sr).sqrt();
        (q.ux * sx + q.ur * sr).abs() + q.a * area
    };
    face(m.si_x[(i, j)], m.si_r[(i, j)])
        + face(m.si_x[(i + 1, j)], m.si_r[(i + 1, j)])
        + face(m.sj_x[(i, j)], m.sj_r[(i, j)])
        + face(m.sj_x[(i, j + 1)], m.sj_r[(i, j + 1)])
}

/// The explicit update every field solver shares: `u += Δt/V·r` in each
/// cell, from the residuals `res` (`u`'s depth per cell) and the time
/// steps `dt`, both row-major `i * ncj + j`; then the first
/// `density_rows` rows of `u` are floored at `floor`. Returns the L2 norm
/// per cell of the density residual (those rows' sum over V), summed in
/// cell order on one thread.
pub(crate) fn explicit_update(
    u: &mut Field3<f64>,
    volume: &Field2<f64>,
    res: &[f64],
    dt: &[f64],
    density_rows: usize,
    floor: f64,
) -> f64 {
    let neq = u.nk();
    let cells = u
        .as_mut_slice()
        .chunks_exact_mut(neq)
        .zip(res.chunks_exact(neq));
    let mut resnorm = 0.0;
    for ((cell, r), (dt, v)) in cells.zip(dt.iter().zip(volume.as_slice())) {
        let scale = dt / v;
        for (c, r) in cell.iter_mut().zip(r) {
            *c += scale * r;
        }
        let mut drho = 0.0;
        for (c, r) in cell[..density_rows].iter_mut().zip(r) {
            if *c < floor {
                *c = floor;
            }
            drho += r;
        }
        let r = drho / v;
        resnorm += r * r;
    }
    (resnorm / dt.len() as f64).sqrt()
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
    pub(crate) steps_taken: usize,
    /// Run-control CFL scale (1.0 = nominal; halved on rollback).
    cfl_scale: f64,
    /// Run-control safety mode: force first-order reconstruction
    /// independent of the startup schedule.
    force_first_order: bool,
    /// Run observability: residual histories and audit findings.
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
        self.decode(self.u.vector(i, j)).0
    }

    /// Specific internal energy of cell `(i, j)` \[J/kg\].
    #[must_use]
    pub fn internal_energy(&self, i: usize, j: usize) -> f64 {
        let c = self.u.vector(i, j);
        let rho = c[0].max(RHO_FLOOR);
        let ux = c[1] / rho;
        let ur = c[2] / rho;
        let e_tot = c[3] / rho;
        (e_tot - 0.5 * (ux * ux + ur * ur)).max(1e-6 * e_tot.abs().max(1e-300))
    }

    /// Primitives and specific internal energy \[J/kg\] of one conserved
    /// vector.
    fn decode(&self, c: &[f64]) -> (Primitive, f64) {
        let rho = c[0].max(RHO_FLOOR);
        let ux = c[1] / rho;
        let ur = c[2] / rho;
        let e_tot = c[3] / rho;
        let e = (e_tot - 0.5 * (ux * ux + ur * ur)).max(1e-6 * e_tot.abs().max(1e-300));
        // The paired lookup shares the EOS setup work (table coordinates,
        // clamps) and is bitwise identical to the two individual calls.
        let (p_raw, a_raw) = self.gas.pressure_sound_speed(rho, e);
        let p = p_raw.max(P_FLOOR);
        let a = a_raw.max(1.0);
        let q = Primitive {
            rho,
            ux,
            ur,
            p,
            a,
            h0: e + p / rho + 0.5 * (ux * ux + ur * ur),
        };
        (q, e)
    }

    /// Reconstruction limiter: first order during start-up and the
    /// run-control fallback, the configured limiter otherwise.
    fn limiter(&self, first_order: bool) -> Limiter {
        if first_order {
            Limiter::FirstOrder
        } else {
            self.opts.limiter
        }
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
        let rho = (c.rho + sign * 0.5 * s0).max(RHO_FLOOR);
        let p = (c.p + sign * 0.5 * s3).max(P_FLOOR);
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
        let rho = (c.rho + half * s0).max(F64x4::splat(RHO_FLOOR));
        let p = (c.p + half * s3).max(F64x4::splat(P_FLOOR));
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

    /// Four-lane [`ausm_flux`]: branchless AUSM+ with the split
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

    /// Vectorized flux for four faces whose right-hand cells are the
    /// consecutive flat cells `r0..r0 + 4`, each face's stencil running
    /// along its grid line with cell stride `stride` (`ncj` for i-faces,
    /// whose lanes are four adjacent rows; 1 for j-faces, whose lanes are
    /// four adjacent faces of one row). `sx`/`sr` start at the first face's
    /// normal. Only valid where all four faces are fully interior (both
    /// sides reconstruct), so all lanes share one code path and every cell
    /// load is a contiguous row segment.
    #[inline(always)]
    fn face_flux4(
        &self,
        prim: &PrimSoA,
        r0: usize,
        stride: usize,
        sx: &[f64],
        sr: &[f64],
        lim: Limiter,
    ) -> [F64x4; NEQ] {
        let qll = prim.load4(r0 - 2 * stride);
        let ql = prim.load4(r0 - stride);
        let qr = prim.load4(r0);
        let qrr = prim.load4(r0 + stride);
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
        Self::ausm_flux4(&left, &right, F64x4::load(sx), F64x4::load(sr))
    }

    /// Flux through face `f` of `line` with area-weighted normal `(sx, sr)`
    /// from cached primitives, the boundary ghost faces included: the
    /// scalar form of [`Self::face_flux4`].
    #[inline(always)]
    fn face_flux(
        &self,
        prim: &PrimSoA,
        line: &Line<Bc>,
        f: usize,
        sx: f64,
        sr: f64,
        lim: Limiter,
    ) -> [f64; NEQ] {
        if f == 0 {
            return boundary_flux(self.gas, line.lo, &prim.get(line.base), sx, sr, true);
        }
        if f == line.n {
            let q = prim.get(line.cell(f - 1));
            return boundary_flux(self.gas, line.hi, &q, sx, sr, false);
        }
        let ql = prim.get(line.cell(f - 1));
        let qr = prim.get(line.cell(f));
        let left = if f >= 2 {
            let qll = prim.get(line.cell(f - 2));
            self.recon(lim, &ql, Self::delta(&qll, &ql), Self::delta(&ql, &qr), 1.0)
        } else {
            ql
        };
        let right = if f + 1 < line.n {
            let qrr = prim.get(line.cell(f + 1));
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
        ausm_flux(&left, &right, sx, sr)
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
        scratch.e.resize(nci * ncj, 0.0);
        scratch.fi.resize((nci + 1) * ncj, [0.0; NEQ]);
        scratch.fj.resize(nci * (ncj + 1), [0.0; NEQ]);

        for i in 0..nci {
            for j in 0..ncj {
                let (q, e) = self.decode(self.u.vector(i, j));
                scratch.prim.set(i * ncj + j, q);
                scratch.e[i * ncj + j] = e;
            }
        }

        let lim = self.limiter(first_order);
        let m = &self.metrics;
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
                // Face (iface, j) shares its flat index with cell (iface, j).
                let mut j0 = 0usize;
                if iface >= 2 && iface + 2 <= nci {
                    while j0 + 4 <= ncj {
                        let r0 = iface * ncj + j0;
                        let (sx, sr) = (&m.si_x.as_slice()[r0..], &m.si_r.as_slice()[r0..]);
                        let f = self.face_flux4(prim, r0, ncj, sx, sr, lim);
                        Self::store_flux4(&f, &mut col[j0..j0 + 4]);
                        j0 += 4;
                    }
                }
                for (j, f) in col.iter_mut().enumerate().skip(j0) {
                    let line = Line::along_i(j, nci, ncj, self.bc.i_lo, self.bc.i_hi);
                    let (sx, sr) = (m.si_x[(iface, j)], m.si_r[(iface, j)]);
                    *f = self.face_flux(prim, &line, iface, sx, sr, lim);
                }
            });
        scratch
            .fj
            .par_chunks_mut(ncj + 1)
            .enumerate()
            .for_each(|(i, row)| {
                let line = Line::along_j(i, ncj, self.bc.j_lo, self.bc.j_hi);
                let faces = i * (ncj + 1)..(i + 1) * (ncj + 1);
                let sx = &m.sj_x.as_slice()[faces.clone()];
                let sr = &m.sj_r.as_slice()[faces];
                let mut jf = 0usize;
                while jf <= ncj {
                    if jf >= 2 && jf + 3 <= ncj.saturating_sub(2) {
                        let f = self.face_flux4(prim, line.cell(jf), 1, &sx[jf..], &sr[jf..], lim);
                        Self::store_flux4(&f, &mut row[jf..jf + 4]);
                        jf += 4;
                    } else {
                        row[jf] = self.face_flux(prim, &line, jf, sx[jf], sr[jf], lim);
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

    /// Net residual of cell (i, j) gathered from the assembled face fluxes
    /// (+left i, −right i, +bottom j, −top j, axisymmetric source last): the
    /// order the test-only cell-by-cell reference `cell_residual` sums in,
    /// so the two agree bit for bit.
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

    /// Net residual of cell (i, j) evaluated cell by cell: each of its four
    /// faces through the scalar [`Self::face_flux`] (so every interior face
    /// is evaluated twice over the block), summed in
    /// [`Self::gather_residual`]'s order. The reference the face-based
    /// assembly and its four-lane kernel are tested against.
    #[cfg(test)]
    pub(crate) fn cell_residual(
        &self,
        prim: &PrimSoA,
        i: usize,
        j: usize,
        first_order: bool,
    ) -> [f64; NEQ] {
        let (nci, ncj) = (self.nci(), self.ncj());
        let m = &self.metrics;
        let lim = self.limiter(first_order);
        let il = Line::along_i(j, nci, ncj, self.bc.i_lo, self.bc.i_hi);
        let jl = Line::along_j(i, ncj, self.bc.j_lo, self.bc.j_hi);
        let fl = self.face_flux(prim, &il, i, m.si_x[(i, j)], m.si_r[(i, j)], lim);
        let fr = self.face_flux(
            prim,
            &il,
            i + 1,
            m.si_x[(i + 1, j)],
            m.si_r[(i + 1, j)],
            lim,
        );
        let fb = self.face_flux(prim, &jl, j, m.sj_x[(i, j)], m.sj_r[(i, j)], lim);
        let ft = self.face_flux(
            prim,
            &jl,
            j + 1,
            m.sj_x[(i, j + 1)],
            m.sj_r[(i, j + 1)],
            lim,
        );
        let mut res = [0.0; NEQ];
        for k in 0..NEQ {
            res[k] = fl[k] - fr[k] + fb[k] - ft[k];
        }
        // Axisymmetric geometric source: the face normals do not close in r;
        // the imbalance (= meridian-plane area) carries the cell pressure.
        if self.grid.geometry == aerothermo_grid::Geometry::Axisymmetric {
            res[2] += prim.p[i * ncj + j] * m.plane_area[(i, j)];
        }
        res
    }

    /// Local time step of cell (i, j) given its primitives.
    fn local_dt(&self, q: &Primitive, i: usize, j: usize, cfl: f64) -> f64 {
        let m = &self.metrics;
        cfl * m.volume[(i, j)] / convective_spectral_sum(m, i, j, q).max(1e-300)
    }

    /// This step's start-up schedule, `(first_order, cfl)`: the shared
    /// [`crate::runctl::startup_schedule`] at the run-control CFL scale,
    /// with the run-control first-order fallback folded in.
    pub(crate) fn schedule(&self) -> (bool, f64) {
        let (startup, cfl) = crate::runctl::startup_schedule(
            self.steps_taken,
            self.opts.startup_steps,
            self.cfl_scale * self.opts.cfl,
        );
        (startup || self.force_first_order, cfl)
    }

    /// The residual operator: assemble the faces of the current state and
    /// gather every cell's net residual into `scratch.res`. Reads `u`,
    /// never writes it; `scratch.dt` is sized for the caller's time steps.
    pub(crate) fn fill_residual(&self, scratch: &mut EulerScratch, first_order: bool) {
        self.assemble_faces(scratch, first_order);
        let (n, ncj) = (self.nci() * self.ncj(), self.ncj());
        scratch.res.resize(n, [0.0; NEQ]);
        scratch.dt.resize(n, 0.0);
        for idx in 0..n {
            scratch.res[idx] = self.gather_residual(scratch, idx / ncj, idx % ncj);
        }
    }

    /// Apply [`explicit_update`] to the residual and time-step buffers of
    /// `scratch`, hand the scratch back to the solver and count the step;
    /// returns the density-residual norm.
    pub(crate) fn update(&mut self, scratch: EulerScratch) -> f64 {
        let (res, dt) = (scratch.res.as_flattened(), &scratch.dt);
        let norm = explicit_update(&mut self.u, &self.metrics.volume, res, dt, 1, RHO_FLOOR);
        self.scratch = scratch;
        self.steps_taken += 1;
        norm
    }

    /// Advance one explicit step with local time stepping; returns the
    /// density-residual L2 norm (per cell).
    pub fn step(&mut self) -> f64 {
        let _sp = trace::span("euler_step");
        let (first_order, cfl) = self.schedule();
        let mut scratch = std::mem::take(&mut self.scratch);
        self.fill_residual(&mut scratch, first_order);
        let ncj = self.ncj();
        for (idx, dt) in scratch.dt.iter_mut().enumerate() {
            *dt = self.local_dt(&scratch.prim.get(idx), idx / ncj, idx % ncj, cfl);
        }
        self.update(scratch)
    }

    /// Advance one *time-accurate* step with a caller-supplied global time
    /// step (for unsteady verification problems like the Sod tube).
    pub fn step_global_dt(&mut self, dt: f64) {
        let mut scratch = std::mem::take(&mut self.scratch);
        self.fill_residual(&mut scratch, self.schedule().0);
        scratch.dt.fill(dt);
        self.update(scratch);
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
        let (nci, ncj) = (self.nci(), self.ncj());
        let (gas, bc) = (self.gas, &self.bc);
        for j in 0..ncj {
            // i-lo boundary: flux in (+); i-hi boundary: flux out (−).
            let q = self.primitive(0, j);
            let f = boundary_flux(gas, bc.i_lo, &q, m.si_x[(0, j)], m.si_r[(0, j)], true);
            tally(&f, 1.0, &mut budget);
            let q = self.primitive(nci - 1, j);
            let f = boundary_flux(gas, bc.i_hi, &q, m.si_x[(nci, j)], m.si_r[(nci, j)], false);
            tally(&f, -1.0, &mut budget);
        }
        for i in 0..nci {
            // j-lo boundary (body): flux in (+); j-hi (outer): flux out (−).
            let q = self.primitive(i, 0);
            let f = boundary_flux(gas, bc.j_lo, &q, m.sj_x[(i, 0)], m.sj_r[(i, 0)], true);
            tally(&f, 1.0, &mut budget);
            let q = self.primitive(i, ncj - 1);
            let f = boundary_flux(gas, bc.j_hi, &q, m.sj_x[(i, ncj)], m.sj_r[(i, ncj)], false);
            tally(&f, -1.0, &mut budget);
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
pub(crate) mod tests {
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
            solver.step_global_dt(dt);
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

    /// The cell primitives in the cache layout, decoded cell by cell.
    pub(crate) fn prims(solver: &EulerSolver) -> PrimSoA {
        let ncj = solver.ncj();
        let cells: Vec<Primitive> = (0..solver.nci() * ncj)
            .map(|idx| solver.primitive(idx / ncj, idx % ncj))
            .collect();
        PrimSoA::pack(&cells)
    }

    /// First cell and equation where the residual operator and the
    /// cell-by-cell reference residual differ, with both values.
    fn face_vs_cell_mismatch(
        solver: &EulerSolver,
        first_order: bool,
    ) -> Option<(usize, usize, usize, f64, f64)> {
        let mut scratch = EulerScratch::default();
        solver.fill_residual(&mut scratch, first_order);
        let prim = prims(solver);
        let ncj = solver.ncj();
        for (idx, fb) in scratch.res.iter().enumerate() {
            let (i, j) = (idx / ncj, idx % ncj);
            let cc = solver.cell_residual(&prim, i, j, first_order);
            if let Some(k) = (0..NEQ).find(|&k| fb[k] != cc[k]) {
                return Some((i, j, k, fb[k], cc[k]));
            }
        }
        None
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

        /// The face-based residual assembly equals the cell-by-cell
        /// reference exactly on randomized admissible states — both
        /// reconstruction orders, both geometries, and a grid tall enough
        /// (10 j-cells) for the four-lane j-face kernel.
        #[test]
        fn face_based_matches_cell_centered_residuals(
            mach in 0.5_f64..5.0,
            amp in 0.01_f64..0.15,
            seed in 0_u64..1_000_000,
        ) {
            let gas = IdealGas::air();
            for (geometry, nj) in [Geometry::Planar, Geometry::Axisymmetric]
                .into_iter()
                .flat_map(|g| [(g, 7), (g, 11)])
            {
                let grid = StructuredGrid::rectangle(9, nj, 0.5, 0.3, geometry);
                let solver = perturbed_solver(&grid, &gas, mach, amp, seed);
                for first_order in [true, false] {
                    let d = face_vs_cell_mismatch(&solver, first_order);
                    proptest::prop_assert!(
                        d.is_none(),
                        "(i, j, k, face, cell) = {d:?} ({geometry:?}, nj = {nj}, first_order = {first_order})"
                    );
                }
            }
        }
    }

    /// `step()` built from the cell-by-cell reference residuals: per-cell
    /// `local_dt`, identical update/floor/resnorm arithmetic. The regression
    /// test below pins the face-based step's residual history to this.
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
        let prim = prims(solver);
        let updates: Vec<([f64; NEQ], f64)> = (0..nci * ncj)
            .map(|idx| {
                let i = idx / ncj;
                let j = idx % ncj;
                (
                    solver.cell_residual(&prim, i, j, first_order),
                    solver.local_dt(&prim.get(idx), i, j, cfl),
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
            if cell[0] < RHO_FLOOR {
                cell[0] = RHO_FLOOR;
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
        // cell-by-cell reference step, on identical twin solvers.
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
                rf == rr,
                "residual diverged at step {n}: face {rf:.17e} vs reference {rr:.17e}"
            );
        }
        // The states themselves must agree too.
        for i in 0..fast.nci() {
            for j in 0..fast.ncj() {
                let a = fast.u.vector(i, j);
                let b = reference.u.vector(i, j);
                for k in 0..NEQ {
                    assert!(a[k] == b[k], "state diverged at ({i},{j})[{k}]");
                }
            }
        }
    }
}
