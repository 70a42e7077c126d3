//! Numerical substrate for the `aerothermo` computational-aerothermodynamics
//! toolkit.
//!
//! This crate provides the building blocks shared by every flow solver and
//! physics model in the workspace:
//!
//! * [`field`] — dense row-major 2-D/3-D fields used for structured-grid data,
//! * [`linalg`] — small dense linear algebra (partial-pivot LU),
//! * [`tridiag`] — scalar and block tridiagonal (Thomas) solvers,
//! * [`ode`] — explicit (RK4, adaptive RKF45) and stiff implicit integrators,
//! * [`newton`] — damped Newton iteration for nonlinear systems,
//! * [`roots`] — bracketed scalar root finding (bisection, Brent),
//! * [`interp`] — linear / monotone-cubic interpolation and bilinear tables,
//! * [`quadrature`] — trapezoid, Simpson, Gauss-Legendre quadrature,
//! * [`limiters`] — TVD slope limiters for MUSCL reconstruction,
//! * [`simd`] — four-wide `f64` lanes for the vectorized flux/limiter
//!   kernels (SSE2 on `x86_64`, a portable scalar quad elsewhere,
//!   bitwise-identical semantics either way),
//! * [`shortest`] — shortest round-trip decimal digits of an `f64` (Ryū),
//!   the digit kernel behind [`json::push_f64`],
//! * [`json`] — the JSON parser and the one writer of every artifact,
//! * [`report`] — the `--report` document of figure binaries and sweeps,
//! * [`constants`] — physical constants in SI units,
//! * [`telemetry`] — solver observability: kernel counter names, residual
//!   monitors with divergence detection, physics-audit findings, and the
//!   shared [`telemetry::SolverError`] type,
//! * [`trace`] — the one instrumentation registry: exact RAII span timing
//!   with histograms, per-thread kernel counters, gauges, Chrome
//!   trace-event export, and JSON / Prometheus-style exposition.
//!
//! Everything is `f64`; the structured-grid solvers in `aerothermo-solvers`
//! are written against these primitives rather than an external array crate so
//! that memory layout (and hence vectorization) stays under our control.
#![warn(missing_docs)]
// Indexed loops over parallel arrays are the clearest idiom for the
// numerical kernels here; spelled-out spectroscopic constants keep their
// literature precision.
#![allow(
    clippy::needless_range_loop,
    clippy::excessive_precision,
    clippy::type_complexity
)]

pub mod constants;
pub mod field;
pub mod interp;
pub mod json;
pub mod limiters;
pub mod linalg;
pub mod newton;
pub mod ode;
pub mod quadrature;
pub mod report;
pub mod roots;
pub mod shortest;
pub mod simd;
pub mod telemetry;
pub mod trace;
pub mod tridiag;

pub use field::{Field2, Field3};

/// Relative difference `|a - b| / max(|a|, |b|, floor)`.
///
/// Useful in tests and convergence checks where either value may be zero.
#[must_use]
pub fn rel_diff(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs()).max(1e-300);
    (a - b).abs() / scale
}

/// True when `a` and `b` agree to relative tolerance `tol` (or absolutely for
/// values smaller than `tol` itself).
#[must_use]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_diff_symmetric() {
        assert!((rel_diff(1.0, 2.0) - 0.5).abs() < 1e-15);
        assert!((rel_diff(2.0, 1.0) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn rel_diff_zero_safe() {
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
    }

    #[test]
    fn approx_eq_basic() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-10));
        assert!(!approx_eq(1.0, 1.1, 1e-3));
        assert!(approx_eq(0.0, 1e-12, 1e-10));
    }
}
