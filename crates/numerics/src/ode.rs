//! ODE integrators: classic RK4, adaptive RKF45, and a stiff implicit
//! (backward-Euler with Newton) marcher.
//!
//! The stiff integrator is the workhorse for finite-rate chemistry, where the
//! time scales of the exchange reactions span many orders of magnitude — the
//! "single most complicating factor in CAT" per the paper. Backward Euler is
//! only first order, but its L-stability is exactly what a relaxing
//! post-shock state needs, and the step controller keeps the accuracy.

use crate::linalg::{lu_factor, lu_solve, solve_dense};
use crate::telemetry::{counters, Counter};

/// Local accept/reject/Jacobian tally flushed to the global counters on
/// drop, so error returns are counted too and the hot loop pays no atomics.
struct StepTally {
    accepted: u64,
    rejected: u64,
    jacobians: u64,
}

impl StepTally {
    fn new() -> Self {
        Self {
            accepted: 0,
            rejected: 0,
            jacobians: 0,
        }
    }
}

impl Drop for StepTally {
    fn drop(&mut self) {
        for (counter, n) in [
            (Counter::OdeStepsAccepted, self.accepted),
            (Counter::OdeStepsRejected, self.rejected),
            (Counter::OdeJacobians, self.jacobians),
        ] {
            if n > 0 {
                counters::add(counter, n);
            }
        }
    }
}

/// Right-hand side of `dy/dx = f(x, y)`: writes the derivative into `dydx`.
pub trait OdeSystem {
    /// Evaluate the derivative at `(x, y)`.
    fn rhs(&self, x: f64, y: &[f64], dydx: &mut [f64]);
}

impl<F: Fn(f64, &[f64], &mut [f64])> OdeSystem for F {
    fn rhs(&self, x: f64, y: &[f64], dydx: &mut [f64]) {
        self(x, y, dydx);
    }
}

/// One classic fourth-order Runge-Kutta step of size `h`; `y` is advanced in
/// place.
pub fn rk4_step(sys: &impl OdeSystem, x: f64, y: &mut [f64], h: f64) {
    let n = y.len();
    let mut k1 = vec![0.0; n];
    let mut k2 = vec![0.0; n];
    let mut k3 = vec![0.0; n];
    let mut k4 = vec![0.0; n];
    let mut yt = vec![0.0; n];

    sys.rhs(x, y, &mut k1);
    for i in 0..n {
        yt[i] = y[i] + 0.5 * h * k1[i];
    }
    sys.rhs(x + 0.5 * h, &yt, &mut k2);
    for i in 0..n {
        yt[i] = y[i] + 0.5 * h * k2[i];
    }
    sys.rhs(x + 0.5 * h, &yt, &mut k3);
    for i in 0..n {
        yt[i] = y[i] + h * k3[i];
    }
    sys.rhs(x + h, &yt, &mut k4);
    for i in 0..n {
        y[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
    }
}

/// Integrate with fixed-step RK4 from `x0` to `x1` in `nsteps` steps.
pub fn rk4_integrate(sys: &impl OdeSystem, x0: f64, x1: f64, y: &mut [f64], nsteps: usize) {
    let h = (x1 - x0) / nsteps as f64;
    let mut x = x0;
    for _ in 0..nsteps {
        rk4_step(sys, x, y, h);
        x += h;
    }
}

/// Options for the adaptive integrators.
#[derive(Debug, Clone)]
pub struct AdaptiveOptions {
    /// Relative error tolerance.
    pub rtol: f64,
    /// Absolute error tolerance.
    pub atol: f64,
    /// Initial step size (sign ignored; direction from the interval).
    pub h0: f64,
    /// Smallest allowed |step|.
    pub hmin: f64,
    /// Largest allowed |step|.
    pub hmax: f64,
    /// Step budget.
    pub max_steps: usize,
}

impl Default for AdaptiveOptions {
    fn default() -> Self {
        Self {
            rtol: 1e-8,
            atol: 1e-12,
            h0: 1e-4,
            hmin: 1e-14,
            hmax: f64::INFINITY,
            max_steps: 1_000_000,
        }
    }
}

/// Integration failure.
#[derive(Debug, Clone, PartialEq)]
pub enum OdeError {
    /// Step size underflowed `hmin` at the given abscissa.
    StepUnderflow(f64),
    /// `max_steps` exhausted at the given abscissa.
    TooManySteps(f64),
    /// Newton failed to converge inside the implicit solver.
    NewtonFailure(f64),
}

impl std::fmt::Display for OdeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OdeError::StepUnderflow(x) => write!(f, "ode: step underflow at x={x:.6e}"),
            OdeError::TooManySteps(x) => write!(f, "ode: too many steps at x={x:.6e}"),
            OdeError::NewtonFailure(x) => write!(f, "ode: implicit newton failed at x={x:.6e}"),
        }
    }
}

impl std::error::Error for OdeError {}

// Fehlberg 4(5) coefficients.
const RKF_A: [[f64; 5]; 5] = [
    [1.0 / 4.0, 0.0, 0.0, 0.0, 0.0],
    [3.0 / 32.0, 9.0 / 32.0, 0.0, 0.0, 0.0],
    [1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0, 0.0, 0.0],
    [439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0, 0.0],
    [
        -8.0 / 27.0,
        2.0,
        -3544.0 / 2565.0,
        1859.0 / 4104.0,
        -11.0 / 40.0,
    ],
];
const RKF_C: [f64; 6] = [0.0, 0.25, 3.0 / 8.0, 12.0 / 13.0, 1.0, 0.5];
const RKF_B4: [f64; 6] = [
    25.0 / 216.0,
    0.0,
    1408.0 / 2565.0,
    2197.0 / 4104.0,
    -1.0 / 5.0,
    0.0,
];
const RKF_B5: [f64; 6] = [
    16.0 / 135.0,
    0.0,
    6656.0 / 12825.0,
    28561.0 / 56430.0,
    -9.0 / 50.0,
    2.0 / 55.0,
];

/// Adaptive RKF45 integration from `x0` to `x1`. Calls `observer(x, y)` after
/// every accepted step (including the initial state).
///
/// # Errors
/// See [`OdeError`].
pub fn rkf45_integrate(
    sys: &impl OdeSystem,
    x0: f64,
    x1: f64,
    y: &mut [f64],
    opts: &AdaptiveOptions,
    mut observer: impl FnMut(f64, &[f64]),
) -> Result<(), OdeError> {
    let n = y.len();
    let dir = if x1 >= x0 { 1.0 } else { -1.0 };
    let mut x = x0;
    let mut h = opts.h0.abs().max(opts.hmin) * dir;
    let mut k = vec![vec![0.0; n]; 6];
    let mut yt = vec![0.0; n];
    let mut y4 = vec![0.0; n];
    let mut y5 = vec![0.0; n];

    observer(x, y);
    let mut steps = 0;
    let mut tally = StepTally::new();
    while (x1 - x) * dir > 1e-14 * x1.abs().max(1.0) {
        if steps >= opts.max_steps {
            return Err(OdeError::TooManySteps(x));
        }
        steps += 1;
        if (x + h - x1) * dir > 0.0 {
            h = x1 - x;
        }

        sys.rhs(x, y, &mut k[0]);
        for s in 1..6 {
            for i in 0..n {
                let mut acc = y[i];
                for (j, kj) in k.iter().enumerate().take(s) {
                    acc += h * RKF_A[s - 1][j] * kj[i];
                }
                yt[i] = acc;
            }
            let (head, tail) = k.split_at_mut(s);
            let _ = head;
            sys.rhs(x + RKF_C[s] * h, &yt, &mut tail[0]);
        }

        let mut err = 0.0_f64;
        for i in 0..n {
            let mut s4 = y[i];
            let mut s5 = y[i];
            for j in 0..6 {
                s4 += h * RKF_B4[j] * k[j][i];
                s5 += h * RKF_B5[j] * k[j][i];
            }
            y4[i] = s4;
            y5[i] = s5;
            let sc = opts.atol + opts.rtol * y[i].abs().max(s5.abs());
            err = err.max(((s5 - s4) / sc).abs());
        }

        if err <= 1.0 || h.abs() <= opts.hmin * 1.0001 {
            x += h;
            y.copy_from_slice(&y5);
            observer(x, y);
            tally.accepted += 1;
        } else {
            tally.rejected += 1;
        }

        // PI-free simple controller.
        let factor = if err > 0.0 {
            (0.9 * err.powf(-0.2)).clamp(0.2, 5.0)
        } else {
            5.0
        };
        h *= factor;
        if h.abs() > opts.hmax {
            h = opts.hmax * dir;
        }
        if h.abs() < opts.hmin {
            if err > 1.0 {
                return Err(OdeError::StepUnderflow(x));
            }
            h = opts.hmin * dir;
        }
    }
    Ok(())
}

/// Stiff integrator: adaptive backward Euler with a Newton inner solve
/// and step-doubling error control.
///
/// Each attempted step solves `y_{n+1} = y_n + h f(x_{n+1}, y_{n+1})` three
/// times: once with step `h` and twice with `h/2`. The error is estimated by
/// comparing the full step against the two half steps, the step adapted to
/// `rtol`/`atol`, and the accepted state Richardson-extrapolated
/// (first order).
///
/// All three Newton solves share one forward-difference Jacobian `∂f/∂y`,
/// assembled at `(x_n + h, y_n)` (its base evaluation doubles as the full
/// step's first residual) and LU-factored once as `I − h·∂f/∂y` and once as
/// `I − (h/2)·∂f/∂y`; each Newton iterate then costs one right-hand side
/// and one pair of triangular solves. For the chemistry systems here
/// (≲ 15 unknowns) the `n + 1` evaluations of a Jacobian dominate a step,
/// so sharing it cuts the evaluations per step about threefold. The
/// iterates converge to the same `1e-11` residual as with a fresh Jacobian;
/// a residual stuck on its rounding floor (the correction no longer changes
/// `y`) is accepted below `1e-6`, as the fresh-Jacobian solve accepts it.
/// A solve whose shared-Jacobian iterates stop contracting, or do not
/// converge within 12 iterations, is redone from the same
/// start with a fresh Jacobian at every iterate; the `ode_jacobians`
/// counter's excess over the attempted steps shows how often that happens.
///
/// # Errors
/// See [`OdeError`].
pub fn stiff_integrate(
    sys: &impl OdeSystem,
    x0: f64,
    x1: f64,
    y: &mut [f64],
    opts: &AdaptiveOptions,
    mut observer: impl FnMut(f64, &[f64]),
) -> Result<(), OdeError> {
    let _sp = crate::trace::span("stiff_integrate");
    let dir = if x1 >= x0 { 1.0 } else { -1.0 };
    let mut x = x0;
    let mut h = opts.h0.abs().max(opts.hmin) * dir;
    let n = y.len();
    let mut yfull = vec![0.0; n];
    let mut yhalf = vec![0.0; n];
    let mut newton = SharedJacobianNewton::new(n);

    observer(x, y);
    let mut steps = 0;
    let mut tally = StepTally::new();
    while (x1 - x) * dir > 1e-14 * x1.abs().max(1.0) {
        if steps >= opts.max_steps {
            return Err(OdeError::TooManySteps(x));
        }
        steps += 1;
        if (x + h - x1) * dir > 0.0 {
            h = x1 - x;
        }

        newton.assemble(sys, x + h, y, h);
        tally.jacobians += 1;
        // One full step, then two half steps.
        yfull.copy_from_slice(y);
        let ok = newton.step(sys, x, &mut yfull, Step::Full, &mut tally.jacobians) && {
            yhalf.copy_from_slice(y);
            newton.step(sys, x, &mut yhalf, Step::Half, &mut tally.jacobians)
                && newton.step(
                    sys,
                    x + 0.5 * h,
                    &mut yhalf,
                    Step::Half,
                    &mut tally.jacobians,
                )
        };

        if !ok {
            tally.rejected += 1;
            h *= 0.25;
            if h.abs() < opts.hmin {
                return Err(OdeError::NewtonFailure(x));
            }
            continue;
        }

        let mut err = 0.0_f64;
        for i in 0..n {
            let sc = opts.atol + opts.rtol * y[i].abs().max(yhalf[i].abs());
            err = err.max(((yhalf[i] - yfull[i]) / sc).abs());
        }

        if err <= 1.0 || h.abs() <= opts.hmin * 1.0001 {
            x += h;
            // Richardson extrapolation of the first-order scheme.
            for i in 0..n {
                y[i] = 2.0 * yhalf[i] - yfull[i];
            }
            observer(x, y);
            tally.accepted += 1;
        } else {
            tally.rejected += 1;
        }

        let factor = if err > 0.0 {
            (0.8 / err).clamp(0.2, 4.0)
        } else {
            4.0
        };
        h *= factor;
        if h.abs() > opts.hmax {
            h = opts.hmax * dir;
        }
        if h.abs() < opts.hmin {
            if err > 1.0 {
                return Err(OdeError::StepUnderflow(x));
            }
            h = opts.hmin * dir;
        }
    }
    Ok(())
}

/// Iteration budget of one shared-Jacobian Newton solve before it is redone
/// with fresh Jacobians.
const SHARED_JACOBIAN_ITERATIONS: usize = 12;

/// Which of an attempted step's solves: the full step `h` or a half step.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Step {
    Full,
    Half,
}

/// The shared Jacobian of one attempted step, its two factorizations and
/// the Newton work buffers, allocated once per integration.
struct SharedJacobianNewton {
    n: usize,
    /// `h` of the current attempted step.
    h: f64,
    /// `f(x_n + h, y_n)`: the Jacobian's base point and the full step's
    /// first residual.
    f_base: Vec<f64>,
    f: Vec<f64>,
    y0: Vec<f64>,
    ypert: Vec<f64>,
    /// Residual, then Newton correction.
    res: Vec<f64>,
    /// `∂f/∂y`, row-major.
    dfdy: Vec<f64>,
    /// `I − h·∂f/∂y`, factored.
    full: IterationMatrix,
    /// `I − (h/2)·∂f/∂y`, factored.
    half: IterationMatrix,
}

/// LU factors of one Newton iteration matrix `I − h·∂f/∂y`.
struct IterationMatrix {
    lu: Vec<f64>,
    piv: Vec<usize>,
    singular: bool,
}

impl IterationMatrix {
    fn new(n: usize) -> Self {
        Self {
            lu: vec![0.0; n * n],
            piv: vec![0; n],
            singular: true,
        }
    }

    fn factor(&mut self, dfdy: &[f64], h: f64) {
        let n = self.piv.len();
        for (m, d) in self.lu.iter_mut().zip(dfdy) {
            *m = -h * d;
        }
        for k in 0..n {
            self.lu[k * n + k] += 1.0;
        }
        self.singular = lu_factor(&mut self.lu, n, &mut self.piv).is_err();
    }

    /// Overwrite `b` with the solution of the factored system; false when
    /// the matrix is singular.
    fn solve(&self, b: &mut [f64]) -> bool {
        !self.singular && lu_solve(&self.lu, self.piv.len(), &self.piv, b).is_ok()
    }
}

impl SharedJacobianNewton {
    fn new(n: usize) -> Self {
        Self {
            n,
            h: 0.0,
            f_base: vec![0.0; n],
            f: vec![0.0; n],
            y0: vec![0.0; n],
            ypert: vec![0.0; n],
            res: vec![0.0; n],
            dfdy: vec![0.0; n * n],
            full: IterationMatrix::new(n),
            half: IterationMatrix::new(n),
        }
    }

    /// Assemble `∂f/∂y` at `(x, y)` by forward differences and factor the
    /// iteration matrices of step `h` and `h/2`.
    fn assemble(&mut self, sys: &impl OdeSystem, x: f64, y: &[f64], h: f64) {
        let n = self.n;
        self.h = h;
        sys.rhs(x, y, &mut self.f_base);
        for j in 0..n {
            self.ypert.copy_from_slice(y);
            let dy = 1e-7 * y[j].abs().max(1e-10);
            self.ypert[j] += dy;
            sys.rhs(x, &self.ypert, &mut self.f);
            for i in 0..n {
                self.dfdy[i * n + j] = (self.f[i] - self.f_base[i]) / dy;
            }
        }
        self.full.factor(&self.dfdy, h);
        self.half.factor(&self.dfdy, 0.5 * h);
    }

    /// One backward-Euler solve from `(x, y)` with the shared Jacobian,
    /// redone with fresh Jacobians (counted into `jacobians`) if that fails;
    /// returns false when both fail.
    fn step(
        &mut self,
        sys: &impl OdeSystem,
        x: f64,
        y: &mut [f64],
        step: Step,
        jacobians: &mut u64,
    ) -> bool {
        let h = match step {
            Step::Full => self.h,
            Step::Half => 0.5 * self.h,
        };
        self.y0.copy_from_slice(y);
        if self.solve_shared(sys, x, y, h, step) {
            return true;
        }
        y.copy_from_slice(&self.y0);
        be_step(sys, x, y, h, jacobians)
    }

    fn solve_shared(
        &mut self,
        sys: &impl OdeSystem,
        x: f64,
        y: &mut [f64],
        h: f64,
        step: Step,
    ) -> bool {
        let matrix = match step {
            Step::Full => &self.full,
            Step::Half => &self.half,
        };
        let n = self.n;
        let xn = x + h;
        let mut rnorm_prev = f64::INFINITY;
        for it in 0..SHARED_JACOBIAN_ITERATIONS {
            // The full step starts at y_n, where `f_base` already holds f.
            let f = if it == 0 && step == Step::Full {
                &self.f_base
            } else {
                sys.rhs(xn, y, &mut self.f);
                &self.f
            };
            let rnorm = residual_norm(y, &self.y0, f, h, &mut self.res);
            if rnorm < 1e-11 {
                return true;
            }
            // Not finite, or no longer contracting: the shared Jacobian is
            // too far from this solve's.
            if rnorm.is_nan() || rnorm >= rnorm_prev {
                return false;
            }
            rnorm_prev = rnorm;
            if !matrix.solve(&mut self.res) {
                return false;
            }
            let mut moved = false;
            for i in 0..n {
                let yi = y[i] - self.res[i];
                moved |= yi != y[i];
                y[i] = yi;
            }
            // A correction below the last bit of y: the residual sits on
            // its rounding floor, which no Jacobian can lower. Accept it
            // on the fresh-Jacobian solve's slightly-unconverged terms.
            if !moved {
                return rnorm < 1e-6;
            }
        }
        false
    }
}

/// Single backward-Euler step with a fresh Jacobian at every Newton iterate
/// (each one counted into `jacobians`); returns false on Newton failure.
fn be_step(sys: &impl OdeSystem, x: f64, y: &mut [f64], h: f64, jacobians: &mut u64) -> bool {
    let n = y.len();
    let xn = x + h;
    let y0: Vec<f64> = y.to_vec();
    let mut f = vec![0.0; n];
    let mut fpert = vec![0.0; n];
    let mut res = vec![0.0; n];
    let mut jac = vec![0.0; n * n];
    let mut ypert = vec![0.0; n];

    for _newton in 0..25 {
        sys.rhs(xn, y, &mut f);
        let rnorm = residual_norm(y, &y0, &f, h, &mut res);
        if !rnorm.is_finite() {
            return false;
        }
        if rnorm < 1e-11 {
            return true;
        }

        // J = I − h ∂f/∂y (forward differences).
        *jacobians += 1;
        for j in 0..n {
            ypert.copy_from_slice(y);
            let dy = 1e-7 * y[j].abs().max(1e-10);
            ypert[j] += dy;
            sys.rhs(xn, &ypert, &mut fpert);
            for i in 0..n {
                jac[i * n + j] = -h * (fpert[i] - f[i]) / dy;
            }
            jac[j * n + j] += 1.0;
        }

        let mut dx: Vec<f64> = res.iter().map(|r| -r).collect();
        if solve_dense(&mut jac, n, &mut dx).is_err() {
            return false;
        }
        for i in 0..n {
            y[i] += dx[i];
        }
        if !y.iter().all(|v| v.is_finite()) {
            return false;
        }
    }
    // Accept a slightly-unconverged Newton if the residual is small-ish.
    sys.rhs(xn, y, &mut f);
    residual_norm(y, &y0, &f, h, &mut res) < 1e-6
}

/// Writes the backward-Euler residual `y − y0 − h f` into `res` and returns
/// its scaled max-norm, or NaN if any component is not finite (`f64::max`
/// alone would drop a NaN component and report convergence).
fn residual_norm(y: &[f64], y0: &[f64], f: &[f64], h: f64, res: &mut [f64]) -> f64 {
    let mut rnorm = 0.0_f64;
    for i in 0..y.len() {
        res[i] = y[i] - y0[i] - h * f[i];
        if !res[i].is_finite() {
            return f64::NAN;
        }
        rnorm = rnorm.max(res[i].abs() / (1.0 + y[i].abs()));
    }
    rnorm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rk4_exponential() {
        let sys = |_x: f64, y: &[f64], d: &mut [f64]| d[0] = -y[0];
        let mut y = vec![1.0];
        rk4_integrate(&sys, 0.0, 1.0, &mut y, 100);
        assert!((y[0] - (-1.0_f64).exp()).abs() < 1e-8);
    }

    #[test]
    fn rkf45_harmonic_oscillator() {
        // y'' = −y as a system; energy conserved.
        let sys = |_x: f64, y: &[f64], d: &mut [f64]| {
            d[0] = y[1];
            d[1] = -y[0];
        };
        let mut y = vec![1.0, 0.0];
        rkf45_integrate(
            &sys,
            0.0,
            2.0 * std::f64::consts::PI,
            &mut y,
            &AdaptiveOptions {
                rtol: 1e-10,
                ..AdaptiveOptions::default()
            },
            |_, _| {},
        )
        .unwrap();
        assert!((y[0] - 1.0).abs() < 1e-7);
        assert!(y[1].abs() < 1e-7);
    }

    /// Integrate with [`stiff_integrate`] and return the calling thread's
    /// (accepted, rejected, Jacobians) counts.
    fn counted_stiff(
        sys: &impl OdeSystem,
        x1: f64,
        y: &mut [f64],
        opts: &AdaptiveOptions,
    ) -> (u64, u64, u64) {
        let scope = crate::telemetry::TelemetryScope::begin();
        stiff_integrate(sys, 0.0, x1, y, opts, |_, _| {}).unwrap();
        let d = scope.thread_delta();
        (
            d.get(Counter::OdeStepsAccepted),
            d.get(Counter::OdeStepsRejected),
            d.get(Counter::OdeJacobians),
        )
    }

    fn stiff_decay(x: f64, y: &[f64], d: &mut [f64]) {
        // Classic stiff test: y' = −1e6 (y − cos x) − sin x, exact y = cos x
        // after the fast transient dies.
        d[0] = -1e6 * (y[0] - x.cos()) - x.sin();
    }

    fn robertson(_x: f64, y: &[f64], d: &mut [f64]) {
        d[0] = -0.04 * y[0] + 1e4 * y[1] * y[2];
        d[1] = 0.04 * y[0] - 1e4 * y[1] * y[2] - 3e7 * y[1] * y[1];
        d[2] = 3e7 * y[1] * y[1];
    }

    const DECAY_OPTS: AdaptiveOptions = AdaptiveOptions {
        rtol: 1e-6,
        atol: 1e-9,
        h0: 1e-8,
        hmin: 1e-14,
        hmax: f64::INFINITY,
        max_steps: 1_000_000,
    };

    const ROBERTSON_OPTS: AdaptiveOptions = AdaptiveOptions {
        rtol: 1e-6,
        atol: 1e-12,
        h0: 1e-6,
        hmin: 1e-14,
        hmax: f64::INFINITY,
        max_steps: 1_000_000,
    };

    #[test]
    fn stiff_decay_fast_mode() {
        let mut y = vec![2.0]; // off the slow manifold
        stiff_integrate(&stiff_decay, 0.0, 1.0, &mut y, &DECAY_OPTS, |_, _| {}).unwrap();
        assert!((y[0] - 1.0_f64.cos()).abs() < 1e-4);
    }

    #[test]
    fn one_jacobian_per_attempted_step() {
        // Neither problem needs the fresh-Jacobian fallback, so every
        // attempted step assembles exactly one Jacobian for its three
        // Newton solves.
        let mut y = vec![2.0];
        let (acc, rej, jac) = counted_stiff(&stiff_decay, 1.0, &mut y, &DECAY_OPTS);
        assert!(acc > 10, "{acc} accepted steps");
        assert_eq!(jac, acc + rej, "stiff decay: {acc} + {rej} attempts");

        let mut y = vec![1.0, 0.0, 0.0];
        let (acc, rej, jac) = counted_stiff(&robertson, 100.0, &mut y, &ROBERTSON_OPTS);
        assert!(acc > 10, "{acc} accepted steps");
        assert_eq!(jac, acc + rej, "Robertson: {acc} + {rej} attempts");
    }

    #[test]
    fn fallback_to_fresh_jacobians_shows_in_the_counter() {
        // y' = −y³ from y = 1 with one huge step: the solution of the
        // full step sits far from y_n, where ∂f/∂y = −3 is a poor guide, so
        // the shared-Jacobian iterates stall and fresh ones take over.
        let sys = |_x: f64, y: &[f64], d: &mut [f64]| d[0] = -y[0] * y[0] * y[0];
        let opts = AdaptiveOptions {
            rtol: 1e-3,
            h0: 1e3,
            ..AdaptiveOptions::default()
        };
        let mut y = vec![1.0];
        let (acc, rej, jac) = counted_stiff(&sys, 1e3, &mut y, &opts);
        assert!(
            jac > acc + rej,
            "{jac} Jacobians for {acc} + {rej} attempts"
        );
        // y(x) = 1/√(1 + 2x).
        assert!(
            (y[0] - 1.0 / 2001.0_f64.sqrt()).abs() < 1e-3 * y[0],
            "{y:?}"
        );
    }

    #[test]
    fn non_finite_derivative_is_a_newton_failure() {
        // A right-hand side that cannot be evaluated writes NaN; the step
        // must be rejected, not taken with the state frozen.
        let sys = |_x: f64, _y: &[f64], d: &mut [f64]| d.fill(f64::NAN);
        let mut y = vec![1.0, 2.0];
        let err = stiff_integrate(&sys, 0.0, 1.0, &mut y, &DECAY_OPTS, |_, _| {}).unwrap_err();
        assert_eq!(err, OdeError::NewtonFailure(0.0));
        assert_eq!(y, [1.0, 2.0]);
    }

    #[test]
    fn stiff_robertson_mass_conserved() {
        // Robertson chemistry problem: notoriously stiff; the three
        // concentrations must keep summing to one.
        let mut y = vec![1.0, 0.0, 0.0];
        stiff_integrate(&robertson, 0.0, 100.0, &mut y, &ROBERTSON_OPTS, |_, _| {}).unwrap();
        let sum: f64 = y.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5, "mass leak: {sum}");
        // Reference: at t = 100 the Robertson solution has y3 ≈ 0.38.
        assert!((y[2] - 0.38).abs() < 0.02, "y3 off reference: {y:?}");
        assert!(y[1] < 1e-4, "intermediate species should stay tiny: {y:?}");
    }

    #[test]
    fn rkf45_observer_sees_endpoints() {
        let sys = |_x: f64, _y: &[f64], d: &mut [f64]| d[0] = 1.0;
        let mut y = vec![0.0];
        let mut first = f64::NAN;
        let mut last = f64::NAN;
        rkf45_integrate(
            &sys,
            0.0,
            1.0,
            &mut y,
            &AdaptiveOptions::default(),
            |x, _| {
                if first.is_nan() {
                    first = x;
                }
                last = x;
            },
        )
        .unwrap();
        assert_eq!(first, 0.0);
        assert!((last - 1.0).abs() < 1e-12);
        assert!((y[0] - 1.0).abs() < 1e-10);
    }
}
