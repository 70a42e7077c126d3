//! ODE integrators: classic RK4, adaptive RKF45, and a stiff
//! linearly implicit (Rosenbrock-W) marcher.
//!
//! The stiff integrator is the workhorse for finite-rate chemistry, where the
//! time scales of the exchange reactions span many orders of magnitude — the
//! "single most complicating factor in CAT" per the paper. Its L-stable,
//! stiffly accurate stages are what a relaxing post-shock state needs, and
//! at third order the step controller reaches a tolerance in far fewer
//! steps than a first-order implicit scheme.

use crate::linalg::{lu_factor, lu_solve};
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

/// Stiff integrator: the third-order Rosenbrock-W method ROS34PW2 (Rang &
/// Angermann, BIT 45, 2005) with its embedded second-order error estimate.
///
/// An attempted step from `(x, y)` assembles one forward-difference
/// Jacobian `J ≈ ∂f/∂y` (its base evaluation is the first stage's
/// `f(x, y)`), one forward difference `∂f/∂x` for non-autonomous systems,
/// and one LU factorization of `I/(γh) − J`. Its four stages then cost
/// three more right-hand sides and four triangular solves; there is no
/// Newton iteration, so a step costs `n + 5` right-hand sides. As a
/// W-method it keeps order 3 with an inexact `J`, such as a difference
/// quotient through right-hand sides that contain iterative closures, and
/// as a stiffly accurate method it damps the fast modes of a relaxing
/// post-shock state like backward Euler does.
///
/// The error is the max-norm of the embedded difference scaled by
/// `atol + rtol·max(|y_n|, |y_{n+1}|)`; the step is accepted at `err ≤ 1`
/// and rescaled by `0.9·err^(−1/3)`, clamped to `[0.2, 4]`. A stage that is
/// not finite, or a singular iteration matrix, rejects the step and
/// quarters `h`, so a right-hand side that writes NaN where it cannot be
/// evaluated backs the step off; once `h` falls below `hmin` that way the
/// integrator returns [`OdeError::NewtonFailure`]. Every attempted step
/// counts one Jacobian in `ode_jacobians`.
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
    let mut stages = RosenbrockStages::new(y.len());

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

        tally.jacobians += 1;
        let Some(err) = stages.attempt(sys, x, y, h, opts) else {
            tally.rejected += 1;
            h *= 0.25;
            if h.abs() < opts.hmin {
                return Err(OdeError::NewtonFailure(x));
            }
            continue;
        };

        if err <= 1.0 || h.abs() <= opts.hmin * 1.0001 {
            x += h;
            y.copy_from_slice(&stages.y_new);
            observer(x, y);
            tally.accepted += 1;
        } else {
            tally.rejected += 1;
        }

        let factor = if err > 0.0 {
            (0.9 * err.powf(-1.0 / 3.0)).clamp(0.2, 4.0)
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

/// ROS34PW2 in the transformed variables `u_i = Σ_j γ_ij k_j` of Hairer &
/// Wanner (Solving ODEs II, IV.7): stage `i` solves
/// `(I/(γh) − J)·u_i = f(x + α_i h, y + Σ_j a_ij u_j) + Σ_j (c_ij/h)·u_j
/// + γ_i h ∂f/∂x` for `j < i`. The method is stiffly accurate, so
/// `y_{n+1}` is the last stage's argument plus `u_4`.
const GAMMA: f64 = 0.435866521508459;
/// Stage abscissae `α_i`.
const ALPHA: [f64; 4] = [0.0, 0.871733043016918, 0.7315799577888524, 1.0];
/// Row sums `γ_i` of the stage coupling matrix, the weights of `∂f/∂x`.
const GAMMA_SUM: [f64; 4] = [GAMMA, -GAMMA, -0.4133333762338865, 0.0];
/// Stage arguments `a_ij`; the last row is also the solution weights.
const A: [[f64; 3]; 4] = [
    [0.0, 0.0, 0.0],
    [2.0, 0.0, 0.0],
    [1.4192173174557647, -0.2592322116729697, 0.0],
    [4.18476048231916, -0.28519201735549593, 2.294280360279042],
];
/// Stage couplings `c_ij`.
const C: [[f64; 3]; 4] = [
    [0.0, 0.0, 0.0],
    [-4.588560720558084, 0.0, 0.0],
    [-4.18476048231916, 0.28519201735549593, 0.0],
    [-6.368179200128358, -6.795620944466836, 2.870098604331056],
];
/// Weights of the error estimate: third- minus embedded second-order
/// solution.
const ERR: [f64; 4] = [
    0.2777499476479681,
    -1.403239895175999,
    1.7726301276675507,
    0.5,
];

/// The work buffers of one attempted Rosenbrock step, allocated once per
/// integration.
struct RosenbrockStages {
    n: usize,
    /// `f(x, y)`: the Jacobian's base point and the first stage's `f`.
    f0: Vec<f64>,
    /// Forward-difference `∂f/∂x`.
    dfdx: Vec<f64>,
    /// A perturbed or stage state, and its derivative.
    ys: Vec<f64>,
    f: Vec<f64>,
    /// `I/(γh) − J`, LU-factored in place, and its pivots.
    lu: Vec<f64>,
    piv: Vec<usize>,
    /// Stage solutions `u_1..u_4`.
    u: [Vec<f64>; 4],
    /// The third-order solution of the last attempt.
    y_new: Vec<f64>,
}

impl RosenbrockStages {
    fn new(n: usize) -> Self {
        Self {
            n,
            f0: vec![0.0; n],
            dfdx: vec![0.0; n],
            ys: vec![0.0; n],
            f: vec![0.0; n],
            lu: vec![0.0; n * n],
            piv: vec![0; n],
            u: std::array::from_fn(|_| vec![0.0; n]),
            y_new: vec![0.0; n],
        }
    }

    /// Take one step of size `h` from `(x, y)` into `y_new` and return its
    /// scaled error, or `None` when a stage is not finite or the iteration
    /// matrix is singular.
    fn attempt(
        &mut self,
        sys: &impl OdeSystem,
        x: f64,
        y: &[f64],
        h: f64,
        opts: &AdaptiveOptions,
    ) -> Option<f64> {
        let n = self.n;
        sys.rhs(x, y, &mut self.f0);
        // −J by forward differences, then I/(γh) on the diagonal.
        for j in 0..n {
            self.ys.copy_from_slice(y);
            let dy = 1e-7 * y[j].abs().max(1e-10);
            self.ys[j] += dy;
            sys.rhs(x, &self.ys, &mut self.f);
            for i in 0..n {
                self.lu[i * n + j] = -(self.f[i] - self.f0[i]) / dy;
            }
        }
        for k in 0..n {
            self.lu[k * n + k] += 1.0 / (GAMMA * h);
        }
        lu_factor(&mut self.lu, n, &mut self.piv).ok()?;
        let dx = 1e-7 * x.abs().max(h.abs());
        sys.rhs(x + dx, y, &mut self.f);
        for i in 0..n {
            self.dfdx[i] = (self.f[i] - self.f0[i]) / dx;
        }

        for s in 0..4 {
            let (done, rest) = self.u.split_at_mut(s);
            let us = &mut rest[0];
            if s == 0 {
                us.copy_from_slice(&self.f0);
            } else {
                self.ys.copy_from_slice(y);
                for (a, uj) in A[s].iter().zip(done.iter()) {
                    for (yi, ui) in self.ys.iter_mut().zip(uj) {
                        *yi += a * ui;
                    }
                }
                sys.rhs(x + ALPHA[s] * h, &self.ys, us);
                for (c, uj) in C[s].iter().zip(done.iter()) {
                    for (bi, ui) in us.iter_mut().zip(uj) {
                        *bi += c / h * ui;
                    }
                }
            }
            for (bi, di) in us.iter_mut().zip(&self.dfdx) {
                *bi += GAMMA_SUM[s] * h * di;
            }
            lu_solve(&self.lu, n, &self.piv, us).ok()?;
            if !us.iter().all(|v| v.is_finite()) {
                return None;
            }
        }

        // Stiffly accurate: y_{n+1} = y + Σ a_4j u_j + u_4.
        let mut err = 0.0_f64;
        for i in 0..n {
            let u = self.u.each_ref().map(|u| u[i]);
            let yi = y[i] + A[3][0] * u[0] + A[3][1] * u[1] + A[3][2] * u[2] + u[3];
            let e: f64 = ERR.iter().zip(u).map(|(w, u)| w * u).sum();
            let sc = opts.atol + opts.rtol * y[i].abs().max(yi.abs());
            err = err.max((e / sc).abs());
            self.y_new[i] = yi;
        }
        err.is_finite().then_some(err)
    }
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
    /// (accepted, rejected) step counts.
    fn counted_stiff(
        sys: &impl OdeSystem,
        x1: f64,
        y: &mut [f64],
        opts: &AdaptiveOptions,
    ) -> (u64, u64) {
        let scope = crate::telemetry::TelemetryScope::begin();
        stiff_integrate(sys, 0.0, x1, y, opts, |_, _| {}).unwrap();
        let d = scope.thread_delta();
        (
            d.get(Counter::OdeStepsAccepted),
            d.get(Counter::OdeStepsRejected),
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
    fn fixed_step_observed_order_is_three() {
        // y' = −2x·y², y(0) = 1: smooth, nonlinear and non-autonomous, so
        // the ∂f/∂x stage term is exercised; y = 1/(1 + x²). With h0 = hmax
        // and a tolerance no step can miss, every step has the same size.
        let sys = |x: f64, y: &[f64], d: &mut [f64]| d[0] = -2.0 * x * y[0] * y[0];
        let error = |h: f64| {
            let opts = AdaptiveOptions {
                rtol: 1e3,
                atol: 1e3,
                h0: h,
                hmax: h,
                ..AdaptiveOptions::default()
            };
            let mut y = vec![1.0];
            let (acc, rej) = counted_stiff(&sys, 2.0, &mut y, &opts);
            assert_eq!((acc, rej), ((2.0 / h).round() as u64, 0), "h = {h}");
            (y[0] - 0.2).abs()
        };
        let (coarse, fine) = (error(0.05), error(0.025));
        let order = (coarse / fine).log2();
        assert!(
            (order - 3.0).abs() <= 0.3,
            "observed order {order}: {coarse:e}, {fine:e}"
        );
    }

    #[test]
    fn robertson_matches_the_reference_at_forty() {
        // The classic reference solution of Robertson's problem at x = 40.
        let want = [0.7158271, 9.185535e-6, 0.2841637];
        let mut y = vec![1.0, 0.0, 0.0];
        stiff_integrate(&robertson, 0.0, 40.0, &mut y, &ROBERTSON_OPTS, |_, _| {}).unwrap();
        for (got, want) in y.iter().zip(want) {
            assert!((got - want).abs() <= 1e-4 * want, "{y:?} vs {want:e}");
        }
    }

    #[test]
    fn prothero_robinson_global_error_stays_within_tolerance() {
        // y' = λ(y − sin x) + cos x with λ = −1e6 and y(0) = 0: the exact
        // solution is y = sin x, and a method that loses order on the
        // stiff component shows it here first.
        let sys = |x: f64, y: &[f64], d: &mut [f64]| d[0] = -1e6 * (y[0] - x.sin()) + x.cos();
        let opts = AdaptiveOptions {
            rtol: 1e-6,
            atol: 1e-9,
            h0: 1e-6,
            ..AdaptiveOptions::default()
        };
        let mut worst = 0.0_f64;
        let mut y = vec![0.0];
        stiff_integrate(&sys, 0.0, 10.0, &mut y, &opts, |x, y| {
            worst = worst.max((y[0] - x.sin()).abs());
        })
        .unwrap();
        assert!(worst <= 10.0 * opts.rtol, "global error {worst:e}");
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
