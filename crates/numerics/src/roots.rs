//! Bracketed scalar root finding.
//!
//! Used throughout the gas models (temperature from internal energy, shock
//! jump relations, boundary-layer shooting) where a safe bracketed method is
//! worth more than raw Newton speed.

/// Error conditions for the root finders.
#[derive(Debug, Clone, PartialEq)]
pub enum RootError {
    /// `f(a)` and `f(b)` do not bracket a sign change.
    NoBracket {
        /// Residual at the lower endpoint.
        fa: f64,
        /// Residual at the upper endpoint.
        fb: f64,
    },
    /// The iteration budget was exhausted; carries the best estimate.
    MaxIterations(f64),
    /// `f(x)` was NaN or infinite (a residual that could not be
    /// evaluated), so no sign test at `x` means anything.
    NonFinite {
        /// The abscissa of the first non-finite residual.
        x: f64,
    },
}

impl std::fmt::Display for RootError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RootError::NoBracket { fa, fb } => {
                write!(f, "no sign change: f(a)={fa:.3e}, f(b)={fb:.3e}")
            }
            RootError::MaxIterations(x) => write!(f, "root iterations exhausted near {x:.6e}"),
            RootError::NonFinite { x } => write!(f, "non-finite residual at x={x:.6e}"),
        }
    }
}

impl std::error::Error for RootError {}

/// `f(x)`, or [`RootError::NonFinite`] when it is NaN or infinite.
fn finite(f: &mut impl FnMut(f64) -> f64, x: f64) -> Result<f64, RootError> {
    let fx = f(x);
    if fx.is_finite() {
        Ok(fx)
    } else {
        Err(RootError::NonFinite { x })
    }
}

/// Bisection to absolute tolerance `tol` on the interval width.
///
/// # Errors
/// [`RootError::NoBracket`] when `f(a)·f(b) > 0`.
pub fn bisect(
    mut f: impl FnMut(f64) -> f64,
    mut a: f64,
    mut b: f64,
    tol: f64,
) -> Result<f64, RootError> {
    let mut fa = f(a);
    let fb = f(b);
    if fa == 0.0 {
        return Ok(a);
    }
    if fb == 0.0 {
        return Ok(b);
    }
    if fa * fb > 0.0 {
        return Err(RootError::NoBracket { fa, fb });
    }
    for _ in 0..200 {
        let m = 0.5 * (a + b);
        let fm = f(m);
        if fm == 0.0 || (b - a).abs() < tol {
            return Ok(m);
        }
        if fa * fm < 0.0 {
            b = m;
        } else {
            a = m;
            fa = fm;
        }
    }
    Err(RootError::MaxIterations(0.5 * (a + b)))
}

/// Brent's method: inverse-quadratic/secant steps guarded by bisection.
/// Converges superlinearly on smooth functions while never leaving the
/// bracket.
///
/// # Errors
/// [`RootError::NoBracket`] when the endpoints do not bracket a root;
/// [`RootError::NonFinite`] at the first NaN or infinite residual;
/// [`RootError::MaxIterations`] if 100 iterations do not reach `tol`.
pub fn brent(
    mut f: impl FnMut(f64) -> f64,
    mut a: f64,
    mut b: f64,
    tol: f64,
) -> Result<f64, RootError> {
    let mut fa = finite(&mut f, a)?;
    let mut fb = finite(&mut f, b)?;
    if fa == 0.0 {
        return Ok(a);
    }
    if fb == 0.0 {
        return Ok(b);
    }
    if fa * fb > 0.0 {
        return Err(RootError::NoBracket { fa, fb });
    }
    if fa.abs() < fb.abs() {
        std::mem::swap(&mut a, &mut b);
        std::mem::swap(&mut fa, &mut fb);
    }
    let mut c = a;
    let mut fc = fa;
    let mut d = b - a;
    let mut mflag = true;

    for _ in 0..100 {
        if fb == 0.0 || (b - a).abs() < tol {
            return Ok(b);
        }
        let mut s = if fa != fc && fb != fc {
            // inverse quadratic interpolation
            a * fb * fc / ((fa - fb) * (fa - fc))
                + b * fa * fc / ((fb - fa) * (fb - fc))
                + c * fa * fb / ((fc - fa) * (fc - fb))
        } else {
            // secant
            b - fb * (b - a) / (fb - fa)
        };

        let lo = (3.0 * a + b) / 4.0;
        let hi = b;
        let (lo, hi) = if lo < hi { (lo, hi) } else { (hi, lo) };
        let cond_bisect = s < lo
            || s > hi
            || (mflag && (s - b).abs() >= (b - c).abs() / 2.0)
            || (!mflag && (s - b).abs() >= d.abs() / 2.0)
            || (mflag && (b - c).abs() < tol)
            || (!mflag && d.abs() < tol);
        if cond_bisect {
            s = 0.5 * (a + b);
            mflag = true;
        } else {
            mflag = false;
        }
        let fs = finite(&mut f, s)?;
        d = b - c;
        c = b;
        fc = fb;
        if fa * fs < 0.0 {
            b = s;
            fb = fs;
        } else {
            a = s;
            fa = fs;
        }
        if fa.abs() < fb.abs() {
            std::mem::swap(&mut a, &mut b);
            std::mem::swap(&mut fa, &mut fb);
        }
    }
    Err(RootError::MaxIterations(b))
}

/// Expand a bracket geometrically from an initial guess until `f` changes
/// sign, then polish with Brent. Handy for solving `T(e)` style inversions
/// where a physically sensible starting interval is known but not guaranteed.
///
/// # Errors
/// Fails when no sign change is found within `max_expand` doublings, and
/// with [`RootError::NonFinite`] at the first NaN or infinite residual.
pub fn brent_expanding(
    mut f: impl FnMut(f64) -> f64,
    x0: f64,
    dx0: f64,
    lo_limit: f64,
    hi_limit: f64,
    tol: f64,
    max_expand: usize,
) -> Result<f64, RootError> {
    let mut a = (x0 - dx0).max(lo_limit);
    let mut b = (x0 + dx0).min(hi_limit);
    let mut fa = finite(&mut f, a)?;
    let mut fb = finite(&mut f, b)?;
    let mut k = 0;
    while fa * fb > 0.0 {
        if k >= max_expand {
            return Err(RootError::NoBracket { fa, fb });
        }
        let w = b - a;
        if fa.abs() < fb.abs() {
            a = (a - w).max(lo_limit);
            fa = finite(&mut f, a)?;
        } else {
            b = (b + w).min(hi_limit);
            fb = finite(&mut f, b)?;
        }
        if (a - lo_limit).abs() < 1e-300 && (b - hi_limit).abs() < 1e-300 && fa * fb > 0.0 {
            return Err(RootError::NoBracket { fa, fb });
        }
        k += 1;
    }
    brent(f, a, b, tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisect_sqrt2() {
        let r = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-12).unwrap();
        assert!((r - std::f64::consts::SQRT_2).abs() < 1e-10);
    }

    #[test]
    fn brent_sqrt2() {
        let r = brent(|x| x * x - 2.0, 0.0, 2.0, 1e-14).unwrap();
        assert!((r - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn brent_transcendental() {
        // cos x = x has root ~0.7390851332
        let r = brent(|x| x.cos() - x, 0.0, 1.0, 1e-14).unwrap();
        assert!((r - 0.739_085_133_2).abs() < 1e-9);
    }

    #[test]
    fn brent_no_bracket() {
        assert!(matches!(
            brent(|x| x * x + 1.0, -1.0, 1.0, 1e-10),
            Err(RootError::NoBracket { .. })
        ));
    }

    #[test]
    fn expanding_finds_far_root() {
        // Root at 1000, start near 1.
        let r = brent_expanding(|x| x - 1000.0, 1.0, 0.5, 0.0, 1e9, 1e-9, 60).unwrap();
        assert!((r - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn non_finite_residuals_fail_at_the_first_probe() {
        // A NaN endpoint used to pass the bracket test (NaN > 0 is false)
        // and send Brent through 100 iterations of f(NaN).
        let mut calls = 0;
        let res = brent_expanding(
            |x| {
                calls += 1;
                if x < 100.0 {
                    f64::NAN
                } else {
                    x - 50.0
                }
            },
            2000.0,
            1500.0,
            60.0,
            90_000.0,
            1e-4,
            60,
        );
        assert_eq!(res, Err(RootError::NonFinite { x: 60.0 }));
        assert_eq!(calls, 3, "probes 500, 3500, then the 60 floor");
        // Inside the Brent iteration: the first secant step lands on the
        // NaN region around the root.
        let nan_hole = |x: f64| {
            if (0.2..0.4).contains(&x) {
                f64::NAN
            } else {
                x - 0.3
            }
        };
        let res = brent(nan_hole, 0.0, 1.0, 1e-12);
        assert!(
            matches!(res, Err(RootError::NonFinite { x }) if (0.2..0.4).contains(&x)),
            "{res:?}"
        );
        // An infinite endpoint is rejected too.
        let res = brent(
            |x| if x > 0.0 { f64::INFINITY } else { x },
            -1.0,
            1.0,
            1e-12,
        );
        assert_eq!(res, Err(RootError::NonFinite { x: 1.0 }));
    }

    #[test]
    fn expanding_respects_limits() {
        // No root inside [0, 10].
        let res = brent_expanding(|x| x + 1.0, 5.0, 1.0, 0.0, 10.0, 1e-9, 60);
        assert!(res.is_err());
    }
}
