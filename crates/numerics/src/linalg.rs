//! Small dense linear algebra.
//!
//! The systems solved here are tiny (Newton Jacobians for chemistry and
//! equilibrium: order 5–20), so a straightforward partial-pivot LU is both
//! adequate and cache-friendly. Matrices are row-major `Vec<f64>` with
//! dimension carried separately; for the block-tridiagonal solver in
//! [`crate::tridiag`] the same kernels run on fixed-size blocks.

/// Errors from the dense solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Pivot magnitude fell below the singularity threshold at the given
    /// elimination step.
    Singular(usize),
    /// Inconsistent dimensions were supplied.
    Dimension,
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::Singular(k) => write!(f, "matrix singular at pivot {k}"),
            LinalgError::Dimension => write!(f, "dimension mismatch"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// In-place LU factorization with partial pivoting.
///
/// `a` is an `n × n` row-major matrix; on success it holds L (unit diagonal,
/// below) and U (on and above the diagonal), and `piv` holds the row swaps.
///
/// # Errors
/// [`LinalgError::Singular`] when a pivot is ~0; [`LinalgError::Dimension`]
/// on shape mismatch.
pub fn lu_factor(a: &mut [f64], n: usize, piv: &mut [usize]) -> Result<(), LinalgError> {
    if a.len() != n * n || piv.len() != n {
        return Err(LinalgError::Dimension);
    }
    for (k, p) in piv.iter_mut().enumerate() {
        *p = k;
    }
    for k in 0..n {
        // Partial pivot: largest magnitude in column k at or below row k.
        let mut pk = k;
        let mut pmax = a[k * n + k].abs();
        for i in (k + 1)..n {
            let v = a[i * n + k].abs();
            if v > pmax {
                pmax = v;
                pk = i;
            }
        }
        if pmax < 1e-300 {
            return Err(LinalgError::Singular(k));
        }
        if pk != k {
            for j in 0..n {
                a.swap(k * n + j, pk * n + j);
            }
            piv.swap(k, pk);
        }
        let pivot = a[k * n + k];
        for i in (k + 1)..n {
            let m = a[i * n + k] / pivot;
            a[i * n + k] = m;
            for j in (k + 1)..n {
                a[i * n + j] -= m * a[k * n + j];
            }
        }
    }
    Ok(())
}

/// Solve `L U x = P b` given a factorization from [`lu_factor`]; the solution
/// overwrites `x`, which must enter holding `b`. Allocates nothing.
///
/// # Errors
/// [`LinalgError::Dimension`] on shape mismatch, or when walking `piv`
/// leaves `0..n` or never closes a cycle (`piv` must come from
/// [`lu_factor`]).
pub fn lu_solve(lu: &[f64], n: usize, piv: &[usize], x: &mut [f64]) -> Result<(), LinalgError> {
    if lu.len() != n * n || piv.len() != n || x.len() != n {
        return Err(LinalgError::Dimension);
    }
    // Apply permutation in place: x <- P b. piv records, for each k, the
    // original row that ended up in position k. Each cycle of piv is
    // rotated once, starting from its smallest index (its leader); the
    // leader test walks the cycle, so the pass costs O(n²) at worst, no
    // more than the substitutions below.
    for s in 0..n {
        let mut k = piv[s];
        let mut steps = 0;
        while k > s {
            k = *piv.get(k).ok_or(LinalgError::Dimension)?;
            steps += 1;
            if steps > n {
                return Err(LinalgError::Dimension);
            }
        }
        if k < s {
            continue;
        }
        let first = x[s];
        let mut k = s;
        while piv[k] != s {
            x[k] = x[piv[k]];
            k = piv[k];
        }
        x[k] = first;
    }
    // Forward substitution (L has unit diagonal).
    for i in 1..n {
        let mut s = x[i];
        for j in 0..i {
            s -= lu[i * n + j] * x[j];
        }
        x[i] = s;
    }
    // Back substitution.
    for i in (0..n).rev() {
        let mut s = x[i];
        for j in (i + 1)..n {
            s -= lu[i * n + j] * x[j];
        }
        x[i] = s / lu[i * n + i];
    }
    Ok(())
}

/// Dense matrix-vector product `y = A x` for row-major `A` (`n × n`).
///
/// # Panics
/// Panics on dimension mismatch.
pub fn matvec(a: &[f64], n: usize, x: &[f64], y: &mut [f64]) {
    assert!(a.len() == n * n && x.len() == n && y.len() == n);
    for i in 0..n {
        let row = &a[i * n..(i + 1) * n];
        y[i] = row.iter().zip(x).map(|(aij, xj)| aij * xj).sum();
    }
}

/// Dense matrix-matrix product `C = A B` for row-major `n × n` matrices.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn matmul(a: &[f64], b: &[f64], n: usize, c: &mut [f64]) {
    assert!(a.len() == n * n && b.len() == n * n && c.len() == n * n);
    c.fill(0.0);
    for i in 0..n {
        for k in 0..n {
            let aik = a[i * n + k];
            if aik == 0.0 {
                continue;
            }
            for j in 0..n {
                c[i * n + j] += aik * b[k * n + j];
            }
        }
    }
}

/// Invert an `n × n` matrix in place (via LU on a scratch copy).
///
/// # Errors
/// [`LinalgError::Singular`] when the matrix is not invertible.
pub fn invert(a: &mut [f64], n: usize) -> Result<(), LinalgError> {
    let mut lu = a.to_vec();
    let mut piv = vec![0usize; n];
    lu_factor(&mut lu, n, &mut piv)?;
    let mut col = vec![0.0; n];
    for j in 0..n {
        col.fill(0.0);
        col[j] = 1.0;
        lu_solve(&lu, n, &piv, &mut col)?;
        for i in 0..n {
            a[i * n + j] = col[i];
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Solve `A x = b` through [`lu_factor`] + [`lu_solve`]; `a` is
    /// destroyed and `b` overwritten with the solution.
    fn solve(a: &mut [f64], n: usize, b: &mut [f64]) -> Result<(), LinalgError> {
        let mut piv = vec![0usize; n];
        lu_factor(a, n, &mut piv)?;
        lu_solve(a, n, &piv, b)
    }

    fn residual(a: &[f64], n: usize, x: &[f64], b: &[f64]) -> f64 {
        let mut ax = vec![0.0; n];
        matvec(a, n, x, &mut ax);
        ax.iter()
            .zip(b)
            .map(|(p, q)| (p - q).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn solves_3x3() {
        let a0 = [2.0, 1.0, -1.0, -3.0, -1.0, 2.0, -2.0, 1.0, 2.0];
        let b0 = [8.0, -11.0, -3.0];
        let mut a = a0;
        let mut b = b0;
        solve(&mut a, 3, &mut b).unwrap();
        assert!((b[0] - 2.0).abs() < 1e-12);
        assert!((b[1] - 3.0).abs() < 1e-12);
        assert!((b[2] + 1.0).abs() < 1e-12);
        assert!(residual(&a0, 3, &b, &b0) < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let a0 = [0.0, 1.0, 1.0, 0.0];
        let mut a = a0;
        let mut b = [3.0, 5.0];
        solve(&mut a, 2, &mut b).unwrap();
        assert!((b[0] - 5.0).abs() < 1e-14);
        assert!((b[1] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn singular_detected() {
        let mut a = [1.0, 2.0, 2.0, 4.0];
        let mut b = [1.0, 2.0];
        assert!(matches!(
            solve(&mut a, 2, &mut b),
            Err(LinalgError::Singular(_))
        ));
    }

    #[test]
    fn invert_roundtrip() {
        let a0 = [4.0, 7.0, 2.0, 6.0];
        let mut inv = a0;
        invert(&mut inv, 2).unwrap();
        let mut prod = [0.0; 4];
        matmul(&a0, &inv, 2, &mut prod);
        assert!((prod[0] - 1.0).abs() < 1e-12);
        assert!(prod[1].abs() < 1e-12);
        assert!(prod[2].abs() < 1e-12);
        assert!((prod[3] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn random_systems_solve_accurately() {
        // Deterministic LCG so the test is reproducible without rand.
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        for n in [1usize, 2, 5, 9, 16] {
            let mut a0 = vec![0.0; n * n];
            for (i, v) in a0.iter_mut().enumerate() {
                *v = next();
                if i % (n + 1) == 0 {
                    *v += 3.0; // diagonal dominance => well conditioned
                }
            }
            let b0: Vec<f64> = (0..n).map(|_| next()).collect();
            let mut a = a0.clone();
            let mut x = b0.clone();
            solve(&mut a, n, &mut x).unwrap();
            assert!(residual(&a0, n, &x, &b0) < 1e-10, "n={n}");
        }
    }

    /// Every permutation of 0..6 (one to six cycles): with L = U = I the
    /// solve is the permutation alone, and it must equal the gather
    /// `x[k] = b[piv[k]]` bitwise.
    #[test]
    fn in_place_permutation_matches_the_gather() {
        fn permutations(rest: &mut Vec<usize>, prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            if rest.is_empty() {
                out.push(prefix.clone());
            }
            for k in 0..rest.len() {
                prefix.push(rest.remove(k));
                permutations(rest, prefix, out);
                rest.insert(k, prefix.pop().expect("pushed"));
            }
        }
        let n = 6;
        let mut all = Vec::new();
        permutations(&mut (0..n).collect(), &mut Vec::new(), &mut all);
        assert_eq!(all.len(), 720);
        let mut eye = vec![0.0; n * n];
        for k in 0..n {
            eye[k * n + k] = 1.0;
        }
        let b: Vec<f64> = (0..n).map(|k| 0.1 * k as f64 - 0.25).collect();
        for piv in &all {
            let mut x = b.clone();
            lu_solve(&eye, n, piv, &mut x).unwrap();
            let gathered: Vec<u64> = piv.iter().map(|&p| b[p].to_bits()).collect();
            let got: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, gathered, "piv {piv:?}");
        }
        // A pivot vector that leaves 0..n or never closes is an error, not
        // an endless walk.
        let eye3 = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0];
        for bad in [[1, 2, 9], [1, 2, 1]] {
            let mut x = [1.0, 2.0, 3.0];
            assert_eq!(
                lu_solve(&eye3, 3, &bad, &mut x),
                Err(LinalgError::Dimension)
            );
        }
    }
}
