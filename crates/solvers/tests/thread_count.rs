//! The solver thread count must not change results: the perf snapshot's NS
//! and Euler hemisphere marches, each run once in a one-thread pool and once
//! in a two-thread pool, end on bitwise-equal conserved fields.

use aerothermo_gas::IdealGas;
use aerothermo_grid::bodies::Hemisphere;
use aerothermo_grid::{stretch, StructuredGrid};
use aerothermo_solvers::euler2d::{Bc, BcSet, EulerOptions, EulerSolver};
use aerothermo_solvers::ns2d::{NsSolver, Transport};
use aerothermo_solvers::runctl::Steppable;

/// Mach `mach` ideal air at (`t`, `p`) and the blunt-body boundary set.
fn problem(t: f64, p: f64, mach: f64) -> ((f64, f64, f64, f64), BcSet) {
    let rho = p / (287.05 * t);
    let a = (1.4_f64 * 287.05 * t).sqrt();
    let fs = (rho, mach * a, 0.0, p);
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
    (fs, bc)
}

/// The 17×33 Mach 6 NS hemisphere, 150 steps.
fn ns_march() -> Vec<f64> {
    let (fs, bc) = problem(220.0, 500.0, 6.0);
    let rn = 0.1;
    let body = Hemisphere::new(rn);
    let dist = stretch::tanh_one_sided(33, 3.5);
    let grid =
        StructuredGrid::blunt_body(&body, 17, 33, &|sb| (0.035 + 0.03 * sb) * rn / 0.1, &dist);
    let gas = IdealGas::air();
    let mut solver = NsSolver::new(
        &grid,
        &gas,
        bc,
        EulerOptions::default(),
        fs,
        Transport::air(),
        300.0,
    );
    for _ in 0..150 {
        solver.step();
    }
    solver.save_state().data
}

/// The 25×49 Mach 8 Euler hemisphere, 150 steps.
fn euler_march() -> Vec<f64> {
    let (fs, bc) = problem(230.0, 300.0, 8.0);
    let body = Hemisphere::new(0.15);
    let dist = stretch::uniform(49);
    let grid = StructuredGrid::blunt_body(&body, 25, 49, &|sb| (0.3 + 0.2 * sb) * 0.15, &dist);
    let gas = IdealGas::air();
    let mut solver = EulerSolver::new(&grid, &gas, bc, EulerOptions::default(), fs);
    for _ in 0..150 {
        solver.step();
    }
    solver.save_state().data
}

fn in_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool")
        .install(f)
}

#[test]
fn marches_are_bitwise_independent_of_thread_count() {
    for (name, march) in [("ns", ns_march as fn() -> _), ("euler", euler_march)] {
        let one = in_pool(1, march);
        let two = in_pool(2, march);
        assert_eq!(one.len(), two.len(), "{name}: state lengths differ");
        for (k, (a, b)) in one.iter().zip(&two).enumerate() {
            assert!(a.is_finite(), "{name}: value {k} is not finite");
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{name}: value {k} differs between 1 and 2 threads ({a:e} vs {b:e})"
            );
        }
    }
}
