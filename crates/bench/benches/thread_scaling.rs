//! Thread scaling of the parallel kernels (experiment E11).
//!
//! The paper's closing challenge — "methods and data structures optimized
//! for supercomputer processing" — maps today onto multicore scaling. This
//! bench runs the NS step (cell-parallel residual assembly) inside
//! explicit rayon pools of 1, 2, 4, and all cores. A spectrum is serial
//! per gas sample; its callers parallelize over samples.

use aerothermo_gas::IdealGas;
use aerothermo_grid::bodies::Hemisphere;
use aerothermo_grid::{stretch, StructuredGrid};
use aerothermo_solvers::euler2d::{Bc, BcSet, EulerOptions};
use aerothermo_solvers::ns2d::{NsSolver, Transport};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn thread_counts() -> Vec<usize> {
    let max = num_threads();
    let mut v = vec![1, 2, 4];
    if !v.contains(&max) {
        v.push(max);
    }
    v.retain(|&n| n <= max);
    v.dedup();
    v
}

fn num_threads() -> usize {
    std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
}

fn bench_ns_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ns_step_threads");
    for &n in &thread_counts() {
        group.bench_function(format!("threads_{n}"), |b| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .unwrap();
            let gas = IdealGas::air();
            let body = Hemisphere::new(0.15);
            let dist = stretch::tanh_one_sided(65, 3.0);
            let grid =
                StructuredGrid::blunt_body(&body, 41, 65, &|sb| (0.3 + 0.2 * sb) * 0.15, &dist);
            let t = 230.0;
            let p = 300.0;
            let rho = p / (287.05 * t);
            let a = (1.4_f64 * 287.05 * t).sqrt();
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
            let mut solver = NsSolver::new(
                &grid,
                &gas,
                bc,
                EulerOptions::default(),
                fs,
                Transport::air(),
                300.0,
            );
            pool.install(|| {
                for _ in 0..200 {
                    solver.step();
                }
            });
            b.iter(|| pool.install(|| black_box(solver.step())));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ns_scaling);
criterion_main!(benches);
