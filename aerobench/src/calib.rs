//! Machine-speed calibration for the serve workloads: a fixed compute
//! kernel timed on the client thread between requests, so a run's times
//! can be stated at a reference speed of this shared, drifting host.

use std::time::Instant;

use crate::stats::median;

/// Kernel time [s] that defines the reference speed (the kernel's median
/// on a quiet 2-vCPU Intel Xeon VM).
pub const REFERENCE_S: f64 = 0.14e-3;

/// Elements sorted by one kernel pass.
const N: usize = 4096;

/// Kernel passes timed over one run.
#[derive(Default)]
pub struct Calibration {
    buf: Vec<f64>,
    samples: Vec<f64>,
}

impl Calibration {
    /// Time one pass: fill a buffer from an LCG, sort it and sum it.
    pub fn sample(&mut self) {
        let t = Instant::now();
        self.buf.clear();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..N {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            self.buf.push((x >> 11) as f64);
        }
        self.buf.sort_unstable_by(f64::total_cmp);
        std::hint::black_box(self.buf.iter().sum::<f64>());
        self.samples.push(t.elapsed().as_secs_f64());
    }

    /// Reference speed over measured speed: multiply a measured time by
    /// this to state it at the reference speed.
    pub fn factor(&self) -> f64 {
        REFERENCE_S / median(&self.samples)
    }
}
