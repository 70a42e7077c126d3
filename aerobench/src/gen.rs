//! Seeded input generators: the query point streams the serve workloads
//! send and the sweep plan the envelope workload runs. The seed drives
//! nothing else, so one seed always yields byte-identical inputs.

use aerothermo_service::ServiceConfig;
use aerothermo_sweep::plan::method_matrix_plan;
use aerothermo_sweep::{CaseSpec, FlowSpec, GasSpec, LevelSpec, SweepPlan};

/// SplitMix64: tiny, seedable, and good enough for input generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }

    /// Log-uniform in `[lo, hi)` (both positive).
    pub fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        self.uniform(lo.ln(), hi.ln()).exp()
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }
}

/// Query points uniform over the daemon's default surrogate corridor. With
/// `fallback_every = Some(n)`, every n-th point instead lies below the
/// corridor (25–39 km), so the daemon answers it on the exact path.
pub struct PointStream {
    rng: Rng,
    k: usize,
    fallback_every: Option<usize>,
    corridor: ((f64, f64), (f64, f64)),
}

/// Altitude band [m] of the below-corridor points.
const BELOW_CORRIDOR: (f64, f64) = (25_000.0, 39_000.0);

impl PointStream {
    pub fn new(seed: u64, fallback_every: Option<usize>) -> Self {
        Self {
            rng: Rng::new(seed),
            k: 0,
            fallback_every,
            corridor: ServiceConfig::default().corridor,
        }
    }
}

/// One generated query point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    pub altitude: f64,
    pub velocity: f64,
    /// Generated outside the corridor: the daemon must answer it exactly.
    pub fallback: bool,
}

impl Iterator for PointStream {
    type Item = Point;

    fn next(&mut self) -> Option<Point> {
        let ((h0, h1), (v0, v1)) = self.corridor;
        self.k += 1;
        let fallback = self
            .fallback_every
            .is_some_and(|n| self.k.is_multiple_of(n));
        let (lo, hi) = if fallback { BELOW_CORRIDOR } else { (h0, h1) };
        Some(Point {
            altitude: self.rng.uniform(lo, hi),
            velocity: self.rng.uniform(v0, v1),
            fallback,
        })
    }
}

/// Case families of the envelope plan: the span the serial replay records
/// around `run_case`, and the per-layer metric of its mean.
pub const CASE_KINDS: [(&str, &str); 8] = [
    ("runner.correlation", "runner.correlation_ms"),
    ("runner.vsl_air9", "runner.vsl_air9_ms"),
    ("runner.vsl_titan", "runner.vsl_titan_ms"),
    ("runner.vsl_titan_rad", "runner.vsl_titan_rad_ms"),
    ("runner.euler_air9", "runner.euler_air9_ms"),
    ("runner.euler_ideal", "runner.euler_ideal_ms"),
    ("runner.ns", "runner.ns_ms"),
    ("runner.pns", "runner.pns_ms"),
];

/// The family (its [`CASE_KINDS`] span) of a generated case.
pub fn case_kind(case: &CaseSpec) -> &'static str {
    match (&case.level, &case.gas) {
        (LevelSpec::Correlation { .. }, _) => "runner.correlation",
        (
            LevelSpec::Vsl {
                radiating: true, ..
            },
            _,
        ) => "runner.vsl_titan_rad",
        (LevelSpec::Vsl { .. }, GasSpec::Titan { .. }) => "runner.vsl_titan",
        (LevelSpec::Vsl { .. }, _) => "runner.vsl_air9",
        (LevelSpec::EulerBl { .. }, GasSpec::Air9) => "runner.euler_air9",
        (LevelSpec::EulerBl { .. }, _) => "runner.euler_ideal",
        (LevelSpec::Ns { .. }, _) => "runner.ns",
        _ => "runner.pns",
    }
}

const TITAN: GasSpec = GasSpec::Titan { ch4: 0.05 };

fn vsl(n_points: usize, radiating: bool) -> LevelSpec {
    LevelSpec::Vsl {
        n_points,
        radiating,
    }
}

/// The envelope plan: every rung of the method hierarchy over air and
/// Titan. Correlation and VSL flows are seeded; the CFD cases sit at the
/// fixed fig10 Mach-8 hemisphere condition, so their (dominant) cost does
/// not vary with the seed.
pub fn envelope_plan(seed: u64) -> SweepPlan {
    let mut rng = Rng::new(seed);
    let mut plan = SweepPlan::new(format!("envelope-seed{seed}"));
    let air_flow = |rho, u| FlowSpec::new(rho, u, 230.0, f64::NAN, 0.6, 1500.0);
    let titan_flow = |rho, u| FlowSpec::new(rho, u, 165.0, f64::NAN, 0.6, 1800.0);

    for k in 0..128 {
        let rho = rng.log_uniform(1e-5, 3e-4);
        let u = rng.uniform(5_000.0, 11_000.0);
        let (id, gas, k_sg, flow) = if k % 2 == 0 {
            ("air9", GasSpec::Air9, 1.74e-4, air_flow(rho, u))
        } else {
            ("titan", TITAN, 1.7e-4, titan_flow(rho, u))
        };
        plan.push(CaseSpec::new(
            format!("corr-{id}-{k:03}"),
            gas,
            LevelSpec::Correlation { k_sg },
            flow,
        ));
    }
    for k in 0..24 {
        let flow = air_flow(rng.log_uniform(3e-5, 3e-4), rng.uniform(5_000.0, 8_000.0));
        plan.push(CaseSpec::new(
            format!("vsl-air9-{k:03}"),
            GasSpec::Air9,
            vsl(40, false),
            flow,
        ));
    }
    for k in 0..4 {
        let flow = titan_flow(rng.log_uniform(3e-5, 3e-4), rng.uniform(5_000.0, 9_000.0));
        plan.push(CaseSpec::new(
            format!("vsl-titan-{k:03}"),
            TITAN,
            vsl(40, false),
            flow,
        ));
    }
    let flow = titan_flow(rng.log_uniform(5e-5, 2e-4), rng.uniform(8_500.0, 10_000.0));
    plan.push(CaseSpec::new(
        "vsl-titan-rad-000",
        TITAN,
        vsl(40, true),
        flow,
    ));

    let fig10 = method_matrix_plan().cases[0].flow.clone();
    let cfd =
        |id: &str, gas: GasSpec, level: LevelSpec| CaseSpec::new(id, gas, level, fig10.clone());
    let euler = |max_steps| LevelSpec::EulerBl {
        ni: 21,
        nj: 41,
        max_steps,
        tol: 1e-2,
    };
    plan.push(cfd("euler-air9-1500", GasSpec::Air9, euler(1500)))
        .push(cfd("euler-ideal-1500", GasSpec::IdealAir, euler(1500)))
        .push(cfd("euler-ideal-2500", GasSpec::IdealAir, euler(2500)))
        .push(cfd(
            "ns-000",
            GasSpec::IdealAir,
            LevelSpec::Ns {
                ni: 21,
                nj: 57,
                max_steps: 4000,
                tol: 1e-9,
            },
        ))
        .push(cfd(
            "pns-000",
            GasSpec::IdealAir,
            LevelSpec::Pns {
                ni: 70,
                nj: 41,
                i_start: 10,
            },
        ));
    plan
}

/// The smallest plan the sweep driver accepts: one correlation case. Its
/// wall time is the driver's fixed per-launch cost.
pub fn minimal_plan() -> SweepPlan {
    let mut plan = SweepPlan::new("minimal");
    plan.push(CaseSpec::new(
        "corr-000",
        GasSpec::Air9,
        LevelSpec::Correlation { k_sg: 1.74e-4 },
        FlowSpec::new(1e-4, 7_000.0, 230.0, f64::NAN, 0.6, 1500.0),
    ));
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_bytes(seed: u64, fallback_every: Option<usize>) -> Vec<u8> {
        PointStream::new(seed, fallback_every)
            .take(5_000)
            .flat_map(|p| {
                let mut b = p.altitude.to_le_bytes().to_vec();
                b.extend_from_slice(&p.velocity.to_le_bytes());
                b.push(u8::from(p.fallback));
                b
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        assert_eq!(envelope_plan(11).to_json(), envelope_plan(11).to_json());
        assert_ne!(envelope_plan(11).to_json(), envelope_plan(12).to_json());
        assert_eq!(stream_bytes(7, Some(50)), stream_bytes(7, Some(50)));
        assert_ne!(stream_bytes(7, Some(50)), stream_bytes(8, Some(50)));
    }

    #[test]
    fn generated_plan_is_valid_and_roundtrips() {
        let plan = envelope_plan(3);
        plan.validate().expect("unique ids, non-empty");
        assert_eq!(plan.cases.len(), 128 + 24 + 4 + 1 + 5);
        assert_eq!(SweepPlan::parse(&plan.to_json()).expect("parses"), plan);
        for (kind, _) in CASE_KINDS {
            assert!(
                plan.cases.iter().any(|c| case_kind(c) == kind),
                "no {kind} case"
            );
        }
        minimal_plan().validate().expect("minimal plan is valid");
    }

    #[test]
    fn fallback_points_lie_below_the_corridor() {
        let ((h0, h1), (v0, v1)) = ServiceConfig::default().corridor;
        for (k, p) in PointStream::new(5, Some(50)).take(1_000).enumerate() {
            assert_eq!(p.fallback, (k + 1) % 50 == 0);
            assert!(p.velocity >= v0 && p.velocity < v1);
            if p.fallback {
                assert!(p.altitude < h0);
            } else {
                assert!(p.altitude >= h0 && p.altitude < h1);
            }
        }
    }
}
