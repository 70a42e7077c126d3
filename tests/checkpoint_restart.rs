//! Checkpoint/restart contract tests: a snapshot taken mid-run and resumed
//! — in memory or through the on-disk restart file — must continue
//! bitwise-identically to the uninterrupted run, and the run controller
//! must recover from an injected mid-run NaN by rolling back and halving
//! the CFL.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use aerothermo::gas::equilibrium::air9_equilibrium;
use aerothermo::gas::kinetics::park_air9;
use aerothermo::gas::relaxation::RelaxationModel;
use aerothermo::gas::IdealGas;
use aerothermo::grid::bodies::{Hemisphere, SphereCone};
use aerothermo::grid::{stretch, StructuredGrid};
use aerothermo::solvers::euler2d::{Bc, BcSet, EulerOptions, EulerSolver};
use aerothermo::solvers::ns2d::{NsSolver, Transport};
use aerothermo::solvers::pns::{PnsOptions, PnsSolver};
use aerothermo::solvers::reacting::{
    FreeStream, ReactingBc, ReactingBcSet, ReactingOptions, ReactingSolver,
};
use aerothermo::solvers::runctl::{
    read_restart, run_controlled, write_restart, RunMeta, RunOptions, Snapshot, Steppable,
};
use proptest::prelude::*;

/// Unique scratch path per call so parallel tests never collide.
fn scratch_path(stem: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("aerothermo-{stem}-{}-{n}.atrc", std::process::id()))
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// M8 hemisphere condition shared by the Euler/NS round-trip tests (the
/// stable configuration from `failure_modes.rs`).
fn hemisphere_setup() -> (StructuredGrid, (f64, f64, f64, f64), BcSet) {
    let t_inf = 230.0;
    let p_inf = 300.0;
    let rho_inf = p_inf / (287.05 * t_inf);
    let v_inf = 8.0 * (1.4_f64 * 287.05 * t_inf).sqrt();
    let body = Hemisphere::new(0.2);
    let dist = stretch::uniform(31);
    let grid = StructuredGrid::blunt_body(&body, 9, 31, &|sb| (0.3 + 0.2 * sb) * 0.2, &dist);
    let fs = (rho_inf, v_inf, 0.0, p_inf);
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
    (grid, fs, bc)
}

/// Drive any `Steppable` both continuously (A) and through a
/// save → disk → restore → resume cycle (B), asserting bitwise equality.
fn assert_bitwise_resume<S: Steppable>(mut a: S, mut b: S, warmup: usize, tail: usize, stem: &str) {
    for _ in 0..warmup {
        a.advance().expect("warmup step");
    }
    let snap = a.save_state();

    // Route the snapshot through the restart file, not just memory: the
    // byte-level round trip is part of the contract under test.
    let path = scratch_path(stem);
    write_restart(&path, &a.meta(), &snap, f64::NAN).expect("write restart");
    let (meta, snap2, _) = read_restart(&path).expect("read restart");
    std::fs::remove_file(&path).ok();
    assert_eq!(meta.tag, a.meta().tag);
    assert_eq!(meta.shape, a.meta().shape);
    assert_eq!(snap2.step, snap.step);
    assert!(bits_equal(&snap2.data, &snap.data), "disk round trip lossy");

    b.restore_state(&snap2).expect("restore into fresh solver");
    for _ in 0..tail {
        a.advance().expect("reference step");
        b.advance().expect("resumed step");
    }
    assert_eq!(a.progress(), b.progress(), "step counters diverged");
    assert!(
        bits_equal(&a.save_state().data, &b.save_state().data),
        "resumed {stem} run is not bitwise-identical to the uninterrupted run"
    );
}

#[test]
fn euler_checkpoint_resume_is_bitwise_identical() {
    let gas = IdealGas::air();
    let (grid, fs, bc) = hemisphere_setup();
    let opts = EulerOptions {
        cfl: 0.4,
        // Snapshot inside the startup window so the resumed run must also
        // reproduce the startup→nominal CFL transition bitwise.
        startup_steps: 50,
        ..EulerOptions::default()
    };
    let a = EulerSolver::new(&grid, &gas, bc, opts.clone(), fs);
    let b = EulerSolver::new(&grid, &gas, bc, opts, fs);
    assert_bitwise_resume(a, b, 40, 30, "euler2d");
}

#[test]
fn ns_checkpoint_resume_is_bitwise_identical() {
    let gas = IdealGas::air();
    let (grid, fs, bc) = hemisphere_setup();
    let opts = EulerOptions {
        cfl: 0.3,
        startup_steps: 50,
        ..EulerOptions::default()
    };
    let a = NsSolver::new(&grid, &gas, bc, opts.clone(), fs, Transport::air(), 1500.0);
    let b = NsSolver::new(&grid, &gas, bc, opts, fs, Transport::air(), 1500.0);
    assert_bitwise_resume(a, b, 35, 25, "ns2d");
}

#[test]
fn reacting_checkpoint_resume_is_bitwise_identical() {
    let gas = air9_equilibrium();
    let set = park_air9(gas.mixture());
    let relax = RelaxationModel::new(gas.mixture().clone());
    let rn = 0.05;
    let body = Hemisphere::new(rn);
    let dist = stretch::uniform(21);
    let grid = StructuredGrid::blunt_body(&body, 9, 21, &|sb| (0.3 + 0.2 * sb) * rn, &dist);
    let mut y = vec![0.0; gas.mixture().len()];
    y[0] = 0.767;
    y[1] = 0.233;
    let fs = FreeStream {
        y,
        rho: 5e-4,
        ux: 5500.0,
        ur: 0.0,
        t: 250.0,
    };
    let bc = ReactingBcSet {
        i_lo: ReactingBc::SlipWall,
        i_hi: ReactingBc::Outflow,
        j_lo: ReactingBc::SlipWall,
        j_hi: ReactingBc::Inflow(fs.clone()),
    };
    let opts = ReactingOptions {
        startup_steps: 150,
        ..ReactingOptions::default()
    };
    let a = ReactingSolver::new(&grid, &set, &relax, bc.clone(), opts.clone(), &fs);
    let b = ReactingSolver::new(&grid, &set, &relax, bc, opts, &fs);
    assert_bitwise_resume(a, b, 25, 15, "reacting");
}

#[test]
fn pns_checkpoint_resume_is_bitwise_identical() {
    // Viscous sphere-cone march at the hemisphere tests' M8 condition; the
    // snapshot carries the field and the wall rows of the stations done.
    let gas = IdealGas::air();
    let (_, fs, _) = hemisphere_setup();
    let body = SphereCone {
        rn: 0.01,
        half_angle: 15f64.to_radians(),
        length: 0.5,
    };
    let dist = stretch::tanh_one_sided(16, 2.5);
    let grid = StructuredGrid::blunt_body(&body, 24, 16, &|sb| 0.02 + 0.2 * sb, &dist);
    let opts = PnsOptions {
        t_wall: Some(300.0),
        ..PnsOptions::default()
    };
    let a = PnsSolver::new(&grid, &gas, opts.clone(), fs, 1);
    let b = PnsSolver::new(&grid, &gas, opts, fs, 1);
    assert_bitwise_resume(a, b, 8, 6, "pns");
}

#[test]
fn injected_nan_triggers_rollback_and_cfl_halving() {
    let gas = IdealGas::air();
    let (grid, fs, bc) = hemisphere_setup();
    let opts = EulerOptions {
        cfl: 0.4,
        startup_steps: 30,
        ..EulerOptions::default()
    };
    let mut solver = EulerSolver::new(&grid, &gas, bc, opts, fs);
    let run_opts = RunOptions {
        max_units: 90,
        checkpoint_every: 10,
        inject_nan_at: Some(45),
        ..RunOptions::default()
    };
    let outcome = run_controlled(&mut solver, &run_opts)
        .expect("the controller must absorb the injected NaN");
    assert!(outcome.retries >= 1, "no rollback recorded: {outcome:?}");
    assert!(
        outcome.final_cfl_scale < 1.0,
        "CFL must be backed off after a rollback: {outcome:?}"
    );
    assert_eq!(outcome.units, 90, "run must complete after recovery");
    assert!(
        solver.u.as_slice().iter().all(|v| v.is_finite()),
        "state must be clean after rollback recovery"
    );
}

#[test]
fn corrupted_restart_file_is_rejected() {
    let snap = Snapshot {
        step: 12,
        cfl_scale: 0.5,
        data: vec![1.0, 2.5, -3.75, f64::MIN_POSITIVE],
    };
    let meta = RunMeta {
        tag: "euler2d".into(),
        gas: "test".into(),
        shape: (2, 2, 1),
    };
    let path = scratch_path("corrupt");
    write_restart(&path, &meta, &snap, f64::NAN).expect("write restart");
    let mut bytes = std::fs::read(&path).expect("read back");
    let last = bytes.len() - 3;
    bytes[last] ^= 0x40; // flip a payload bit
    std::fs::write(&path, &bytes).expect("rewrite");
    let err = read_restart(&path).expect_err("checksum must catch corruption");
    std::fs::remove_file(&path).ok();
    assert!(
        err.to_string().contains("checksum"),
        "expected a checksum error, got: {err}"
    );
}

/// splitmix64: deterministic bit-pattern generator for the property test.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The restart file preserves every f64 payload bit pattern exactly —
    /// including negative zero, subnormals, NaN payloads, and infinities —
    /// plus the step counter and CFL scale.
    #[test]
    fn restart_file_roundtrip_is_bit_exact(
        seed in 0u64..u64::MAX,
        len in 0usize..60,
        step in 0usize..1_000_000,
        cfl_bits in 0u64..u64::MAX,
    ) {
        // Adversarial payload: the special encodings first, then random
        // bit patterns — serialization must not canonicalize any of them.
        let mut bits = vec![
            (-0.0f64).to_bits(),
            f64::NAN.to_bits() | 0xdead,
            f64::INFINITY.to_bits(),
            f64::NEG_INFINITY.to_bits(),
            1u64, // smallest subnormal
        ];
        let mut state = seed;
        bits.extend((0..len).map(|_| splitmix64(&mut state)));
        let data: Vec<f64> = bits.iter().map(|b| f64::from_bits(*b)).collect();
        let snap = Snapshot { step, cfl_scale: f64::from_bits(cfl_bits), data };
        let tag = format!("tag{:04x}", seed & 0xffff);
        let meta = RunMeta { tag: tag.clone(), gas: "prop".into(), shape: (bits.len(), 1, 1) };
        let path = scratch_path("prop");
        write_restart(&path, &meta, &snap, f64::NAN).unwrap();
        let (meta2, snap2, _) = read_restart(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(meta2.tag, tag);
        prop_assert_eq!(meta2.shape, meta.shape);
        prop_assert_eq!(snap2.step, step);
        prop_assert_eq!(snap2.cfl_scale.to_bits(), cfl_bits);
        prop_assert_eq!(snap2.data.len(), snap.data.len());
        for (x, y) in snap.data.iter().zip(&snap2.data) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
