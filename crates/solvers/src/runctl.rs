//! Run control: checkpoint/restart snapshots and divergence-triggered
//! rollback with adaptive-CFL backoff.
//!
//! The flight-regime cases the paper surveys (Shuttle windward heating,
//! Titan probe, Mach-20 hemisphere) are long, stiff marches where a single
//! transient — a startup shock overshoot, a stiff chemistry step — can
//! destroy hours of integration. Production hypersonic codes therefore ship
//! restart files and step-size recovery as core features. This module turns
//! *detection* (a residual monitor, typed [`SolverError`]s, graded audits)
//! into *recovery*:
//!
//! * [`Snapshot`] — a versioned copy of a solver's persistent state (the
//!   conserved field, the step counter that drives the startup schedule,
//!   and the current CFL scale), held in an in-memory ring and optionally
//!   serialized, with the run's reference residual, to an on-disk restart
//!   file with a checksummed header ([`write_restart`] / [`read_restart`]).
//! * [`Steppable`] — the contract a solver implements so the controller
//!   can own its outer loop: advance one unit (a pseudo-time step or a
//!   march station), save/restore state, rescale CFL, and name the unit
//!   its start-up phase ends at.
//! * [`run_controlled`] — the one loop that drives a pseudo-time solver
//!   or a station march (solvers have no `run` or `march` of their own):
//!   residual monitor, convergence ratio against the unit
//!   [`Steppable::startup_units`] names, and [`Steppable::finalize`]. On a
//!   recoverable failure (`NonFinite`, `AuditFailed`, residual divergence)
//!   it restores the last good checkpoint, multiplies the CFL scale by
//!   [`BACKOFF`] (floor [`MIN_CFL_SCALE`]), optionally drops to
//!   first-order reconstruction, retries up to a budget, and re-ramps the
//!   CFL one notch after [`RERAMP_AFTER`] clean units. The flight recorder
//!   keeps the last [`flight::DEFAULT_CAPACITY`] units for the black box.
//! * [`retry_with_backoff`] — the same policy for single-shot solvers
//!   (the 1-D relaxation march, the stagnation VSL solve) that have no
//!   incremental state to checkpoint.
//!
//! The residual monitor is fixed, not tuned per run: a non-finite residual
//! fails at once; after a grace window of the solver's start-up units plus
//! 25, a residual above 10⁶ × the best one seen since the window, or one
//! that grew monotonically across the last 25 units by more than 10³
//! overall, is [`SolverError::Diverged`].

use crate::flight;
use aerothermo_numerics::telemetry::{counters, Counter, RunTelemetry, SolverError};
use aerothermo_numerics::trace;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// CFL reduction factor applied during the first-order startup phase.
pub const STARTUP_CFL_FACTOR: f64 = 0.4;

/// Depth of the in-memory checkpoint ring [`run_controlled`] rolls back
/// through.
pub const RING_DEPTH: usize = 4;

/// CFL-scale multiplier per rollback or retry (exponential backoff); a
/// re-ramp divides by it.
pub const BACKOFF: f64 = 0.5;

/// Floor of the backed-off CFL scale.
pub const MIN_CFL_SCALE: f64 = 1.0 / 64.0;

/// Clean units after which a backed-off CFL scale is re-ramped one
/// [`BACKOFF`] notch toward nominal.
pub const RERAMP_AFTER: usize = 50;

/// Units past the solver's start-up units before the divergence tests arm
/// (start-up transients legitimately grow the residual).
const MONITOR_GRACE: usize = 25;
/// Divergence: the residual exceeds this multiple of the best residual
/// seen since the grace window.
const GROWTH_RATIO: f64 = 1e6;
/// Divergence: the residual grew monotonically across this many units…
const WINDOW: usize = 25;
/// …by at least this factor overall.
const WINDOW_GROWTH: f64 = 1e3;

/// The start-up schedule of the explicit field solvers: the first
/// `startup_steps` steps run first-order at [`STARTUP_CFL_FACTOR`] × the
/// nominal CFL (impulsive-start robustness). The euler2d step (which ns2d
/// reuses) and the reacting step read it before their residual fill, and
/// so do the oracle-built reference steps their step-history tests compare
/// against.
///
/// Returns `(first_order, effective_cfl)`.
#[must_use]
pub fn startup_schedule(steps_taken: usize, startup_steps: usize, cfl: f64) -> (bool, f64) {
    let first_order = steps_taken < startup_steps;
    let eff = if first_order {
        STARTUP_CFL_FACTOR * cfl
    } else {
        cfl
    };
    (first_order, eff)
}

/// A versioned copy of a solver's persistent state.
///
/// `data` is the solver-defined flat serialization of everything the next
/// step reads: the conserved field (exact f64 bits) plus any march
/// bookkeeping. Scratch buffers are recomputed each step and excluded, so
/// restoring a snapshot and continuing is bitwise-identical to never having
/// stopped.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Progress units completed when the snapshot was taken (pseudo-time
    /// steps or march stations) — also drives the startup schedule.
    pub step: usize,
    /// CFL scale in effect (1.0 = nominal).
    pub cfl_scale: f64,
    /// Flat state payload.
    pub data: Vec<f64>,
}

impl Snapshot {
    /// Copy the payload into `field`, the whole persistent state of a
    /// field solver; `tag` names the solver in the length-mismatch error.
    ///
    /// # Errors
    /// [`SolverError::BadInput`] when the payload length differs.
    pub(crate) fn restore_field(&self, tag: &str, field: &mut [f64]) -> Result<(), SolverError> {
        if self.data.len() != field.len() {
            return Err(SolverError::BadInput(format!(
                "{tag} restore: state length {} != {}",
                self.data.len(),
                field.len()
            )));
        }
        field.copy_from_slice(&self.data);
        Ok(())
    }
}

/// FNV-1a checksum over the step counter, the CFL-scale bits, the
/// reference-residual bits and the payload bits — what the restart-file
/// header records and verifies.
fn restart_checksum(snap: &Snapshot, reference: f64) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    eat(snap.step as u64);
    eat(snap.cfl_scale.to_bits());
    eat(reference.to_bits());
    for v in &snap.data {
        eat(v.to_bits());
    }
    h
}

/// Identity a restart file records so a snapshot is only ever restored into
/// a compatible solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// Solver tag (`"euler2d"`, `"ns2d"`, `"reacting"`, `"pns"`,
    /// `"vsl_march"`).
    pub tag: String,
    /// Gas-model description.
    pub gas: String,
    /// Grid shape `(ni, nj, neq)` — march solvers record
    /// `(stations, points, fields)`.
    pub shape: (usize, usize, usize),
}

/// Restart file magic: "ATRC" = AeroThermo Restart Checkpoint.
const RESTART_MAGIC: [u8; 4] = *b"ATRC";
/// Restart format version (2 added the reference residual).
const RESTART_VERSION: u32 = 2;

fn io_err(context: &str, e: &std::io::Error) -> SolverError {
    SolverError::BadInput(format!("restart {context}: {e}"))
}

fn write_str(w: &mut impl Write, s: &str) -> std::io::Result<()> {
    let bytes = s.as_bytes();
    let len = u16::try_from(bytes.len().min(usize::from(u16::MAX))).unwrap_or(u16::MAX);
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&bytes[..usize::from(len)])
}

fn read_exact_buf<const N: usize>(r: &mut impl Read) -> std::io::Result<[u8; N]> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

fn read_str(r: &mut impl Read) -> std::io::Result<String> {
    let len = u16::from_le_bytes(read_exact_buf::<2>(r)?);
    let mut buf = vec![0u8; usize::from(len)];
    r.read_exact(&mut buf)?;
    Ok(String::from_utf8_lossy(&buf).into_owned())
}

/// Serialize a snapshot to `path` with a self-describing, checksummed
/// header (magic, version, solver tag, gas model, grid shape, step count,
/// CFL scale, and the run's `reference` residual — NaN before the run
/// reached [`Steppable::startup_units`] — so a resumed run measures its
/// convergence ratio against the same reference).
///
/// # Errors
/// [`SolverError::BadInput`] on any I/O failure, with the path in the
/// message.
pub fn write_restart(
    path: &Path,
    meta: &RunMeta,
    snap: &Snapshot,
    reference: f64,
) -> Result<(), SolverError> {
    let ctx = format!("write {}", path.display());
    let file = std::fs::File::create(path).map_err(|e| io_err(&ctx, &e))?;
    let mut w = std::io::BufWriter::new(file);
    let inner = |w: &mut std::io::BufWriter<std::fs::File>| -> std::io::Result<()> {
        w.write_all(&RESTART_MAGIC)?;
        w.write_all(&RESTART_VERSION.to_le_bytes())?;
        write_str(w, &meta.tag)?;
        write_str(w, &meta.gas)?;
        for dim in [meta.shape.0, meta.shape.1, meta.shape.2, snap.step] {
            w.write_all(&(dim as u64).to_le_bytes())?;
        }
        w.write_all(&snap.cfl_scale.to_bits().to_le_bytes())?;
        w.write_all(&reference.to_bits().to_le_bytes())?;
        w.write_all(&(snap.data.len() as u64).to_le_bytes())?;
        w.write_all(&restart_checksum(snap, reference).to_le_bytes())?;
        for v in &snap.data {
            w.write_all(&v.to_bits().to_le_bytes())?;
        }
        w.flush()
    };
    inner(&mut w).map_err(|e| io_err(&ctx, &e))?;
    counters::add(Counter::CheckpointsWritten, 1);
    Ok(())
}

/// Deserialize a restart file into its identity, snapshot and reference
/// residual; verifies magic, version, and the state checksum.
///
/// # Errors
/// [`SolverError::BadInput`] on I/O failure, malformed/foreign files, a
/// file of another format version, or a checksum mismatch (truncated or
/// corrupted state).
pub fn read_restart(path: &Path) -> Result<(RunMeta, Snapshot, f64), SolverError> {
    let ctx = format!("read {}", path.display());
    let file = std::fs::File::open(path).map_err(|e| io_err(&ctx, &e))?;
    let mut r = std::io::BufReader::new(file);
    let inner =
        |r: &mut std::io::BufReader<std::fs::File>| -> std::io::Result<(RunMeta, Snapshot, f64, u64)> {
            let magic = read_exact_buf::<4>(r)?;
            if magic != RESTART_MAGIC {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "bad magic (not a restart file)",
                ));
            }
            let version = u32::from_le_bytes(read_exact_buf::<4>(r)?);
            if version != RESTART_VERSION {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("unsupported restart version {version}"),
                ));
            }
            let tag = read_str(r)?;
            let gas = read_str(r)?;
            let mut dims = [0usize; 4];
            for d in &mut dims {
                *d = u64::from_le_bytes(read_exact_buf::<8>(r)?) as usize;
            }
            let cfl_scale = f64::from_bits(u64::from_le_bytes(read_exact_buf::<8>(r)?));
            let reference = f64::from_bits(u64::from_le_bytes(read_exact_buf::<8>(r)?));
            let n_data = u64::from_le_bytes(read_exact_buf::<8>(r)?) as usize;
            let checksum = u64::from_le_bytes(read_exact_buf::<8>(r)?);
            let mut data = Vec::with_capacity(n_data);
            for _ in 0..n_data {
                data.push(f64::from_bits(u64::from_le_bytes(read_exact_buf::<8>(r)?)));
            }
            Ok((
                RunMeta {
                    tag,
                    gas,
                    shape: (dims[0], dims[1], dims[2]),
                },
                Snapshot {
                    step: dims[3],
                    cfl_scale,
                    data,
                },
                reference,
                checksum,
            ))
        };
    let (meta, snap, reference, checksum) = inner(&mut r).map_err(|e| io_err(&ctx, &e))?;
    if restart_checksum(&snap, reference) != checksum {
        return Err(SolverError::BadInput(format!(
            "restart {}: checksum mismatch (file truncated or corrupted)",
            path.display()
        )));
    }
    Ok((meta, snap, reference))
}

/// The contract a solver implements so [`run_controlled`] can own its outer
/// loop.
pub trait Steppable {
    /// Advance one progress unit (a pseudo-time step or a march station);
    /// returns a residual-like scalar. Implementations surface state
    /// contamination and hard audit failures as typed errors here, so the
    /// controller can roll back instead of aborting.
    ///
    /// # Errors
    /// [`SolverError::NonFinite`] on NaN/Inf contamination,
    /// [`SolverError::AuditFailed`] on a hard in-situ audit failure.
    fn advance(&mut self) -> Result<f64, SolverError>;

    /// Progress units completed so far.
    fn progress(&self) -> usize;

    /// Unit at which the start-up phase ends: the residual of the unit
    /// that starts here is the reference the convergence ratio is taken
    /// against, and the divergence monitor's grace window is extended by
    /// it. Default `0` (march solvers have no start-up phase).
    fn startup_units(&self) -> usize {
        0
    }

    /// Snapshot the persistent state (see [`Snapshot`]).
    fn save_state(&self) -> Snapshot;

    /// Restore a snapshot taken from a compatible solver.
    ///
    /// # Errors
    /// [`SolverError::BadInput`] when the payload shape does not match this
    /// solver's state.
    fn restore_state(&mut self, snap: &Snapshot) -> Result<(), SolverError>;

    /// Current CFL scale (1.0 = nominal).
    fn cfl_scale(&self) -> f64;

    /// Rescale the effective CFL (march solvers rescale their relaxation
    /// factor — the same role).
    fn set_cfl_scale(&mut self, scale: f64);

    /// Force first-order reconstruction independent of the startup schedule
    /// (rollback safety mode). Default: no-op for solvers without a
    /// reconstruction order to drop.
    fn set_first_order_fallback(&mut self, _on: bool) {}

    /// Identity recorded in restart-file headers and verified on restore.
    fn meta(&self) -> RunMeta;

    /// The telemetry sink the controller records its residual and CFL
    /// histories into.
    fn telemetry_mut(&mut self) -> &mut RunTelemetry;

    /// Converged/terminal bookkeeping after the loop (e.g. the
    /// full-strictness converged-state audit).
    ///
    /// # Errors
    /// Propagates hard audit failures.
    fn finalize(&mut self, _converged: bool) -> Result<(), SolverError> {
        Ok(())
    }

    /// Corrupt the state with a NaN — the fault-injection hook used by the
    /// rollback tests and the `--inject-nan` CI drill. Never called in
    /// normal operation.
    fn poison(&mut self);
}

/// Policy knobs for [`run_controlled`]. The reference unit comes from
/// the solver ([`Steppable::startup_units`]); the ring depth, the backoff,
/// the re-ramp and the flight-recorder capacity are the constants
/// [`RING_DEPTH`], [`BACKOFF`], [`MIN_CFL_SCALE`], [`RERAMP_AFTER`] and
/// [`flight::DEFAULT_CAPACITY`].
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Maximum progress units (steps / stations), counted from the
    /// solver's unit 0, not from where this run starts.
    pub max_units: usize,
    /// Convergence tolerance on the residual ratio relative to the
    /// reference captured at [`Steppable::startup_units`]; `0.0` disables
    /// the convergence test (run all units — march mode).
    pub tol: f64,
    /// Checkpoint cadence in units; `0` keeps only the initial snapshot.
    pub checkpoint_every: usize,
    /// Rollback/retry budget before the failure is surfaced.
    pub max_retries: usize,
    /// Drop to first-order reconstruction while backed off.
    pub first_order_fallback: bool,
    /// Write an on-disk restart file at each checkpoint.
    pub checkpoint_path: Option<PathBuf>,
    /// Restore from this restart file before the first unit.
    pub restart_from: Option<PathBuf>,
    /// Fault injection: poison the state once, after this unit completes.
    pub inject_nan_at: Option<usize>,
    /// Deterministic mid-run halt after this unit (the CI kill/resume
    /// drill): the controller stops and reports `halted = true`.
    pub halt_after: Option<usize>,
    /// Where [`run_recorded`] writes the black-box JSON when a
    /// [`SolverError`] escapes or the `--inject-nan` drill fires. `None`
    /// still records (the sweep engine attaches the in-memory dump to
    /// failed case records); only the file write is skipped.
    pub blackbox_path: Option<PathBuf>,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            max_units: usize::MAX,
            tol: 0.0,
            checkpoint_every: 0,
            max_retries: 3,
            first_order_fallback: false,
            checkpoint_path: None,
            restart_from: None,
            inject_nan_at: None,
            halt_after: None,
            blackbox_path: None,
        }
    }
}

/// What a controlled run did.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Progress units completed.
    pub units: usize,
    /// Last raw residual.
    pub residual: f64,
    /// Last residual ratio relative to the reference captured at
    /// [`Steppable::startup_units`] (1.0 when the convergence test is
    /// disabled or the reference unit was never reached).
    pub ratio: f64,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// Retry attempts consumed; each one is a rollback to a checkpoint.
    pub retries: usize,
    /// CFL scale in effect at the end.
    pub final_cfl_scale: f64,
    /// True when the run stopped at [`RunOptions::halt_after`].
    pub halted: bool,
}

/// Whether an error is worth a rollback-and-retry (transient/state-local)
/// rather than a hard abort (bad input, missing file).
#[must_use]
pub fn recoverable(e: &SolverError) -> bool {
    matches!(
        e,
        SolverError::NonFinite { .. }
            | SolverError::Diverged { .. }
            | SolverError::AuditFailed { .. }
            | SolverError::IterationLimit { .. }
    )
}

/// Per-unit residual record of one attempt, with NaN/Inf and divergence
/// detection (thresholds in the module docs).
struct ResidualMonitor {
    history: Vec<f64>,
    /// Best residual *after* the grace window: impulsive starts from
    /// uniform flow begin at a near-zero residual that would make
    /// legitimate transient growth look like divergence.
    best: f64,
    grace: usize,
}

impl ResidualMonitor {
    fn new(startup: usize) -> Self {
        Self {
            history: Vec::new(),
            best: f64::INFINITY,
            grace: startup + MONITOR_GRACE,
        }
    }

    /// Record one residual; [`SolverError::NonFinite`] (with `i` = the
    /// unit's index in this attempt) on NaN/Inf, [`SolverError::Diverged`]
    /// when a growth test trips.
    fn record(&mut self, residual: f64) -> Result<(), SolverError> {
        let iter = self.history.len();
        self.history.push(residual);
        if !residual.is_finite() {
            return Err(SolverError::NonFinite {
                field: "residual",
                i: iter,
                j: 0,
            });
        }
        if iter >= self.grace {
            if residual > GROWTH_RATIO * self.best {
                return Err(SolverError::Diverged { iter, residual });
            }
            if iter + 1 >= WINDOW {
                let window = &self.history[iter + 1 - WINDOW..=iter];
                let monotone = window.windows(2).all(|p| p[1] >= p[0]);
                if monotone && residual > WINDOW_GROWTH * window[0].max(1e-300) {
                    return Err(SolverError::Diverged { iter, residual });
                }
            }
            self.best = self.best.min(residual);
        }
        Ok(())
    }
}

/// Run a [`Steppable`] solver to convergence (or through all its units)
/// under checkpoint/rollback control. See the module docs for the policy.
///
/// Records `runctl_residual` and `runctl_cfl_scale` histories in the
/// solver's telemetry; the run is timed as the `runctl` trace span.
///
/// # Errors
/// Surfaces the underlying [`SolverError`] once the retry budget is
/// exhausted or the failure is not [`recoverable`]; restart-file errors
/// (missing, corrupt, or incompatible with this solver) are
/// [`SolverError::BadInput`].
pub fn run_controlled<S: Steppable + ?Sized>(
    solver: &mut S,
    opts: &RunOptions,
) -> Result<RunOutcome, SolverError> {
    run_recorded(solver, opts).0
}

/// [`run_controlled`] plus the flight recorder's verdict: when the run
/// dies (or an `--inject-nan` drill fires) the second element is the
/// post-mortem black box — the last [`flight::DEFAULT_CAPACITY`] per-step
/// records with residual/CFL history, rollback events, audit findings,
/// and equilibrium-cache hit deltas, and the retries the run consumed.
/// Written to [`RunOptions::blackbox_path`] when set; always returned in
/// memory so the sweep engine can attach it to failed case records.
pub fn run_recorded<S: Steppable + ?Sized>(
    solver: &mut S,
    opts: &RunOptions,
) -> (Result<RunOutcome, SolverError>, Option<flight::PostMortem>) {
    let mut recorder = flight::FlightRecorder::default();
    let mut ctl = FlightCtl {
        recorder: &mut recorder,
        injected: false,
        retries: 0,
    };
    let result = run_inner(solver, opts, &mut ctl);
    let injected = ctl.injected;
    let retries = ctl.retries;
    let pm = match &result {
        Err(e) => Some(recorder.post_mortem(
            &solver.meta().tag,
            flight::Trigger::SolverError,
            Some(e.to_string()),
            solver.progress(),
            retries,
            solver.cfl_scale(),
        )),
        Ok(out) if injected => Some(recorder.post_mortem(
            &solver.meta().tag,
            flight::Trigger::NanInjection,
            None,
            out.units,
            out.retries,
            out.final_cfl_scale,
        )),
        Ok(_) => None,
    };
    if let (Some(pm), Some(path)) = (&pm, &opts.blackbox_path) {
        pm.write(path);
    }
    (result, pm)
}

/// Mutable flight-recorder context threaded through [`run_inner`] so the
/// wrapper can build a post-mortem even when the inner loop early-returns
/// through `?`.
struct FlightCtl<'a> {
    recorder: &'a mut flight::FlightRecorder,
    injected: bool,
    retries: usize,
}

#[allow(clippy::too_many_lines)]
fn run_inner<S: Steppable + ?Sized>(
    solver: &mut S,
    opts: &RunOptions,
    fl: &mut FlightCtl<'_>,
) -> Result<RunOutcome, SolverError> {
    let _span = trace::span("runctl");
    // A solver that already ran past its start-up units keeps the reference
    // it measured there; a fresh one reports NaN until that unit.
    let mut reference = solver.telemetry_mut().reference_residual();

    if let Some(path) = &opts.restart_from {
        let (meta, snap, saved_reference) = read_restart(path)?;
        let own = solver.meta();
        if meta.tag != own.tag || meta.shape != own.shape {
            return Err(SolverError::BadInput(format!(
                "restart {}: incompatible header (file {}/{:?} vs solver {}/{:?})",
                path.display(),
                meta.tag,
                meta.shape,
                own.tag,
                own.shape,
            )));
        }
        solver.restore_state(&snap)?;
        reference = saved_reference;
    }

    let mut ring: VecDeque<Snapshot> = VecDeque::with_capacity(RING_DEPTH);
    ring.push_back(solver.save_state());

    let startup = solver.startup_units();
    let mut monitor = ResidualMonitor::new(startup);
    let mut residual_history: Vec<f64> = Vec::new();
    let mut cfl_history: Vec<f64> = Vec::new();
    let mut scale = solver.cfl_scale();
    let mut inject = opts.inject_nan_at;
    let mut last_res = f64::NAN;
    let mut last_ratio = 1.0;
    let mut converged = false;
    let mut halted = false;
    let mut clean = 0usize;
    let mut rolled_back = false;
    let mut failure: Option<SolverError> = None;

    while solver.progress() < opts.max_units {
        let unit0 = solver.progress();
        fl.recorder.mark_step_start();
        let outcome = match solver.advance() {
            Ok(r) => monitor.record(r).map(|()| r),
            Err(e) => Err(e),
        };
        match outcome {
            Ok(r) => {
                last_res = r;
                clean += 1;
                let unit = solver.progress();
                if unit0 == startup {
                    reference = r.max(1e-300);
                }
                cfl_history.push(scale);
                // Checkpoint *before* any fault injection so neither the
                // ring nor the restart file ever holds poisoned state.
                let mut checkpointed = false;
                if opts.checkpoint_every != 0 && unit.is_multiple_of(opts.checkpoint_every) {
                    let snap = solver.save_state();
                    if let Some(path) = &opts.checkpoint_path {
                        write_restart(path, &solver.meta(), &snap, reference)?;
                    }
                    if ring.len() == RING_DEPTH {
                        ring.pop_front();
                    }
                    ring.push_back(snap);
                    rolled_back = false;
                    checkpointed = true;
                }
                let mut injected_now = false;
                if inject == Some(unit) {
                    solver.poison();
                    inject = None;
                    fl.injected = true;
                    injected_now = true;
                }
                let event = if injected_now {
                    flight::StepEvent::Inject
                } else if checkpointed {
                    flight::StepEvent::Checkpoint
                } else {
                    flight::StepEvent::Advance
                };
                let (audit_n, audit_worst) = {
                    let t = solver.telemetry_mut();
                    (t.audits().len(), t.worst_audit_severity())
                };
                fl.recorder
                    .record(unit, r, scale, event, audit_n, audit_worst);
                if scale < 1.0 && clean >= RERAMP_AFTER {
                    scale = (scale / BACKOFF).min(1.0);
                    solver.set_cfl_scale(scale);
                    trace::set_gauge(trace::Gauge::CflScale, scale);
                    if scale >= 1.0 {
                        solver.set_first_order_fallback(false);
                    }
                    clean = 0;
                }
                if opts.tol > 0.0 && reference.is_finite() {
                    last_ratio = r / reference;
                    if last_ratio < opts.tol {
                        converged = true;
                        break;
                    }
                }
                if opts.halt_after == Some(unit) {
                    halted = true;
                    break;
                }
            }
            Err(e) => {
                let (audit_n, audit_worst) = {
                    let t = solver.telemetry_mut();
                    (t.audits().len(), t.worst_audit_severity())
                };
                if !recoverable(&e) || fl.retries >= opts.max_retries {
                    fl.recorder.record(
                        unit0,
                        f64::NAN,
                        scale,
                        flight::StepEvent::Fatal {
                            error: e.to_string(),
                        },
                        audit_n,
                        audit_worst,
                    );
                    failure = Some(e);
                    break;
                }
                fl.recorder.record(
                    unit0,
                    f64::NAN,
                    scale,
                    flight::StepEvent::Rollback {
                        retry: fl.retries + 1,
                        error: e.to_string(),
                    },
                    audit_n,
                    audit_worst,
                );
                // If the newest checkpoint already failed to rescue the run
                // (no clean checkpoint written since the last rollback), it
                // captured corrupted-but-finite state — e.g. a NaN laundered
                // through a positivity floor before the blowup registered.
                // Discard it and fall back one ring level.
                if rolled_back && ring.len() > 1 {
                    ring.pop_back();
                }
                // The back of the ring is the most recent good state; it
                // always exists (the pre-run snapshot is never evicted
                // without a replacement).
                let snap = ring.back().expect("checkpoint ring is never empty");
                solver.restore_state(snap)?;
                scale = (scale * BACKOFF).max(MIN_CFL_SCALE);
                solver.set_cfl_scale(scale);
                trace::set_gauge(trace::Gauge::CflScale, scale);
                if opts.first_order_fallback {
                    solver.set_first_order_fallback(true);
                }
                fl.retries += 1;
                clean = 0;
                rolled_back = true;
                counters::add(Counter::RunRollbacks, 1);
                // Residual history restarts from the rolled-back state.
                residual_history.append(&mut monitor.history);
                monitor = ResidualMonitor::new(startup);
            }
        }
    }

    if failure.is_none() && !halted {
        if let Err(e) = solver.finalize(converged) {
            failure = Some(e);
        }
    }

    let units = solver.progress();
    residual_history.append(&mut monitor.history);
    let telemetry = solver.telemetry_mut();
    telemetry.set_reference_residual(reference);
    telemetry.record_history("runctl_residual", residual_history);
    telemetry.record_history("runctl_cfl_scale", cfl_history);

    match failure {
        Some(e) => Err(e),
        None => Ok(RunOutcome {
            units,
            residual: last_res,
            ratio: last_ratio,
            converged,
            retries: fl.retries,
            final_cfl_scale: scale,
            halted,
        }),
    }
}

/// Outcome of [`retry_with_backoff`]: on success the attempt's value, on
/// failure (`RetryOutcome<SolverError>`) the last attempt's error.
#[derive(Debug, Clone)]
pub struct RetryOutcome<T> {
    /// The last attempt's value or error.
    pub value: T,
    /// Attempts retried after the first.
    pub retries: usize,
    /// Scale the last attempt ran at.
    pub final_scale: f64,
}

/// Rollback policy for single-shot solvers with no incremental state: call
/// `attempt(scale)` starting at scale 1.0; on a [`recoverable`] error,
/// multiply the scale by [`BACKOFF`] (clamped at [`MIN_CFL_SCALE`]) and
/// retry, up to `max_retries` times. Solvers interpret the scale as a
/// relaxation / step-size reduction.
///
/// # Errors
/// The last attempt's error, with the retries spent, once the budget is
/// exhausted, or immediately for non-recoverable errors.
pub fn retry_with_backoff<T>(
    max_retries: usize,
    mut attempt: impl FnMut(f64) -> Result<T, SolverError>,
) -> Result<RetryOutcome<T>, RetryOutcome<SolverError>> {
    let mut scale = 1.0_f64;
    let mut retries = 0usize;
    loop {
        match attempt(scale) {
            Ok(value) => {
                return Ok(RetryOutcome {
                    value,
                    retries,
                    final_scale: scale,
                })
            }
            Err(e) if retries < max_retries && recoverable(&e) => {
                retries += 1;
                scale = (scale * BACKOFF).max(MIN_CFL_SCALE);
                counters::add(Counter::RunRollbacks, 1);
            }
            Err(e) => {
                return Err(RetryOutcome {
                    value: e,
                    retries,
                    final_scale: scale,
                })
            }
        }
    }
}

/// [`run_controlled`] to `max_units` or `tol` with no retries, so an
/// unstable run fails the test instead of being rolled back.
#[cfg(test)]
pub(crate) fn run_to<S: Steppable + ?Sized>(
    solver: &mut S,
    max_units: usize,
    tol: f64,
) -> RunOutcome {
    run_controlled(
        solver,
        &RunOptions {
            max_units,
            tol,
            max_retries: 0,
            ..RunOptions::default()
        },
    )
    .expect("stable run")
}

// The sweep engine runs `run_controlled` concurrently on worker threads,
// one solver per thread: the control-layer types must stay shareable across
// threads even though individual solvers are not. Compile-time guards so a
// future non-Send field (Rc, RefCell, raw pointer) fails here, not in a
// distant crate.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<RunOptions>();
    assert_send_sync::<RunOutcome>();
    assert_send_sync::<Snapshot>();
    assert_send_sync::<RetryOutcome<()>>();
    assert_send_sync::<aerothermo_numerics::telemetry::SolverError>();
};

#[cfg(test)]
mod tests {
    use super::*;

    /// A scalar relaxation toward 0 that becomes unstable at full CFL after
    /// a configurable step, and is cured by any backed-off scale — the
    /// smallest system with a genuine rollback story.
    struct ToyRelax {
        x: f64,
        steps: usize,
        cfl_scale: f64,
        unstable_at: Option<usize>,
        startup: usize,
        telemetry: RunTelemetry,
        finalized: Option<bool>,
    }

    impl ToyRelax {
        fn new(unstable_at: Option<usize>) -> Self {
            Self {
                x: 1.0,
                steps: 0,
                cfl_scale: 1.0,
                unstable_at,
                startup: 0,
                telemetry: RunTelemetry::new(),
                finalized: None,
            }
        }
    }

    impl Steppable for ToyRelax {
        fn advance(&mut self) -> Result<f64, SolverError> {
            if self.unstable_at == Some(self.steps) && self.cfl_scale >= 1.0 {
                self.x = f64::NAN;
            }
            self.x *= 1.0 - 0.5 * self.cfl_scale;
            self.steps += 1;
            if !self.x.is_finite() {
                return Err(SolverError::NonFinite {
                    field: "x",
                    i: self.steps,
                    j: 0,
                });
            }
            Ok(self.x.abs().max(1e-30))
        }
        fn progress(&self) -> usize {
            self.steps
        }
        fn startup_units(&self) -> usize {
            self.startup
        }
        fn save_state(&self) -> Snapshot {
            Snapshot {
                step: self.steps,
                cfl_scale: self.cfl_scale,
                data: vec![self.x],
            }
        }
        fn restore_state(&mut self, snap: &Snapshot) -> Result<(), SolverError> {
            if snap.data.len() != 1 {
                return Err(SolverError::BadInput("toy payload".into()));
            }
            self.x = snap.data[0];
            self.steps = snap.step;
            self.cfl_scale = snap.cfl_scale;
            Ok(())
        }
        fn cfl_scale(&self) -> f64 {
            self.cfl_scale
        }
        fn set_cfl_scale(&mut self, scale: f64) {
            self.cfl_scale = scale;
        }
        fn meta(&self) -> RunMeta {
            RunMeta {
                tag: "toy".into(),
                gas: "none".into(),
                shape: (1, 1, 1),
            }
        }
        fn telemetry_mut(&mut self) -> &mut RunTelemetry {
            &mut self.telemetry
        }
        fn finalize(&mut self, converged: bool) -> Result<(), SolverError> {
            self.finalized = Some(converged);
            Ok(())
        }
        fn poison(&mut self) {
            self.x = f64::NAN;
        }
    }

    #[test]
    fn startup_schedule_matches_inline_policy() {
        for steps in [0usize, 10, 199, 200, 5000] {
            let (fo, cfl) = startup_schedule(steps, 200, 0.5);
            assert_eq!(fo, steps < 200);
            let want: f64 = if steps < 200 { 0.4 * 0.5 } else { 0.5 };
            assert_eq!(cfl.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn clean_run_never_rolls_back() {
        let mut toy = ToyRelax::new(None);
        let out = run_controlled(
            &mut toy,
            &RunOptions {
                max_units: 60,
                tol: 1e-6,
                checkpoint_every: 10,
                ..RunOptions::default()
            },
        )
        .expect("clean run");
        assert!(out.converged);
        assert_eq!(out.retries, 0);
        assert_eq!(out.final_cfl_scale.to_bits(), 1.0_f64.to_bits());
        assert_eq!(toy.finalized, Some(true));
        assert!(toy
            .telemetry
            .histories()
            .iter()
            .any(|(name, _)| name == "runctl_residual"));
    }

    #[test]
    fn ratio_is_relative_to_the_solver_startup_unit() {
        // Each unit halves x, so the unit that starts at k reports 2^-(k+1)
        // and the ratios below are exact powers of two.
        let run = |startup: usize| {
            let mut toy = ToyRelax::new(None);
            toy.startup = startup;
            run_controlled(
                &mut toy,
                &RunOptions {
                    max_units: 20,
                    tol: 1e-30,
                    ..RunOptions::default()
                },
            )
            .expect("clean run")
        };
        let out = run(5);
        assert!(!out.converged);
        assert_eq!(out.units, 20);
        assert_eq!(out.residual.to_bits(), 0.5_f64.powi(20).to_bits());
        assert_eq!(
            out.ratio.to_bits(),
            (0.5_f64.powi(20) / 0.5_f64.powi(6)).to_bits(),
            "reference must be the residual of the unit starting at 5"
        );
        assert_eq!(run(0).ratio.to_bits(), 0.5_f64.powi(19).to_bits());
    }

    #[test]
    fn instability_rolls_back_and_backs_off() {
        let mut toy = ToyRelax::new(Some(23));
        let out = run_controlled(
            &mut toy,
            &RunOptions {
                max_units: 200,
                tol: 1e-9,
                checkpoint_every: 5,
                ..RunOptions::default()
            },
        )
        .expect("recovered run");
        assert!(out.converged, "backed-off run should converge");
        assert_eq!(out.retries, 1);
        assert!(out.final_cfl_scale < 1.0);
    }

    #[test]
    fn retry_budget_exhaustion_surfaces_the_error() {
        // Unstable at step 0 regardless of checkpoints, budget 0: the error
        // must surface unchanged.
        let mut toy = ToyRelax::new(Some(0));
        let err = run_controlled(
            &mut toy,
            &RunOptions {
                max_units: 10,
                max_retries: 0,
                ..RunOptions::default()
            },
        )
        .expect_err("no budget");
        assert!(matches!(err, SolverError::NonFinite { .. }));
    }

    #[test]
    fn injected_nan_is_rolled_back() {
        let mut toy = ToyRelax::new(None);
        let out = run_controlled(
            &mut toy,
            &RunOptions {
                max_units: 80,
                tol: 1e-9,
                checkpoint_every: 4,
                inject_nan_at: Some(14),
                ..RunOptions::default()
            },
        )
        .expect("recovered from injected NaN");
        assert!(out.retries >= 1);
        assert!(out.converged);
        assert!(toy.x.is_finite());
    }

    #[test]
    fn halt_after_stops_mid_run() {
        let mut toy = ToyRelax::new(None);
        let out = run_controlled(
            &mut toy,
            &RunOptions {
                max_units: 100,
                halt_after: Some(7),
                ..RunOptions::default()
            },
        )
        .expect("halted run");
        assert!(out.halted);
        assert_eq!(out.units, 7);
        assert_eq!(toy.finalized, None, "finalize must not run on a halt");
    }

    #[test]
    fn restart_file_roundtrip_is_bitwise() {
        let dir = std::env::temp_dir().join(format!("runctl-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.restart");
        let snap = Snapshot {
            step: 41,
            cfl_scale: 0.25,
            data: vec![1.0, -0.0, f64::MIN_POSITIVE, 3.5e200, f64::NAN],
        };
        let meta = RunMeta {
            tag: "toy".into(),
            gas: "ideal air".into(),
            shape: (3, 7, 4),
        };
        write_restart(&path, &meta, &snap, 2.5e-7).expect("write");
        let (meta2, snap2, reference) = read_restart(&path).expect("read");
        assert_eq!(meta, meta2);
        assert_eq!(reference.to_bits(), 2.5e-7_f64.to_bits());
        assert_eq!(snap2.step, snap.step);
        assert_eq!(snap2.cfl_scale.to_bits(), snap.cfl_scale.to_bits());
        assert_eq!(snap2.data.len(), snap.data.len());
        for (a, b) in snap.data.iter().zip(&snap2.data) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_restart_is_rejected() {
        let dir = std::env::temp_dir().join(format!("runctl-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.restart");
        let snap = Snapshot {
            step: 5,
            cfl_scale: 1.0,
            data: vec![1.0; 16],
        };
        let meta = RunMeta {
            tag: "toy".into(),
            gas: "none".into(),
            shape: (4, 4, 1),
        };
        write_restart(&path, &meta, &snap, f64::NAN).expect("write");
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 3;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let err = read_restart(&path).expect_err("corruption must be caught");
        assert!(format!("{err}").contains("checksum"), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn incompatible_restart_header_is_rejected() {
        let dir = std::env::temp_dir().join(format!("runctl-hdr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("other.restart");
        let snap = Snapshot {
            step: 2,
            cfl_scale: 1.0,
            data: vec![0.5],
        };
        let meta = RunMeta {
            tag: "somethingelse".into(),
            gas: "none".into(),
            shape: (9, 9, 9),
        };
        write_restart(&path, &meta, &snap, f64::NAN).expect("write");
        let mut toy = ToyRelax::new(None);
        let err = run_controlled(
            &mut toy,
            &RunOptions {
                max_units: 5,
                restart_from: Some(path),
                ..RunOptions::default()
            },
        )
        .expect_err("foreign restart");
        assert!(format!("{err}").contains("incompatible"), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_one_restart_is_rejected() {
        let dir = std::env::temp_dir().join(format!("runctl-v1-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.restart");
        let toy = ToyRelax::new(None);
        write_restart(&path, &toy.meta(), &toy.save_state(), f64::NAN).expect("write");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&1_u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = read_restart(&path).expect_err("version 1 carries no reference");
        assert!(matches!(err, SolverError::BadInput(_)), "got: {err}");
        assert!(
            format!("{err}").contains("unsupported restart version 1"),
            "got: {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resumed_run_converges_like_the_uninterrupted_one() {
        // Start-up 5: the reference is the residual of the unit starting at
        // 5, so a run resumed at unit 10 can only take it from the file.
        let dir = std::env::temp_dir().join(format!("runctl-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.restart");
        let run = |extra: RunOptions| {
            let mut toy = ToyRelax::new(None);
            toy.startup = 5;
            let opts = RunOptions {
                max_units: 60,
                tol: 1e-9,
                max_retries: 0,
                ..extra
            };
            run_controlled(&mut toy, &opts).expect("clean run")
        };
        let whole = run(RunOptions::default());
        let halted = run(RunOptions {
            checkpoint_every: 5,
            checkpoint_path: Some(path.clone()),
            halt_after: Some(10),
            ..RunOptions::default()
        });
        assert!(halted.halted && halted.units == 10);
        let resumed = run(RunOptions {
            restart_from: Some(path),
            ..RunOptions::default()
        });
        std::fs::remove_dir_all(&dir).ok();
        assert!(whole.converged);
        assert_eq!(resumed.converged, whole.converged);
        assert_eq!(resumed.units, whole.units);
        assert_eq!(resumed.ratio.to_bits(), whole.ratio.to_bits());
    }

    #[test]
    fn second_call_converges_like_one_uninterrupted_call() {
        // Start-up 5: the reference is the residual of the unit starting at
        // 5, which only the first of two in-memory calls sees.
        let run = |max_units: usize, toy: &mut ToyRelax| {
            let opts = RunOptions {
                max_units,
                tol: 1e-9,
                max_retries: 0,
                ..RunOptions::default()
            };
            run_controlled(toy, &opts).expect("clean run")
        };
        let mut whole = ToyRelax::new(None);
        whole.startup = 5;
        let whole = run(60, &mut whole);
        let mut split = ToyRelax::new(None);
        split.startup = 5;
        assert_eq!(run(10, &mut split).units, 10);
        let second = run(60, &mut split);
        assert!(whole.converged);
        assert_eq!(second.converged, whole.converged);
        assert_eq!(second.units, whole.units);
        assert_eq!(second.ratio.to_bits(), whole.ratio.to_bits());
    }

    #[test]
    fn retry_with_backoff_halves_until_success() {
        let out = retry_with_backoff(5, |scale| {
            if scale > 0.3 {
                Err(SolverError::IterationLimit {
                    context: "toy".into(),
                    iters: 1,
                    residual: 1.0,
                })
            } else {
                Ok(scale)
            }
        })
        .expect("eventually succeeds");
        assert_eq!(out.retries, 2);
        assert_eq!(out.final_scale.to_bits(), 0.25_f64.to_bits());
    }

    #[test]
    fn retry_with_backoff_reports_the_retries_of_a_failure() {
        let mut attempts = 0;
        let fail = retry_with_backoff(3, |_| -> Result<(), SolverError> {
            attempts += 1;
            Err(SolverError::NonFinite {
                field: "x",
                i: 0,
                j: 0,
            })
        })
        .expect_err("never succeeds");
        assert_eq!((attempts, fail.retries), (4, 3));
        assert_eq!(fail.final_scale.to_bits(), 0.125_f64.to_bits());
        assert!(matches!(fail.value, SolverError::NonFinite { .. }));
    }

    #[test]
    fn retry_with_backoff_passes_through_hard_errors() {
        let err = retry_with_backoff(5, |_| -> Result<(), SolverError> {
            Err(SolverError::BadInput("nope".into()))
        })
        .expect_err("bad input is not retried");
        assert!(matches!(err.value, SolverError::BadInput(_)));
        assert_eq!(err.retries, 0);
    }

    #[test]
    fn monitor_accepts_converging_history() {
        let mut m = ResidualMonitor::new(0);
        for k in 0..500 {
            m.record(0.99_f64.powi(k)).unwrap();
        }
        assert_eq!(m.history.len(), 500);
        assert!(m.best < 1e-2);
    }

    #[test]
    fn monitor_tolerates_startup_transient() {
        // Residual grows 100x while the flow forms, then converges — the
        // grace window (25 start-up units + 25) must keep this from
        // tripping as divergence.
        let mut m = ResidualMonitor::new(25);
        for k in 0..40 {
            m.record(1e-3 * 1.2_f64.powi(k)).unwrap();
        }
        for k in 0..200 {
            m.record(0.15 * 0.95_f64.powi(k)).unwrap();
        }
    }

    #[test]
    fn monitor_detects_nan() {
        let mut m = ResidualMonitor::new(0);
        m.record(1.0).unwrap();
        m.record(0.5).unwrap();
        let err = m.record(f64::NAN).unwrap_err();
        assert!(matches!(
            err,
            SolverError::NonFinite {
                field: "residual",
                i: 2,
                j: 0
            }
        ));
        assert_eq!(err.to_string(), "non-finite residual at iteration 2");
    }

    #[test]
    fn monitor_detects_explosive_growth() {
        let mut m = ResidualMonitor::new(0);
        let mut r = 1e-2;
        let mut tripped = None;
        for iter in 0..200 {
            r *= 2.0;
            if let Err(e) = m.record(r) {
                tripped = Some((iter, e));
                break;
            }
        }
        let (iter, err) = tripped.expect("divergence not detected");
        assert!(iter < 60, "detection too slow: iter {iter}");
        assert!(matches!(err, SolverError::Diverged { .. }));
    }
}
