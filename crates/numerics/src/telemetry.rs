//! Solver telemetry and convergence observability.
//!
//! Dependency-free instrumentation threaded through every solver and hot
//! kernel in the workspace:
//!
//! - [`counters`]: the named kernel counters (Newton iterations,
//!   tridiagonal solves, chemistry substeps, rejected ODE steps, …), stored
//!   per thread in the [`crate::trace`] registry — one integer add per
//!   *solve*, not per cell, so the overhead on the solver kernels is
//!   unmeasurable.
//! - [`RunTelemetry`]: a per-run sink collecting residual convergence
//!   histories and audit findings. It reads no clock: solver phases are
//!   [`crate::trace`] spans.
//! - [`AuditFinding`]: the record type produced by the in-situ physics
//!   auditors in `aerothermo-solvers` (flux budgets, element conservation,
//!   positivity, …) and surfaced in `--report` JSON; hard failures escalate
//!   to [`SolverError::AuditFailed`].
//! - [`SolverError`]: the typed error shared by all equation-set solvers,
//!   replacing the previous bare `String` errors. `Display` output keeps
//!   the wording of the old messages (lower-level `String` diagnostics pass
//!   through [`SolverError::Numerical`] verbatim).

/// Named kernel counters incremented by the numerical kernels.
pub mod counters {
    /// Declares [`Counter`], its [`Counter::ALL`] list, its JSON names and
    /// [`N_COUNTERS`] from one list.
    macro_rules! counters {
        ($($(#[$doc:meta])* $variant:ident => $name:literal,)*) => {
            /// The fixed set of instrumented kernel events.
            #[derive(Debug, Clone, Copy, PartialEq, Eq)]
            #[repr(usize)]
            pub enum Counter {
                $($(#[$doc])* $variant,)*
            }

            /// Number of distinct counters.
            pub const N_COUNTERS: usize = [$(Counter::$variant),*].len();

            impl Counter {
                /// Every counter, in declaration order.
                pub const ALL: [Counter; N_COUNTERS] = [$(Counter::$variant),*];

                /// Stable snake_case name (used as the JSON report key).
                #[must_use]
                pub fn name(self) -> &'static str {
                    match self {
                        $(Counter::$variant => $name,)*
                    }
                }
            }
        };
    }

    counters! {
        /// Damped-Newton solves started ([`crate::newton::newton_solve`]).
        NewtonSolves => "newton_solves",
        /// Total Newton iterations across all solves.
        NewtonIterations => "newton_iterations",
        /// Scalar tridiagonal (Thomas) solves.
        TridiagSolves => "tridiag_solves",
        /// Block-tridiagonal solves.
        BlockTridiagSolves => "block_tridiag_solves",
        /// Chemistry operator-split substeps (reacting solver).
        ChemistrySubsteps => "chemistry_substeps",
        /// Accepted adaptive ODE steps (RKF45 + stiff backward Euler).
        OdeStepsAccepted => "ode_steps_accepted",
        /// Rejected (error-controlled retry) adaptive ODE steps.
        OdeStepsRejected => "ode_steps_rejected",
        /// Equilibrium-composition state evaluations.
        EquilibriumStates => "equilibrium_states",
        /// Spectrum wavelength-point evaluations (radiation).
        SpectrumPoints => "spectrum_points",
        /// Face fluxes evaluated by the face-based residual assembly.
        FacesEvaluated => "faces_evaluated",
        /// Equilibrium solves seeded from the warm-start cache.
        EquilibriumCacheHits => "equilibrium_cache_hits",
        /// Equilibrium solves with no usable cached neighbor.
        EquilibriumCacheMisses => "equilibrium_cache_misses",
        /// Newton iterations started from a cached element-potential
        /// vector instead of the cold pre-balance sweep.
        NewtonWarmStarts => "newton_warm_starts",
        /// Run-control checkpoints serialized to disk.
        CheckpointsWritten => "checkpoints_written",
        /// Run-control rollback/retry events (checkpoint restores and
        /// single-shot backoff retries).
        RunRollbacks => "run_rollbacks",
        /// Micro-batched equilibrium Newton passes (each covers 1–4 states).
        EquilibriumBatches => "equilibrium_batches",
        /// States evaluated through the micro-batched equilibrium path.
        EquilibriumBatchStates => "equilibrium_batch_states",
        /// Equilibrium batches that ran with exactly 1 lane.
        EquilibriumBatchLanes1 => "equilibrium_batch_lanes_1",
        /// Equilibrium batches that ran with exactly 2 lanes.
        EquilibriumBatchLanes2 => "equilibrium_batch_lanes_2",
        /// Equilibrium batches that ran with exactly 3 lanes.
        EquilibriumBatchLanes3 => "equilibrium_batch_lanes_3",
        /// Equilibrium batches that ran with the full 4 lanes.
        EquilibriumBatchLanes4 => "equilibrium_batch_lanes_4",
        /// Faces evaluated by the four-wide vectorized flux kernel (the
        /// remainder of [`Counter::FacesEvaluated`] went through the scalar
        /// boundary/tail path).
        FluxSimdFaces => "flux_simd_faces",
        /// Stagnation-heating queries answered by the surrogate fast path
        /// (single and batched).
        SurrogateQueries => "surrogate_queries",
        /// Surrogate response-surface tables built (each build walks the
        /// exact path over the whole grid, so a resident table should pin
        /// this at 1 while `SurrogateQueries` grows).
        SurrogateBuilds => "surrogate_builds",
        /// Stagnation-heating queries that fell back to the exact
        /// `StagnationResponse` path because the point lay outside the
        /// resident table's corridor.
        SurrogateExactFallbacks => "surrogate_exact_fallbacks",
        /// Forward-difference Jacobians assembled by the stiff integrator:
        /// one per attempted step, plus one per Newton iterate of a solve
        /// that fell back from the shared Jacobian to fresh ones (so the
        /// excess over the attempted steps shows how often that fired).
        OdeJacobians => "ode_jacobians",
        /// Equilibrium solves whose Newton iteration started from the cold
        /// pre-balance seed: warm-cache misses plus stale warm seeds that
        /// fell back to it.
        EquilibriumColdStarts => "equilibrium_cold_starts",
        /// Equilibrium solves that converged from neither the warm seed nor
        /// the cold start and returned an error.
        EquilibriumFailures => "equilibrium_failures",
        /// The part of [`Counter::EquilibriumFailures`] at or below the
        /// 60 K floor of the gas layer's temperature inversions: probes
        /// below the range where cold polyatomic mixtures (Titan N₂/CH₄)
        /// converge, not states a flow solver asked for.
        EquilibriumFloorFailures => "equilibrium_floor_failures",
        /// Direct equilibrium equation-of-state calls (`GasModel` energy,
        /// pressure or temperature) that returned their default value
        /// because the temperature inversion failed.
        EosFallbacks => "eos_fallbacks",
    }

    /// Add `n` to a counter in the calling thread's shard of the
    /// [`crate::trace`] registry (one owner-only relaxed store).
    #[inline]
    pub fn add(counter: Counter, n: u64) {
        crate::trace::add_counter(counter, n);
    }

    /// Snapshot the *calling thread's* counters (work attributed to
    /// kernels that executed on this thread since it started).
    #[must_use]
    pub fn thread_snapshot() -> CounterSnapshot {
        CounterSnapshot {
            values: crate::trace::thread_counters(),
        }
    }

    /// A point-in-time copy of all counters.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct CounterSnapshot {
        values: [u64; N_COUNTERS],
    }

    impl CounterSnapshot {
        /// Process-wide totals: the sum over every thread's shard, live
        /// or exited, since the last [`crate::trace::reset_all`].
        #[must_use]
        pub fn take() -> Self {
            Self {
                values: crate::trace::counter_totals(),
            }
        }

        /// Counters accumulated since `earlier` (saturating).
        #[must_use]
        pub fn delta_since(&self, earlier: &Self) -> Self {
            let mut values = [0u64; N_COUNTERS];
            for i in 0..N_COUNTERS {
                values[i] = self.values[i].saturating_sub(earlier.values[i]);
            }
            Self { values }
        }

        /// Value of one counter in this snapshot.
        #[must_use]
        pub fn get(&self, counter: Counter) -> u64 {
            self.values[counter as usize]
        }

        /// Iterate `(name, value)` pairs in declaration order.
        pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
            Counter::ALL
                .iter()
                .map(|&c| (c.name(), self.values[c as usize]))
        }
    }
}

pub use counters::{Counter, CounterSnapshot};

/// Thread-scoped counter window for per-run attribution.
///
/// Two solver runs executing concurrently (sweep-engine cases, parallel
/// tests) interleave their counts in the process-wide totals, so a global
/// before/after delta lies about both. A `TelemetryScope` instead deltas
/// the calling thread's own counter shard, which only ever accumulates
/// work executed on that thread.
///
/// # Attribution semantics
///
/// Counts are attributed to the thread that *executes* the instrumented
/// kernel, not the thread that requested it. Work a solver offloads to
/// rayon pool threads therefore lands on those threads' shards and is
/// **not** folded back into the calling scope. Callers that need complete
/// attribution must pin the run to the calling thread — e.g. wrap it in
/// `rayon::ThreadPoolBuilder::new().num_threads(1)...install(..)`, which
/// is exactly what the sweep engine's worker pool does: inter-case
/// parallelism comes from the pool's workers, each case runs its kernels
/// single-threaded, and every count lands in the case's scope.
///
/// Scopes on the same thread may nest (each holds its own baseline), and
/// process-wide totals and per-scope windows coexist.
#[derive(Debug, Clone)]
pub struct TelemetryScope {
    baseline: CounterSnapshot,
}

impl TelemetryScope {
    /// Open a scope: snapshot the calling thread's counters.
    #[must_use]
    pub fn begin() -> Self {
        Self {
            baseline: counters::thread_snapshot(),
        }
    }

    /// Counters accumulated *on this thread* since [`TelemetryScope::begin`].
    /// Call from the same thread that opened the scope; from any other
    /// thread the delta is against that thread's unrelated counters and is
    /// meaningless.
    #[must_use]
    pub fn thread_delta(&self) -> CounterSnapshot {
        counters::thread_snapshot().delta_since(&self.baseline)
    }
}

/// Outcome class of one physics-audit evaluation.
///
/// The auditors in `aerothermo-solvers::audit` grade every invariant check
/// into one of three bands: within tolerance, suspicious but survivable, or
/// bad enough that continuing the solve would only propagate garbage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AuditSeverity {
    /// The invariant holds within its soft tolerance.
    Pass,
    /// The invariant is violated beyond the soft tolerance but under the
    /// hard threshold — recorded and surfaced, the solve continues.
    Warn,
    /// The invariant is violated beyond the hard threshold; the solve
    /// aborts with [`SolverError::AuditFailed`].
    Fail,
}

impl AuditSeverity {
    /// Stable lowercase name (used as the JSON report value).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AuditSeverity::Pass => "pass",
            AuditSeverity::Warn => "warn",
            AuditSeverity::Fail => "fail",
        }
    }
}

/// One evaluated physics invariant: which audit ran, how badly the
/// invariant was violated, and against what threshold.
///
/// `value` is always the *violation measure* (relative imbalance, deficit
/// magnitude, …) so that `value <= threshold` ⇒ pass regardless of which
/// physical quantity the audit inspects.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditFinding {
    /// Stable audit identifier, e.g. `"mass_flux_budget"`.
    pub audit: &'static str,
    /// Graded outcome.
    pub severity: AuditSeverity,
    /// Measured violation (dimensionless unless `detail` says otherwise).
    pub value: f64,
    /// The threshold the severity was graded against: the warn threshold
    /// for `Pass`/`Warn` findings, the fail threshold for `Fail`.
    pub threshold: f64,
    /// Solver step (or station/point index) at which the audit ran.
    pub step: usize,
    /// Human-readable context: what was measured and where.
    pub detail: String,
}

impl std::fmt::Display for AuditFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {} at step {}: {:.3e} (threshold {:.3e}) — {}",
            self.severity.name(),
            self.audit,
            self.step,
            self.value,
            self.threshold,
            self.detail
        )
    }
}

/// Typed error shared by every equation-set solver and instrumented kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// The residual grew past the divergence threshold; the run was cut
    /// short instead of spinning to the iteration cap.
    Diverged {
        /// Iteration at which divergence was detected.
        iter: usize,
        /// Residual value at detection.
        residual: f64,
    },
    /// A NaN/Inf appeared in the named field at cell `(i, j)` (for
    /// residual-level detection without a cell, `i` is the iteration and
    /// `j` is 0).
    NonFinite {
        /// Field or quantity that went non-finite.
        field: &'static str,
        /// First affected i-index (or iteration).
        i: usize,
        /// First affected j-index.
        j: usize,
    },
    /// An iteration budget ran out without meeting the tolerance.
    IterationLimit {
        /// What was iterating (e.g. "VSL standoff iteration").
        context: String,
        /// The budget that was exhausted.
        iters: usize,
        /// Residual when the budget ran out (NaN if unknown).
        residual: f64,
    },
    /// A physics audit measured an invariant violation past its hard
    /// threshold (mass leaking from the domain, negative temperatures, …).
    AuditFailed {
        /// Stable audit identifier, e.g. `"mass_flux_budget"`.
        audit: String,
        /// Measured violation.
        value: f64,
        /// Hard threshold that was exceeded.
        threshold: f64,
    },
    /// The problem specification itself is invalid.
    BadInput(String),
    /// A lower-level numerical routine failed; the message is preserved
    /// verbatim (this is the compatibility path for the old `String`
    /// errors).
    Numerical(String),
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::Diverged { iter, residual } => {
                write!(
                    f,
                    "solver diverged at iteration {iter} (residual {residual:.3e})"
                )
            }
            SolverError::NonFinite { field, i, j } => {
                if *field == "residual" && *j == 0 {
                    // Residual-level detection has no cell: `i` is the
                    // iteration index, and printing it as a coordinate pair
                    // misleads whoever reads the log.
                    write!(f, "non-finite residual at iteration {i}")
                } else {
                    write!(f, "non-finite {field} at ({i}, {j})")
                }
            }
            SolverError::AuditFailed {
                audit,
                value,
                threshold,
            } => {
                write!(
                    f,
                    "physics audit '{audit}' failed: {value:.3e} exceeds hard threshold {threshold:.3e}"
                )
            }
            SolverError::IterationLimit {
                context,
                iters,
                residual,
            } => {
                if residual.is_finite() {
                    write!(f, "{context} did not converge in {iters} iterations (residual {residual:.3e})")
                } else {
                    write!(f, "{context} did not converge in {iters} iterations")
                }
            }
            SolverError::BadInput(msg) | SolverError::Numerical(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for SolverError {}

impl From<String> for SolverError {
    fn from(msg: String) -> Self {
        SolverError::Numerical(msg)
    }
}

impl From<&str> for SolverError {
    fn from(msg: &str) -> Self {
        SolverError::Numerical(msg.to_string())
    }
}

/// Per-run telemetry sink: residual histories, audit findings, and the
/// reference residual convergence is measured against.
#[derive(Debug, Clone)]
pub struct RunTelemetry {
    histories: Vec<(String, Vec<f64>)>,
    audits: Vec<AuditFinding>,
    reference_residual: f64,
}

impl RunTelemetry {
    /// An empty telemetry sink.
    #[must_use]
    pub fn new() -> Self {
        Self {
            histories: Vec::new(),
            audits: Vec::new(),
            reference_residual: f64::NAN,
        }
    }

    /// Attach a residual convergence history (replaces an existing history
    /// of the same name — reruns overwrite, they don't append).
    pub fn record_history(&mut self, name: &str, history: Vec<f64>) {
        if let Some(h) = self.histories.iter_mut().find(|(n, _)| n == name) {
            h.1 = history;
        } else {
            self.histories.push((name.to_string(), history));
        }
    }

    /// Record a physics-audit finding (appends; a run accumulates findings
    /// across its audit cadence).
    pub fn record_audit(&mut self, finding: AuditFinding) {
        self.audits.push(finding);
    }

    /// Recorded audit findings, in the order the auditors produced them.
    #[must_use]
    pub fn audits(&self) -> &[AuditFinding] {
        &self.audits
    }

    /// Worst severity among recorded audit findings (`None` when no audit
    /// has run).
    #[must_use]
    pub fn worst_audit_severity(&self) -> Option<AuditSeverity> {
        self.audits.iter().map(|a| a.severity).max()
    }

    /// Recorded `(name, residuals)` histories.
    #[must_use]
    pub fn histories(&self) -> &[(String, Vec<f64>)] {
        &self.histories
    }

    /// The residual a run's convergence ratio is taken against; NaN until
    /// a run controller has captured it. It lives here, with the solver,
    /// so a later run of the same solver measures against the same value.
    #[must_use]
    pub fn reference_residual(&self) -> f64 {
        self.reference_residual
    }

    /// Record the reference residual (see [`Self::reference_residual`]).
    pub fn set_reference_residual(&mut self, reference: f64) {
        self.reference_residual = reference;
    }
}

impl Default for RunTelemetry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_deltas() {
        let before = CounterSnapshot::take();
        counters::add(Counter::TridiagSolves, 3);
        counters::add(Counter::NewtonIterations, 7);
        let delta = CounterSnapshot::take().delta_since(&before);
        assert!(delta.get(Counter::TridiagSolves) >= 3);
        assert!(delta.get(Counter::NewtonIterations) >= 7);
        assert_eq!(delta.iter().count(), counters::N_COUNTERS);
    }

    #[test]
    fn telemetry_scope_counts_only_this_thread() {
        // Two threads, each with its own scope and a distinct add pattern:
        // each scope must see exactly its own thread's counts no matter
        // how the adds interleave — the property a global total cannot
        // provide and the sweep engine's per-case attribution relies on.
        let handles: Vec<_> = (1..=2u64)
            .map(|k| {
                std::thread::spawn(move || {
                    let scope = TelemetryScope::begin();
                    for _ in 0..10 * k {
                        counters::add(Counter::ChemistrySubsteps, 1);
                    }
                    counters::add(Counter::SpectrumPoints, 100 * k);
                    scope.thread_delta()
                })
            })
            .collect();
        let deltas: Vec<CounterSnapshot> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (k, delta) in (1..=2u64).zip(&deltas) {
            assert_eq!(delta.get(Counter::ChemistrySubsteps), 10 * k);
            assert_eq!(delta.get(Counter::SpectrumPoints), 100 * k);
            assert_eq!(delta.get(Counter::NewtonSolves), 0);
        }
    }

    #[test]
    fn telemetry_scopes_nest_on_one_thread() {
        std::thread::spawn(|| {
            let outer = TelemetryScope::begin();
            counters::add(Counter::TridiagSolves, 2);
            let inner = TelemetryScope::begin();
            counters::add(Counter::TridiagSolves, 5);
            assert_eq!(inner.thread_delta().get(Counter::TridiagSolves), 5);
            assert_eq!(outer.thread_delta().get(Counter::TridiagSolves), 7);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn solver_error_display_preserves_strings() {
        let e: SolverError = String::from("freestream state: bad T").into();
        assert_eq!(e.to_string(), "freestream state: bad T");
        let d = SolverError::Diverged {
            iter: 42,
            residual: 3.0e9,
        };
        assert!(d.to_string().contains("iteration 42"));
        let nf = SolverError::NonFinite {
            field: "rho",
            i: 3,
            j: 9,
        };
        assert_eq!(nf.to_string(), "non-finite rho at (3, 9)");
    }

    #[test]
    fn nonfinite_residual_display_names_the_iteration() {
        // Residual-level NaN detection stores the iteration in `i`; the
        // message must say so rather than printing a bogus cell pair.
        let err = SolverError::NonFinite {
            field: "residual",
            i: 2,
            j: 0,
        };
        assert_eq!(err.to_string(), "non-finite residual at iteration 2");
    }

    #[test]
    fn audit_failed_display_carries_measurement() {
        let e = SolverError::AuditFailed {
            audit: "mass_flux_budget".to_string(),
            value: 0.5,
            threshold: 0.1,
        };
        let msg = e.to_string();
        assert!(msg.contains("mass_flux_budget"), "{msg}");
        assert!(msg.contains("5.000e-1"), "{msg}");
        assert!(msg.contains("1.000e-1"), "{msg}");
    }

    #[test]
    fn telemetry_accumulates_audit_findings() {
        let mut t = RunTelemetry::new();
        assert_eq!(t.worst_audit_severity(), None);
        t.record_audit(AuditFinding {
            audit: "positivity",
            severity: AuditSeverity::Pass,
            value: 0.0,
            threshold: 0.0,
            step: 10,
            detail: "all densities positive".to_string(),
        });
        t.record_audit(AuditFinding {
            audit: "mass_flux_budget",
            severity: AuditSeverity::Warn,
            value: 3e-3,
            threshold: 1e-3,
            step: 10,
            detail: "net/gross mass imbalance".to_string(),
        });
        assert_eq!(t.audits().len(), 2);
        assert_eq!(t.worst_audit_severity(), Some(AuditSeverity::Warn));
        let shown = t.audits()[1].to_string();
        assert!(shown.contains("[warn]"), "{shown}");
        assert!(shown.contains("mass_flux_budget"), "{shown}");
    }

    #[test]
    fn telemetry_records_histories() {
        let mut t = RunTelemetry::new();
        t.record_history("res", vec![1.0, 0.5]);
        t.record_history("res", vec![1.0, 0.5, 0.25]);
        assert_eq!(t.histories().len(), 1);
        assert_eq!(t.histories()[0].1.len(), 3);
    }
}
