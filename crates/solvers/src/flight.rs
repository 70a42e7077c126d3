//! Solver flight recorder: a fixed-capacity ring of per-step records
//! dumped as a post-mortem JSON "black box" when a run dies.
//!
//! [`crate::runctl::run_controlled`] feeds one [`StepRecord`] per advance
//! attempt into a [`FlightRecorder`]; when a
//! [`SolverError`](aerothermo_numerics::telemetry::SolverError) escapes
//! the retry budget — or a `--inject-nan` drill fires — the recorder's
//! last-N window becomes a [`PostMortem`]: exactly the context a
//! post-incident triage needs (what the residual and CFL were doing, when
//! rollbacks happened, whether the equilibrium cache was still hitting,
//! what the audits said) without logging every step of a healthy run.
//!
//! The dump is plain JSON (`schema: aerothermo-blackbox-v1`) so the sweep
//! engine can attach it to failed case records and CI can upload it as an
//! artifact.

use aerothermo_numerics::json::{self, Layout, Object};
use aerothermo_numerics::telemetry::{counters, AuditSeverity, Counter};
use std::collections::VecDeque;
use std::path::Path;

/// Default ring capacity: enough history to see the divergence build and
/// the rollbacks that failed to contain it, small enough to embed in a
/// sweep case record.
pub const DEFAULT_CAPACITY: usize = 64;

/// What happened on one advance attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum StepEvent {
    /// A clean step.
    Advance,
    /// A checkpoint was written after this step.
    Checkpoint,
    /// The fault-injection drill poisoned the state after this step.
    Inject,
    /// The step failed and the controller rolled back (retry `retry`),
    /// with the solver error's display text.
    Rollback {
        /// Retry index consumed by this rollback (1-based).
        retry: usize,
        /// Display text of the error that triggered the rollback.
        error: String,
    },
    /// The step failed terminally (budget exhausted or unrecoverable).
    Fatal {
        /// Display text of the escaping error.
        error: String,
    },
}

impl StepEvent {
    /// Stable snake_case tag used in the dump JSON.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            StepEvent::Advance => "advance",
            StepEvent::Checkpoint => "checkpoint",
            StepEvent::Inject => "inject",
            StepEvent::Rollback { .. } => "rollback",
            StepEvent::Fatal { .. } => "fatal",
        }
    }
}

/// One per-step record in the flight-recorder ring.
#[derive(Debug, Clone, PartialEq)]
pub struct StepRecord {
    /// Progress units completed when the record was taken.
    pub unit: usize,
    /// Residual returned by the step (NaN for failed steps).
    pub residual: f64,
    /// CFL scale the step ran at.
    pub cfl_scale: f64,
    /// What happened.
    pub event: StepEvent,
    /// Equilibrium-cache hits attributed to this step (thread-local delta).
    pub cache_hits: u64,
    /// Equilibrium-cache misses attributed to this step.
    pub cache_misses: u64,
    /// Cumulative audit findings on the solver's telemetry after this step.
    pub audit_findings: usize,
    /// Worst audit severity seen so far, if any audit has fired.
    pub audit_worst: Option<AuditSeverity>,
}

impl StepRecord {
    fn write_json(&self, o: &mut Object<'_>) {
        o.put("unit", self.unit).put("residual", self.residual);
        o.put("cfl_scale", self.cfl_scale);
        o.put("event", self.event.tag());
        match &self.event {
            StepEvent::Rollback { retry, error } => {
                o.put("retry", retry).put("error", error);
            }
            StepEvent::Fatal { error } => {
                o.put("error", error);
            }
            _ => {}
        }
        if self.cache_hits != 0 || self.cache_misses != 0 {
            o.put("cache_hits", self.cache_hits);
            o.put("cache_misses", self.cache_misses);
        }
        if self.audit_findings != 0 {
            o.put("audit_findings", self.audit_findings);
        }
        o.put_some("audit_worst", self.audit_worst.map(AuditSeverity::name));
    }
}

/// Fixed-capacity ring of the last N [`StepRecord`]s.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    ring: VecDeque<StepRecord>,
    /// Counter baseline for per-step cache-delta attribution.
    hits0: u64,
    misses0: u64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity.max(1)` records.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            ring: VecDeque::with_capacity(capacity),
            hits0: 0,
            misses0: 0,
        }
    }

    /// Capacity of the ring.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Snapshot the calling thread's cache counters as the baseline for
    /// the next [`FlightRecorder::record`] call's deltas.
    pub fn mark_step_start(&mut self) {
        let snap = counters::thread_snapshot();
        self.hits0 = snap.get(Counter::EquilibriumCacheHits);
        self.misses0 = snap.get(Counter::EquilibriumCacheMisses);
    }

    /// Push a record, evicting the oldest when full. Cache-hit/miss deltas
    /// since [`FlightRecorder::mark_step_start`] are filled in here.
    pub fn record(
        &mut self,
        unit: usize,
        residual: f64,
        cfl_scale: f64,
        event: StepEvent,
        audit_findings: usize,
        audit_worst: Option<AuditSeverity>,
    ) {
        let snap = counters::thread_snapshot();
        let rec = StepRecord {
            unit,
            residual,
            cfl_scale,
            event,
            cache_hits: snap
                .get(Counter::EquilibriumCacheHits)
                .saturating_sub(self.hits0),
            cache_misses: snap
                .get(Counter::EquilibriumCacheMisses)
                .saturating_sub(self.misses0),
            audit_findings,
            audit_worst,
        };
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(rec);
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &StepRecord> {
        self.ring.iter()
    }

    /// Number of retained records (≤ capacity).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Freeze the ring into a [`PostMortem`].
    #[must_use]
    pub fn post_mortem(
        &self,
        tag: &str,
        trigger: Trigger,
        error: Option<String>,
        failing_unit: usize,
        retries: usize,
        final_cfl_scale: f64,
    ) -> PostMortem {
        PostMortem {
            tag: tag.to_string(),
            trigger,
            error,
            failing_unit,
            retries,
            final_cfl_scale,
            capacity: self.capacity,
            records: self.ring.iter().cloned().collect(),
        }
    }
}

/// Why a post-mortem was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// A [`SolverError`](aerothermo_numerics::telemetry::SolverError)
    /// escaped the retry budget (the run died).
    SolverError,
    /// A `--inject-nan` drill fired; the run may well have recovered, but
    /// the black box is dumped anyway so the drill's forensics are
    /// inspectable (and CI can gate on them).
    NanInjection,
}

impl Trigger {
    /// Stable snake_case tag used in the dump JSON.
    #[must_use]
    pub const fn tag(self) -> &'static str {
        match self {
            Trigger::SolverError => "solver_error",
            Trigger::NanInjection => "nan_injection",
        }
    }
}

/// The frozen black box: identity, the terminal error (if any), and the
/// last-N step records.
#[derive(Debug, Clone)]
pub struct PostMortem {
    /// Solver tag (`RunMeta::tag`) that produced the dump.
    pub tag: String,
    /// What triggered the dump.
    pub trigger: Trigger,
    /// Display text of the escaping error (`None` for a recovered
    /// injection drill).
    pub error: Option<String>,
    /// Progress units completed when the run ended (the failing step for
    /// a terminal error).
    pub failing_unit: usize,
    /// Retries consumed.
    pub retries: usize,
    /// CFL scale at the end.
    pub final_cfl_scale: f64,
    /// Ring capacity the recorder ran with.
    pub capacity: usize,
    /// The retained records, oldest first.
    pub records: Vec<StepRecord>,
}

impl PostMortem {
    /// Serialize as the `aerothermo-blackbox-v1` JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        json::write_object(Layout::Inline, |o| {
            o.put("schema", "aerothermo-blackbox-v1");
            o.put("tag", &self.tag).put("trigger", self.trigger.tag());
            o.put("error", self.error.as_deref());
            o.put("failing_unit", self.failing_unit);
            o.put("retries", self.retries);
            o.put("final_cfl_scale", self.final_cfl_scale);
            o.put("capacity", self.capacity);
            o.array("records", Layout::Inline, |a| {
                for r in &self.records {
                    a.object(|o| r.write_json(o));
                }
            });
        })
    }

    /// Write the dump to `path` (creating parent directories is the
    /// caller's job; a dump must never mask the original solver error, so
    /// IO failures are reported, not propagated).
    pub fn write(&self, path: &Path) {
        if let Err(e) = std::fs::write(path, self.to_json()) {
            eprintln!("warning: failed to write black box {}: {e}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn advance(unit: usize) -> StepRecord {
        StepRecord {
            unit,
            residual: 1.0 / unit as f64,
            cfl_scale: 1.0,
            event: StepEvent::Advance,
            cache_hits: 0,
            cache_misses: 0,
            audit_findings: 0,
            audit_worst: None,
        }
    }

    #[test]
    fn ring_keeps_exactly_last_n() {
        let mut fr = FlightRecorder::new(8);
        for unit in 1..=20 {
            let r = advance(unit);
            fr.record(r.unit, r.residual, r.cfl_scale, r.event, 0, None);
        }
        assert_eq!(fr.len(), 8);
        let units: Vec<usize> = fr.records().map(|r| r.unit).collect();
        assert_eq!(units, (13..=20).collect::<Vec<_>>());
    }

    #[test]
    fn post_mortem_json_is_parseable_and_complete() {
        let mut fr = FlightRecorder::new(4);
        for unit in 1..=3 {
            let r = advance(unit);
            fr.record(r.unit, r.residual, r.cfl_scale, r.event, 0, None);
        }
        fr.record(
            3,
            f64::NAN,
            0.5,
            StepEvent::Rollback {
                retry: 1,
                error: "non-finite rho at (2, 3)".into(),
            },
            1,
            Some(AuditSeverity::Fail),
        );
        let pm = fr.post_mortem(
            "euler2d",
            Trigger::SolverError,
            Some("non-finite rho at (2, 3)".into()),
            3,
            1,
            0.5,
        );
        let json = pm.to_json();
        let v = aerothermo_numerics::json::parse(&json).expect("black box parses");
        assert_eq!(
            v.get("schema").unwrap().as_str().unwrap(),
            "aerothermo-blackbox-v1"
        );
        assert_eq!(v.get("failing_unit").unwrap().as_f64().unwrap(), 3.0);
        let recs = v.get("records").unwrap().as_array().unwrap();
        assert_eq!(recs.len(), 4);
        let last = &recs[3];
        assert_eq!(last.get("event").unwrap().as_str().unwrap(), "rollback");
        assert!(last.get("residual").unwrap().is_null()); // NaN -> null
        assert_eq!(last.get("audit_worst").unwrap().as_str().unwrap(), "fail");
    }
}
