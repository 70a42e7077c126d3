//! Figure-regeneration harness for the paper's evaluation.
//!
//! One binary per figure of Deiwert & Green (NASA TM-89450); each prints
//! the figure's series as an aligned table (pass `--csv` for CSV) plus the
//! qualitative checks the reproduction asserts. The experiment index lives
//! in `DESIGN.md`; measured-vs-paper notes in `EXPERIMENTS.md`.
//!
//! Shared helpers: CLI parsing and standard flow conditions used by several
//! figures.
#![warn(missing_docs)]
// Indexed loops over parallel arrays are the clearest idiom for the
// numerical kernels here; spelled-out spectroscopic constants keep their
// literature precision.
#![allow(
    clippy::needless_range_loop,
    clippy::excessive_precision,
    clippy::type_complexity
)]

use aerothermo_core::tables::Table;
use aerothermo_numerics::report::RunReport;
use aerothermo_numerics::telemetry::{CounterSnapshot, RunTelemetry};
use aerothermo_numerics::trace;
use aerothermo_solvers::runctl::{RunOptions, RunOutcome};
use std::time::Instant;

pub mod cli;

pub use aerothermo_numerics::json;
pub use cli::{
    audit_cadence, checkpoint_every, checkpoint_file, halt_after, inject_nan_at, max_retries,
    output_mode, report_path, restart_path, trace_path, OutputMode,
};

/// Exit code for a deliberate `--halt-after` stop, distinguishable from
/// success (0) and panics (101) so CI can assert the drill actually halted.
pub const HALT_EXIT_CODE: i32 = 3;

/// Say on stderr how a controlled run that was not halted ended: converged,
/// or stopped at its step cap (with the final ratio and the tolerance).
/// A halted run exits through [`exit_if_halted`] first.
pub fn log_run_outcome(label: &str, outcome: &RunOutcome, run_opts: &RunOptions) {
    let (ratio, retries) = (outcome.ratio, outcome.retries);
    if outcome.converged {
        eprintln!(
            "# {label}: converged in {} steps (residual ratio {ratio:.2e}, {retries} rollbacks)",
            outcome.units
        );
    } else {
        eprintln!(
            "# {label}: not converged: stopped at the {}-step cap (residual ratio {ratio:.2e}, tolerance {:.0e}, {retries} rollbacks)",
            run_opts.max_units, run_opts.tol
        );
    }
}

/// Assemble [`RunOptions`] from the shared run-control flags plus the
/// figure's loop parameters (`max_units` and the convergence tolerance;
/// the reference unit comes from the solver).
#[must_use]
pub fn run_options(figure: &str, max_units: usize, tol: f64) -> RunOptions {
    let mut opts = RunOptions {
        max_units,
        tol,
        max_retries: max_retries(),
        ..Default::default()
    };
    if let Some(every) = checkpoint_every() {
        opts.checkpoint_every = every;
        opts.checkpoint_path = Some(checkpoint_file(figure).into());
    }
    opts.restart_from = restart_path().map(Into::into);
    opts.inject_nan_at = inject_nan_at();
    opts.halt_after = halt_after();
    // Arm the flight-recorder black box in every figure binary: the dump
    // is only written when a run dies or --inject-nan fires, so a clean
    // run never creates the file.
    opts.blackbox_path = Some(cli::blackbox_file(figure).into());
    opts
}

/// Machine-readable run summary for a figure binary.
///
/// Collects qualitative-check verdicts, named scalar metrics, kernel
/// counter deltas, span timings, and residual histories; `finish`
/// writes them as JSON when `--report[=PATH]` was passed (CI parses and
/// gates on this file).
pub struct Report {
    started: Instant,
    counters_at_start: CounterSnapshot,
    /// All but the wall time, counters and timings `to_json` reads.
    body: RunReport,
}

impl Report {
    /// Start a report scope for the named figure (snapshots the
    /// process-wide kernel counters). Honors the shared observability
    /// flags: `--trace` keeps the span timeline and `--audit` arms the
    /// in-situ physics audits at the requested cadence, so every figure
    /// binary inherits both without per-binary wiring.
    #[must_use]
    pub fn new(figure: &str) -> Self {
        if trace_path().is_some() {
            trace::enable_timeline();
        }
        if let Some(every) = audit_cadence() {
            aerothermo_solvers::audit::enable(every);
        }
        Self {
            started: Instant::now(),
            counters_at_start: CounterSnapshot::take(),
            body: RunReport {
                figure: figure.to_string(),
                ..RunReport::default()
            },
        }
    }

    /// Record a qualitative check; returns `passed` so the caller can keep
    /// its hard `assert!(report.check(..))` behavior.
    pub fn check(&mut self, name: &str, passed: bool, detail: impl Into<String>) -> bool {
        self.body
            .checks
            .push((name.to_string(), passed, detail.into()));
        passed
    }

    /// Record a named scalar metric.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.body.metrics.push((name.to_string(), value));
    }

    /// Fold a solver's [`RunTelemetry`] into the report: its residual
    /// histories, prefixed with `label`, and its audit findings.
    pub fn absorb_telemetry(&mut self, label: &str, telemetry: &RunTelemetry) {
        for (name, hist) in telemetry.histories() {
            self.body
                .histories
                .push((format!("{label}.{name}"), hist.clone()));
        }
        for finding in telemetry.audits() {
            self.body.audits.push((label.to_string(), finding.clone()));
        }
    }

    /// Fold a controlled run's outcome into the report: progress units, the
    /// retry count (every retry is one rollback), and the final CFL (backoff
    /// scale × nominal) — the resilience metrics CI gates on.
    pub fn record_run_outcome(&mut self, label: &str, outcome: &RunOutcome, nominal_cfl: f64) {
        self.metric(&format!("{label}.run_units"), outcome.units as f64);
        self.metric(&format!("{label}.retries"), outcome.retries as f64);
        self.metric(&format!("{label}.final_cfl_scale"), outcome.final_cfl_scale);
        self.metric(
            &format!("{label}.final_cfl"),
            outcome.final_cfl_scale * nominal_cfl,
        );
    }

    /// Absorbed audit findings counted as pass, warn and fail.
    fn audit_counts(&self) -> [usize; 3] {
        let mut n = [0; 3];
        for (_, f) in &self.body.audits {
            n[f.severity as usize] += 1;
        }
        n
    }

    /// Number of absorbed audit findings at `Fail` severity.
    #[must_use]
    pub fn hard_audit_failures(&self) -> usize {
        self.audit_counts()[2]
    }

    /// True when every recorded check passed and no absorbed audit finding
    /// reached `Fail` severity.
    #[must_use]
    pub fn all_green(&self) -> bool {
        self.body.checks.iter().all(|(_, ok, _)| *ok) && self.hard_audit_failures() == 0
    }

    /// Serialize to JSON (counters are deltas since the report started).
    #[must_use]
    pub fn to_json(&self) -> String {
        let counters = CounterSnapshot::take().delta_since(&self.counters_at_start);
        RunReport {
            elapsed_secs: self.started.elapsed().as_secs_f64(),
            all_green: self.all_green(),
            counters: counters.iter().collect(),
            timings: trace::stats(),
            audit_summary: self.audit_counts(),
            ..self.body.clone()
        }
        .to_json()
    }

    /// Write the JSON report when `--report[=PATH]` was passed and the
    /// Chrome trace-event profile when `--trace[=PATH]` was passed; always
    /// a no-op otherwise. Returns [`Report::all_green`].
    ///
    /// # Panics
    /// Panics when the report or trace file cannot be written (CI must
    /// fail loudly, not silently skip its gate).
    pub fn finish(&self) -> bool {
        if let Some(path) = report_path() {
            std::fs::write(&path, self.to_json())
                .unwrap_or_else(|e| panic!("cannot write report {path}: {e}"));
            eprintln!("# run report written to {path}");
        }
        if let Some(path) = trace_path() {
            std::fs::write(&path, trace::chrome_trace_json())
                .unwrap_or_else(|e| panic!("cannot write trace {path}: {e}"));
            eprintln!("# chrome trace written to {path} (load in Perfetto / chrome://tracing)");
        }
        self.all_green()
    }
}

/// Terminate the binary with [`HALT_EXIT_CODE`] when the controlled run
/// stopped at `--halt-after`, writing the report/trace first so the resume
/// drill has the restart file *and* a parseable partial report.
pub fn exit_if_halted(outcome: &RunOutcome, report: &Report) {
    if outcome.halted {
        eprintln!(
            "# halted after {} units (--halt-after); resume with --restart",
            outcome.units
        );
        report.finish();
        std::process::exit(HALT_EXIT_CODE);
    }
}

/// Print a table in the selected mode with a heading.
pub fn emit(title: &str, table: &Table, mode: OutputMode) {
    match mode {
        OutputMode::Text => {
            println!("\n== {title} ==");
            println!("{}", table.to_text());
        }
        OutputMode::Csv => {
            println!("# {title}");
            println!("{}", table.to_csv());
        }
    }
}

/// The paper's Fig. 4 flight condition: Shuttle Orbiter at V∞ = 6.7 km/s,
/// h = 65.5 km (US76), returned as `(rho, v, p, T)`.
#[must_use]
pub fn orbiter_fig4_condition() -> (f64, f64, f64, f64) {
    use aerothermo_atmosphere::us76::Us76;
    use aerothermo_atmosphere::Atmosphere;
    let atm = Us76;
    let h = 65_500.0;
    (atm.density(h), 6_700.0, atm.pressure(h), atm.temperature(h))
}

/// The paper's Fig. 6 flight condition: STS-3 at V∞ = 6.74 km/s,
/// h = 71.3 km, α = 40°; returned as `(rho, v, p, T)`.
#[must_use]
pub fn sts3_fig6_condition() -> (f64, f64, f64, f64) {
    use aerothermo_atmosphere::us76::Us76;
    use aerothermo_atmosphere::Atmosphere;
    let atm = Us76;
    let h = 71_300.0;
    (atm.density(h), 6_740.0, atm.pressure(h), atm.temperature(h))
}

/// The paper's Fig. 7/8 shock-tube condition: V = 10 km/s into 0.1 torr
/// air at 300 K; returned as `(u1, t1, p1)`.
#[must_use]
pub fn shock_tube_fig7_condition() -> (f64, f64, f64) {
    (10_000.0, 300.0, 0.1 * aerothermo_numerics::constants::TORR)
}

/// Equivalent axisymmetric body for the Orbiter windward pitch plane at
/// entry attitude: a hyperboloid with the Orbiter effective nose radius and
/// an asymptotic half-angle close to the body angle-of-attack (the standard
/// reduction of the era; see DESIGN.md §2).
#[must_use]
pub fn orbiter_equivalent_body(alpha_deg: f64) -> aerothermo_grid::bodies::Hyperboloid {
    // Effective nose radius ~1.3 m; asymptote slightly below α.
    aerothermo_grid::bodies::Hyperboloid::new(1.3, (alpha_deg - 5.0).to_radians(), 25.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conditions_sane() {
        let (rho, v, p, t) = orbiter_fig4_condition();
        assert!(rho > 1e-5 && rho < 1e-3);
        assert!(v == 6700.0 && p > 1.0 && t > 150.0);
        let (rho6, ..) = sts3_fig6_condition();
        assert!(rho6 < rho, "71.3 km is thinner than 65.5 km");
        let (u1, t1, p1) = shock_tube_fig7_condition();
        assert!(u1 == 10_000.0 && t1 == 300.0 && (p1 - 13.33).abs() < 0.1);
    }

    #[test]
    fn report_json_well_formed() {
        let mut r = Report::new("test_fig");
        r.metric("peak", 1.5e6);
        r.metric("bad", f64::NAN);
        assert!(r.check("positive", true, "peak = 1.5e6"));
        assert!(!r.check("quoted \"name\"", false, "line\nbreak"));
        r.body
            .histories
            .push(("res".to_string(), vec![1.0, 0.5, f64::INFINITY]));
        trace::spanned("report_test_kernel", || std::hint::black_box(1));
        let json = r.to_json();
        assert!(json.contains("\"figure\": \"test_fig\""));
        assert!(json.contains("\"timings\""));
        assert!(json.contains("\"p50_ns\""));
        assert!(json.contains("\"all_green\": false"));
        assert!(json.contains("\"bad\": null"));
        assert!(json.contains("\\\"name\\\""));
        assert!(json.contains("\\n"));
        assert!(json.contains("[1, 0.5, null]"));
        assert!(json.contains("\"newton_solves\""));
        // The whole report must parse with the workspace JSON reader.
        let doc = json::parse(&json).expect("report JSON parses");
        assert_eq!(
            doc.get("figure").and_then(json::Value::as_str),
            Some("test_fig")
        );
        assert_eq!(doc.get("all_green"), Some(&json::Value::Bool(false)));
    }

    #[test]
    fn report_history_summary_null_best_roundtrips() {
        // A history that never recorded a finite residual must surface
        // `best: null` (not 0, not +inf).
        let mut r = Report::new("test_fig");
        let mut t = RunTelemetry::new();
        t.record_history("never_finite", vec![f64::NAN, f64::INFINITY]);
        t.record_history("empty", Vec::new());
        t.record_history("ok", vec![3.0, 1.0, 2.0]);
        r.absorb_telemetry("solver", &t);
        let doc = json::parse(&r.to_json()).unwrap();
        let summaries = doc.get("history_summaries").unwrap();
        let nf = summaries.get("solver.never_finite").unwrap();
        assert!(nf.get("best").unwrap().is_null());
        assert!(nf.get("last").unwrap().is_null());
        assert_eq!(nf.get("len").and_then(json::Value::as_f64), Some(2.0));
        let empty = summaries.get("solver.empty").unwrap();
        assert!(empty.get("best").unwrap().is_null());
        let ok = summaries.get("solver.ok").unwrap();
        assert_eq!(ok.get("best").and_then(json::Value::as_f64), Some(1.0));
        assert_eq!(ok.get("last").and_then(json::Value::as_f64), Some(2.0));
    }

    #[test]
    fn report_surfaces_audit_findings() {
        use aerothermo_numerics::telemetry::{AuditFinding, AuditSeverity};
        let mut r = Report::new("test_fig");
        let mut t = RunTelemetry::new();
        t.record_audit(AuditFinding {
            audit: "mass_flux_budget",
            severity: AuditSeverity::Warn,
            value: 1e-2,
            threshold: 5e-3,
            step: 40,
            detail: "net/gross during transient".to_string(),
        });
        r.absorb_telemetry("euler", &t);
        assert!(r.all_green(), "warn findings must not flip the gate");
        t.record_audit(AuditFinding {
            audit: "density_positivity",
            severity: AuditSeverity::Fail,
            value: 1.0,
            threshold: 0.0,
            step: 41,
            detail: "rho < 0 at (3, 4)".to_string(),
        });
        let mut r2 = Report::new("test_fig");
        r2.absorb_telemetry("euler", &t);
        assert_eq!(r2.hard_audit_failures(), 1);
        assert!(!r2.all_green(), "a Fail audit must flip the gate");
        let doc = json::parse(&r2.to_json()).unwrap();
        assert_eq!(doc.get("all_green"), Some(&json::Value::Bool(false)));
        let audits = doc.get("audits").unwrap().as_array().unwrap();
        assert_eq!(audits.len(), 2);
        assert_eq!(
            audits[1].get("severity").and_then(json::Value::as_str),
            Some("fail")
        );
        let summary = doc.get("audit_summary").unwrap();
        assert_eq!(summary.get("warn").and_then(json::Value::as_f64), Some(1.0));
        assert_eq!(summary.get("fail").and_then(json::Value::as_f64), Some(1.0));
    }

    #[test]
    fn equivalent_body_shape() {
        use aerothermo_grid::bodies::Body;
        let b = orbiter_equivalent_body(40.0);
        assert!((b.nose_radius() - 1.3).abs() < 1e-12);
        let angle = b.body_angle(b.arc_length() * 0.99).to_degrees();
        assert!(angle > 25.0 && angle < 40.0, "asymptote {angle}");
    }
}
