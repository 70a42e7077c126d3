//! The sweep scheduler: a bounded pool of worker threads pulling cases
//! from a priority-ordered queue, with per-case fault isolation (panics
//! become [`CaseStatus::Failed`] records), per-case wall-clock timeouts,
//! and crash-safe incremental recording through [`crate::store`].

use crate::events::EventSink;
use crate::plan::SweepPlan;
pub use crate::report::SweepReport;
use crate::runner::run_case;
use crate::spec::CaseSpec;
use crate::store::{completed_ids, load_records, JsonlWriter};
pub use crate::store::{CaseOutcome, CaseStatus};
use aerothermo_gas::reset_thread_warm_cache;
use aerothermo_numerics::telemetry::{SolverError, TelemetryScope};
use aerothermo_numerics::trace::{self, set_gauge, Gauge};
use aerothermo_solvers::audit;
use rayon::ThreadPoolBuilder;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Observer invoked (from the recording worker's thread) after each case
/// record lands in the store and the in-memory outcome list — the
/// progress-subscription hook a job server uses to track live sweep
/// progress without polling the store file.
pub type RecordHook = Arc<dyn Fn(&CaseOutcome) + Send + Sync>;

/// Lock a pool-internal mutex, recovering from poisoning. The protected
/// state is a plain `VecDeque`/`Vec`/writer with no invariants spanning
/// the critical section, so a panic on another worker mid-lock (the thing
/// that poisons) leaves it fully usable — propagating the poison instead
/// would cascade one bad case into killing the whole sweep, defeating the
/// per-case `catch_unwind` isolation.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How the queue is ordered before workers start pulling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScheduleOrder {
    /// Longest cases first (by [`CaseSpec::cost_estimate`] descending,
    /// plan order as the tiebreak): Graham's longest-processing-time list
    /// schedule, whose makespan is within 4/3 of optimal. The expensive
    /// CFD cases start at once and the cheap ones fill the idle workers
    /// at the end, instead of one worker finishing the plan alone.
    #[default]
    LongestFirst,
    /// Exactly the plan's order.
    PlanOrder,
}

/// Sweep execution policy.
#[derive(Clone)]
pub struct SweepOptions {
    /// Worker threads (cases in flight at once). Clamped to ≥ 1.
    pub workers: usize,
    /// Queue ordering.
    pub order: ScheduleOrder,
    /// JSONL result-store path; `None` keeps results in memory only.
    pub store_path: Option<String>,
    /// Skip cases already completed in an existing store at `store_path`
    /// (their prior records enter the report as [`CaseStatus::Resumed`]).
    pub resume: bool,
    /// Default per-case timeout \[s\] for cases that don't set their own;
    /// NaN or ≤ 0 means none.
    pub default_timeout_secs: f64,
    /// Deterministic kill drill: stop pulling new cases once this many
    /// records have been written this run (in-flight cases still finish,
    /// so with several workers a few extra records may land).
    pub halt_after_cases: Option<usize>,
    /// JSONL lifecycle-event sink path (`--events=PATH`); `None` disables
    /// the stream. See [`crate::events`] for the schema.
    pub events_path: Option<String>,
    /// Heartbeat cadence \[s\] for the event stream. One heartbeat is
    /// always emitted at sweep start and one at sweep end, so even a sweep
    /// shorter than the cadence gets a monotone pair.
    pub heartbeat_secs: f64,
    /// Chrome-trace export base path: each case writes its own span
    /// timeline to `base-<case id>.ext` (`--trace=PATH` propagated from
    /// the sweep driver). Enables the tracer for the sweep's duration.
    pub trace_base: Option<String>,
    /// Physics-audit cadence in steps propagated to every case
    /// (`--audit=N`); 0 leaves the process-wide cadence untouched.
    pub audit_every: usize,
    /// External cancellation flag: when set (by another thread — e.g. the
    /// `aerothermod` service handling a `cancel` request), workers stop
    /// pulling new cases after finishing the one in flight, the report
    /// comes back `halted`, and a later run with
    /// [`SweepOptions::resume`] picks up exactly where the store left off.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Per-record progress subscription (see [`RecordHook`]); `None`
    /// disables it.
    pub record_hook: Option<RecordHook>,
}

impl std::fmt::Debug for SweepOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepOptions")
            .field("workers", &self.workers)
            .field("order", &self.order)
            .field("store_path", &self.store_path)
            .field("resume", &self.resume)
            .field("default_timeout_secs", &self.default_timeout_secs)
            .field("halt_after_cases", &self.halt_after_cases)
            .field("events_path", &self.events_path)
            .field("heartbeat_secs", &self.heartbeat_secs)
            .field("trace_base", &self.trace_base)
            .field("audit_every", &self.audit_every)
            .field(
                "cancel",
                &self.cancel.as_ref().map(|c| c.load(Ordering::SeqCst)),
            )
            .field("record_hook", &self.record_hook.is_some())
            .finish()
    }
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            workers: 1,
            order: ScheduleOrder::LongestFirst,
            store_path: None,
            resume: false,
            default_timeout_secs: f64::NAN,
            halt_after_cases: None,
            events_path: None,
            heartbeat_secs: 0.25,
            trace_base: None,
            audit_every: 0,
            cancel: None,
            record_hook: None,
        }
    }
}

/// `base-<id>.ext` (or `base-<id>` when `base` has no extension): the
/// per-case suffixing used for `--trace` outputs.
fn per_case_path(base: &str, id: &str) -> String {
    let (dir, file) = match base.rfind('/') {
        Some(k) => (&base[..=k], &base[k + 1..]),
        None => ("", base),
    };
    match file.rfind('.') {
        Some(k) if k > 0 => format!("{dir}{}-{id}{}", &file[..k], &file[k..]),
        _ => format!("{base}-{id}"),
    }
}

enum PinnedFailure {
    Solver {
        error: String,
        retries: usize,
        postmortem: Option<String>,
    },
    Panic(String),
}

type PinnedOut = (
    Result<crate::runner::CaseResult, PinnedFailure>,
    Vec<(&'static str, u64)>,
);

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string())
}

/// Run one case pinned to the calling thread: nested `par_iter` work stays
/// here (a one-thread `ThreadPool::install`), the equilibrium warm-start cache is reset
/// so results don't depend on what ran on this thread before, and the
/// thread-scoped counter delta attributes kernel work to exactly this case.
/// When `trace_path` is set, the case's span timeline (accumulated in this
/// thread's trace buffer) is drained into a standalone Chrome-trace file —
/// draining also keeps spans from bleeding into the worker's next case.
fn run_pinned(case: &CaseSpec, trace_path: Option<&str>) -> PinnedOut {
    let pool = ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("vendored pool build cannot fail");
    pool.install(|| {
        reset_thread_warm_cache();
        let scope = TelemetryScope::begin();
        let res = catch_unwind(AssertUnwindSafe(|| run_case(case)));
        let counters: Vec<(&'static str, u64)> = scope.thread_delta().iter().collect();
        if let Some(path) = trace_path {
            if let Some(json) = trace::drain_thread_chrome_json() {
                if let Err(e) = std::fs::write(path, json) {
                    eprintln!("warning: per-case trace {path}: {e}");
                }
            }
        }
        let res = match res {
            Ok(Ok(r)) => Ok(r),
            Ok(Err(f)) => Err(PinnedFailure::Solver {
                error: f.error.to_string(),
                retries: f.retries,
                postmortem: f.postmortem,
            }),
            Err(payload) => Err(PinnedFailure::Panic(panic_message(payload.as_ref()))),
        };
        (res, counters)
    })
}

/// Process-wide tracer/audit state is flipped for the sweep's duration
/// (when the options ask for it) and restored on every exit path.
struct ObsGuard {
    trace_enabled_here: bool,
    audit_prior: usize,
    audit_changed: bool,
}

impl ObsGuard {
    fn engage(opts: &SweepOptions) -> Self {
        let trace_enabled_here = opts.trace_base.is_some() && !trace::timeline_enabled();
        if trace_enabled_here {
            trace::enable_timeline();
        }
        let audit_prior = audit::cadence();
        let audit_changed = opts.audit_every > 0 && opts.audit_every != audit_prior;
        if audit_changed {
            audit::enable(opts.audit_every);
        }
        Self {
            trace_enabled_here,
            audit_prior,
            audit_changed,
        }
    }
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        if self.trace_enabled_here {
            trace::disable_timeline();
        }
        if self.audit_changed {
            if self.audit_prior > 0 {
                audit::enable(self.audit_prior);
            } else {
                audit::disable();
            }
        }
    }
}

fn effective_timeout(case: &CaseSpec, opts: &SweepOptions) -> Option<std::time::Duration> {
    case.timeout().or_else(|| {
        if opts.default_timeout_secs.is_finite() && opts.default_timeout_secs > 0.0 {
            Some(std::time::Duration::from_secs_f64(
                opts.default_timeout_secs,
            ))
        } else {
            None
        }
    })
}

fn execute_case(case: &CaseSpec, worker: usize, opts: &SweepOptions) -> CaseOutcome {
    let t0 = Instant::now();
    let trace_path = opts
        .trace_base
        .as_deref()
        .map(|base| per_case_path(base, &case.id));
    let pinned = match effective_timeout(case, opts) {
        None => run_pinned(case, trace_path.as_deref()),
        Some(limit) => {
            let (tx, rx) = mpsc::channel();
            let case2 = case.clone();
            let tpath = trace_path.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("sweep-{}", case.id))
                .spawn(move || {
                    let _ = tx.send(run_pinned(&case2, tpath.as_deref()));
                });
            match spawned {
                Err(e) => (
                    Err(PinnedFailure::Solver {
                        error: format!("could not spawn case thread: {e}"),
                        retries: 0,
                        postmortem: None,
                    }),
                    Vec::new(),
                ),
                // The timed-out solve thread is abandoned, not killed (Rust
                // has no safe thread cancellation); it dies with the process.
                // Its counter work is unattributable, so counters stay empty.
                Ok(_detached) => match rx.recv_timeout(limit) {
                    Ok(out) => out,
                    Err(_) => {
                        return CaseOutcome {
                            id: case.id.clone(),
                            status: CaseStatus::TimedOut,
                            wall_secs: t0.elapsed().as_secs_f64(),
                            retries: 0,
                            worker,
                            note: String::new(),
                            error: Some(format!("timed out after {:.3} s", limit.as_secs_f64())),
                            metrics: Vec::new(),
                            counters: Vec::new(),
                            postmortem: None,
                        }
                    }
                },
            }
        }
    };
    let wall_secs = t0.elapsed().as_secs_f64();
    let (res, mut counters) = pinned;
    // Metrics and counters are kept sorted by name, the order a store line
    // parses back in, so a resumed record equals the one that was run.
    counters.sort_unstable_by_key(|&(name, _)| name);
    match res {
        Ok(mut r) => {
            r.metrics.sort_by(|a, b| a.0.cmp(&b.0));
            CaseOutcome {
                id: case.id.clone(),
                status: CaseStatus::Completed,
                wall_secs,
                retries: r.retries,
                worker,
                note: r.note,
                error: None,
                metrics: r.metrics,
                counters,
                postmortem: None,
            }
        }
        Err(PinnedFailure::Solver {
            error,
            retries,
            postmortem,
        }) => CaseOutcome {
            id: case.id.clone(),
            status: CaseStatus::Failed,
            wall_secs,
            retries,
            worker,
            note: String::new(),
            error: Some(error),
            metrics: Vec::new(),
            counters,
            postmortem,
        },
        Err(PinnedFailure::Panic(msg)) => CaseOutcome {
            id: case.id.clone(),
            status: CaseStatus::Failed,
            wall_secs,
            retries: 0,
            worker,
            note: String::new(),
            error: Some(format!("panic: {msg}")),
            metrics: Vec::new(),
            counters,
            postmortem: None,
        },
    }
}

/// Run every case of `plan` under `opts` and return the aggregate report.
///
/// Failures degrade, they don't abort: a diverging, panicking, or
/// timed-out case becomes a [`CaseStatus::Failed`] / `TimedOut` record and
/// the sweep continues. Only infrastructure problems (invalid plan,
/// unwritable store) surface as `Err`.
///
/// # Errors
/// [`SolverError::BadInput`] for plan validation and store I/O failures.
pub fn run_sweep(plan: &SweepPlan, opts: &SweepOptions) -> Result<SweepReport, SolverError> {
    plan.validate()?;
    let t0 = Instant::now();
    let sink = match &opts.events_path {
        Some(path) => Some(EventSink::create(path)?),
        None => None,
    };
    let _obs = ObsGuard::engage(opts);

    // Resume bookkeeping: prior completed records re-enter the report as
    // Resumed (metrics preserved) and are not re-run or re-written.
    let mut prior: HashMap<String, CaseOutcome> = HashMap::new();
    if opts.resume {
        if let Some(path) = &opts.store_path {
            for rec in load_records(path)? {
                prior.insert(rec.id.clone(), rec);
            }
        }
    }
    let done = completed_ids(&prior.values().cloned().collect::<Vec<_>>());

    let mut order: Vec<usize> = (0..plan.cases.len())
        .filter(|&i| !done.contains(&plan.cases[i].id))
        .collect();
    if opts.order == ScheduleOrder::LongestFirst {
        order.sort_by(|&a, &b| {
            plan.cases[b]
                .cost_estimate()
                .total_cmp(&plan.cases[a].cost_estimate())
                .then(a.cmp(&b))
        });
    }
    // Modelled cost of the queued cases, in integer ns so the pool can
    // count it down atomically: the heartbeat ETA's remaining work.
    let cost_ns = |idx: usize| (plan.cases[idx].cost_estimate() * 1e6) as u64;
    let queued_cost_ns = order
        .iter()
        .fold(0_u64, |sum, &i| sum.saturating_add(cost_ns(i)));

    let queue = Mutex::new(VecDeque::from(order));
    let writer = match &opts.store_path {
        Some(path) => Some(Mutex::new(JsonlWriter::append(path)?)),
        None => None,
    };
    let ran: Mutex<Vec<CaseOutcome>> = Mutex::new(Vec::new());
    let infra_errors: Mutex<Vec<SolverError>> = Mutex::new(Vec::new());
    let recorded = AtomicUsize::new(0);
    // Cumulative wall time and modelled cost of this run's recorded cases,
    // in ns — the heartbeat ETA scales the remaining modelled cost by
    // their ratio.
    let done_wall_ns = AtomicU64::new(0);
    let done_cost_ns = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let workers = opts.workers.max(1);
    let total = relock(&queue).len();
    // The report and the events keep the requested count, but no more
    // threads start than there are cases to pull.
    let threads = workers.min(total);
    let busy = AtomicUsize::new(0);
    let hb_stop = AtomicBool::new(false);
    set_gauge(Gauge::SweepCasesTotal, total as f64);
    set_gauge(Gauge::SweepCasesDone, 0.0);
    set_gauge(Gauge::SweepWorkersBusy, 0.0);
    if let Some(sink) = &sink {
        sink.plan_started(&plan.name, plan.cases.len(), workers);
    }

    std::thread::scope(|s| {
        // Heartbeat pulse: one line immediately, one per cadence tick, and
        // one final line after the workers drain, so even an instant sweep
        // yields a monotone pair for the CI gate to check.
        let hb = sink.as_ref().map(|sink| {
            let busy = &busy;
            let recorded = &recorded;
            let done_wall_ns = &done_wall_ns;
            let done_cost_ns = &done_cost_ns;
            let hb_stop = &hb_stop;
            let period = opts.heartbeat_secs.max(0.01);
            s.spawn(move || {
                let pulse = |busy_now: usize| {
                    let done_cost = done_cost_ns.load(Ordering::SeqCst);
                    sink.heartbeat(
                        busy_now,
                        workers,
                        recorded.load(Ordering::SeqCst),
                        total,
                        done_wall_ns.load(Ordering::SeqCst) as f64 / 1e9,
                        done_cost as f64 / 1e6,
                        queued_cost_ns.saturating_sub(done_cost) as f64 / 1e6,
                    );
                };
                pulse(busy.load(Ordering::SeqCst));
                let mut last = Instant::now();
                while !hb_stop.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(20));
                    if last.elapsed().as_secs_f64() >= period {
                        pulse(busy.load(Ordering::SeqCst));
                        last = Instant::now();
                    }
                }
                pulse(0);
            })
        });
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let queue = &queue;
                let writer = &writer;
                let ran = &ran;
                let infra_errors = &infra_errors;
                let recorded = &recorded;
                let done_wall_ns = &done_wall_ns;
                let done_cost_ns = &done_cost_ns;
                let stop = &stop;
                let busy = &busy;
                let sink = sink.as_ref();
                s.spawn(move || loop {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Some(cancel) = &opts.cancel {
                        if cancel.load(Ordering::SeqCst) {
                            stop.store(true, Ordering::SeqCst);
                            break;
                        }
                    }
                    let Some(idx) = relock(queue).pop_front() else {
                        break;
                    };
                    let case = &plan.cases[idx];
                    if let Some(sink) = sink {
                        sink.case_started(&case.id, w);
                    }
                    let b = busy.fetch_add(1, Ordering::SeqCst) + 1;
                    set_gauge(Gauge::SweepWorkersBusy, b as f64);
                    let outcome = execute_case(case, w, opts);
                    let b = busy.fetch_sub(1, Ordering::SeqCst) - 1;
                    set_gauge(Gauge::SweepWorkersBusy, b as f64);
                    if let Some(sink) = sink {
                        if outcome.retries > 0 {
                            sink.case_retried(&outcome.id, outcome.retries);
                        }
                        match outcome.status {
                            CaseStatus::Completed | CaseStatus::Resumed => sink.case_finished(
                                &outcome.id,
                                outcome.status.name(),
                                outcome.retries,
                                outcome.wall_secs,
                            ),
                            CaseStatus::Failed | CaseStatus::TimedOut => sink.case_failed(
                                &outcome.id,
                                outcome.status.name(),
                                outcome.error.as_deref().unwrap_or(""),
                                outcome.wall_secs,
                            ),
                        }
                    }
                    if let Some(wr) = writer {
                        if let Err(e) = relock(wr).record(&outcome) {
                            relock(infra_errors).push(e);
                            stop.store(true, Ordering::SeqCst);
                            break;
                        }
                    }
                    let wall_ns = (outcome.wall_secs.max(0.0) * 1e9) as u64;
                    {
                        let mut finished = relock(ran);
                        finished.push(outcome);
                        // The hook runs on this worker's thread while the
                        // outcome list is locked; a panicking subscriber
                        // poisons it, which `relock` recovers from (the
                        // regression test for the poison-cascade bug
                        // injects its panic exactly here).
                        if let Some(hook) = &opts.record_hook {
                            hook(finished.last().expect("just pushed"));
                        }
                    }
                    done_wall_ns.fetch_add(wall_ns, Ordering::SeqCst);
                    done_cost_ns.fetch_add(cost_ns(idx), Ordering::SeqCst);
                    let n = recorded.fetch_add(1, Ordering::SeqCst) + 1;
                    set_gauge(Gauge::SweepCasesDone, n as f64);
                    if opts.halt_after_cases.is_some_and(|k| n >= k) {
                        stop.store(true, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for h in handles {
            let _ = h.join();
        }
        hb_stop.store(true, Ordering::SeqCst);
        drop(hb); // scope joins it; the drop just documents the hand-off
    });

    let infra_errors = infra_errors
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some(e) = infra_errors.into_iter().next() {
        return Err(e);
    }

    // Assemble plan-order outcomes: executed this run, or resumed from the
    // prior store. Cases never reached (halt drill) are simply absent.
    let ran = ran.into_inner().unwrap_or_else(PoisonError::into_inner);
    let by_id: HashMap<&str, &CaseOutcome> = ran.iter().map(|o| (o.id.as_str(), o)).collect();
    let mut outcomes = Vec::with_capacity(plan.cases.len());
    for case in &plan.cases {
        if let Some(o) = by_id.get(case.id.as_str()) {
            outcomes.push((*o).clone());
        } else if let Some(p) = prior.get(&case.id) {
            if done.contains(&case.id) {
                let mut o = p.clone();
                o.status = CaseStatus::Resumed;
                if let Some(sink) = &sink {
                    sink.case_finished(&o.id, o.status.name(), o.retries, o.wall_secs);
                }
                outcomes.push(o);
            }
        }
    }

    let report = SweepReport {
        figure: plan.name.clone(),
        elapsed_secs: t0.elapsed().as_secs_f64(),
        workers,
        halted: (opts.halt_after_cases.is_some() && stop.load(Ordering::SeqCst))
            || opts
                .cancel
                .as_ref()
                .is_some_and(|c| c.load(Ordering::SeqCst)),
        planned: plan.cases.len(),
        outcomes,
        timings: trace::stats(),
    };
    if let Some(sink) = &sink {
        let c = report.counts();
        sink.plan_finished(
            c.completed,
            c.failed,
            c.timed_out,
            c.resumed,
            report.halted,
            report.elapsed_secs,
        );
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FlowSpec, GasSpec, LevelSpec};

    fn synthetic_plan(n: usize, outcome: &str) -> SweepPlan {
        let mut plan = SweepPlan::new("pool_test");
        for k in 0..n {
            plan.push(CaseSpec::new(
                format!("s{k:02}"),
                GasSpec::IdealAir,
                LevelSpec::Synthetic {
                    work_ms: 1.0,
                    outcome: outcome.to_string(),
                },
                FlowSpec::new(1e-4, 7000.0, 200.0, 10.0, 0.5, 1500.0),
            ));
        }
        plan
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join(format!("sweep-pool-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_str().unwrap().to_string()
    }

    #[test]
    fn all_ok_cases_complete_on_any_worker_count() {
        for workers in [1, 3] {
            let report = run_sweep(
                &synthetic_plan(6, "ok"),
                &SweepOptions {
                    workers,
                    ..SweepOptions::default()
                },
            )
            .expect("sweep");
            assert_eq!(report.outcomes.len(), 6);
            assert!(report
                .outcomes
                .iter()
                .all(|o| o.status == CaseStatus::Completed));
            assert!(report.all_green());
            assert_eq!(report.exit_code(true), 0);
            // Plan-order assembly regardless of scheduling.
            let ids: Vec<&str> = report.outcomes.iter().map(|o| o.id.as_str()).collect();
            assert_eq!(ids, ["s00", "s01", "s02", "s03", "s04", "s05"]);
        }
    }

    #[test]
    fn worker_threads_are_capped_at_the_queued_cases() {
        // One thread per requested worker would not even fit the handle
        // vector here.
        let report = run_sweep(
            &synthetic_plan(3, "ok"),
            &SweepOptions {
                workers: usize::MAX,
                ..SweepOptions::default()
            },
        )
        .expect("sweep");
        assert_eq!(report.workers, usize::MAX, "the report keeps the request");
        assert!(report.all_green());
        assert!(report.outcomes.iter().all(|o| o.worker < 3), "{report:?}");
    }

    #[test]
    fn panics_are_isolated_to_their_case() {
        let mut plan = synthetic_plan(3, "ok");
        plan.cases[1].level = LevelSpec::Synthetic {
            work_ms: 0.0,
            outcome: "panic".to_string(),
        };
        let report = run_sweep(
            &plan,
            &SweepOptions {
                workers: 2,
                ..SweepOptions::default()
            },
        )
        .expect("sweep survives a panicking case");
        let bad = &report.outcomes[1];
        assert_eq!(bad.status, CaseStatus::Failed);
        assert!(bad.error.as_deref().unwrap().contains("panic"), "{bad:?}");
        assert_eq!(report.counts().failed, 1);
        assert_eq!(report.counts().completed, 2);
        assert!(!report.all_green());
        assert_eq!(report.exit_code(false), 0, "degrade, don't abort");
        assert_eq!(report.exit_code(true), crate::report::STRICT_EXIT_CODE);
    }

    #[test]
    fn timeout_is_enforced_per_case() {
        let mut plan = synthetic_plan(2, "ok");
        plan.cases[0].level = LevelSpec::Synthetic {
            work_ms: 30_000.0,
            outcome: "ok".to_string(),
        };
        plan.cases[0].timeout_secs = 0.05;
        let t0 = Instant::now();
        let report = run_sweep(&plan, &SweepOptions::default()).expect("sweep");
        assert!(
            t0.elapsed().as_secs_f64() < 10.0,
            "timeout must not wait out the case"
        );
        assert_eq!(report.outcomes[0].status, CaseStatus::TimedOut);
        assert!(report.outcomes[0]
            .error
            .as_deref()
            .unwrap()
            .contains("timed out"));
        assert_eq!(report.outcomes[1].status, CaseStatus::Completed);
    }

    #[test]
    fn store_resume_skips_completed_cases() {
        let path = tmp("resume.jsonl");
        std::fs::remove_file(&path).ok();
        let plan = synthetic_plan(5, "ok");
        // First run: halt after 2 records (the deterministic kill drill).
        let report = run_sweep(
            &plan,
            &SweepOptions {
                store_path: Some(path.clone()),
                halt_after_cases: Some(2),
                ..SweepOptions::default()
            },
        )
        .expect("halted sweep");
        assert!(report.halted);
        assert_eq!(report.outcomes.len(), 2);
        // Second run resumes: the 2 recorded cases come back as Resumed,
        // the remaining 3 actually run.
        let report = run_sweep(
            &plan,
            &SweepOptions {
                store_path: Some(path.clone()),
                resume: true,
                ..SweepOptions::default()
            },
        )
        .expect("resumed sweep");
        assert_eq!(report.outcomes.len(), 5);
        let resumed = report
            .outcomes
            .iter()
            .filter(|o| o.status == CaseStatus::Resumed)
            .count();
        assert_eq!(resumed, 2);
        assert!(report.all_green(), "resumed cases don't flip the gate");
        // The store now holds all 5 (2 from run one, 3 from run two).
        let records = load_records(&path).unwrap();
        assert_eq!(records.len(), 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn record_time_panic_does_not_poison_the_sweep() {
        // Regression test for the poison cascade: a panic on a worker
        // thread *while it holds the shared outcome mutex* (injected via
        // the record hook, which runs inside that critical section) used
        // to poison the lock; every other worker's bare `.unwrap()` then
        // panicked in turn and the final `into_inner().unwrap()` killed
        // the whole sweep — one bad subscriber cascading past the
        // per-case catch_unwind isolation. With `PoisonError::into_inner`
        // recovery the panicking worker dies alone and the survivors
        // drain the queue.
        let path = tmp("poison.jsonl");
        std::fs::remove_file(&path).ok();
        let fired = Arc::new(AtomicBool::new(false));
        let hook_fired = fired.clone();
        let report = run_sweep(
            &synthetic_plan(6, "ok"),
            &SweepOptions {
                workers: 2,
                store_path: Some(path.clone()),
                record_hook: Some(Arc::new(move |_o: &CaseOutcome| {
                    if !hook_fired.swap(true, Ordering::SeqCst) {
                        panic!("injected record-time panic");
                    }
                })),
                ..SweepOptions::default()
            },
        )
        .expect("sweep must survive a record-time panic");
        assert!(fired.load(Ordering::SeqCst), "the injected panic fired");
        assert_eq!(report.outcomes.len(), 6, "all cases recorded");
        assert!(report.all_green(), "every case still completed");
        assert_eq!(
            load_records(&path).unwrap().len(),
            6,
            "the store is complete too"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn external_cancel_stops_the_sweep_resumably() {
        let path = tmp("cancel.jsonl");
        std::fs::remove_file(&path).ok();
        let plan = synthetic_plan(8, "ok");
        let cancel = Arc::new(AtomicBool::new(false));
        let seen = Arc::new(AtomicUsize::new(0));
        // Cancel from the record hook after the 2nd record lands — the
        // same wiring a job server uses, without timing races.
        let (c2, s2) = (cancel.clone(), seen.clone());
        let report = run_sweep(
            &plan,
            &SweepOptions {
                workers: 1,
                store_path: Some(path.clone()),
                cancel: Some(cancel.clone()),
                record_hook: Some(Arc::new(move |_o: &CaseOutcome| {
                    if s2.fetch_add(1, Ordering::SeqCst) + 1 >= 2 {
                        c2.store(true, Ordering::SeqCst);
                    }
                })),
                ..SweepOptions::default()
            },
        )
        .expect("cancelled sweep still reports");
        assert!(report.halted, "a cancelled sweep reports halted");
        assert_eq!(report.outcomes.len(), 2, "worker stopped pulling");
        // Resume completes the remainder without re-running the first two.
        let report = run_sweep(
            &plan,
            &SweepOptions {
                workers: 2,
                store_path: Some(path.clone()),
                resume: true,
                ..SweepOptions::default()
            },
        )
        .expect("resume after cancel");
        assert_eq!(report.outcomes.len(), 8);
        assert_eq!(
            report
                .outcomes
                .iter()
                .filter(|o| o.status == CaseStatus::Resumed)
                .count(),
            2
        );
        assert!(report.all_green());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn longest_first_orders_the_queue() {
        // Costs 1, 5, 1, 3 ms in plan order; with LongestFirst and one
        // worker the store (execution order) is cost descending, and the
        // two equal cheap cases keep their plan order.
        let mut plan = synthetic_plan(4, "ok");
        for (case, work_ms) in plan.cases.iter_mut().zip([1.0, 5.0, 1.0, 3.0]) {
            case.level = LevelSpec::Synthetic {
                work_ms,
                outcome: "ok".to_string(),
            };
        }
        let path = tmp("order.jsonl");
        std::fs::remove_file(&path).ok();
        run_sweep(
            &plan,
            &SweepOptions {
                store_path: Some(path.clone()),
                ..SweepOptions::default()
            },
        )
        .expect("sweep");
        let ids: Vec<String> = load_records(&path)
            .unwrap()
            .into_iter()
            .map(|r| r.id)
            .collect();
        assert_eq!(
            ids,
            ["s01", "s03", "s00", "s02"],
            "store is in execution order"
        );
        std::fs::remove_file(&path).ok();
    }
}
