//! On-disk job registry: submitted plans become durable per-job file
//! triples under the data directory, executed on the sweep worker pool
//! and resumable across daemon restarts.
//!
//! File layout for job `job-0007`:
//!
//! ```text
//! {data_dir}/job-0007.plan.json     the submitted plan, verbatim schema
//! {data_dir}/job-0007.store.jsonl   crash-safe per-case result journal
//! {data_dir}/job-0007.events.jsonl  lifecycle event stream (heartbeats)
//! ```
//!
//! The plan file is the registry: a startup scan rebuilds every job from
//! disk, classifying each as [`JobPhase::Completed`] (every case has a
//! completed record) or [`JobPhase::Interrupted`] (the daemon died with
//! work outstanding — a `resume` request picks it back up through the
//! store's skip logic). A `job-NNNN.shard.json` sidecar left by an
//! older daemon's shard job stops the scan with an error: recovered as a
//! full-plan job, its `resume` would run the whole plan into the shard's
//! store. Shards run through `sweep --shard=i/n` instead.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use aerothermo_numerics::telemetry::SolverError;
use aerothermo_sweep::store::completed_ids;
use aerothermo_sweep::{load_records, run_sweep, SweepOptions, SweepPlan};

/// Recover from poisoning instead of cascading: registry state is plain
/// data and stays coherent even if a holder panicked.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Lifecycle phase of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// A sweep thread is executing the plan right now.
    Running,
    /// Every case finished and the report was green or degraded — the
    /// terminal success phase (individual cases may still be `failed`;
    /// inspect the records).
    Completed,
    /// The sweep stopped early on its `halt_after` budget.
    Halted,
    /// The sweep stopped early on an external `cancel` request.
    Cancelled,
    /// The sweep aborted on an infrastructure error (bad plan, store
    /// I/O); see [`Job::error`].
    Failed,
    /// Found on disk at startup with cases outstanding: the previous
    /// daemon died mid-job. `resume` continues it.
    Interrupted,
}

impl JobPhase {
    /// Stable lowercase wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            JobPhase::Running => "running",
            JobPhase::Completed => "completed",
            JobPhase::Halted => "halted",
            JobPhase::Cancelled => "cancelled",
            JobPhase::Failed => "failed",
            JobPhase::Interrupted => "interrupted",
        }
    }

    /// Whether a `resume` request is accepted in this phase.
    #[must_use]
    pub fn resumable(self) -> bool {
        !matches!(self, JobPhase::Running)
    }
}

/// One registered job: durable paths plus live progress state.
#[derive(Debug)]
pub struct Job {
    /// Registry id (`job-NNNN`), unique within the data directory.
    pub id: String,
    /// Path of the saved plan file.
    pub plan_path: String,
    /// Path of the JSONL result store (the job journal).
    pub store_path: String,
    /// Path of the JSONL lifecycle event stream.
    pub events_path: String,
    /// Plan name, for status display.
    pub plan_name: String,
    /// Planned case count.
    pub total: usize,
    /// Cases with a recorded outcome (prior completed + this run's
    /// records). Display-only; clamped to `total` on the wire.
    pub done: AtomicUsize,
    /// Cooperative cancel flag checked by the sweep worker loop. Reset
    /// on resume.
    pub cancel: Arc<AtomicBool>,
    phase: Mutex<JobPhase>,
    error: Mutex<Option<String>>,
}

impl Job {
    /// Current phase.
    pub fn phase(&self) -> JobPhase {
        *relock(&self.phase)
    }

    fn set_phase(&self, p: JobPhase) {
        *relock(&self.phase) = p;
    }

    /// Infrastructure-error message, if the job [`JobPhase::Failed`].
    pub fn error(&self) -> Option<String> {
        relock(&self.error).clone()
    }

    /// Mark the job [`JobPhase::Failed`] with `msg` as its error.
    pub(crate) fn fail(&self, msg: String) {
        *relock(&self.error) = Some(msg);
        self.set_phase(JobPhase::Failed);
    }

    /// Execute (or resume) this job's plan on the sweep pool, updating
    /// phase and progress as records land. Blocks until the sweep
    /// returns; callers spawn it on a detached thread.
    pub fn run(self: &Arc<Self>, workers: usize, halt_after: Option<usize>) {
        let plan = match SweepPlan::load(&self.plan_path) {
            Ok(p) => p,
            Err(e) => return self.fail(e.to_string()),
        };
        // Progress restarts from the store's completed set: resumed
        // records skip the queue and never hit the record hook.
        let prior = load_records(&self.store_path)
            .map(|r| completed_ids(&r).len())
            .unwrap_or(0);
        self.done.store(prior, Ordering::SeqCst);
        let progress = Arc::clone(self);
        let opts = SweepOptions {
            workers,
            store_path: Some(self.store_path.clone()),
            events_path: Some(self.events_path.clone()),
            resume: true,
            halt_after_cases: halt_after,
            cancel: Some(Arc::clone(&self.cancel)),
            record_hook: Some(Arc::new(move |_outcome| {
                progress.done.fetch_add(1, Ordering::SeqCst);
            })),
            ..SweepOptions::default()
        };
        match run_sweep(&plan, &opts) {
            Ok(report) => self.set_phase(if self.cancel.load(Ordering::SeqCst) {
                JobPhase::Cancelled
            } else if report.halted {
                JobPhase::Halted
            } else {
                JobPhase::Completed
            }),
            Err(e) => self.fail(e.to_string()),
        }
    }
}

/// The daemon's job table: durable on disk, indexed in memory.
#[derive(Debug)]
pub struct JobRegistry {
    data_dir: String,
    jobs: Mutex<BTreeMap<String, Arc<Job>>>,
    next: AtomicUsize,
}

impl JobRegistry {
    /// Open (creating if needed) the registry at `data_dir` and rebuild
    /// the job table from the plan files found there.
    ///
    /// # Errors
    /// [`SolverError::BadInput`] on unreadable directories, corrupt
    /// plan/store files, or a shard sidecar — a daemon must not silently
    /// shadow or misread prior jobs.
    pub fn open(data_dir: &str) -> Result<Self, SolverError> {
        std::fs::create_dir_all(data_dir)
            .map_err(|e| SolverError::BadInput(format!("creating data dir '{data_dir}': {e}")))?;
        let reg = Self {
            data_dir: data_dir.to_string(),
            jobs: Mutex::new(BTreeMap::new()),
            next: AtomicUsize::new(1),
        };
        let entries = std::fs::read_dir(data_dir)
            .map_err(|e| SolverError::BadInput(format!("scanning data dir '{data_dir}': {e}")))?;
        let mut max_seq = 0usize;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            // The durable id-allocation scan considers *every* `job-NNNN.*`
            // file, not just surviving plan files: a compacted job whose
            // plan was deleted but whose store remains must still pin the
            // sequence, or a new submission would reuse its id and append
            // onto the orphaned store.
            if let Some(rest) = name.strip_prefix("job-") {
                if let Some(seq) = rest.split('.').next().and_then(|s| s.parse::<usize>().ok()) {
                    max_seq = max_seq.max(seq);
                }
                if rest.ends_with(".shard.json") {
                    return Err(SolverError::BadInput(format!(
                        "'{data_dir}/{name}' is a shard sidecar left by an older \
                         daemon's submit_shard job, and this daemon runs no shard jobs; \
                         move the job's files out of the data dir and run the shard with \
                         `sweep --plan=PLAN --shard=i/n [--resume]` instead"
                    )));
                }
            }
            let Some(id) = name
                .strip_suffix(".plan.json")
                .filter(|id| id.starts_with("job-"))
            else {
                continue;
            };
            let job = reg.recover(id)?;
            relock(&reg.jobs).insert(id.to_string(), job);
        }
        reg.next.store(max_seq + 1, Ordering::SeqCst);
        Ok(reg)
    }

    /// Rebuild one job from its on-disk files, classifying it as
    /// completed or interrupted by comparing the store against the plan.
    fn recover(&self, id: &str) -> Result<Arc<Job>, SolverError> {
        let (plan_path, store_path, events_path) = self.paths(id);
        let plan = SweepPlan::load(&plan_path)?;
        let done = completed_ids(&load_records(&store_path)?).len();
        let phase = if done >= plan.cases.len() {
            JobPhase::Completed
        } else {
            JobPhase::Interrupted
        };
        Ok(Arc::new(Job {
            id: id.to_string(),
            plan_path,
            store_path,
            events_path,
            plan_name: plan.name.clone(),
            total: plan.cases.len(),
            done: AtomicUsize::new(done),
            cancel: Arc::new(AtomicBool::new(false)),
            phase: Mutex::new(phase),
            error: Mutex::new(None),
        }))
    }

    fn paths(&self, id: &str) -> (String, String, String) {
        let base = format!("{}/{id}", self.data_dir);
        (
            format!("{base}.plan.json"),
            format!("{base}.store.jsonl"),
            format!("{base}.events.jsonl"),
        )
    }

    /// Persist `plan` as a new job in phase [`JobPhase::Running`] and
    /// return it. The caller is responsible for actually spawning
    /// [`Job::run`] — registration and execution are split so the
    /// response can carry the id before the first case lands.
    ///
    /// # Errors
    /// [`SolverError::BadInput`] if the plan fails validation or the
    /// plan file cannot be written.
    pub fn submit(&self, plan: &SweepPlan) -> Result<Arc<Job>, SolverError> {
        plan.validate()?;
        let seq = self.next.fetch_add(1, Ordering::SeqCst);
        let id = format!("job-{seq:04}");
        let (plan_path, store_path, events_path) = self.paths(&id);
        plan.save(&plan_path)?;
        let job = Arc::new(Job {
            id: id.clone(),
            plan_path,
            store_path,
            events_path,
            plan_name: plan.name.clone(),
            total: plan.cases.len(),
            done: AtomicUsize::new(0),
            cancel: Arc::new(AtomicBool::new(false)),
            phase: Mutex::new(JobPhase::Running),
            error: Mutex::new(None),
        });
        relock(&self.jobs).insert(id, Arc::clone(&job));
        Ok(job)
    }

    /// Look up a job by id.
    pub fn get(&self, id: &str) -> Option<Arc<Job>> {
        relock(&self.jobs).get(id).cloned()
    }

    /// All jobs in id order.
    pub fn list(&self) -> Vec<Arc<Job>> {
        relock(&self.jobs).values().cloned().collect()
    }

    /// Flip a resumable job back to [`JobPhase::Running`] with a fresh
    /// cancel flag and no error, returning it ready for [`Job::run`].
    ///
    /// # Errors
    /// [`SolverError::BadInput`] if the job does not exist or is
    /// currently running.
    pub fn resume(&self, id: &str) -> Result<Arc<Job>, SolverError> {
        let job = self
            .get(id)
            .ok_or_else(|| SolverError::BadInput(format!("unknown job '{id}'")))?;
        if !job.phase().resumable() {
            return Err(SolverError::BadInput(format!(
                "job '{id}' is running; cancel it before resuming"
            )));
        }
        job.cancel.store(false, Ordering::SeqCst);
        *relock(&job.error) = None;
        job.set_phase(JobPhase::Running);
        Ok(job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aerothermo_sweep::{CaseSpec, FlowSpec, GasSpec, LevelSpec};

    fn tiny_plan(n: usize) -> SweepPlan {
        let cases = (0..n)
            .map(|k| {
                CaseSpec::new(
                    format!("c{k}"),
                    GasSpec::Air9,
                    LevelSpec::Correlation { k_sg: 1.74e-4 },
                    FlowSpec::new(3e-5, 7000.0, 220.0, 2.0, 0.5, 1500.0),
                )
            })
            .collect();
        SweepPlan {
            name: "registry-test".into(),
            cases,
        }
    }

    #[test]
    fn registry_roundtrip_and_interrupted_classification() {
        let dir = std::env::temp_dir().join(format!("aerothermod-reg-{}", std::process::id()));
        let dir = dir.to_str().unwrap().to_string();
        std::fs::remove_dir_all(&dir).ok();

        let reg = JobRegistry::open(&dir).unwrap();
        let job = reg.submit(&tiny_plan(3)).unwrap();
        assert_eq!(job.id, "job-0001");
        assert_eq!(job.phase(), JobPhase::Running);

        // Run to completion synchronously.
        job.run(1, None);
        assert_eq!(job.phase(), JobPhase::Completed);
        assert_eq!(job.done.load(Ordering::SeqCst), 3);

        // Submit a second job but only run 1 of its 3 cases.
        let partial = reg.submit(&tiny_plan(3)).unwrap();
        assert_eq!(partial.id, "job-0002");
        partial.run(1, Some(1));
        assert_eq!(partial.phase(), JobPhase::Halted);

        // A fresh registry (daemon restart) recovers both from disk.
        let reg2 = JobRegistry::open(&dir).unwrap();
        assert_eq!(reg2.list().len(), 2);
        assert_eq!(reg2.get("job-0001").unwrap().phase(), JobPhase::Completed);
        let back = reg2.get("job-0002").unwrap();
        assert_eq!(back.phase(), JobPhase::Interrupted);
        assert!(back.done.load(Ordering::SeqCst) < 3);

        // Ids keep counting from the recovered maximum.
        assert_eq!(reg2.submit(&tiny_plan(1)).unwrap().id, "job-0003");

        // Resume finishes the interrupted job.
        let resumed = reg2.resume("job-0002").unwrap();
        resumed.run(1, None);
        assert_eq!(resumed.phase(), JobPhase::Completed);
        assert_eq!(resumed.done.load(Ordering::SeqCst), 3);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_job_can_be_resumed() {
        // A job whose sweep thread never started is marked failed; resume
        // must accept it, clear the error and run it to completion.
        let dir = std::env::temp_dir().join(format!("aerothermod-failed-{}", std::process::id()));
        let dir = dir.to_str().unwrap().to_string();
        std::fs::remove_dir_all(&dir).ok();

        let reg = JobRegistry::open(&dir).unwrap();
        let job = reg.submit(&tiny_plan(2)).unwrap();
        job.fail("could not start its sweep thread".into());
        assert_eq!(job.phase(), JobPhase::Failed);
        assert!(job.error().is_some());

        let resumed = reg.resume(&job.id).expect("a failed job is resumable");
        assert_eq!(resumed.phase(), JobPhase::Running);
        assert_eq!(resumed.error(), None);
        resumed.run(1, None);
        assert_eq!(resumed.phase(), JobPhase::Completed);
        assert_eq!(resumed.done.load(Ordering::SeqCst), 2);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deleted_plan_files_never_cause_id_reuse() {
        // Regression: id allocation used to derive the max sequence from
        // surviving *.plan.json files only. Deleting a job's plan (say,
        // a compaction sweep) while its store remained then let a new
        // submission reuse the id and append onto the orphaned store.
        let dir = std::env::temp_dir().join(format!("aerothermod-idreuse-{}", std::process::id()));
        let dir = dir.to_str().unwrap().to_string();
        std::fs::remove_dir_all(&dir).ok();

        let reg = JobRegistry::open(&dir).unwrap();
        let a = reg.submit(&tiny_plan(1)).unwrap();
        a.run(1, None);
        let b = reg.submit(&tiny_plan(1)).unwrap();
        b.run(1, None);
        assert_eq!(b.id, "job-0002");

        // Compact away job-0002's plan file; its store survives.
        std::fs::remove_file(&b.plan_path).unwrap();
        assert!(std::fs::metadata(&b.store_path).is_ok());

        let reg2 = JobRegistry::open(&dir).unwrap();
        assert_eq!(reg2.list().len(), 1, "only job-0001 is recoverable");
        let fresh = reg2.submit(&tiny_plan(1)).unwrap();
        assert_eq!(
            fresh.id, "job-0003",
            "orphaned store still pins the sequence"
        );
        assert_ne!(fresh.store_path, b.store_path);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_sidecar_in_the_data_dir_is_rejected_by_name() {
        // Recovered as a plain job, an older daemon's shard job would
        // `resume` the whole plan into the shard's store.
        let dir = std::env::temp_dir().join(format!("aerothermod-sidecar-{}", std::process::id()));
        let dir = dir.to_str().unwrap().to_string();
        std::fs::remove_dir_all(&dir).ok();

        let reg = JobRegistry::open(&dir).unwrap();
        let job = reg.submit(&tiny_plan(3)).unwrap();
        let sidecar = format!("{dir}/{}.shard.json", job.id);
        std::fs::write(
            &sidecar,
            r#"{"index": 1, "count": 2, "strategy": "round_robin"}"#,
        )
        .unwrap();

        match JobRegistry::open(&dir) {
            Err(SolverError::BadInput(msg)) => {
                assert!(msg.contains(&sidecar), "{msg}");
                assert!(msg.contains("--shard=i/n"), "{msg}");
            }
            other => panic!("expected BadInput naming the sidecar, got {other:?}"),
        }

        std::fs::remove_dir_all(&dir).ok();
    }
}
