//! Live sweep event stream: append-only JSONL lifecycle events emitted by
//! [`crate::pool::run_sweep`] to an `--events=PATH` sink.
//!
//! This is the stream a future `aerothermod` poll/stream API will serve:
//! a dashboard (or CI gate) tails the file and sees the sweep's life as it
//! happens — `plan_started`, per-case `case_started` / `case_retried` /
//! `case_finished` / `case_failed`, periodic `heartbeat` lines with worker
//! utilization and a completion ETA, and a terminal `plan_finished`
//! summary. Every line is one self-contained JSON object with a
//! monotonically increasing `seq`; the first line carries the stream
//! schema tag (`aerothermo-sweep-events-v1`).
//!
//! # Determinism
//!
//! Like the result store, the stream is *order-normalized deterministic*:
//! which events appear and what their payloads say about the cases is a
//! pure function of the plan, while arrival order, `seq`, worker indices,
//! wall-clock fields, and heartbeat cadence vary run to run.
//! [`normalize`] projects a stream onto that deterministic core — drop
//! heartbeats, drop timing/identity fields, sort case events by
//! `(case id, lifecycle rank)` — and two normalized streams from the same
//! plan are bitwise identical regardless of worker count (property-tested
//! in `tests/sweep_determinism.rs`).
//!
//! Event emission is best-effort after the sink opens: a full disk must
//! not kill a physics run, so write errors after creation are reported to
//! stderr once and further writes are skipped.

use aerothermo_numerics::json::{self, Layout, Object};
use aerothermo_numerics::telemetry::SolverError;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// Schema tag carried by the `plan_started` line.
pub const SCHEMA: &str = "aerothermo-sweep-events-v1";

struct SinkInner {
    file: Option<std::fs::File>,
    seq: u64,
}

/// A thread-safe JSONL event sink (one flushed line per event).
pub struct EventSink {
    inner: Mutex<SinkInner>,
    t0: Instant,
}

impl EventSink {
    /// Create (truncating) the sink file.
    ///
    /// # Errors
    /// [`SolverError::BadInput`] when the file cannot be created.
    pub fn create(path: &str) -> Result<Self, SolverError> {
        let file = std::fs::File::create(path)
            .map_err(|e| SolverError::BadInput(format!("events sink {path}: {e}")))?;
        Ok(Self {
            inner: Mutex::new(SinkInner {
                file: Some(file),
                seq: 0,
            }),
            t0: Instant::now(),
        })
    }

    /// Seconds since the sink was opened (the stream's time origin).
    #[must_use]
    pub fn elapsed_secs(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Emit one event: its `seq` and `event` tag, then the members `body`
    /// writes.
    fn emit(&self, event: &str, body: impl FnOnce(&mut Object<'_>)) {
        let mut inner = self.inner.lock().unwrap();
        let seq = inner.seq;
        inner.seq += 1;
        let Some(file) = inner.file.as_mut() else {
            return;
        };
        let mut line = json::write_object(Layout::Inline, |o| {
            body(o.put("seq", seq).put("event", event))
        });
        line.push('\n');
        let res = file.write_all(line.as_bytes()).and_then(|()| file.flush());
        if let Err(e) = res {
            eprintln!("warning: events sink write failed, disabling stream: {e}");
            inner.file = None;
        }
    }

    /// The sweep is starting: plan identity and scale.
    pub fn plan_started(&self, plan: &str, cases: usize, workers: usize) {
        self.emit("plan_started", |o| {
            o.put("schema", SCHEMA).put("plan", plan);
            o.put("cases", cases).put("workers", workers);
        });
    }

    /// A worker picked up a case.
    pub fn case_started(&self, id: &str, worker: usize) {
        self.emit("case_started", |o| {
            o.put("id", id).put("worker", worker);
            o.put("t_secs", self.elapsed_secs());
        });
    }

    /// A case consumed runctl retries (observable at case completion; one
    /// event summarizing the count, emitted before the terminal event).
    pub fn case_retried(&self, id: &str, retries: usize) {
        self.emit("case_retried", |o| {
            o.put("id", id).put("retries", retries);
        });
    }

    /// A case finished cleanly (`completed`).
    pub fn case_finished(&self, id: &str, status: &str, retries: usize, wall_secs: f64) {
        self.emit("case_finished", |o| {
            o.put("id", id).put("status", status);
            o.put("retries", retries).put("wall_secs", wall_secs);
        });
    }

    /// A case died (`failed` / `timed_out`).
    pub fn case_failed(&self, id: &str, status: &str, error: &str, wall_secs: f64) {
        self.emit("case_failed", |o| {
            o.put("id", id).put("status", status);
            o.put("error", error).put("wall_secs", wall_secs);
        });
    }

    /// Periodic progress pulse: worker utilization in `[0, 1]` and a
    /// completion ETA.
    ///
    /// `done_wall_secs` and `done_cost_ms` are the cumulative wall time and
    /// modelled cost ([`CaseSpec::cost_estimate`]) of the `done` recorded
    /// cases; `remaining_cost_ms` is the modelled cost of the queued and
    /// in-flight ones. The ETA prices the remaining cost at the measured
    /// rate over the active workers
    /// (`remaining_cost_ms × done_wall_secs / done_cost_ms / busy.clamp(1,
    /// workers)`), `null` until a case with a nonzero modelled cost
    /// lands. Under the longest-first queue a count-based estimate (mean
    /// case wall time × cases left) is badly wrong: the first case to land
    /// is a CFD case, and the hundreds left are mostly correlations.
    /// Utilization is clamped so transient `busy > workers` readings (and
    /// a 0-clamped worker count) can never emit a ratio above 1.
    ///
    /// [`CaseSpec::cost_estimate`]: crate::spec::CaseSpec::cost_estimate
    #[allow(clippy::too_many_arguments)]
    pub fn heartbeat(
        &self,
        busy: usize,
        workers: usize,
        done: usize,
        total: usize,
        done_wall_secs: f64,
        done_cost_ms: f64,
        remaining_cost_ms: f64,
    ) {
        let t = self.elapsed_secs();
        // NaN (written as null) until there is a rate to scale.
        let eta = if done_cost_ms > 0.0 && done_wall_secs.is_finite() && remaining_cost_ms >= 0.0 {
            let secs_per_ms = done_wall_secs.max(0.0) / done_cost_ms;
            let active = busy.clamp(1, workers.max(1)) as f64;
            remaining_cost_ms * secs_per_ms / active
        } else {
            f64::NAN
        };
        let utilization = (busy as f64 / workers.max(1) as f64).clamp(0.0, 1.0);
        self.emit("heartbeat", |o| {
            o.put("t_secs", t).put("busy", busy).put("workers", workers);
            o.put("done", done).put("total", total);
            o.put("utilization", utilization).put("eta_secs", eta);
        });
    }

    /// Terminal summary line.
    #[allow(clippy::too_many_arguments)]
    pub fn plan_finished(
        &self,
        completed: usize,
        failed: usize,
        timed_out: usize,
        resumed: usize,
        halted: bool,
        elapsed_secs: f64,
    ) {
        self.emit("plan_finished", |o| {
            o.put("completed", completed).put("failed", failed);
            o.put("timed_out", timed_out).put("resumed", resumed);
            o.put("halted", halted).put("elapsed_secs", elapsed_secs);
        });
    }
}

/// Lifecycle rank used by [`normalize`]'s per-case sort.
fn rank(event: &str) -> u8 {
    match event {
        "plan_started" => 0,
        "case_started" => 1,
        "case_retried" => 2,
        "case_finished" | "case_failed" => 3,
        "plan_finished" => 5,
        _ => 4,
    }
}

/// Project an event stream onto its deterministic core: drop `heartbeat`
/// lines, drop nondeterministic fields (`seq`, `worker`, `t_secs`,
/// `wall_secs`, `elapsed_secs`, and `workers` on `plan_started`), and sort
/// case events by `(case id, lifecycle rank)` with `plan_started` first
/// and `plan_finished` last. Two runs of the same plan normalize to
/// bitwise-identical text regardless of worker count.
///
/// # Errors
/// [`SolverError::BadInput`] when a line is not valid JSON or lacks an
/// `event` field.
pub fn normalize(stream: &str) -> Result<String, SolverError> {
    let mut keyed: Vec<(u8, String, String)> = Vec::new();
    for (lineno, line) in stream.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line)
            .map_err(|e| SolverError::BadInput(format!("events line {}: {e:?}", lineno + 1)))?;
        let event = v
            .get("event")
            .and_then(|e| e.as_str())
            .ok_or_else(|| {
                SolverError::BadInput(format!("events line {}: missing event field", lineno + 1))
            })?
            .to_string();
        if event == "heartbeat" {
            continue;
        }
        let get_str = |k: &str| v.get(k).and_then(|x| x.as_str()).unwrap_or("");
        let get_u = |k: &str| v.get(k).and_then(|x| x.as_f64()).map_or(0, |f| f as u64);
        // The deterministic core of each kind: its string members, then
        // its count members.
        let (strings, counts): (&[&str], &[&str]) = match event.as_str() {
            "plan_started" => (&["plan"], &["cases"]),
            "case_started" => (&["id"], &[]),
            "case_retried" => (&["id"], &["retries"]),
            "case_finished" => (&["id", "status"], &["retries"]),
            "case_failed" => (&["id", "status", "error"], &[]),
            "plan_finished" => (&[], &["completed", "failed", "timed_out", "resumed"]),
            _ => (&[], &[]),
        };
        let canon = json::write_object(Layout::Inline, |o| {
            o.put("event", &event);
            for k in strings {
                o.put(k, get_str(k));
            }
            for k in counts {
                o.put(k, get_u(k));
            }
            if event == "plan_finished" {
                o.put("halted", v.get("halted") == Some(&json::Value::Bool(true)));
            }
        });
        let id = get_str("id").to_string();
        keyed.push((rank(&event), id, canon));
    }
    keyed.sort_by(|a, b| {
        let ka = (u8::from(a.0 == 5), u8::from(a.0 != 0), &a.1, a.0);
        let kb = (u8::from(b.0 == 5), u8::from(b.0 != 0), &b.1, b.0);
        ka.cmp(&kb)
    });
    let mut out = String::with_capacity(stream.len());
    for (_, _, line) in keyed {
        out.push_str(&line);
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_writes_parseable_lines_with_monotone_seq() {
        let dir = std::env::temp_dir().join(format!("sweep-events-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl").to_str().unwrap().to_string();
        let sink = EventSink::create(&path).unwrap();
        sink.plan_started("p", 2, 1);
        sink.case_started("a", 0);
        sink.heartbeat(1, 1, 0, 2, 0.0, 0.0, 2.0);
        sink.case_finished("a", "completed", 0, 0.01);
        sink.plan_finished(1, 0, 0, 0, false, 0.02);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut prev = -1i64;
        for line in text.lines() {
            let v = json::parse(line).expect("line parses");
            let seq = v.get("seq").unwrap().as_f64().unwrap() as i64;
            assert_eq!(seq, prev + 1, "seq must be dense and monotone");
            prev = seq;
            assert!(v.get("event").unwrap().as_str().is_some());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn normalize_drops_heartbeats_and_sorts_by_case() {
        let a = r#"{"seq": 0, "event": "plan_started", "schema": "x", "plan": "p", "cases": 2, "workers": 4}
{"seq": 1, "event": "case_started", "id": "b", "worker": 3, "t_secs": 0.1}
{"seq": 2, "event": "heartbeat", "t_secs": 0.2, "busy": 1, "workers": 4, "done": 0, "total": 2, "utilization": 0.25, "eta_secs": null}
{"seq": 3, "event": "case_started", "id": "a", "worker": 0, "t_secs": 0.15}
{"seq": 4, "event": "case_finished", "id": "b", "status": "completed", "retries": 0, "wall_secs": 0.4}
{"seq": 5, "event": "case_finished", "id": "a", "status": "completed", "retries": 0, "wall_secs": 0.2}
{"seq": 6, "event": "plan_finished", "completed": 2, "failed": 0, "timed_out": 0, "resumed": 0, "halted": false, "elapsed_secs": 0.5}
"#;
        let b = r#"{"seq": 0, "event": "plan_started", "schema": "x", "plan": "p", "cases": 2, "workers": 1}
{"seq": 1, "event": "case_started", "id": "a", "worker": 0, "t_secs": 0.0}
{"seq": 2, "event": "case_finished", "id": "a", "status": "completed", "retries": 0, "wall_secs": 0.1}
{"seq": 3, "event": "case_started", "id": "b", "worker": 0, "t_secs": 0.1}
{"seq": 4, "event": "heartbeat", "t_secs": 0.15, "busy": 1, "workers": 1, "done": 1, "total": 2, "utilization": 1, "eta_secs": 0.15}
{"seq": 5, "event": "case_finished", "id": "b", "status": "completed", "retries": 0, "wall_secs": 0.1}
{"seq": 6, "event": "plan_finished", "completed": 2, "failed": 0, "timed_out": 0, "resumed": 0, "halted": false, "elapsed_secs": 0.3}
"#;
        let na = normalize(a).unwrap();
        let nb = normalize(b).unwrap();
        assert_eq!(na, nb, "4-worker and 1-worker streams normalize equal");
        assert!(!na.contains("heartbeat"));
        assert!(na.starts_with("{\"event\": \"plan_started\""));
        assert!(na.trim_end().ends_with('}'));
        let last = na.lines().last().unwrap();
        assert!(last.contains("plan_finished"));
    }

    #[test]
    fn heartbeat_schema_eta_and_utilization_are_sane() {
        let dir = std::env::temp_dir().join(format!("sweep-hb-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hb.jsonl").to_str().unwrap().to_string();
        let sink = EventSink::create(&path).unwrap();
        // Ramp-up: nothing done yet — ETA must be null, not an
        // extrapolation from in-flight cases.
        sink.heartbeat(3, 4, 0, 10, 0.0, 0.0, 60.0);
        // Steady state: 4 done, 2.0 s for 40 modelled ms (0.05 s per ms),
        // 60 ms left, 3 busy of 4 workers.
        sink.heartbeat(3, 4, 4, 10, 2.0, 40.0, 60.0);
        // Degenerate inputs: 0-clamped workers and busy > workers must not
        // push utilization above 1; a negative remaining cost must not
        // yield a negative ETA (it goes null).
        sink.heartbeat(5, 0, 2, 1, 1.0, 10.0, -1.0);
        // Unequal costs, as under the longest-first queue: one CFD case
        // of 1000 modelled ms landed after 2.0 s (2 ms of wall per modelled
        // ms); 100 correlations of 1 modelled ms each are left. They take
        // 0.2 s, shared by 2 workers: 0.1 s. The old count-based estimate
        // (2.0 s mean × 100 cases / 2 workers) read 100 s.
        sink.heartbeat(2, 2, 1, 101, 2.0, 1000.0, 100.0);
        drop(sink);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<json::Value> = text.lines().map(|l| json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 4);
        for (v, line) in lines.iter().zip(text.lines()) {
            // Schema lock: exactly the fields the CI events gate requires.
            for key in [
                "seq",
                "event",
                "t_secs",
                "busy",
                "workers",
                "done",
                "total",
                "utilization",
            ] {
                assert!(v.get(key).is_some(), "heartbeat missing '{key}': {line}");
            }
            assert!(line.contains("\"eta_secs\":"), "missing eta_secs: {line}");
            let u = v.get("utilization").unwrap().as_f64().unwrap();
            assert!((0.0..=1.0).contains(&u), "utilization {u} out of [0,1]");
        }
        assert!(
            lines[0].get("eta_secs").unwrap().is_null(),
            "no ETA before the first case lands"
        );
        // 60 ms × 0.05 s/ms / 3 active = 1.0 s.
        let eta = lines[1].get("eta_secs").unwrap().as_f64().unwrap();
        assert!((eta - 1.0).abs() < 1e-12, "eta {eta}");
        let eta = lines[3].get("eta_secs").unwrap().as_f64().unwrap();
        assert!((eta - 0.1).abs() < 1e-12, "eta {eta}");
        assert!(lines[2].get("eta_secs").unwrap().is_null());
        assert!(
            (lines[2].get("utilization").unwrap().as_f64().unwrap() - 1.0).abs() < 1e-12,
            "0-clamped workers must saturate at 1.0, not exceed it"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn normalize_rejects_garbage() {
        assert!(normalize("not json\n").is_err());
        assert!(normalize("{\"seq\": 0}\n").is_err());
    }
}
