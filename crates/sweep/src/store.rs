//! Append-only JSONL result store: one flushed line per finished case, so
//! a killed sweep loses at most the case in flight, and a restart can skip
//! everything already on disk.

use aerothermo_numerics::json::{self, Layout, Value};
use aerothermo_numerics::telemetry::SolverError;
use std::io::Write;

/// Terminal state of one case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseStatus {
    /// Ran to completion (possibly after retries).
    Completed,
    /// Exhausted its retry budget, hit a hard error, or panicked.
    Failed,
    /// Exceeded its wall-clock timeout; the result (if any) was discarded.
    TimedOut,
    /// Skipped this run: an earlier run's store already has it completed.
    Resumed,
}

impl CaseStatus {
    /// Stable tag used in the JSONL stream.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CaseStatus::Completed => "completed",
            CaseStatus::Failed => "failed",
            CaseStatus::TimedOut => "timed_out",
            CaseStatus::Resumed => "resumed",
        }
    }

    fn parse(s: &str) -> Result<Self, SolverError> {
        match s {
            "completed" => Ok(CaseStatus::Completed),
            "failed" => Ok(CaseStatus::Failed),
            "timed_out" => Ok(CaseStatus::TimedOut),
            "resumed" => Ok(CaseStatus::Resumed),
            other => Err(SolverError::BadInput(format!(
                "unknown case status '{other}'"
            ))),
        }
    }
}

/// One finished case, as recorded in the JSONL stream.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// The case's plan ID.
    pub id: String,
    /// Terminal state.
    pub status: CaseStatus,
    /// Wall-clock seconds the case took on its worker.
    pub wall_secs: f64,
    /// Retry attempts the control layer consumed.
    pub retries: usize,
    /// Worker index (0-based) that ran the case.
    pub worker: usize,
    /// Short human note from the runner.
    pub note: String,
    /// Terminal error display, for failed/timed-out cases.
    pub error: Option<String>,
    /// Named scalar results.
    pub metrics: Vec<(String, f64)>,
    /// Thread-attributed telemetry counter deltas (name → count); see
    /// `aerothermo_numerics::telemetry::TelemetryScope`.
    pub counters: Vec<(&'static str, u64)>,
    /// Flight-recorder black box for failed cases: the
    /// `aerothermo-blackbox-v1` JSON document as a string (kept opaque so
    /// the record schema is independent of the dump schema).
    pub postmortem: Option<String>,
}

impl CaseOutcome {
    /// Look up a metric by name.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Serialize to one JSONL line (no trailing newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(256);
        json::push_object(&mut out, Layout::Inline, |o| {
            o.put("id", &self.id).put("status", self.status.name());
            o.put("wall_secs", self.wall_secs)
                .put("retries", self.retries);
            o.put("worker", self.worker).put("note", &self.note);
            o.put("error", self.error.as_deref());
            o.object("metrics", Layout::Inline, |m| m.members(&self.metrics));
            // Zeros are elided: most levels touch a few counters.
            let nonzero = self.counters.iter().filter(|(_, v)| *v != 0);
            o.object("counters", Layout::Inline, |c| c.members(nonzero));
            o.put_some("postmortem", self.postmortem.as_ref());
        });
        out
    }

    /// Parse one JSONL line.
    ///
    /// # Errors
    /// [`SolverError::BadInput`] on malformed lines.
    pub fn parse(line: &str) -> Result<Self, SolverError> {
        Self::parse_with_warnings(line).map(|(rec, _)| rec)
    }

    /// Parse one JSONL line, also reporting how many counter entries were
    /// dropped because their names are not in the current
    /// [`Counter::ALL`](aerothermo_numerics::telemetry::Counter::ALL) set
    /// (a version-skewed store written by a build with different counters).
    ///
    /// Metric values must be numbers or `null` (the writers' NaN/Inf
    /// encoding, mapped back to NaN); anything else — strings, booleans,
    /// nested structure — is corruption, not a crash artifact, and is a
    /// typed error rather than a silent NaN.
    ///
    /// # Errors
    /// [`SolverError::BadInput`] on malformed lines.
    pub fn parse_with_warnings(line: &str) -> Result<(Self, usize), SolverError> {
        let v =
            json::parse(line).map_err(|e| SolverError::BadInput(format!("record JSON: {e}")))?;
        let req_str = |key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .ok_or_else(|| SolverError::BadInput(format!("record missing string '{key}'")))
        };
        let req_count = |key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .filter(|x| x.fract() == 0.0 && *x >= 0.0)
                .map(|x| x as usize)
                .ok_or_else(|| SolverError::BadInput(format!("record missing count '{key}'")))
        };
        let metrics = match v.get("metrics").and_then(Value::as_object) {
            Some(pairs) => {
                let mut out = Vec::with_capacity(pairs.len());
                for (name, mv) in pairs {
                    let val = match mv {
                        Value::Null => f64::NAN,
                        Value::Number(x) => *x,
                        other => {
                            return Err(SolverError::BadInput(format!(
                                "record metric '{name}' must be a number or null, got {other:?}"
                            )))
                        }
                    };
                    out.push((name.clone(), val));
                }
                out
            }
            None => Vec::new(),
        };
        let mut unknown_counters = 0usize;
        let counters = match v.get("counters").and_then(Value::as_object) {
            Some(pairs) => {
                let mut out = Vec::with_capacity(pairs.len());
                for (name, cv) in pairs {
                    // Counter names are a closed set; map back to the
                    // static strs so record and live outcomes compare equal.
                    let known = aerothermo_numerics::telemetry::Counter::ALL
                        .iter()
                        .map(|c| c.name())
                        .find(|n| n == name);
                    let val = cv
                        .as_f64()
                        .filter(|x| x.fract() == 0.0 && *x >= 0.0)
                        .ok_or_else(|| {
                            SolverError::BadInput(format!(
                                "record counter '{name}' must be a non-negative integer, \
                                 got {cv:?}"
                            ))
                        })?;
                    match known {
                        Some(name) => out.push((name, val as u64)),
                        None => unknown_counters += 1,
                    }
                }
                out
            }
            None => Vec::new(),
        };
        let rec = Self {
            id: req_str("id")?.to_string(),
            status: CaseStatus::parse(req_str("status")?)?,
            wall_secs: v
                .get("wall_secs")
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN),
            retries: req_count("retries")?,
            worker: req_count("worker")?,
            note: req_str("note").map(str::to_string).unwrap_or_default(),
            error: v
                .get("error")
                .filter(|e| !e.is_null())
                .and_then(Value::as_str)
                .map(str::to_string),
            metrics,
            counters,
            postmortem: v
                .get("postmortem")
                .and_then(Value::as_str)
                .map(str::to_string),
        };
        Ok((rec, unknown_counters))
    }

    /// The scheduling-independent core of this outcome as one comparable
    /// string: status, retries, bitwise metric bit patterns, and the
    /// thread-attributed counters. Wall time and worker index — the only
    /// legitimately nondeterministic fields — are excluded. Two sweeps of
    /// the same plan must produce equal fingerprints case for case, which
    /// is the determinism oracle the sweep tests (and the `aerothermod`
    /// service drill) compare against.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v)| format!("{k}={:016x}", v.to_bits()))
            .collect();
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!(
            "{}|r{}|{}|{}",
            self.status.name(),
            self.retries,
            metrics.join(","),
            counters.join(",")
        )
    }
}

/// Order-normalized determinism fingerprint of a record set: sorted by
/// case ID, each entry `(id, `[`CaseOutcome::fingerprint`]`)`. A store
/// written in any execution order (different worker counts, kill/resume
/// splits, service-submitted vs direct runs) normalizes to the same value
/// when — and only when — the per-case results are bitwise identical.
#[must_use]
pub fn normalized_fingerprint(records: &[CaseOutcome]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = records
        .iter()
        .map(|r| (r.id.clone(), r.fingerprint()))
        .collect();
    out.sort();
    out
}

/// Append-only JSONL writer: every record is written and flushed as one
/// line, so the stream is valid after a kill at any instant (except at most
/// one truncated trailing line, which [`load_records`] tolerates).
#[derive(Debug)]
pub struct JsonlWriter {
    file: std::fs::File,
    path: String,
    written: usize,
}

impl JsonlWriter {
    /// Open for appending (creating the file if needed). An existing file
    /// whose final line was torn by a kill mid-write is truncated back to
    /// its last complete record first, so new records never concatenate
    /// onto the torn tail (and later loads never see it as corruption).
    ///
    /// # Errors
    /// [`SolverError::BadInput`] on I/O failure.
    pub fn append(path: &str) -> Result<Self, SolverError> {
        let io = |e: std::io::Error| SolverError::BadInput(format!("opening store '{path}': {e}"));
        if let Ok(bytes) = std::fs::read(path) {
            if !bytes.is_empty() && bytes.last() != Some(&b'\n') {
                let keep = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1) as u64;
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(path)
                    .and_then(|f| f.set_len(keep))
                    .map_err(io)?;
            }
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(io)?;
        Ok(Self {
            file,
            path: path.to_string(),
            written: 0,
        })
    }

    /// Write and flush one record.
    ///
    /// # Errors
    /// [`SolverError::BadInput`] on I/O failure.
    pub fn record(&mut self, outcome: &CaseOutcome) -> Result<(), SolverError> {
        let mut line = outcome.to_json_line();
        line.push('\n');
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.flush())
            .map_err(|e| SolverError::BadInput(format!("writing store '{}': {e}", self.path)))?;
        self.written += 1;
        Ok(())
    }

    /// Records written through this writer (excludes pre-existing lines).
    #[must_use]
    pub fn written(&self) -> usize {
        self.written
    }
}

/// A loaded store plus the data-loss warnings accumulated while parsing
/// it (see [`load_store`]).
#[derive(Debug, Clone, Default)]
pub struct StoreLoad {
    /// The parsed records, in file (execution) order.
    pub records: Vec<CaseOutcome>,
    /// Counter entries dropped across all records because their names are
    /// unknown to this build (version skew between writer and reader).
    /// Zero for a store written by the same build.
    pub unknown_counters: usize,
}

/// Load all parseable records from a JSONL store. A truncated final line
/// (the kill-mid-write case) is skipped silently; a missing file is an
/// empty store. Interior garbage is an error — that's corruption, not a
/// crash artifact. Counter entries with unknown names are dropped but
/// *counted* on the returned [`StoreLoad`], so version-skewed stores load
/// with the loss surfaced instead of silent.
///
/// # Errors
/// [`SolverError::BadInput`] on unreadable files or malformed interior
/// lines.
pub fn load_store(path: &str) -> Result<StoreLoad, SolverError> {
    let doc = match std::fs::read_to_string(path) {
        Ok(doc) => doc,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(StoreLoad::default()),
        Err(e) => {
            return Err(SolverError::BadInput(format!(
                "reading store '{path}': {e}"
            )))
        }
    };
    let lines: Vec<&str> = doc.lines().filter(|l| !l.trim().is_empty()).collect();
    let mut load = StoreLoad {
        records: Vec::with_capacity(lines.len()),
        unknown_counters: 0,
    };
    for (k, line) in lines.iter().enumerate() {
        match CaseOutcome::parse_with_warnings(line) {
            Ok((rec, unknown)) => {
                load.records.push(rec);
                load.unknown_counters += unknown;
            }
            // Only the final line may be a torn write.
            Err(_) if k + 1 == lines.len() && !doc.ends_with('\n') => {}
            Err(e) => {
                return Err(SolverError::BadInput(format!(
                    "store '{path}' line {}: {e}",
                    k + 1
                )))
            }
        }
    }
    Ok(load)
}

/// [`load_store`] without the warning channel: unknown-counter drops are
/// reported to stderr instead of returned.
///
/// # Errors
/// [`SolverError::BadInput`] on unreadable files or malformed interior
/// lines.
pub fn load_records(path: &str) -> Result<Vec<CaseOutcome>, SolverError> {
    let load = load_store(path)?;
    if load.unknown_counters > 0 {
        eprintln!(
            "warning: store '{path}' carries {} counter entr{} unknown to this \
             build (version skew); they were dropped",
            load.unknown_counters,
            if load.unknown_counters == 1 {
                "y"
            } else {
                "ies"
            }
        );
    }
    Ok(load.records)
}

/// The set of case IDs a resumed sweep can skip: those with a
/// [`CaseStatus::Completed`] (or earlier-`Resumed`) record.
#[must_use]
pub fn completed_ids(records: &[CaseOutcome]) -> std::collections::HashSet<String> {
    records
        .iter()
        .filter(|r| matches!(r.status, CaseStatus::Completed | CaseStatus::Resumed))
        .map(|r| r.id.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(id: &str, status: CaseStatus) -> CaseOutcome {
        CaseOutcome {
            id: id.to_string(),
            status,
            wall_secs: 0.125,
            retries: 2,
            worker: 1,
            note: "δ/Rn = 0.1".to_string(),
            error: match status {
                CaseStatus::Failed => Some("non-finite rho at (3, 4)".to_string()),
                _ => None,
            },
            metrics: vec![
                ("q_conv_w_m2".to_string(), 1.25e5),
                ("nan".to_string(), f64::NAN),
            ],
            counters: vec![("newton_solves", 42), ("newton_iterations", 0)],
            postmortem: match status {
                CaseStatus::Failed => Some("{\"schema\": \"aerothermo-blackbox-v1\"}".to_string()),
                _ => None,
            },
        }
    }

    #[test]
    fn record_roundtrips() {
        for status in [CaseStatus::Completed, CaseStatus::Failed] {
            let rec = sample("case-a", status);
            let back = CaseOutcome::parse(&rec.to_json_line()).expect("roundtrip");
            assert_eq!(back.id, rec.id);
            assert_eq!(back.status, rec.status);
            assert_eq!(back.retries, rec.retries);
            assert_eq!(back.worker, rec.worker);
            assert_eq!(back.note, rec.note);
            assert_eq!(back.error, rec.error);
            assert_eq!(back.metric("q_conv_w_m2"), Some(1.25e5));
            assert!(back.metric("nan").unwrap().is_nan(), "NaN survives as null");
            // Zero counters are elided on write.
            assert_eq!(back.counters, vec![("newton_solves", 42)]);
            assert_eq!(back.postmortem, rec.postmortem);
        }
    }

    #[test]
    fn writer_appends_and_loader_tolerates_torn_tail() {
        let dir = std::env::temp_dir().join(format!("sweep-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("results.jsonl");
        let path = path.to_str().unwrap();

        assert!(
            load_records(path).unwrap().is_empty(),
            "missing file is empty"
        );

        let mut w = JsonlWriter::append(path).unwrap();
        w.record(&sample("a", CaseStatus::Completed)).unwrap();
        w.record(&sample("b", CaseStatus::Failed)).unwrap();
        drop(w);
        // Simulate a kill mid-write: a torn trailing line without newline.
        let mut bytes = std::fs::read(path).unwrap();
        bytes.extend_from_slice(b"{\"id\": \"c\", \"status\": \"comp");
        std::fs::write(path, &bytes).unwrap();

        let records = load_records(path).unwrap();
        assert_eq!(records.len(), 2);
        let done = completed_ids(&records);
        assert!(done.contains("a"));
        assert!(!done.contains("b"), "failed cases re-run on resume");

        // Re-opening for append truncates the torn tail, so the resumed
        // stream stays parseable end to end.
        let mut w = JsonlWriter::append(path).unwrap();
        w.record(&sample("d", CaseStatus::Completed)).unwrap();
        let records = load_records(path).unwrap();
        let ids: Vec<&str> = records.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, ["a", "b", "d"]);

        // Interior garbage (not a torn tail) is corruption and is reported.
        let mut bytes = std::fs::read(path).unwrap();
        bytes.extend_from_slice(b"garbage line\n");
        std::fs::write(path, &bytes).unwrap();
        let err = load_records(path).expect_err("interior garbage is corruption");
        assert!(err.to_string().contains("line 4"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbage_metric_values_are_typed_errors_not_nan() {
        // null is the writers' NaN encoding and must keep loading as NaN …
        let ok = r#"{"id": "a", "status": "completed", "wall_secs": 0.1, "retries": 0, "worker": 0, "note": "", "error": null, "metrics": {"q": null}, "counters": {}}"#;
        let rec = CaseOutcome::parse(ok).expect("null metric parses");
        assert!(rec.metric("q").unwrap().is_nan());
        // … but a string/bool/array there is corruption, not a NaN.
        for bad in [r#""oops""#, "true", "[1]", "{}"] {
            let line = ok.replace("null}", &format!("{bad}}}"));
            let err = CaseOutcome::parse(&line).expect_err(bad);
            assert!(
                err.to_string().contains("must be a number or null"),
                "{bad}: {err}"
            );
            assert!(matches!(err, SolverError::BadInput(_)), "{bad}");
        }
    }

    #[test]
    fn unknown_counters_are_dropped_with_a_warning_count() {
        let line = r#"{"id": "a", "status": "completed", "wall_secs": 0.1, "retries": 0, "worker": 0, "note": "", "error": null, "metrics": {}, "counters": {"newton_solves": 3, "counter_from_the_future": 7, "another_unknown": 1}}"#;
        let (rec, unknown) = CaseOutcome::parse_with_warnings(line).expect("parses");
        assert_eq!(rec.counters, vec![("newton_solves", 3)]);
        assert_eq!(unknown, 2, "both unknown counters are counted, not lost");

        // Non-integer counter values are corruption.
        let bad = line.replace("\"newton_solves\": 3", "\"newton_solves\": 3.5");
        let err = CaseOutcome::parse(&bad).expect_err("fractional counter");
        assert!(err.to_string().contains("non-negative integer"), "{err}");

        // The warning count aggregates across a whole store load.
        let dir = std::env::temp_dir().join(format!("sweep-store-warn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("skewed.jsonl");
        std::fs::write(&path, format!("{line}\n{line}\n")).unwrap();
        let load = load_store(path.to_str().unwrap()).expect("skewed store loads");
        assert_eq!(load.records.len(), 2);
        assert_eq!(load.unknown_counters, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn normalized_fingerprint_is_order_invariant_and_bitwise() {
        let a = sample("a", CaseStatus::Completed);
        let b = sample("b", CaseStatus::Failed);
        let fwd = normalized_fingerprint(&[a.clone(), b.clone()]);
        let rev = normalized_fingerprint(&[b, a.clone()]);
        assert_eq!(fwd, rev, "record order must not matter");
        // A one-ulp metric change must change the fingerprint.
        let mut a2 = a;
        a2.metrics[0].1 = f64::from_bits(a2.metrics[0].1.to_bits() + 1);
        assert_ne!(a2.fingerprint(), rev[0].1);
    }

    #[test]
    fn resumed_counts_as_completed() {
        let records = vec![
            sample("a", CaseStatus::Resumed),
            sample("b", CaseStatus::TimedOut),
        ];
        let done = completed_ids(&records);
        assert!(done.contains("a"));
        assert!(!done.contains("b"));
    }
}
