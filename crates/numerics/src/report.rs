//! The `--report` run-summary document, one writer for figure binaries and
//! sweeps alike, so one parser (and one CI gate) reads both.

use crate::json::{self, Layout};
use crate::telemetry::AuditFinding;
use crate::trace::{self, SpanStats};

/// Everything one `--report` document holds, in document order.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Figure or plan name.
    pub figure: String,
    /// Wall-clock seconds of the run.
    pub elapsed_secs: f64,
    /// The run's verdict.
    pub all_green: bool,
    /// `(name, passed, detail)` per qualitative check.
    pub checks: Vec<(String, bool, String)>,
    /// Kernel counter values, zeros included.
    pub counters: Vec<(&'static str, u64)>,
    /// Named scalar metrics.
    pub metrics: Vec<(String, f64)>,
    /// Exact per-span timings.
    pub timings: Vec<SpanStats>,
    /// Named residual histories.
    pub histories: Vec<(String, Vec<f64>)>,
    /// `(solver label, finding)` per audit finding.
    pub audits: Vec<(String, AuditFinding)>,
    /// Findings counted as pass, warn and fail.
    pub audit_summary: [usize; 3],
}

impl RunReport {
    /// The JSON document, newline-terminated.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        json::push_object(&mut s, Layout::Block, |o| {
            o.put("figure", &self.figure);
            o.put("elapsed_secs", self.elapsed_secs);
            o.put("all_green", self.all_green);
            o.array("checks", Layout::Block, |a| {
                for (name, passed, detail) in &self.checks {
                    a.object(|c| {
                        c.put("name", name).put("passed", passed);
                        c.put("detail", detail);
                    });
                }
            });
            o.object("counters", Layout::Block, |c| c.members(&self.counters));
            o.object("metrics", Layout::Block, |m| m.members(&self.metrics));
            o.object("timings", Layout::Inline, |t| {
                trace::write_timings(t, &self.timings);
            });
            o.object("histories", Layout::Block, |h| {
                for (name, hist) in &self.histories {
                    h.put(name, &hist[..]);
                }
            });
            // `best` is the smallest finite value, null for a history that
            // never recorded one: consumers must read null as "no data".
            o.object("history_summaries", Layout::Block, |h| {
                for (name, hist) in &self.histories {
                    let finite = hist.iter().copied().filter(|v| v.is_finite());
                    let best = finite.fold(f64::INFINITY, f64::min);
                    h.object(name, Layout::Inline, |e| {
                        e.put("len", hist.len()).put("best", best);
                        e.put("last", hist.last());
                    });
                }
            });
            o.array("audits", Layout::Block, |a| {
                for (label, f) in &self.audits {
                    a.object(|e| {
                        e.put("solver", label).put("audit", f.audit);
                        e.put("severity", f.severity.name());
                        e.put("value", f.value).put("threshold", f.threshold);
                        e.put("step", f.step).put("detail", &f.detail);
                    });
                }
            });
            let [pass, warn, fail] = self.audit_summary;
            o.object("audit_summary", Layout::Inline, |e| {
                e.put("pass", pass).put("warn", warn).put("fail", fail);
            });
        });
        s.push('\n');
        s
    }
}
