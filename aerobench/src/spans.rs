//! Spans the benchmark records in memory around its own calls into each
//! layer, the self-time arithmetic over them, and the two trace artifacts:
//! a Chrome trace and `layers.json`.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use aerothermo_numerics::json::{self, write_f64, write_string, Value};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: Cow<'static, str>,
    pub tid: u64,
    pub start_us: f64,
    pub dur_us: f64,
    /// Request or case number: the spans of one request share it.
    pub id: u64,
    /// Name of the span that caused this one; empty for a root.
    pub parent: &'static str,
}

impl Span {
    fn end_us(&self) -> f64 {
        self.start_us + self.dur_us
    }
}

/// Append-only span store with one time origin.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record `[start, end)` and return its duration in µs.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: &'static str,
        id: u64,
        start: Instant,
        end: Instant,
    ) -> f64 {
        let dur_us = (end - start).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name: Cow::Borrowed(name),
            tid: 0,
            start_us: (start - self.origin).as_secs_f64() * 1e6,
            dur_us,
            id,
            parent,
        });
        dur_us
    }
}

/// Self time per span name, in µs: each span's duration minus the part its
/// direct children cover. A span's parent is the innermost span on the
/// same thread that contains it.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut by_tid: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_tid.entry(s.tid).or_default().push(s);
    }
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for group in by_tid.values_mut() {
        group.sort_by(|a, b| {
            a.start_us
                .total_cmp(&b.start_us)
                .then(b.dur_us.total_cmp(&a.dur_us))
        });
        let mut child_us = vec![0.0f64; group.len()];
        let mut open: Vec<usize> = Vec::new();
        for k in 0..group.len() {
            while open
                .last()
                .is_some_and(|&p| group[p].end_us() <= group[k].start_us)
            {
                open.pop();
            }
            if let Some(&p) = open.last() {
                child_us[p] += group[k].dur_us;
            }
            open.push(k);
        }
        for (s, child) in group.iter().zip(child_us) {
            *out.entry(s.name.to_string()).or_default() += s.dur_us - child;
        }
    }
    out
}

/// Parse the `X` events of a Chrome trace written by a figure binary.
pub fn parse_chrome(doc: &str) -> Result<Vec<Span>, String> {
    let v = json::parse(doc).map_err(|e| format!("trace JSON: {e}"))?;
    let events = v
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("trace has no traceEvents array")?;
    let num = |e: &Value, k: &str| e.get(k).and_then(Value::as_f64);
    Ok(events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .filter_map(|e| {
            Some(Span {
                name: Cow::Owned(e.get("name")?.as_str()?.to_string()),
                tid: num(e, "tid")? as u64,
                start_us: num(e, "ts")?,
                dur_us: num(e, "dur")?,
                id: 0,
                parent: "",
            })
        })
        .collect())
}

/// Chrome trace-event JSON of every span of the requests or cases
/// numbered below `max_id` (the rest are kept for the arithmetic but would
/// make the file unwieldy).
pub fn chrome_json(spans: &[Span], max_id: u64) -> String {
    let mut s = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
    for (k, sp) in spans.iter().filter(|sp| sp.id < max_id).enumerate() {
        if k > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\n{{\"name\": {}, \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \
             \"tid\": {}, \"args\": {{\"id\": {}, \"parent\": {}}}}}",
            write_string(&sp.name),
            sp.start_us,
            sp.dur_us,
            sp.tid,
            sp.id,
            write_string(sp.parent),
        );
    }
    s.push_str("\n]}\n");
    s
}

/// The per-workload layer accounting written to `layers.json`.
pub struct Layers {
    /// Traced end-to-end time the self times divide up [s].
    pub end_to_end_s: f64,
    /// Self time per layer [s].
    pub self_s: BTreeMap<String, f64>,
    /// `trace.overhead_pct`: traced versus untraced end-to-end time.
    pub overhead_pct: f64,
}

impl Layers {
    /// End-to-end time no named layer accounts for [s].
    pub fn unattributed_s(&self) -> f64 {
        self.end_to_end_s - self.self_s.values().sum::<f64>()
    }

    pub fn to_json(&self, workload: &str, seed: u64, per_layer: &[(&str, f64)]) -> String {
        let named: f64 = self.self_s.values().sum();
        let closure = (named + self.unattributed_s()) / self.end_to_end_s - 1.0;
        let obj = |pairs: &mut dyn Iterator<Item = (&str, f64)>| {
            let body: Vec<String> = pairs
                .map(|(k, v)| format!("\n    {}: {}", write_string(k), write_f64(v)))
                .collect();
            format!("{{{}\n  }}", body.join(","))
        };
        format!(
            "{{\n  \"workload\": {},\n  \"seed\": {seed},\n  \"end_to_end_s\": {},\n  \
             \"self_s\": {},\n  \"unattributed_s\": {},\n  \"closure_rel_err\": {},\n  \
             \"trace.overhead_pct\": {},\n  \"per_layer\": {}\n}}\n",
            write_string(workload),
            write_f64(self.end_to_end_s),
            obj(&mut self.self_s.iter().map(|(k, v)| (k.as_str(), *v))),
            write_f64(self.unattributed_s()),
            write_f64(closure),
            write_f64(self.overhead_pct),
            obj(&mut per_layer.iter().copied()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, tid: u64, start_us: f64, end_us: f64) -> Span {
        Span {
            name: Cow::Borrowed(name),
            tid,
            start_us,
            dur_us: end_us - start_us,
            id: 0,
            parent: "",
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_per_thread() {
        let spans = [
            span("c", 0, 20.0, 30.0), // inside b, listed first on purpose
            span("a", 0, 0.0, 100.0),
            span("b", 0, 10.0, 40.0),
            span("d", 0, 50.0, 60.0),
            span("a", 0, 60.0, 60.0), // zero-length, touching d's end
            span("e", 0, 120.0, 130.0),
            span("b", 1, 0.0, 50.0), // other thread: not a child of "a"
        ];
        let st = self_times(&spans);
        assert_eq!(st["a"], 100.0 - 30.0 - 10.0);
        assert_eq!(st["b"], 30.0 - 10.0 + 50.0);
        assert_eq!(st["c"], 10.0);
        assert_eq!(st["d"], 10.0);
        assert_eq!(st["e"], 10.0);
        let layers = Layers {
            end_to_end_s: 200e-6,
            self_s: st.iter().map(|(k, v)| (k.clone(), v * 1e-6)).collect(),
            overhead_pct: 0.0,
        };
        // 200 µs wall − (60 + 70 + 10 + 10 + 10) µs of self time
        assert!((layers.unattributed_s() - 40e-6).abs() < 1e-15);
        let doc = json::parse(&layers.to_json("w", 1, &[("x", 1.0)])).expect("layers parse");
        let closure = doc.get("closure_rel_err").and_then(Value::as_f64).unwrap();
        assert!(closure.abs() < 1e-12);
    }

    #[test]
    fn chrome_trace_roundtrips() {
        let mut rec = Recorder::new();
        let t0 = Instant::now();
        rec.record("roundtrip", "", 0, t0, Instant::now());
        rec.record("roundtrip", "", 7, t0, Instant::now());
        rec.record("server.parse", "roundtrip", 0, t0, Instant::now());
        let back = parse_chrome(&chrome_json(&rec.spans, 10)).expect("parses");
        assert_eq!(back.len(), 3);
        assert_eq!(back[2].name, "server.parse");
        let first = parse_chrome(&chrome_json(&rec.spans, 1)).expect("parses");
        assert_eq!(first.len(), 2, "both spans of request 0");
    }
}
