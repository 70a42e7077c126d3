//! The one instrumentation registry: exact RAII span timing, the kernel
//! counters and gauges, and Chrome trace-event export.
//!
//! [`span`] opens a guard around a hot kernel (Newton solves, tridiagonal
//! sweeps, chemistry substeps, equilibrium lookups, spectrum integration,
//! solver steps). Every guard reads the clock twice and, on drop, records
//! the duration into the calling thread's shard: call count, total, min,
//! max and a log-bucketed [`Histogram`] per label. Nothing is sampled, so a
//! label's `total_ns` is the exact sum of its durations.
//!
//! [`enable_timeline`] (the `--trace` switch) additionally keeps every
//! occurrence as a Chrome `"X"` event built from the same clock pair, so a
//! timeline and its aggregates cannot disagree. [`chrome_trace_json`] opens
//! in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
//!
//! The kernel counters of [`crate::telemetry::counters`] live in the same
//! shard: an add is one owner-only relaxed store, and a snapshot sums the
//! shards. When a thread exits, its shard folds into a retired total and
//! leaves the registry, so short-lived threads (vendored-rayon chunks,
//! daemon jobs) never grow it.
//!
//! Shard merges are bucket-wise `u64` addition and min/max folds, so the
//! merged statistics are independent of thread count and merge order;
//! quantiles come from fixed bucket bounds, never interpolation.

use crate::json::{self, Layout, Raw};
use crate::telemetry::counters::{Counter, N_COUNTERS};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Per-thread timeline cap: beyond this a thread drops events (its
/// aggregates keep counting) so a pathological run cannot exhaust memory.
/// 2^20 complete events ≈ 48 MiB of JSON — ample for every figure run.
const MAX_EVENTS_PER_THREAD: usize = 1 << 20;

/// Sub-bucket resolution: 2^3 = 8 sub-buckets per power-of-two octave.
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;
/// Values below `SUB` ns get exact unit buckets; above, octave × sub-bucket.
const N_BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

fn bucket_index(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let top = 63 - ns.leading_zeros(); // >= SUB_BITS
    let sub = ((ns >> (top - SUB_BITS)) & (SUB as u64 - 1)) as usize;
    SUB + (top - SUB_BITS) as usize * SUB + sub
}

/// Inclusive upper bound (ns) of bucket `idx`.
fn bucket_upper_ns(idx: usize) -> u64 {
    if idx < SUB {
        return idx as u64;
    }
    let rel = idx - SUB;
    let top = SUB_BITS + (rel / SUB) as u32;
    let sub = (rel % SUB) as u64;
    let lower = (1u64 << top) | (sub << (top - SUB_BITS));
    // Parenthesized so the top bucket (upper == u64::MAX) cannot overflow.
    lower + ((1u64 << (top - SUB_BITS)) - 1)
}

/// A log-bucketed duration histogram over `u64` nanoseconds (8 sub-buckets
/// per octave, at most ~12.5 % relative bucket width).
///
/// Merging ([`Histogram::merge`]) is bucket-wise addition plus min/max
/// folds, so any merge order (or sharding) of the same observations yields
/// a bitwise-identical result.
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Box<[u64; N_BUCKETS]>,
    /// Observations recorded.
    pub count: u64,
    /// Sum of recorded durations \[ns\].
    pub sum_ns: u64,
    /// Smallest recorded duration \[ns\] (`u64::MAX` when empty).
    pub min_ns: u64,
    /// Largest recorded duration \[ns\].
    pub max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum_ns", &self.sum_ns)
            .field("min_ns", &self.min_ns)
            .field("max_ns", &self.max_ns)
            .finish_non_exhaustive()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: Box::new([0; N_BUCKETS]),
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Record one duration \[ns\].
    pub fn observe_ns(&mut self, ns: u64) {
        self.buckets[bucket_index(ns)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Fold another histogram into this one (commutative, associative).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Mean recorded duration \[ns\] (0 when empty).
    #[must_use]
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// The `q`-quantile (`0 < q <= 1`) as the upper bound of the bucket
    /// holding the `ceil(q·count)`-th smallest observation; 0 when empty.
    #[must_use]
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_ns(idx).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Non-empty buckets as `(upper_bound_ns, cumulative_count)` pairs —
    /// the shape Prometheus `le` histogram series want.
    #[must_use]
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            if c > 0 {
                cum += c;
                out.push((bucket_upper_ns(idx), cum));
            }
        }
        out
    }
}

/// Merged statistics of one span label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStats {
    /// Span label (the aggregation key).
    pub label: &'static str,
    /// Every recorded duration: `count`, exact `sum_ns`, min, max, buckets.
    pub hist: Histogram,
}

/// Write one `label: entry` member per span into `o`, each entry holding
/// `calls`, `p50_ns`, `p90_ns`, `p99_ns`, `min_ns`, `max_ns`, `mean_ns`
/// and the exact `total_ns` — the `timings` section of every report, the
/// `spans` section of a perf snapshot and the daemon's `metrics` timings.
pub fn write_timings(o: &mut json::Object<'_>, stats: &[SpanStats]) {
    for st in stats {
        let h = &st.hist;
        o.object(st.label, Layout::Inline, |e| {
            e.put("calls", h.count);
            for (key, q) in [("p50_ns", 0.50), ("p90_ns", 0.90), ("p99_ns", 0.99)] {
                e.put(key, h.quantile_ns(q));
            }
            e.put("min_ns", if h.count == 0 { 0 } else { h.min_ns });
            e.put("max_ns", h.max_ns).put("mean_ns", h.mean_ns());
            e.put("total_ns", h.sum_ns);
        });
    }
}

fn merge_stats(into: &mut Vec<SpanStats>, from: &[SpanStats]) {
    for s in from {
        match into.iter_mut().find(|m| m.label == s.label) {
            Some(m) => m.hist.merge(&s.hist),
            None => into.push(s.clone()),
        }
    }
}

/// One completed span occurrence on the timeline.
#[derive(Debug, Clone)]
struct SpanEvent {
    label: &'static str,
    tid: usize,
    /// Start offset from the timeline epoch \[ns\].
    start_ns: u64,
    dur_ns: u64,
}

/// The lock-protected half of a shard (and of the retired total).
#[derive(Default)]
struct Spans {
    stats: Vec<SpanStats>,
    events: Vec<SpanEvent>,
}

impl Spans {
    fn record(&mut self, label: &'static str, tid: usize, start: Instant, dur_ns: u64) {
        // Labels are literals: the pointer test settles almost every probe.
        let hit = self
            .stats
            .iter_mut()
            .find(|s| std::ptr::eq(s.label.as_ptr(), label.as_ptr()) || s.label == label);
        match hit {
            Some(s) => s.hist.observe_ns(dur_ns),
            None => {
                let mut hist = Histogram::new();
                hist.observe_ns(dur_ns);
                self.stats.push(SpanStats { label, hist });
            }
        }
        if TIMELINE.load(Ordering::Relaxed) && self.events.len() < MAX_EVENTS_PER_THREAD {
            self.events.push(SpanEvent {
                label,
                tid,
                start_ns: start.saturating_duration_since(epoch()).as_nanos() as u64,
                dur_ns,
            });
        }
    }
}

/// One thread's instrumentation state.
struct Shard {
    tid: usize,
    /// Written only by the owning thread; read by snapshots.
    counters: [AtomicU64; N_COUNTERS],
    spans: Mutex<Spans>,
}

#[derive(Default)]
struct Registry {
    live: Vec<Arc<Shard>>,
    /// Everything recorded by threads that have exited.
    retired_counters: [u64; N_COUNTERS],
    retired_spans: Spans,
    /// Counter totals at the last [`reset_all`], subtracted from snapshots
    /// so a reset never disturbs another thread's open `TelemetryScope`.
    counter_base: [u64; N_COUNTERS],
}

impl Registry {
    fn counter_totals(&self) -> [u64; N_COUNTERS] {
        let mut t = self.retired_counters;
        for shard in &self.live {
            for (v, c) in t.iter_mut().zip(&shard.counters) {
                *v += c.load(Ordering::Relaxed);
            }
        }
        t
    }
}

/// Lock recovering from poison: every critical section leaves the data
/// consistent, and instrumentation must never turn one panic into many.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn registry() -> MutexGuard<'static, Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    relock(REGISTRY.get_or_init(Mutex::default))
}

/// The calling thread's registration; retires the shard on thread exit.
struct Local(Arc<Shard>);

impl Drop for Local {
    fn drop(&mut self) {
        let mut reg = registry();
        reg.live.retain(|s| !Arc::ptr_eq(s, &self.0));
        for (r, c) in reg.retired_counters.iter_mut().zip(&self.0.counters) {
            *r += c.load(Ordering::Relaxed);
        }
        let spans = std::mem::take(&mut *relock(&self.0.spans));
        merge_stats(&mut reg.retired_spans.stats, &spans.stats);
        reg.retired_spans.events.extend(spans.events);
    }
}

thread_local! {
    static LOCAL: Local = {
        let shard = Arc::new(Shard {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            spans: Mutex::default(),
        });
        registry().live.push(Arc::clone(&shard));
        Local(shard)
    };
}

static TIMELINE: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicUsize = AtomicUsize::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Start keeping Chrome-timeline events (sets the trace epoch on first
/// call). Aggregates are recorded either way.
pub fn enable_timeline() {
    epoch();
    TIMELINE.store(true, Ordering::SeqCst);
}

/// Stop keeping timeline events; those already kept stay until exported.
pub fn disable_timeline() {
    TIMELINE.store(false, Ordering::SeqCst);
}

/// Whether spans are currently kept as timeline events.
#[must_use]
pub fn timeline_enabled() -> bool {
    TIMELINE.load(Ordering::Relaxed)
}

/// RAII guard returned by [`span`]; records the span on drop.
#[must_use = "a span guard records on drop; binding it to _ closes it immediately"]
pub struct Span {
    label: &'static str,
    start: Instant,
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur_ns = self.start.elapsed().as_nanos() as u64;
        // try_with: a span closing during TLS teardown is not recorded.
        let _ =
            LOCAL.try_with(|l| relock(&l.0.spans).record(self.label, l.0.tid, self.start, dur_ns));
    }
}

/// Open a span; it closes (and records) when the guard drops. Labels must
/// be static strings — they are the aggregation key.
#[inline]
pub fn span(label: &'static str) -> Span {
    Span {
        label,
        start: Instant::now(),
    }
}

/// Run `f` under a span (convenience wrapper for non-lexical scopes).
#[inline]
pub fn spanned<R>(label: &'static str, f: impl FnOnce() -> R) -> R {
    let _sp = span(label);
    f()
}

/// Add `n` to counter `c` in the calling thread's shard.
#[inline]
pub(crate) fn add_counter(c: Counter, n: u64) {
    let _ = LOCAL.try_with(|l| {
        let slot = &l.0.counters[c as usize];
        slot.store(
            slot.load(Ordering::Relaxed).wrapping_add(n),
            Ordering::Relaxed,
        );
    });
}

/// The calling thread's counters since it started.
pub(crate) fn thread_counters() -> [u64; N_COUNTERS] {
    let mut v = [0; N_COUNTERS];
    let _ = LOCAL.try_with(|l| {
        for (v, c) in v.iter_mut().zip(&l.0.counters) {
            *v = c.load(Ordering::Relaxed);
        }
    });
    v
}

/// Process-wide counter totals since the last [`reset_all`]: every live
/// shard plus every retired one.
pub(crate) fn counter_totals() -> [u64; N_COUNTERS] {
    let reg = registry();
    let mut t = reg.counter_totals();
    for (v, b) in t.iter_mut().zip(&reg.counter_base) {
        *v = v.saturating_sub(*b);
    }
    t
}

/// Merged per-label statistics over every thread, live or exited, sorted
/// by total time descending.
#[must_use]
pub fn stats() -> Vec<SpanStats> {
    let reg = registry();
    let mut merged = reg.retired_spans.stats.clone();
    for shard in &reg.live {
        merge_stats(&mut merged, &relock(&shard.spans).stats);
    }
    merged.sort_by_key(|s| std::cmp::Reverse(s.hist.sum_ns));
    merged
}

/// Clear every span statistic and timeline event, zero the gauges, and
/// rebase the process-wide counter totals to zero. Per-thread counters are
/// left alone, so open `TelemetryScope` windows stay exact. For tests and
/// bench harnesses, not mid-run.
pub fn reset_all() {
    let mut reg = registry();
    reg.counter_base = reg.counter_totals();
    reg.retired_spans = Spans::default();
    for shard in &reg.live {
        *relock(&shard.spans) = Spans::default();
    }
    for g in &GAUGES {
        g.store(0, Ordering::Relaxed);
    }
}

fn chrome_document<'a>(parts: impl IntoIterator<Item = &'a [SpanEvent]>) -> String {
    // One event per line, unindented: the metadata event first, so every
    // span event follows a separator.
    let mut events = String::with_capacity(1 << 16);
    events.push_str("[\n");
    json::push_object(&mut events, Layout::Inline, |o| {
        o.put("name", "process_name").put("ph", "M");
        o.put("pid", 1u32).put("tid", 0u32);
        o.object("args", Layout::Inline, |a| {
            a.put("name", "aerothermo");
        });
    });
    for e in parts.into_iter().flatten() {
        events.push_str(",\n");
        json::push_object(&mut events, Layout::Inline, |o| {
            o.put("name", e.label).put("cat", "aerothermo");
            o.put("ph", "X");
            o.put("ts", Raw(&format!("{:.3}", e.start_ns as f64 / 1e3)));
            o.put("dur", Raw(&format!("{:.3}", e.dur_ns as f64 / 1e3)));
            o.put("pid", 1u32).put("tid", e.tid);
        });
    }
    events.push_str("\n]");
    let mut s = json::write_object(Layout::Inline, |o| {
        o.put("displayTimeUnit", "ms");
        o.put("traceEvents", Raw(&events));
    });
    s.push('\n');
    s
}

/// Every kept timeline event as Chrome trace-event JSON (`"X"` complete
/// events, timestamps in µs).
#[must_use]
pub fn chrome_trace_json() -> String {
    let reg = registry();
    let live: Vec<_> = reg.live.iter().map(|s| relock(&s.spans)).collect();
    chrome_document(
        std::iter::once(&reg.retired_spans)
            .chain(live.iter().map(|g| &**g))
            .map(|s| s.events.as_slice()),
    )
}

/// Drain the *calling thread's* timeline events into a standalone Chrome
/// trace document; `None` when it kept none. The sweep engine pins each
/// case to one thread, so this is that case's timeline, and draining keeps
/// the worker's next case from inheriting it. Aggregates are untouched.
#[must_use]
pub fn drain_thread_chrome_json() -> Option<String> {
    LOCAL.with(|l| {
        let events = std::mem::take(&mut relock(&l.0.spans).events);
        (!events.is_empty()).then(|| chrome_document([events.as_slice()]))
    })
}

/// Last-write-wins scalar gauges. A gauge is a level, not a sum, so it
/// cannot merge across shards; each is one process-wide atomic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Current adaptive CFL scale of the most recent controlled run.
    CflScale,
    /// Sweep workers currently executing a case.
    SweepWorkersBusy,
    /// Cases finished (any status) in the current sweep.
    SweepCasesDone,
    /// Cases planned in the current sweep.
    SweepCasesTotal,
}

impl Gauge {
    /// Every gauge, in declaration (and exposition) order.
    pub const ALL: [Gauge; 4] = [
        Gauge::CflScale,
        Gauge::SweepWorkersBusy,
        Gauge::SweepCasesDone,
        Gauge::SweepCasesTotal,
    ];

    /// Stable snake_case name used in JSON and Prometheus exposition.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Gauge::CflScale => "cfl_scale",
            Gauge::SweepWorkersBusy => "sweep_workers_busy",
            Gauge::SweepCasesDone => "sweep_cases_done",
            Gauge::SweepCasesTotal => "sweep_cases_total",
        }
    }
}

/// Gauge storage: f64 bit patterns (0.0 initially).
static GAUGES: [AtomicU64; Gauge::ALL.len()] = [const { AtomicU64::new(0) }; Gauge::ALL.len()];

/// Set a gauge to `value`.
pub fn set_gauge(g: Gauge, value: f64) {
    GAUGES[g as usize].store(value.to_bits(), Ordering::Relaxed);
}

/// Current value of a gauge.
#[must_use]
pub fn gauge(g: Gauge) -> f64 {
    f64::from_bits(GAUGES[g as usize].load(Ordering::Relaxed))
}

/// Everything the registry holds at one instant: span statistics, gauges
/// and counter totals — the daemon's `metrics` exposition.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Per-label span statistics, as [`stats`].
    pub timings: Vec<SpanStats>,
    /// `(name, value)` for every gauge, in [`Gauge::ALL`] order.
    pub gauges: Vec<(&'static str, f64)>,
    /// `(name, value)` for every counter, in declaration order.
    pub counters: Vec<(&'static str, u64)>,
}

/// Take a [`MetricsSnapshot`].
#[must_use]
pub fn snapshot() -> MetricsSnapshot {
    let counters = crate::telemetry::CounterSnapshot::take();
    MetricsSnapshot {
        timings: stats(),
        gauges: Gauge::ALL.iter().map(|&g| (g.name(), gauge(g))).collect(),
        counters: counters.iter().collect(),
    }
}

impl MetricsSnapshot {
    /// JSON object `{"timings": {...}, "gauges": {...}, "counters": {...}}`
    /// (nonzero counters only). Timings are wall-clock and must stay out of
    /// bitwise-compared payloads.
    #[must_use]
    pub fn to_json(&self) -> String {
        json::write_object(Layout::Inline, |o| {
            o.object("timings", Layout::Inline, |t| {
                write_timings(t, &self.timings)
            });
            o.object("gauges", Layout::Inline, |g| g.members(&self.gauges));
            let nonzero = self.counters.iter().filter(|(_, v)| *v != 0);
            o.object("counters", Layout::Inline, |c| c.members(nonzero));
        })
    }

    /// Prometheus-style text exposition (durations in seconds, cumulative
    /// `le` buckets at non-empty boundaries, `+Inf` terminal).
    #[must_use]
    pub fn prometheus_text(&self) -> String {
        let mut s = String::with_capacity(1 << 12);
        for (name, v) in &self.counters {
            s.push_str(&format!(
                "# TYPE aerothermo_{name}_total counter\naerothermo_{name}_total {v}\n"
            ));
        }
        for (name, v) in &self.gauges {
            let v = if v.is_finite() {
                v.to_string()
            } else {
                "NaN".into()
            };
            s.push_str(&format!(
                "# TYPE aerothermo_{name} gauge\naerothermo_{name} {v}\n"
            ));
        }
        for t in &self.timings {
            let (name, h) = (t.label, &t.hist);
            s.push_str(&format!("# TYPE aerothermo_{name}_seconds histogram\n"));
            for (upper_ns, cum) in h.cumulative_buckets() {
                s.push_str(&format!(
                    "aerothermo_{name}_seconds_bucket{{le=\"{}\"}} {cum}\n",
                    upper_ns as f64 / 1e9
                ));
            }
            s.push_str(&format!(
                "aerothermo_{name}_seconds_bucket{{le=\"+Inf\"}} {c}\n\
                 aerothermo_{name}_seconds_sum {}\naerothermo_{name}_seconds_count {c}\n",
                h.sum_ns as f64 / 1e9,
                c = h.count
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::CounterSnapshot;

    /// The registry is process-global; serialize the tests that reset it
    /// or assert on totals.
    fn lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        relock(&LOCK)
    }

    fn label_stats(label: &str) -> Option<SpanStats> {
        stats().into_iter().find(|s| s.label == label)
    }

    #[test]
    fn bucket_bounds_are_monotone_and_tight() {
        for idx in 1..N_BUCKETS {
            assert!(
                bucket_upper_ns(idx) > bucket_upper_ns(idx - 1),
                "bucket {idx}"
            );
            if (SUB..N_BUCKETS - 1).contains(&idx) {
                let width = (bucket_upper_ns(idx) - bucket_upper_ns(idx - 1)) as f64;
                assert!(width / bucket_upper_ns(idx) as f64 <= 0.126, "bucket {idx}");
            }
        }
        for ns in [0u64, 1, 7, 8, 9, 100, 999, 1_000, 123_456, u64::MAX / 2] {
            let idx = bucket_index(ns);
            assert!(ns <= bucket_upper_ns(idx), "ns={ns} above bucket upper");
            assert!(idx == 0 || ns > bucket_upper_ns(idx - 1), "ns={ns}");
        }
    }

    #[test]
    fn quantiles_bracket_observations() {
        let mut h = Histogram::new();
        for ns in 1..=1000u64 {
            h.observe_ns(ns);
        }
        assert_eq!((h.count, h.sum_ns), (1000, 500_500));
        assert!((450..=600).contains(&h.quantile_ns(0.50)));
        assert!((900..=1100).contains(&h.quantile_ns(0.99)));
        assert_eq!(h.quantile_ns(1.0), h.max_ns);
    }

    #[test]
    fn nested_spans_aggregate_exactly_per_label() {
        let _g = lock();
        reset_all();
        for _ in 0..3 {
            let _outer = span("trace_test_outer");
            for _ in 0..4 {
                let _inner = span("trace_test_inner");
                std::hint::black_box(1.0_f64.sqrt());
            }
        }
        let outer = label_stats("trace_test_outer").unwrap();
        let inner = label_stats("trace_test_inner").unwrap();
        assert_eq!((outer.hist.count, inner.hist.count), (3, 12));
        assert!(outer.hist.sum_ns >= inner.hist.sum_ns);
        assert!(outer.hist.min_ns <= outer.hist.max_ns);
        reset_all();
        assert!(label_stats("trace_test_outer").is_none());
    }

    #[test]
    fn chrome_export_is_balanced_json_with_events() {
        use crate::json::Value;
        let _g = lock();
        reset_all();
        enable_timeline();
        spanned("trace_test_export", || std::hint::black_box(2 + 2));
        std::thread::spawn(|| spanned("trace_test_export", || std::hint::black_box(1 + 1)))
            .join()
            .unwrap();
        disable_timeline();
        spanned("trace_test_untimed", || std::hint::black_box(3 + 3));
        let json = chrome_trace_json();
        let untimed = label_stats("trace_test_untimed").map(|s| s.hist.count);
        reset_all();
        // With the timeline off the span is still aggregated, not drawn.
        assert_eq!(untimed, Some(1));
        assert!(!json.contains("trace_test_untimed"));
        let doc = crate::json::parse(&json).expect("trace JSON parses");
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        let mut tids = Vec::new();
        for e in events {
            if e.get("name").and_then(Value::as_str) != Some("trace_test_export") {
                continue;
            }
            assert_eq!(e.get("ph").and_then(Value::as_str), Some("X"));
            for key in ["ts", "dur", "pid", "tid"] {
                assert!(e.get(key).and_then(Value::as_f64).is_some(), "{key}");
            }
            tids.push(e.get("tid").and_then(Value::as_f64).unwrap());
        }
        // The caller and the worker each get their own track.
        assert_eq!(tids.len(), 2);
        assert_ne!(tids[0], tids[1]);
    }

    #[test]
    fn exited_threads_retire_their_shards_without_losing_counts() {
        fn os_threads() -> usize {
            std::fs::read_dir("/proc/self/task").map_or(usize::MAX, Iterator::count)
        }
        let _g = lock();
        reset_all();
        let before = CounterSnapshot::take();
        for _ in 0..10 {
            let handles: Vec<_> = (0..100)
                .map(|_| {
                    std::thread::spawn(|| {
                        spanned("trace_test_retire", || std::hint::black_box(3 + 3));
                        crate::telemetry::counters::add(Counter::SurrogateBuilds, 1);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        }
        let threads_before = os_threads();
        let shards = registry().live.len();
        let threads = threads_before.max(os_threads());
        assert!(
            shards <= threads,
            "{shards} shards for {threads} live threads"
        );
        let delta = CounterSnapshot::take().delta_since(&before);
        assert_eq!(delta.get(Counter::SurrogateBuilds), 1000);
        assert_eq!(label_stats("trace_test_retire").unwrap().hist.count, 1000);
        reset_all();
    }

    #[test]
    fn snapshot_expositions_are_well_formed() {
        let _g = lock();
        reset_all();
        spanned("trace_test_expo", || std::hint::black_box(1));
        set_gauge(Gauge::CflScale, 1.0);
        let snap = snapshot();
        let v = crate::json::parse(&snap.to_json()).expect("snapshot JSON parses");
        let t = v
            .get("timings")
            .and_then(|t| t.get("trace_test_expo"))
            .unwrap();
        assert_eq!(
            t.get("calls").and_then(crate::json::Value::as_f64),
            Some(1.0)
        );
        let quantile = |k: &str| t.get(k).and_then(crate::json::Value::as_f64).unwrap();
        assert!(quantile("p50_ns") > 0.0 && quantile("p99_ns") >= quantile("p50_ns"));
        let text = snap.prometheus_text();
        assert!(text.contains("# TYPE aerothermo_trace_test_expo_seconds histogram"));
        assert!(text.contains("aerothermo_trace_test_expo_seconds_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("aerothermo_trace_test_expo_seconds_count 1"));
        assert!(text.contains("aerothermo_cfl_scale 1\n"));
        reset_all();
        assert_eq!(gauge(Gauge::CflScale), 0.0);
    }
}
