//! `aerobench` — end-to-end and per-layer benchmark of the shipped
//! programs: the `aerothermod` daemon, the `sweep` driver and the figure
//! binaries, all driven from outside as a user runs them.
//!
//! ```text
//! aerobench --workload NAME --seed N [--seconds S] [--trace 0|1] [--repeat N]
//! ```
//!
//! Prints `name value unit` for every end-to-end metric (`--trace 0`) or
//! every per-layer metric (`--trace 1`, a separate run that also writes a
//! Chrome trace and `layers.json` under `aerobench-out/`), then one JSON
//! line `{"correct", "attempted", "failed", "metrics"}`. Outputs are
//! checked; any failed operation or check makes `correct` false and the
//! exit code 1. `--repeat N` measures N sets and prints each metric's
//! median, quartiles and the regression bound they suggest. See
//! `aerobench/README.md` for the workloads and metrics.

mod calib;
mod figures;
mod gen;
mod proc;
mod serve;
mod spans;
mod stats;
mod sweep;

use std::collections::{BTreeMap, BTreeSet};

use aerothermo_numerics::json::{self, write_f64, write_string, Value};

use spans::{chrome_json, Layers, Span};

pub const WORKLOADS: [&str; 4] = ["serve-point", "serve-batch", "sweep-envelope", "figures"];

/// Every workload reports all of these (name, unit).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("throughput", "1/s"),
    ("rss_peak_mb", "MiB"),
];

/// Per-layer metrics (name, unit). A workload reports 0 for a layer it
/// never reaches.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("client.encode_us", "us"),
    ("roundtrip_us", "us"),
    ("server.parse_us", "us"),
    ("surrogate.query_us", "us"),
    ("exact.evaluate_us", "us"),
    ("server.serialize_us", "us"),
    ("client.parse_us", "us"),
    ("transport.unattributed_us", "us"),
    ("surrogate.query_batch_us", "us"),
    ("bytes_in", "bytes"),
    ("bytes_out", "bytes"),
    ("point_p99_us", "us"),
    ("batch_p99_ms", "ms"),
    ("calibration.kernel_us", "us"),
    ("surrogate.max_rel_err", "ratio"),
    ("daemon.surrogate_builds", "count"),
    ("daemon.surrogate_queries", "count"),
    ("daemon.surrogate_exact_fallbacks", "count"),
    ("gas.air9_table_ms", "ms"),
    ("gas.titan_build_ms", "ms"),
    ("gas.air9_build_ms", "ms"),
    ("runner.correlation_ms", "ms"),
    ("runner.vsl_air9_ms", "ms"),
    ("runner.vsl_titan_ms", "ms"),
    ("runner.vsl_titan_rad_ms", "ms"),
    ("runner.euler_air9_ms", "ms"),
    ("runner.euler_ideal_ms", "ms"),
    ("runner.ns_ms", "ms"),
    ("runner.pns_ms", "ms"),
    ("store.record_us", "us"),
    ("sweep.serial_s", "s"),
    ("sweep.unattributed_s", "s"),
    ("pool.parallel_efficiency", "ratio"),
    ("gas.equilibrium_states", "count"),
    ("gas.newton_iterations", "count"),
    ("gas.cache_hit_ratio", "ratio"),
    ("solvers.faces_evaluated", "count"),
    ("ode.reject_ratio", "ratio"),
    ("runctl.rollbacks", "count"),
    ("fig02.wall_s", "s"),
    ("fig02.unattributed_s", "s"),
    ("fig02.gas.equilibrium_state_s", "s"),
    ("fig02.numerics.newton_solve_s", "s"),
    ("fig02.radiation.spectrum_integration_s", "s"),
    ("fig02.newton_iterations", "count"),
    ("fig02.equilibrium_cache_hit_ratio", "ratio"),
    ("fig03.wall_s", "s"),
    ("fig03.unattributed_s", "s"),
    ("fig03.gas.equilibrium_state_s", "s"),
    ("fig03.numerics.newton_solve_s", "s"),
    ("fig03.radiation.spectrum_integration_s", "s"),
    ("fig03.newton_iterations", "count"),
    ("fig03.equilibrium_cache_hit_ratio", "ratio"),
    ("fig07.wall_s", "s"),
    ("fig07.unattributed_s", "s"),
    ("fig07.numerics.stiff_integrate_s", "s"),
    ("fig07.ode_steps_accepted", "count"),
    ("fig07.ode_steps_rejected", "count"),
    ("trace.overhead_pct", "%"),
];

/// Named metric values of one set.
pub type Metrics = Vec<(&'static str, f64)>;

/// Name and unit of each metric one mode prints.
type Table = [(&'static str, &'static str)];

/// Requests (or cases) whose spans go into the Chrome trace; the
/// arithmetic uses all of them.
const CHROME_REQUESTS: u64 = 2_000;

/// What one measured set of a workload produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
    metrics: Metrics,
    traced: Option<(Metrics, Layers, Vec<Span>)>,
}

impl Outcome {
    pub fn new(attempted: usize) -> Self {
        Self {
            attempted: attempted as u64,
            failed: 0,
            problems: Vec::new(),
            metrics: Vec::new(),
            traced: None,
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// A failed check counts as one failure.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.failed += 1;
            self.problems.push(what.to_string());
        }
    }

    /// Count each failed operation once, however many of its checks failed.
    pub fn fail_ops(&mut self, ops: impl Iterator<Item = usize>) {
        let ops: BTreeSet<usize> = ops.collect();
        if !ops.is_empty() {
            self.problems.push(format!(
                "{} operations failed or answered wrongly",
                ops.len()
            ));
        }
        self.failed += ops.len() as u64;
    }

    pub fn trace(&mut self, mut per_layer: Metrics, layers: Layers, spans: Vec<Span>) {
        // An empty float sum is -0; print it as 0.
        for (_, v) in &mut per_layer {
            *v += 0.0;
        }
        per_layer.push(("trace.overhead_pct", layers.overhead_pct));
        self.traced = Some((per_layer, layers, spans));
    }
}

/// Counters of a `--report` JSON written by a figure binary or the sweep
/// driver, which must report `all_green`.
pub fn report_counters(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let doc = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = json::parse(&doc).map_err(|e| format!("{path}: {e}"))?;
    if v.get("all_green") != Some(&Value::Bool(true)) {
        return Err(format!("{path}: report is not all_green"));
    }
    let counters = v
        .get("counters")
        .and_then(Value::as_object)
        .ok_or_else(|| format!("{path}: no counters"))?;
    Ok(counters
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let Some(flag) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument '{a}'"));
        };
        let (k, v) = match flag.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (
                flag.to_string(),
                it.next().ok_or_else(|| format!("--{flag} needs a value"))?,
            ),
        };
        flags.insert(k, v);
    }
    let mut take = |k: &str| flags.remove(k);
    let workload = take("workload").ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {WORKLOADS:?})"
        ));
    }
    let seed = take("seed")
        .ok_or("--seed is required")?
        .parse()
        .map_err(|_| "--seed expects an unsigned integer")?;
    let seconds: f64 = take("seconds").map_or(Ok(15.0), |s| {
        s.parse()
            .map_err(|_| format!("--seconds expects a number, got '{s}'"))
    })?;
    let trace = match take("trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace expects 0 or 1, got '{other}'")),
    };
    let repeat: usize = take("repeat").map_or(Ok(1), |s| {
        s.parse()
            .map_err(|_| format!("--repeat expects a whole number, got '{s}'"))
    })?;
    if let Some(k) = flags.keys().next() {
        return Err(format!("unknown flag --{k}"));
    }
    if !(seconds.is_finite() && seconds > 0.0) || repeat == 0 {
        return Err("--seconds must be positive and --repeat at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        repeat,
    })
}

fn run_set(a: &Args) -> Result<Outcome, String> {
    match a.workload.as_str() {
        "serve-point" => serve::run(serve::Mode::Point, a.seed, a.seconds, a.trace),
        "serve-batch" => serve::run(serve::Mode::Batch, a.seed, a.seconds, a.trace),
        "sweep-envelope" => sweep::run(a.seed, a.seconds, a.trace),
        _ => figures::run(a.seed, a.seconds, a.trace),
    }
}

/// The metrics this mode prints, from one set.
fn reported(a: &Args, o: &Outcome) -> Vec<(&'static str, &'static str, f64)> {
    let (table, values): (&Table, &Metrics) = match &o.traced {
        Some((per_layer, ..)) if a.trace => (&PER_LAYER, per_layer),
        _ => (&END_TO_END, &o.metrics),
    };
    table
        .iter()
        .map(|&(name, unit)| {
            let v = values.iter().find(|(n, _)| *n == name).map_or(0.0, |p| p.1);
            (name, unit, v)
        })
        .collect()
}

/// Write the Chrome trace and `layers.json` of a traced set.
fn write_trace(a: &Args, o: &Outcome) -> Result<(), String> {
    let Some((per_layer, layers, spans)) = &o.traced else {
        return Ok(());
    };
    let dir = std::path::Path::new(proc::OUT_DIR).join(format!("{}-seed{}", a.workload, a.seed));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let write = |name: &str, body: String| {
        let path = dir.join(name);
        std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))
    };
    write("trace.json", chrome_json(spans, CHROME_REQUESTS))?;
    write(
        "layers.json",
        layers.to_json(&a.workload, a.seed, per_layer),
    )?;
    eprintln!("# trace artifacts written to {}", dir.display());
    Ok(())
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("aerobench: {e}");
            eprintln!(
                "usage: aerobench --workload NAME --seed N [--seconds S] [--trace 0|1] [--repeat N]"
            );
            std::process::exit(2);
        }
    };
    println!(
        "# aerobench workload={} seed={} seconds={} trace={} repeat={}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        a.repeat
    );
    let mut sets = Vec::with_capacity(a.repeat);
    for _ in 0..a.repeat {
        match run_set(&a) {
            Ok(o) => sets.push(o),
            Err(e) => {
                eprintln!("aerobench: {e}");
                std::process::exit(1);
            }
        }
    }
    let last = sets.last().expect("repeat ≥ 1");
    if let Err(e) = write_trace(&a, last) {
        eprintln!("aerobench: {e}");
        std::process::exit(1);
    }

    let columns: Vec<Vec<(&str, &str, f64)>> = sets.iter().map(|o| reported(&a, o)).collect();
    let mut problems: Vec<String> = sets.iter().flat_map(|o| o.problems.clone()).collect();
    let mut failed: u64 = sets.iter().map(|o| o.failed).sum();
    let mut result = Vec::new();
    for (k, &(name, unit, _)) in columns[0].iter().enumerate() {
        let values: Vec<f64> = columns.iter().map(|c| c[k].2).collect();
        let v = stats::median(&values);
        if !v.is_finite() {
            problems.push(format!("{name} was not measured"));
            failed += 1;
        }
        if values.len() > 1 {
            let [q1, _, q3] = stats::quartiles(&values);
            println!(
                "{name} median {v} q1 {q1} q3 {q3} {unit} (spread {:.4}, bound {:.3})",
                stats::spread(&values),
                stats::bound(&values)
            );
        } else {
            println!("{name} {v} {unit}");
        }
        result.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            write_string(name),
            write_f64(v),
            write_string(unit)
        ));
    }
    let attempted: u64 = sets.iter().map(|o| o.attempted).sum();
    for p in &problems {
        eprintln!("aerobench: FAILED: {p}");
    }
    let correct = failed == 0 && problems.is_empty() && attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        result.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly the workloads
    /// and metrics this binary prints.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json next to aerobench/");
        let v = json::parse(&doc).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(Value::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let names = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(list("end_to_end"), names(&END_TO_END));
        assert_eq!(list("per_layer"), names(&PER_LAYER));
        let workloads: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
