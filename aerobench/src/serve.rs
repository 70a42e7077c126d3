//! serve-point / serve-batch: one connection to a freshly spawned
//! `aerothermod` (default `ServiceConfig`) runs a closed loop of single
//! `query` calls or 1024-point `query_batch` calls.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use aerothermo_atmosphere::us76::Us76;
use aerothermo_core::surrogate::{
    ExactResponse, RadiativeModel, StagnationResponse, P_FLOOR, Q_FLOOR, T_FLOOR,
};
use aerothermo_core::{HeatingModel, SurrogateBuilder, SurrogateQuery, SurrogateTable};
use aerothermo_gas::eq_table::air9_table;
use aerothermo_numerics::json::{self, write_f64, Value};
use aerothermo_service::{Client, ServiceConfig};

use crate::calib::{Calibration, REFERENCE_S};
use crate::gen::{Point, PointStream};
use crate::proc::{bin, vm_hwm_mb, ChildGuard, RunDir};
use crate::spans::{Layers, Recorder};
use crate::stats::{median, quantile};
use crate::{Metrics, Outcome};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Point,
    Batch,
}

const BATCH: usize = 1024;
/// Every 50th serve-point query lies below the corridor.
const FALLBACK_EVERY: usize = 50;
/// Every 16th in-corridor answer is re-evaluated on the exact path.
const CHECK_EVERY: usize = 16;
/// Relative error allowed per channel. The surrogate documents 2%, but
/// the default corridor reaches about 2.04% at rare points.
const TOLERANCE: f64 = 0.03;
/// Cold daemon starts per run; the last one serves the timed window.
const SETUPS: usize = 9;
/// Length of the traced replay window.
const TRACED_WINDOW: Duration = Duration::from_secs(2);
/// Spacing of the calibration passes inside the closed loop.
const CAL_EVERY: Duration = Duration::from_millis(50);

impl Mode {
    fn points(self, seed: u64) -> PointStream {
        match self {
            Mode::Point => PointStream::new(seed, Some(FALLBACK_EVERY)),
            Mode::Batch => PointStream::new(seed, None),
        }
    }

    fn per_op(self) -> usize {
        match self {
            Mode::Point => 1,
            Mode::Batch => BATCH,
        }
    }
}

/// The exact stagnation response the daemon answers with outside its
/// corridor and approximates inside it.
fn exact_response(cfg: &ServiceConfig) -> ExactResponse<'static> {
    ExactResponse {
        atmosphere: &Us76,
        gas: air9_table(),
        model: HeatingModel::earth_sutton_graves(),
        radiative: RadiativeModel::TauberSuttonEarthSmooth,
        nose_radius: cfg.nose_radius,
    }
}

/// The table a default daemon builds on its first query.
fn service_table(cfg: &ServiceConfig) -> Result<SurrogateTable, String> {
    let (h_range, v_range) = cfg.corridor;
    SurrogateBuilder::new(h_range, v_range)
        .initial_grid(cfg.grid.0, cfg.grid.1)
        .tolerance(cfg.tolerance)
        .build(&mut exact_response(cfg))
        .map_err(|e| format!("in-process surrogate build: {e}"))
}

/// Worst per-channel relative error under the surrogate's public floors.
fn rel_err(s: &SurrogateQuery, e: &SurrogateQuery) -> f64 {
    let r = |a: f64, b: f64, floor: f64| (a - b).abs() / b.abs().max(floor);
    r(s.p_stag, e.p_stag, P_FLOOR)
        .max(r(s.t_stag, e.t_stag, T_FLOOR))
        .max(r(s.q_conv, e.q_conv, Q_FLOOR))
        .max(r(s.q_rad, e.q_rad, Q_FLOOR))
}

/// One served answer kept for checking.
struct Answer {
    op: usize,
    point: Point,
    q: SurrogateQuery,
    exact: bool,
}

fn parse_item(v: &Value) -> Option<(SurrogateQuery, bool)> {
    let f = |k: &str| v.get(k).and_then(Value::as_f64);
    let exact = match v.get("exact") {
        Some(Value::Bool(b)) => *b,
        _ => return None,
    };
    Some((
        SurrogateQuery {
            p_stag: f("p_stag")?,
            t_stag: f("t_stag")?,
            q_conv: f("q_conv")?,
            q_rad: f("q_rad")?,
        },
        exact,
    ))
}

/// The answers of one response, in request order.
fn parse_response(mode: Mode, v: &Value, n: usize) -> Option<Vec<(SurrogateQuery, bool)>> {
    match mode {
        Mode::Point => Some(vec![parse_item(v.get("result")?)?]),
        Mode::Batch => {
            let items = v.get("results")?.as_array()?;
            if items.len() != n || v.get("n")?.as_f64()? != n as f64 {
                return None;
            }
            items.iter().map(parse_item).collect()
        }
    }
}

/// A daemon serving on its own socket and data directory.
struct Daemon {
    child: ChildGuard,
    client: Client,
}

impl Daemon {
    /// Spawn, poll `connect` every 1 ms, and answer one in-corridor query.
    /// Returns the daemon and the set-up time: spawn to that first answer.
    fn start(dir: &RunDir, k: usize) -> Result<(Self, f64), String> {
        let ((h0, h1), (v0, v1)) = ServiceConfig::default().corridor;
        let sock = format!("d{k}.sock");
        let t0 = Instant::now();
        let mut child = ChildGuard(
            Command::new(bin("aerothermod")?)
                .current_dir(dir.path())
                .arg(format!("--socket={sock}"))
                .arg(format!("--data-dir=data{k}"))
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("spawning aerothermod: {e}"))?,
        );
        let socket = dir.file(&sock);
        let mut client = loop {
            match Client::connect(&socket) {
                Ok(c) => break c,
                Err(e) => {
                    if !matches!(child.0.try_wait(), Ok(None)) || t0.elapsed().as_secs() > 30 {
                        return Err(format!("aerothermod never accepted: {e}"));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        };
        client
            .query(0.5 * (h0 + h1), 0.5 * (v0 + v1))
            .map_err(|e| format!("first query: {e}"))?;
        let setup_s = t0.elapsed().as_secs_f64();
        Ok((Self { child, client }, setup_s))
    }

    /// The daemon's surrogate builds, queries and exact fallbacks so far
    /// (the `metrics` op; it omits zero counters).
    fn counters(&mut self) -> Result<[f64; 3], String> {
        let v = self
            .client
            .metrics("json")
            .map_err(|e| format!("metrics op: {e}"))?;
        let counters = v.get("metrics").and_then(|m| m.get("counters"));
        let get = |name: &str| {
            counters
                .and_then(|c| c.get(name))
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        };
        Ok([
            get("surrogate_builds"),
            get("surrogate_queries"),
            get("surrogate_exact_fallbacks"),
        ])
    }

    fn shutdown(mut self) -> Result<(), String> {
        self.client
            .shutdown()
            .map_err(|e| format!("shutdown op: {e}"))?;
        let status = self.child.wait_or_kill(Duration::from_secs(10))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("aerothermod exited with {status}"))
        }
    }
}

/// What one closed-loop window produced.
struct Window {
    latencies_s: Vec<f64>,
    ops: usize,
    failed_ops: Vec<usize>,
    wall_s: f64,
    /// Answers kept for the output checks.
    kept: Vec<Answer>,
    /// Traced runs only: all answers of each request.
    captured: Vec<Vec<Answer>>,
}

fn encode(mode: Mode, points: &[Point]) -> String {
    match mode {
        Mode::Point => format!(
            "{{\"op\": \"query\", \"altitude\": {}, \"velocity\": {}}}",
            write_f64(points[0].altitude),
            write_f64(points[0].velocity),
        ),
        Mode::Batch => {
            let list = |f: fn(&Point) -> f64| {
                points
                    .iter()
                    .map(|p| write_f64(f(p)))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            format!(
                "{{\"op\": \"query_batch\", \"altitude\": [{}], \"velocity\": [{}]}}",
                list(|p| p.altitude),
                list(|p| p.velocity),
            )
        }
    }
}

/// Closed loop for `length`: the next request goes out when the previous
/// answer is in. With a recorder, each roundtrip is recorded and all its
/// answers are captured for the in-process replay.
fn closed_loop(
    d: &mut Daemon,
    mode: Mode,
    seed: u64,
    length: Duration,
    mut rec: Option<&mut Recorder>,
    cal: &mut Calibration,
) -> Window {
    let mut stream = mode.points(seed);
    let mut w = Window {
        latencies_s: Vec::new(),
        ops: 0,
        failed_ops: Vec::new(),
        wall_s: 0.0,
        kept: Vec::new(),
        captured: Vec::new(),
    };
    let (mut in_corridor, mut consecutive_failures) = (0usize, 0usize);
    cal.sample();
    let start = Instant::now();
    let (mut last_cal, mut cal_s) = (start, 0.0);
    while start.elapsed() < length && consecutive_failures < 100 {
        if last_cal.elapsed() >= CAL_EVERY {
            let t = Instant::now();
            cal.sample();
            last_cal = Instant::now();
            cal_s += (last_cal - t).as_secs_f64();
        }
        let points: Vec<Point> = stream.by_ref().take(mode.per_op()).collect();
        let hs: Vec<f64> = points.iter().map(|p| p.altitude).collect();
        let vs: Vec<f64> = points.iter().map(|p| p.velocity).collect();
        let op = w.ops;
        w.ops += 1;
        let t0 = Instant::now();
        let resp = match mode {
            Mode::Point => d.client.query(hs[0], vs[0]),
            Mode::Batch => d.client.query_batch(&hs, &vs),
        };
        let t1 = Instant::now();
        w.latencies_s.push((t1 - t0).as_secs_f64());
        let Some(answers) = resp
            .ok()
            .and_then(|v| parse_response(mode, &v, points.len()))
        else {
            w.failed_ops.push(op);
            consecutive_failures += 1;
            continue;
        };
        consecutive_failures = 0;
        let answers = points
            .iter()
            .zip(answers)
            .map(|(&point, (q, exact))| Answer {
                op,
                point,
                q,
                exact,
            });
        if let Some(r) = rec.as_deref_mut() {
            r.record("roundtrip", "", op as u64, t0, t1);
            w.captured.push(answers.collect());
            continue;
        }
        for a in answers {
            let check = if a.point.fallback {
                true
            } else {
                in_corridor += 1;
                in_corridor % CHECK_EVERY == 1
            };
            if check {
                w.kept.push(a);
            }
        }
    }
    w.wall_s = start.elapsed().as_secs_f64() - cal_s;
    w
}

/// Re-evaluate the kept answers on the exact path: out-of-corridor
/// answers must be flagged exact and equal it bitwise; in-corridor ones
/// must be flagged approximate and lie within [`TOLERANCE`]. Returns the
/// failed ops and the worst in-corridor relative error.
fn check_answers(kept: &[Answer], cfg: &ServiceConfig) -> (Vec<usize>, f64) {
    let mut exact_path = exact_response(cfg);
    let mut failed = Vec::new();
    let mut worst = 0.0f64;
    for a in kept {
        let ok = match exact_path.evaluate(a.point.altitude, a.point.velocity) {
            Err(_) => false,
            Ok(e) if a.point.fallback => a.exact && a.q == e,
            Ok(e) => {
                let err = rel_err(&a.q, &e);
                worst = worst.max(err);
                !a.exact && err <= TOLERANCE
            }
        };
        if !ok {
            failed.push(a.op);
        }
    }
    (failed, worst)
}

/// The response line the daemon writes for these answers, rebuilt with
/// the same writer calls its `query_item` makes.
fn serialize(mode: Mode, answers: &[Answer]) -> String {
    let item = |a: &Answer| {
        format!(
            "{{\"altitude\": {}, \"velocity\": {}, \"p_stag\": {}, \"t_stag\": {}, \
             \"q_conv\": {}, \"q_rad\": {}, \"exact\": {}}}",
            write_f64(a.point.altitude),
            write_f64(a.point.velocity),
            write_f64(a.q.p_stag),
            write_f64(a.q.t_stag),
            write_f64(a.q.q_conv),
            write_f64(a.q.q_rad),
            a.exact,
        )
    };
    match mode {
        Mode::Point => format!("{{\"ok\": true, \"result\": {}}}", item(&answers[0])),
        Mode::Batch => {
            let items: Vec<String> = answers.iter().map(item).collect();
            let fallbacks = answers.iter().filter(|a| a.exact).count();
            format!(
                "{{\"ok\": true, \"n\": {}, \"exact_fallbacks\": {fallbacks}, \"results\": [{}]}}",
                items.len(),
                items.join(", "),
            )
        }
    }
}

/// Replay each captured request through the layers in-process, one span
/// per layer per request. Returns the per-layer metrics and the layer
/// accounting of the traced roundtrips.
fn replay(
    mode: Mode,
    rec: &mut Recorder,
    captured: &[Vec<Answer>],
    cfg: &ServiceConfig,
) -> Result<(Metrics, Layers), String> {
    let table = service_table(cfg)?;
    let mut exact_path = exact_response(cfg);
    let (mut bytes_in, mut bytes_out, mut exact_evals) = (0usize, 0usize, 0usize);
    let mut out = vec![SurrogateQuery::default(); mode.per_op()];
    for (op, answers) in captured.iter().enumerate() {
        let id = op as u64;
        let points: Vec<Point> = answers.iter().map(|a| a.point).collect();
        let t = Instant::now();
        let line = encode(mode, &points);
        rec.record("client.encode", "roundtrip", id, t, Instant::now());
        let t = Instant::now();
        let parsed = json::parse(&line).map_err(|e| format!("request replay: {e}"))?;
        rec.record("server.parse", "roundtrip", id, t, Instant::now());
        std::hint::black_box(parsed);

        let t = Instant::now();
        for a in answers.iter().filter(|a| !a.point.fallback) {
            std::hint::black_box(table.query(a.point.altitude, a.point.velocity));
        }
        rec.record("surrogate.query", "roundtrip", id, t, Instant::now());
        for a in answers.iter().filter(|a| a.point.fallback) {
            let t = Instant::now();
            let e = exact_path.evaluate(a.point.altitude, a.point.velocity);
            rec.record("exact.evaluate", "roundtrip", id, t, Instant::now());
            std::hint::black_box(e.map_err(|e| format!("exact replay: {e}"))?);
            exact_evals += 1;
        }
        if mode == Mode::Batch {
            let hs: Vec<f64> = points.iter().map(|p| p.altitude).collect();
            let vs: Vec<f64> = points.iter().map(|p| p.velocity).collect();
            let t = Instant::now();
            table.query_batch(&hs, &vs, &mut out);
            rec.record("surrogate.query_batch", "", id, t, Instant::now());
            std::hint::black_box(&out);
        }

        let t = Instant::now();
        let resp = serialize(mode, answers);
        rec.record("server.serialize", "roundtrip", id, t, Instant::now());
        let t = Instant::now();
        let back = json::parse(&resp).map_err(|e| format!("response replay: {e}"))?;
        rec.record("client.parse", "roundtrip", id, t, Instant::now());
        std::hint::black_box(back);
        bytes_in += line.len() + 1;
        bytes_out += resp.len() + 1;
    }

    let n = captured.len().max(1) as f64;
    let total_us = |name: &str| -> f64 {
        rec.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us)
            .sum()
    };
    // The roundtrip's components; `surrogate.query_batch` is the batched
    // alternative to `surrogate.query`, not a further step.
    let parts = [
        "client.encode",
        "server.parse",
        "surrogate.query",
        "exact.evaluate",
        "server.serialize",
        "client.parse",
    ];
    let layers = Layers {
        end_to_end_s: total_us("roundtrip") * 1e-6,
        self_s: parts
            .iter()
            .map(|p| (p.to_string(), total_us(p) * 1e-6))
            .collect(),
        overhead_pct: 0.0,
    };
    let per_request = |name: &str| total_us(name) / n;
    let metrics = vec![
        ("client.encode_us", per_request("client.encode")),
        ("roundtrip_us", per_request("roundtrip")),
        ("server.parse_us", per_request("server.parse")),
        ("surrogate.query_us", per_request("surrogate.query")),
        (
            "exact.evaluate_us",
            total_us("exact.evaluate") / exact_evals.max(1) as f64,
        ),
        ("server.serialize_us", per_request("server.serialize")),
        ("client.parse_us", per_request("client.parse")),
        (
            "transport.unattributed_us",
            layers.unattributed_s() * 1e6 / n,
        ),
        (
            "surrogate.query_batch_us",
            per_request("surrogate.query_batch"),
        ),
        ("bytes_in", bytes_in as f64 / n),
        ("bytes_out", bytes_out as f64 / n),
    ];
    Ok((metrics, layers))
}

pub fn run(mode: Mode, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let cfg = ServiceConfig::default();
    let dir = RunDir::create(match mode {
        Mode::Point => "serve-point",
        Mode::Batch => "serve-batch",
    })?;
    let mut setups = Vec::with_capacity(SETUPS);
    for k in 1..SETUPS {
        let (d, setup_s) = Daemon::start(&dir, k)?;
        setups.push(setup_s);
        d.shutdown()?;
    }
    let (mut d, setup_s) = Daemon::start(&dir, 0)?;
    setups.push(setup_s);

    let mut cal = Calibration::default();
    let w = closed_loop(
        &mut d,
        mode,
        seed,
        Duration::from_secs_f64(seconds),
        None,
        &mut cal,
    );
    let mut out = Outcome::new(w.ops);
    let (bad, max_rel_err) = check_answers(&w.kept, &cfg);
    out.fail_ops(w.failed_ops.iter().chain(&bad).copied());
    let ok_ops = (w.ops - w.failed_ops.len()) as f64;
    // Times are stated at the calibration's reference speed; see calib.rs.
    let speed = cal.factor();
    out.metric("setup_s", median(&setups) * speed);
    out.metric("latency_ms", median(&w.latencies_s) * 1e3 * speed);
    out.metric(
        "throughput",
        ok_ops * mode.per_op() as f64 / w.wall_s / speed,
    );

    if trace {
        let before = d.counters()?;
        let mut rec = Recorder::new();
        let traced = closed_loop(&mut d, mode, seed, TRACED_WINDOW, Some(&mut rec), &mut cal);
        let after = d.counters()?;
        out.check(
            traced.failed_ops.is_empty(),
            "traced window had failed requests",
        );
        let (mut per_layer, mut layers) = replay(mode, &mut rec, &traced.captured, &cfg)?;
        layers.overhead_pct =
            100.0 * ((traced.wall_s / traced.ops as f64) / (w.wall_s / w.ops as f64) - 1.0);
        let tail = match mode {
            Mode::Point => ("point_p99_us", quantile(&w.latencies_s, 0.99) * 1e6),
            Mode::Batch => ("batch_p99_ms", quantile(&w.latencies_s, 0.99) * 1e3),
        };
        per_layer.extend([
            tail,
            ("calibration.kernel_us", 1e6 * REFERENCE_S / speed),
            ("surrogate.max_rel_err", max_rel_err),
            ("daemon.surrogate_builds", after[0] - before[0]),
            ("daemon.surrogate_queries", after[1] - before[1]),
            ("daemon.surrogate_exact_fallbacks", after[2] - before[2]),
        ]);
        out.trace(per_layer, layers, rec.spans);
    }

    let [builds, ..] = d.counters()?;
    out.check(
        builds == 1.0,
        &format!("daemon built its surrogate {builds} times, want 1"),
    );
    out.metric("rss_peak_mb", vm_hwm_mb(d.child.0.id()).unwrap_or(f64::NAN));
    d.shutdown()?;
    Ok(out)
}
