//! Wire-level tests of the `aerothermod` line protocol against an
//! in-process [`Daemon`]: framing under arbitrary write splits, CRLF and
//! blank lines, pipelining, the request-size, batch-length, nesting and
//! worker-count caps (per request and on the daemon's own config), the
//! removed shard ops, non-finite coordinates, random lines, a large mixed
//! batch that must answer bitwise like single queries with the counters
//! moving as documented, and a repeated batch served from the resident
//! table.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use aerothermo_numerics::json::{self, Value, MAX_DEPTH};
use aerothermo_service::{
    Client, Daemon, ServiceConfig, MAX_BATCH_POINTS, MAX_LINE_BYTES, MAX_WORKERS,
};
use aerothermo_sweep::spec::{FlowSpec, GasSpec, LevelSpec};
use aerothermo_sweep::{CaseSpec, SweepPlan};
use proptest::prelude::*;

/// The telemetry counters are process-wide, so the tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

/// A daemon on a private socket and data directory, shut down on drop.
struct Fixture {
    _turn: MutexGuard<'static, ()>,
    root: std::path::PathBuf,
    socket: String,
    daemon: Option<Daemon>,
}

impl Fixture {
    fn start(tag: &str) -> Self {
        let turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        let root = std::env::temp_dir().join(format!("wire-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        std::fs::create_dir_all(&root).unwrap();
        let path = |name: &str| root.join(name).to_str().unwrap().to_string();
        let socket = path("d.sock");
        let daemon = Daemon::start(ServiceConfig {
            socket_path: socket.clone(),
            data_dir: path("data"),
            accept_threads: 2,
            ..ServiceConfig::default()
        })
        .expect("daemon starts");
        Self {
            _turn: turn,
            root,
            socket,
            daemon: Some(daemon),
        }
    }

    fn client(&self) -> Client {
        Client::connect(&self.socket).expect("client connects")
    }

    fn raw(&self) -> UnixStream {
        UnixStream::connect(&self.socket).expect("raw connect")
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        if let Some(d) = self.daemon.take() {
            if self.client().shutdown().is_ok() {
                d.run_until_shutdown();
            }
        }
        std::fs::remove_dir_all(&self.root).ok();
    }
}

/// Read `n` newline-terminated lines from a raw stream (and nothing
/// beyond the last newline).
fn read_lines(s: &mut UnixStream, n: usize) -> Vec<String> {
    let mut bytes = Vec::new();
    let mut byte = [0u8; 1];
    while bytes.iter().filter(|&&b| b == b'\n').count() < n {
        assert_eq!(s.read(&mut byte).unwrap(), 1, "daemon closed early");
        bytes.push(byte[0]);
    }
    String::from_utf8(bytes)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

fn counters(c: &mut Client) -> BTreeMap<String, f64> {
    let v = c.metrics("json").expect("metrics served");
    v.get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(Value::as_object)
        .map(|obj| {
            obj.iter()
                .filter_map(|(k, x)| x.as_f64().map(|n| (k.clone(), n)))
                .collect()
        })
        .unwrap_or_default()
}

fn counter(c: &BTreeMap<String, f64>, name: &str) -> f64 {
    c.get(name).copied().unwrap_or(0.0)
}

const QUERY: &str = r#"{"op": "query", "altitude": 61234.5, "velocity": 7890.25}"#;

#[test]
fn request_written_one_byte_at_a_time_gets_the_same_answer() {
    let fx = Fixture::start("bytewise");
    let mut whole = fx.raw();
    whole.write_all(format!("{QUERY}\n").as_bytes()).unwrap();
    let want = read_lines(&mut whole, 1);

    let mut s = fx.raw();
    for b in format!("{QUERY}\n").bytes() {
        s.write_all(&[b]).unwrap();
    }
    assert_eq!(read_lines(&mut s, 1), want);
    assert!(want[0].starts_with(r#"{"ok": true, "result": {"altitude": 61234.5,"#));
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let fx = Fixture::start("pipeline");
    let mut s = fx.raw();
    s.write_all(format!("{{\"op\": \"ping\"}}\n{QUERY}\n{{\"op\": \"nope\"}}\n").as_bytes())
        .unwrap();
    let got = read_lines(&mut s, 3);
    let parsed: Vec<Value> = got.iter().map(|l| json::parse(l).unwrap()).collect();
    assert_eq!(parsed[0].get("pong"), Some(&Value::Bool(true)));
    assert!(parsed[1].get("result").is_some());
    assert_eq!(parsed[2].get("ok"), Some(&Value::Bool(false)));
}

#[test]
fn crlf_and_blank_lines_are_tolerated() {
    let fx = Fixture::start("crlf");
    let mut s = fx.raw();
    s.write_all(b"\r\n\n   \n{\"op\": \"ping\"}\r\n\r\n")
        .unwrap();
    let got = read_lines(&mut s, 1);
    assert_eq!(
        json::parse(&got[0]).unwrap().get("pong"),
        Some(&Value::Bool(true))
    );
    // The blank lines produced no responses: the next line answers the
    // next request.
    s.write_all(format!("{QUERY}\r\n").as_bytes()).unwrap();
    let got = read_lines(&mut s, 1);
    assert!(json::parse(&got[0]).unwrap().get("result").is_some());
}

/// Deterministic points: most inside the default corridor
/// (40–80 km × 4–13 km/s), every seventh below it, plus the corridor
/// corners themselves.
fn mixed_points(n: usize) -> (Vec<f64>, Vec<f64>) {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut unit = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let (mut hs, mut vs) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for &(h, v) in &[
        (40_000.0, 4_000.0),
        (80_000.0, 13_000.0),
        (40_000.0, 13_000.0),
        (80_000.0, 4_000.0),
    ] {
        hs.push(h);
        vs.push(v);
    }
    while hs.len() < n {
        let below = hs.len() % 7 == 3;
        hs.push(if below {
            25_000.0 + 14_000.0 * unit()
        } else {
            40_000.0 + 40_000.0 * unit()
        });
        vs.push(4_000.0 + 9_000.0 * unit());
    }
    (hs, vs)
}

#[test]
fn mixed_batch_matches_single_queries_bitwise_and_counts_fallbacks() {
    const N: usize = 20_000;
    let fx = Fixture::start("batch");
    let mut c = fx.client();
    c.query(60_000.0, 8_000.0)
        .expect("warm-up query builds the table");
    let (hs, vs) = mixed_points(N);
    let ((h0, h1), (v0, v1)) = ServiceConfig::default().corridor;
    let outside: Vec<bool> = hs
        .iter()
        .zip(&vs)
        .map(|(&h, &v)| !(h0..=h1).contains(&h) || !(v0..=v1).contains(&v))
        .collect();
    let n_out = outside.iter().filter(|&&o| o).count();
    assert!(n_out > 2_000 && n_out < N / 5, "{n_out} fallbacks");

    let before = counters(&mut c);
    let batch = c.query_batch(&hs, &vs).expect("batch answered");
    let after = counters(&mut c);
    assert_eq!(batch.get("n").and_then(Value::as_f64), Some(N as f64));
    assert_eq!(
        batch.get("exact_fallbacks").and_then(Value::as_f64),
        Some(n_out as f64)
    );
    let delta = |name: &str| counter(&after, name) - counter(&before, name);
    assert_eq!(delta("surrogate_queries"), (N - n_out) as f64);
    assert_eq!(delta("surrogate_exact_fallbacks"), n_out as f64);
    assert_eq!(
        delta("surrogate_builds"),
        0.0,
        "the resident table is reused"
    );

    let items = batch.get("results").and_then(Value::as_array).unwrap();
    assert_eq!(items.len(), N);
    let bits = |item: &Value| -> Vec<u64> {
        [
            "altitude", "velocity", "p_stag", "t_stag", "q_conv", "q_rad",
        ]
        .iter()
        .map(|k| item.get(k).and_then(Value::as_f64).unwrap().to_bits())
        .collect()
    };
    for (k, item) in items.iter().enumerate() {
        assert_eq!(
            item.get("exact"),
            Some(&Value::Bool(outside[k])),
            "point {k}"
        );
        let single = c.query(hs[k], vs[k]).expect("single query answered");
        let single = single.get("result").unwrap();
        assert_eq!(bits(item), bits(single), "point {k}");
        assert_eq!(item.get("exact"), single.get("exact"), "point {k}");
    }
}

#[test]
fn repeated_batch_reuses_the_resident_table_and_falls_back_once_each() {
    // Two identical batches, each with one point below the corridor: the
    // surrogate builds exactly once, the repeat batch is answered from the
    // resident table, and each batch takes exactly one exact fallback.
    let fx = Fixture::start("resident");
    let mut c = fx.client();
    let hs = [45_000.0, 60_000.0, 75_000.0, 30_000.0];
    let vs = [5_000.0, 8_000.0, 11_000.0, 6_000.0];
    let m0 = counters(&mut c);
    c.query(60_000.0, 8_000.0).expect("query answered");
    c.query_batch(&hs, &vs).expect("first batch answered");
    let m1 = counters(&mut c);
    c.query_batch(&hs, &vs).expect("repeat batch answered");
    let m2 = counters(&mut c);
    let delta = |a: &BTreeMap<String, f64>, b: &BTreeMap<String, f64>, name: &str| {
        counter(b, name) - counter(a, name)
    };
    assert_eq!(delta(&m0, &m1, "surrogate_builds"), 1.0, "first batch");
    assert_eq!(delta(&m1, &m2, "surrogate_builds"), 0.0, "repeat batch");
    assert!(
        delta(&m1, &m2, "surrogate_queries") >= 3.0,
        "repeat batch did not hit the resident table: {m1:?} -> {m2:?}"
    );
    assert_eq!(delta(&m0, &m1, "surrogate_exact_fallbacks"), 1.0);
    assert_eq!(delta(&m1, &m2, "surrogate_exact_fallbacks"), 1.0);
}

#[test]
fn oversize_line_gets_one_error_and_the_connection_closes() {
    let fx = Fixture::start("oversize");
    let mut s = fx.raw();
    s.write_all(&vec![b' '; MAX_LINE_BYTES]).unwrap();
    let got = read_lines(&mut s, 1);
    let v = json::parse(&got[0]).unwrap();
    assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
    let msg = v.get("error").and_then(Value::as_str).unwrap();
    assert!(msg.contains(&MAX_LINE_BYTES.to_string()), "{msg}");
    let mut rest = Vec::new();
    s.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "nothing follows the error line");
    // The daemon itself stays up.
    fx.client().ping().expect("daemon still serving");
}

#[test]
fn oversize_batch_is_bad_input() {
    let fx = Fixture::start("bigbatch");
    let mut c = fx.client();
    let hs = vec![60_000.0; MAX_BATCH_POINTS + 1];
    let vs = vec![8_000.0; MAX_BATCH_POINTS + 1];
    let err = c.query_batch(&hs, &vs).unwrap_err().to_string();
    assert!(err.contains(&MAX_BATCH_POINTS.to_string()), "{err}");
    let ok = c
        .query_batch(&hs[..MAX_BATCH_POINTS], &vs[..MAX_BATCH_POINTS])
        .expect("a batch at the cap is answered");
    assert_eq!(
        ok.get("n").and_then(Value::as_f64),
        Some(MAX_BATCH_POINTS as f64)
    );
}

#[test]
fn non_finite_coordinates_are_rejected_before_dispatch() {
    let fx = Fixture::start("nonfinite");
    let mut c = fx.client();
    c.query(60_000.0, 8_000.0).expect("warm-up");
    let before = counters(&mut c);
    let cases = [
        (
            r#"{"op": "query", "altitude": 1e400, "velocity": 8000}"#,
            "'altitude' must be finite",
        ),
        (
            r#"{"op": "query", "altitude": 60000, "velocity": -1e999}"#,
            "'velocity' must be finite",
        ),
        (
            r#"{"op": "query_batch", "altitude": [60000, 50000], "velocity": [8000, 1e400]}"#,
            "'velocity'[1] must be finite",
        ),
        (
            r#"{"op": "query_batch", "altitude": [60000, 30000, -1e309], "velocity": [8000, 8000, 8000]}"#,
            "'altitude'[2] must be finite",
        ),
    ];
    for (req, want) in cases {
        let err = c.call(req).unwrap_err().to_string();
        assert!(err.contains(want), "{req}: {err}");
        assert!(!err.contains("panicked"), "{req}: {err}");
    }
    let after = counters(&mut c);
    for name in ["surrogate_queries", "surrogate_exact_fallbacks"] {
        assert_eq!(counter(&after, name), counter(&before, name), "{name}");
    }
    c.ping().expect("connection still serving");
}

fn assert_error_line(line: &str, want: &str) {
    let v = json::parse(line).unwrap();
    assert_eq!(v.get("ok"), Some(&Value::Bool(false)), "{line}");
    let msg = v.get("error").and_then(Value::as_str).unwrap();
    assert!(msg.contains(want), "{msg}");
}

#[test]
fn deeply_nested_line_is_one_error_not_a_crash() {
    let fx = Fixture::start("nesting");
    let mut s = fx.raw();
    // Far under the line cap, far over the nesting cap: parsed
    // recursively without a limit it would overflow the accept thread's
    // stack and abort the process.
    s.write_all(format!("{}\n{{\"op\": \"ping\"}}\n", "[".repeat(100_000)).as_bytes())
        .unwrap();
    let got = read_lines(&mut s, 2);
    assert_error_line(&got[0], "nesting");
    assert_eq!(
        json::parse(&got[1]).unwrap().get("pong"),
        Some(&Value::Bool(true))
    );
    let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    s.write_all(format!("{at_cap}\n").as_bytes()).unwrap();
    assert_error_line(&read_lines(&mut s, 1)[0], "request missing string 'op'");
    fx.client().ping().expect("daemon still serving");
}

fn one_case_plan() -> SweepPlan {
    let mut plan = SweepPlan::new("workers_cap");
    plan.push(CaseSpec::new(
        "only",
        GasSpec::IdealAir,
        LevelSpec::Synthetic {
            work_ms: 1.0,
            outcome: "ok".to_string(),
        },
        FlowSpec::new(1e-4, 7000.0, 200.0, 10.0, 0.5, 1500.0),
    ));
    plan
}

#[test]
fn worker_requests_above_the_cap_are_bad_input() {
    let fx = Fixture::start("workers");
    let mut c = fx.client();
    let limit = MAX_WORKERS.to_string();
    let err = c
        .submit(&one_case_plan(), Some(MAX_WORKERS + 1), None)
        .unwrap_err()
        .to_string();
    assert!(err.contains("'workers'") && err.contains(&limit), "{err}");
    for req in [
        r#"{"op": "resume", "job": "job-0001", "workers": 1e9}"#,
        r#"{"op": "submit", "workers": 1e300, "plan": PLAN}"#,
    ] {
        let plan = one_case_plan().to_json().replace('\n', " ");
        let err = c.call(&req.replace("PLAN", &plan)).unwrap_err().to_string();
        assert!(err.contains(&limit), "{req}: {err}");
    }
    // At the cap the job runs, on one thread for its one case.
    let job = c
        .submit(&one_case_plan(), Some(MAX_WORKERS), None)
        .expect("a request at the cap is accepted");
    let status = c.wait(&job, Duration::from_secs(60)).expect("job finishes");
    assert_eq!(status.get("done").and_then(Value::as_f64), Some(1.0));
}

#[test]
fn daemon_config_above_the_cap_is_bad_input_before_binding() {
    let root = std::env::temp_dir().join(format!("wire-config-cap-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let path = |name: &str| root.join(name).to_str().unwrap().to_string();
    for (accept_threads, workers, name) in [
        (MAX_WORKERS + 1, 1, "'accept_threads'"),
        (1, MAX_WORKERS + 1, "'workers'"),
    ] {
        let err = Daemon::start(ServiceConfig {
            socket_path: path("d.sock"),
            data_dir: path("data"),
            accept_threads,
            workers,
            ..ServiceConfig::default()
        })
        .err()
        .expect("a config above the cap is refused")
        .to_string();
        assert!(
            err.contains(name) && err.contains(&MAX_WORKERS.to_string()),
            "{err}"
        );
        // The check runs before the registry opens and the socket binds,
        // so no accept thread can have started.
        assert!(!root.exists(), "nothing may be created under {root:?}");
    }
}

#[test]
fn removed_shard_ops_are_unknown_and_the_daemon_keeps_serving() {
    let fx = Fixture::start("shardops");
    let plan = one_case_plan().to_json().replace('\n', " ");
    let mut s = fx.raw();
    for (op, req) in [
        (
            "submit_shard",
            format!(r#"{{"op": "submit_shard", "shard": "0/2", "plan": {plan}}}"#),
        ),
        (
            "federate",
            r#"{"op": "federate", "jobs": ["job-0001"]}"#.to_string(),
        ),
    ] {
        s.write_all(format!("{req}\n").as_bytes()).unwrap();
        let lines = read_lines(&mut s, 1);
        assert_eq!(
            lines[0],
            format!(r#"{{"ok": false, "error": "unknown op '{op}'"}}"#)
        );
    }
    fx.client().ping().expect("daemon still serving");
}

/// SplitMix64, for reproducible random lines.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Request-shaped fragments; random lines glue them together.
const FRAGMENTS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    " ",
    "\"op\"",
    "\"query\"",
    "\"query_batch\"",
    "\"ping\"",
    "\"status\"",
    "\"results\"",
    "\"cancel\"",
    "\"metrics\"",
    "\"job\"",
    "\"job-0001\"",
    "\"altitude\"",
    "\"velocity\"",
    "\"format\"",
    "60000",
    "8000",
    "-1",
    "1e400",
    "NaN",
    "null",
    "true",
    "\"",
    "\\",
    "\\u",
    "\u{1}",
    "é",
    "[[[[[[[[",
    "{\"op\": ",
];

/// One random non-blank line without a newline: a fragment soup, raw
/// bytes, or a well-formed request with one random value.
fn random_line(rng: &mut SplitMix) -> Vec<u8> {
    let mut line = match rng.next() % 3 {
        0 => (0..rng.next() % 40)
            .map(|_| FRAGMENTS[(rng.next() % FRAGMENTS.len() as u64) as usize])
            .collect::<String>()
            .into_bytes(),
        1 => (0..rng.next() % 80)
            .map(|_| (rng.next() % 256) as u8)
            .filter(|&b| b != b'\n')
            .collect(),
        _ => {
            let value = FRAGMENTS[(rng.next() % FRAGMENTS.len() as u64) as usize];
            format!(r#"{{"op": "query", "altitude": {value}, "velocity": 8000}}"#).into_bytes()
        }
    };
    // Blank lines get no response by design.
    if String::from_utf8_lossy(&line).trim().is_empty() {
        line = b"x".to_vec();
    }
    line
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn random_lines_each_get_one_response_and_the_daemon_survives(seed in 0u64..u64::MAX) {
        let fx = Fixture::start("fuzz");
        let mut rng = SplitMix(seed);
        let mut s = fx.raw();
        let lines: Vec<Vec<u8>> = (0..48).map(|_| random_line(&mut rng)).collect();
        for line in &lines {
            s.write_all(line).unwrap();
            s.write_all(b"\n").unwrap();
        }
        let got = read_lines(&mut s, lines.len());
        prop_assert_eq!(got.len(), lines.len());
        for (line, resp) in lines.iter().zip(&got) {
            let v = json::parse(resp);
            prop_assert!(
                v.as_ref().is_ok_and(|v| v.get("ok").is_some()),
                "{:?} -> {resp}",
                String::from_utf8_lossy(line)
            );
        }
        s.write_all(b"{\"op\": \"ping\"}\n").unwrap();
        let pong = read_lines(&mut s, 1);
        prop_assert!(pong[0].contains("\"pong\": true"), "{}", pong[0]);
        fx.client().ping().expect("daemon still serving");
    }
}
