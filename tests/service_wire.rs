//! Wire-level tests of the `aerothermod` line protocol against an
//! in-process [`Daemon`]: framing under arbitrary write splits, CRLF and
//! blank lines, pipelining, the request-size and batch-length caps,
//! non-finite coordinates, and a large mixed batch that must answer
//! bitwise like single queries with the counters moving as documented.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::{Mutex, MutexGuard, PoisonError};

use aerothermo_numerics::json::{self, Value};
use aerothermo_service::{Client, Daemon, ServiceConfig, MAX_BATCH_POINTS, MAX_LINE_BYTES};

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
