//! The `aerothermod` daemon: a bounded accept pool on one Unix-domain
//! listener, a line-delimited JSON dispatch loop, and the resident query
//! engine (equilibrium gas table + adaptively sampled heating surrogate)
//! that makes repeat queries cheap.
//!
//! No async runtime: `accept_threads` OS threads block in `accept()` on
//! the shared listener, and each serves its connection to completion
//! (thread-per-connection on a bounded pool; excess connections queue in
//! the kernel backlog). Sweep jobs run on detached threads through the
//! existing [`aerothermo_sweep::run_sweep`] worker pool, so the protocol
//! layer adds no numerical path of its own.

use std::fmt::Write as _;
use std::io::{ErrorKind, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use aerothermo_atmosphere::us76::Us76;
use aerothermo_core::surrogate::{ExactResponse, RadiativeModel, StagnationResponse};
use aerothermo_core::{HeatingModel, SurrogateBuilder, SurrogateQuery, SurrogateTable};
use aerothermo_gas::eq_table::air9_table;
use aerothermo_numerics::json::{self, push_f64, write_string, Value};
use aerothermo_numerics::metrics;
use aerothermo_numerics::telemetry::{counters, Counter, SolverError};
use aerothermo_sweep::{ShardSpec, ShardStrategy, SweepPlan};

use crate::framing::LineBuf;
use crate::jobs::{Job, JobRegistry};
use crate::ServiceConfig;

/// Longest accepted request line, its newline included. A connection
/// that sends more without a newline gets one `{"ok": false}` response
/// and is closed, so a client cannot grow the daemon's buffer without
/// bound.
pub const MAX_LINE_BYTES: usize = 16 << 20;

/// Most points one `query_batch` request may carry.
pub const MAX_BATCH_POINTS: usize = 65_536;

/// Recover from poisoning instead of cascading (a panicking handler is
/// already contained by `catch_unwind`; its locks must stay usable).
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// State shared by every accept thread.
struct Shared {
    cfg: ServiceConfig,
    jobs: JobRegistry,
    /// The resident heating surrogate, built lazily on first query and
    /// then reused by every later request on every connection.
    table: Mutex<Option<Arc<SurrogateTable>>>,
    stop: AtomicBool,
}

impl Shared {
    /// The exact stagnation-response path the surrogate approximates
    /// (and the fallback for out-of-corridor queries). The equilibrium
    /// air table behind it is `OnceLock`-resident for the process
    /// lifetime — the warm cache this daemon exists to keep.
    fn exact_response(&self) -> ExactResponse<'static> {
        ExactResponse {
            atmosphere: &Us76,
            gas: air9_table(),
            model: HeatingModel::earth_sutton_graves(),
            radiative: RadiativeModel::TauberSuttonEarthSmooth,
            nose_radius: self.cfg.nose_radius,
        }
    }

    /// Return the resident surrogate, building it on first use. The
    /// build runs under the lock so concurrent first queries wait for
    /// one build instead of racing duplicates.
    fn ensure_table(&self) -> Result<Arc<SurrogateTable>, SolverError> {
        let mut guard = relock(&self.table);
        if let Some(t) = guard.as_ref() {
            return Ok(Arc::clone(t));
        }
        let (h_range, v_range) = self.cfg.corridor;
        let mut exact = self.exact_response();
        let table = SurrogateBuilder::new(h_range, v_range)
            .initial_grid(self.cfg.grid.0, self.cfg.grid.1)
            .tolerance(self.cfg.tolerance)
            .build(&mut exact)?;
        let table = Arc::new(table);
        *guard = Some(Arc::clone(&table));
        Ok(table)
    }

    /// Answer one heating query: surrogate inside the corridor, exact
    /// path (counted as a fallback) outside it.
    fn answer(&self, altitude: f64, velocity: f64) -> Result<(SurrogateQuery, bool), SolverError> {
        let table = self.ensure_table()?;
        if table.contains(altitude, velocity) {
            Ok((table.query(altitude, velocity), false))
        } else {
            counters::add(Counter::SurrogateExactFallbacks, 1);
            let q = self.exact_response().evaluate(altitude, velocity)?;
            Ok((q, true))
        }
    }
}

/// A running daemon: the bound listener plus its accept pool.
pub struct Daemon {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Bind the socket, recover the job registry from the data
    /// directory, and start the accept pool. Returns once the daemon is
    /// accepting connections.
    ///
    /// A stale socket file (previous daemon killed without cleanup) is
    /// detected by a probe connect and removed; a *live* daemon on the
    /// same path is an error.
    ///
    /// # Errors
    /// [`SolverError::BadInput`] on bind failures, a live socket
    /// occupant, or an unreadable/corrupt data directory.
    pub fn start(cfg: ServiceConfig) -> Result<Self, SolverError> {
        let jobs = JobRegistry::open(&cfg.data_dir)?;
        let listener = Arc::new(bind_or_replace_stale(&cfg.socket_path)?);
        let shared = Arc::new(Shared {
            cfg,
            jobs,
            table: Mutex::new(None),
            stop: AtomicBool::new(false),
        });
        let handles = (0..shared.cfg.accept_threads.max(1))
            .map(|k| {
                let shared = Arc::clone(&shared);
                let listener = Arc::clone(&listener);
                std::thread::Builder::new()
                    .name(format!("aerothermod-accept-{k}"))
                    .spawn(move || accept_loop(&shared, &listener))
                    .expect("spawning accept thread")
            })
            .collect();
        Ok(Self { shared, handles })
    }

    /// The bound socket path.
    #[must_use]
    pub fn socket_path(&self) -> &str {
        &self.shared.cfg.socket_path
    }

    /// Jobs currently known to the registry (recovered + submitted).
    #[must_use]
    pub fn job_count(&self) -> usize {
        self.shared.jobs.list().len()
    }

    /// Block until a `shutdown` request stops the daemon, then join the
    /// accept pool and remove the socket file.
    pub fn run_until_shutdown(self) {
        for h in self.handles {
            let _ = h.join();
        }
        std::fs::remove_file(&self.shared.cfg.socket_path).ok();
    }
}

/// Bind `path`, replacing a *stale* socket file (probe connect refused)
/// but refusing to evict a live daemon.
fn bind_or_replace_stale(path: &str) -> Result<UnixListener, SolverError> {
    match UnixListener::bind(path) {
        Ok(l) => Ok(l),
        Err(e) if e.kind() == ErrorKind::AddrInUse => {
            if UnixStream::connect(path).is_ok() {
                return Err(SolverError::BadInput(format!(
                    "socket '{path}' is already served by a live daemon"
                )));
            }
            std::fs::remove_file(path).map_err(|e| {
                SolverError::BadInput(format!("removing stale socket '{path}': {e}"))
            })?;
            UnixListener::bind(path)
                .map_err(|e| SolverError::BadInput(format!("binding '{path}': {e}")))
        }
        Err(e) => Err(SolverError::BadInput(format!("binding '{path}': {e}"))),
    }
}

/// One accept thread: block in `accept()`, serve the connection to
/// completion, repeat until the stop flag is raised (a `shutdown`
/// handler wakes blocked siblings with dummy connects).
fn accept_loop(shared: &Arc<Shared>, listener: &UnixListener) {
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _addr)) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                serve_connection(shared, stream);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

/// Serve one connection: hand-rolled newline framing (a `BufReader`
/// would drop partial lines across read-timeout ticks), one response
/// line per request line, until EOF, an oversize line, or shutdown.
fn serve_connection(shared: &Arc<Shared>, stream: UnixStream) {
    // The periodic timeout lets the thread notice a shutdown raised on
    // another connection instead of blocking forever on an idle client.
    stream
        .set_read_timeout(Some(Duration::from_millis(250)))
        .ok();
    let (mut reader, mut writer) = (&stream, &stream);
    let mut lines = LineBuf::new();
    let mut resp = String::new();
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match lines.fill(&mut reader) {
            Ok(0) => return,
            Ok(_) => {
                while let Some(line) = lines.next_line() {
                    let line = String::from_utf8_lossy(line);
                    let line = line.trim();
                    if line.is_empty() {
                        continue;
                    }
                    respond(shared, line, &mut resp);
                    resp.push('\n');
                    if writer.write_all(resp.as_bytes()).is_err() {
                        return;
                    }
                }
                if lines.partial_len() >= MAX_LINE_BYTES {
                    let mut resp = err_json(&format!(
                        "request line exceeds {MAX_LINE_BYTES} bytes; closing the connection"
                    ));
                    resp.push('\n');
                    writer.write_all(resp.as_bytes()).ok();
                    return;
                }
            }
            Err(e)
                if e.kind() == ErrorKind::WouldBlock
                    || e.kind() == ErrorKind::TimedOut
                    || e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

fn err_json(msg: &str) -> String {
    format!("{{\"ok\": false, \"error\": {}}}", write_string(msg))
}

/// Write exactly one response line (without its newline) for one
/// request line into `out`. Handler panics are contained per request:
/// the connection (and daemon) stay up and the client sees a structured
/// error.
fn respond(shared: &Arc<Shared>, line: &str, out: &mut String) {
    out.clear();
    let err = match catch_unwind(AssertUnwindSafe(|| handle(shared, line, out))) {
        Ok(Ok(())) => return,
        Ok(Err(e)) => err_json(&e.to_string()),
        Err(_) => err_json("internal error: request handler panicked"),
    };
    out.clear();
    out.push_str(&err);
}

fn req_job(shared: &Shared, v: &Value) -> Result<Arc<Job>, SolverError> {
    let id = v
        .get("job")
        .and_then(Value::as_str)
        .ok_or_else(|| SolverError::BadInput("request missing string 'job'".into()))?;
    shared
        .jobs
        .get(id)
        .ok_or_else(|| SolverError::BadInput(format!("unknown job '{id}'")))
}

fn req_f64(v: &Value, key: &str) -> Result<f64, SolverError> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| SolverError::BadInput(format!("request missing number '{key}'")))
}

/// Reject a non-finite query coordinate (`1e400` parses to infinity)
/// before it reaches the table or the exact path; `what` names it.
fn finite(x: f64, what: impl FnOnce() -> String) -> Result<f64, SolverError> {
    if x.is_finite() {
        Ok(x)
    } else {
        Err(SolverError::BadInput(format!(
            "{} must be finite, got {x}",
            what()
        )))
    }
}

/// The finite coordinate array `key` of a `query_batch` request.
fn batch_coords(v: &Value, key: &str) -> Result<Vec<f64>, SolverError> {
    let xs = v
        .get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| SolverError::BadInput(format!("query_batch missing array '{key}'")))?;
    if xs.len() > MAX_BATCH_POINTS {
        return Err(SolverError::BadInput(format!(
            "query_batch '{key}' has {} points; the limit is {MAX_BATCH_POINTS}",
            xs.len()
        )));
    }
    xs.iter()
        .enumerate()
        .map(|(k, x)| {
            let x = x
                .as_f64()
                .ok_or_else(|| SolverError::BadInput(format!("'{key}' entries must be numbers")))?;
            finite(x, || format!("'{key}'[{k}]"))
        })
        .collect()
}

fn opt_usize(v: &Value, key: &str) -> Result<Option<usize>, SolverError> {
    match v.get(key) {
        None => Ok(None),
        Some(x) if x.is_null() => Ok(None),
        Some(x) => x
            .as_f64()
            .filter(|n| n.fract() == 0.0 && *n >= 0.0)
            .map(|n| Some(n as usize))
            .ok_or_else(|| {
                SolverError::BadInput(format!("'{key}' must be a non-negative integer"))
            }),
    }
}

fn status_json(job: &Job) -> String {
    format!(
        "{{\"ok\": true, \"job\": {}, \"plan\": {}, \"phase\": {}, \"done\": {}, \
         \"total\": {}, \"error\": {}, \"store\": {}, \"events\": {}, \"shard\": {}}}",
        write_string(&job.id),
        write_string(&job.plan_name),
        write_string(job.phase().name()),
        job.done.load(Ordering::SeqCst).min(job.total),
        job.total,
        job.error()
            .map_or_else(|| "null".into(), |e| write_string(&e)),
        write_string(&job.store_path),
        write_string(&job.events_path),
        job.shard
            .map_or_else(|| "null".into(), |s| write_string(&s.to_string())),
    )
}

/// Append one answered point, `{"altitude": …, …, "exact": …}`.
fn push_query_item(
    out: &mut String,
    altitude: f64,
    velocity: f64,
    q: &SurrogateQuery,
    exact: bool,
) {
    let fields = [
        ("{\"altitude\": ", altitude),
        (", \"velocity\": ", velocity),
        (", \"p_stag\": ", q.p_stag),
        (", \"t_stag\": ", q.t_stag),
        (", \"q_conv\": ", q.q_conv),
        (", \"q_rad\": ", q.q_rad),
    ];
    for (key, x) in fields {
        out.push_str(key);
        push_f64(out, x);
    }
    out.push_str(if exact {
        ", \"exact\": true}"
    } else {
        ", \"exact\": false}"
    });
}

fn query(shared: &Shared, v: &Value, out: &mut String) -> Result<(), SolverError> {
    let h = finite(req_f64(v, "altitude")?, || "'altitude'".into())?;
    let u = finite(req_f64(v, "velocity")?, || "'velocity'".into())?;
    let (q, exact) = shared.answer(h, u)?;
    out.push_str("{\"ok\": true, \"result\": ");
    push_query_item(out, h, u, &q, exact);
    out.push('}');
    Ok(())
}

/// Answer a batch: the in-corridor points go through one
/// [`SurrogateTable::query_batch`] call (bitwise equal to per-point
/// `query`), the rest through the exact path in request order.
fn query_batch(shared: &Shared, v: &Value, out: &mut String) -> Result<(), SolverError> {
    let (hs, us) = (batch_coords(v, "altitude")?, batch_coords(v, "velocity")?);
    if hs.len() != us.len() {
        return Err(SolverError::BadInput(format!(
            "query_batch length mismatch: {} altitudes vs {} velocities",
            hs.len(),
            us.len()
        )));
    }
    let table = shared.ensure_table()?;
    let exact: Vec<bool> = hs
        .iter()
        .zip(&us)
        .map(|(&h, &u)| !table.contains(h, u))
        .collect();
    let inside = |xs: &[f64]| -> Vec<f64> {
        xs.iter()
            .zip(&exact)
            .filter(|(_, &e)| !e)
            .map(|(&x, _)| x)
            .collect()
    };
    let (in_h, in_u) = (inside(&hs), inside(&us));
    let mut surrogate = vec![SurrogateQuery::default(); in_h.len()];
    table.query_batch(&in_h, &in_u, &mut surrogate);
    let mut surrogate = surrogate.iter();

    let fallbacks = hs.len() - in_h.len();
    let _ = write!(
        out,
        "{{\"ok\": true, \"n\": {}, \"exact_fallbacks\": {fallbacks}, \"results\": [",
        hs.len()
    );
    let mut exact_path = shared.exact_response();
    for (k, ((&h, &u), &e)) in hs.iter().zip(&us).zip(&exact).enumerate() {
        let q = if e {
            counters::add(Counter::SurrogateExactFallbacks, 1);
            exact_path.evaluate(h, u)?
        } else {
            *surrogate
                .next()
                .expect("one surrogate answer per in-corridor point")
        };
        if k > 0 {
            out.push_str(", ");
        }
        push_query_item(out, h, u, &q, e);
    }
    out.push_str("]}");
    Ok(())
}

/// Spawn a detached sweep thread for `job`.
fn spawn_run(job: Arc<Job>, workers: usize, halt_after: Option<usize>) {
    std::thread::Builder::new()
        .name(format!("aerothermod-{}", job.id))
        .spawn(move || job.run(workers, halt_after))
        .expect("spawning job thread");
}

/// Parse one request line and write its response into `out`.
fn handle(shared: &Arc<Shared>, line: &str, out: &mut String) -> Result<(), SolverError> {
    let v = json::parse(line).map_err(|e| SolverError::BadInput(format!("request JSON: {e}")))?;
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| SolverError::BadInput("request missing string 'op'".into()))?;
    let resp = match op {
        "ping" => Ok(format!(
            "{{\"ok\": true, \"pong\": true, \"pid\": {}, \"jobs\": {}}}",
            std::process::id(),
            shared.jobs.list().len(),
        )),
        "submit" => {
            let plan_v = v
                .get("plan")
                .ok_or_else(|| SolverError::BadInput("submit missing object 'plan'".into()))?;
            let plan = SweepPlan::from_json(plan_v)?;
            let workers = opt_usize(&v, "workers")?
                .unwrap_or(shared.cfg.workers)
                .max(1);
            let halt_after = opt_usize(&v, "halt_after")?;
            let job = shared.jobs.submit(&plan)?;
            let (id, total) = (job.id.clone(), job.total);
            spawn_run(job, workers, halt_after);
            Ok(format!(
                "{{\"ok\": true, \"job\": {}, \"planned\": {total}}}",
                write_string(&id),
            ))
        }
        "submit_shard" => {
            let plan_v = v.get("plan").ok_or_else(|| {
                SolverError::BadInput("submit_shard missing object 'plan'".into())
            })?;
            let plan = SweepPlan::from_json(plan_v)?;
            let shard_s = v.get("shard").and_then(Value::as_str).ok_or_else(|| {
                SolverError::BadInput("submit_shard missing string 'shard' (i/n)".into())
            })?;
            let strategy = match v.get("strategy").and_then(Value::as_str) {
                Some(s) => ShardStrategy::parse(s)?,
                None => ShardStrategy::default(),
            };
            let spec = ShardSpec::parse(shard_s, strategy)?;
            let workers = opt_usize(&v, "workers")?
                .unwrap_or(shared.cfg.workers)
                .max(1);
            let halt_after = opt_usize(&v, "halt_after")?;
            let job = shared.jobs.submit_shard(&plan, spec)?;
            let (id, total) = (job.id.clone(), job.total);
            spawn_run(job, workers, halt_after);
            Ok(format!(
                "{{\"ok\": true, \"job\": {}, \"planned\": {total}, \"shard\": {}}}",
                write_string(&id),
                write_string(&spec.to_string()),
            ))
        }
        "federate" => {
            let ids: Vec<String> = v
                .get("jobs")
                .and_then(Value::as_array)
                .ok_or_else(|| SolverError::BadInput("federate missing array 'jobs'".into()))?
                .iter()
                .map(|x| {
                    x.as_str().map(str::to_string).ok_or_else(|| {
                        SolverError::BadInput("'jobs' entries must be job id strings".into())
                    })
                })
                .collect::<Result<_, _>>()?;
            let (store, report) = shared.jobs.federate(&ids)?;
            // The report serializer is multi-line for on-disk readability;
            // collapse it for the line protocol (string newlines are
            // escaped by the writer, so this is purely structural).
            let report_json = report.to_json().replace('\n', " ");
            Ok(format!(
                "{{\"ok\": true, \"store\": {}, \"report\": {}}}",
                write_string(&store),
                report_json.trim(),
            ))
        }
        "status" => {
            let job = req_job(shared, &v)?;
            Ok(status_json(&job))
        }
        "results" => {
            let job = req_job(shared, &v)?;
            let doc = std::fs::read_to_string(&job.store_path).unwrap_or_default();
            // A torn trailing line (daemon killed mid-write) is dropped,
            // matching the store loader's crash tolerance.
            let mut lines: Vec<&str> = doc.lines().filter(|l| !l.trim().is_empty()).collect();
            if !doc.ends_with('\n') {
                lines.pop();
            }
            Ok(format!(
                "{{\"ok\": true, \"job\": {}, \"records\": [{}]}}",
                write_string(&job.id),
                lines.join(", "),
            ))
        }
        "cancel" => {
            let job = req_job(shared, &v)?;
            job.cancel.store(true, Ordering::SeqCst);
            Ok(status_json(&job))
        }
        "resume" => {
            let id = v
                .get("job")
                .and_then(Value::as_str)
                .ok_or_else(|| SolverError::BadInput("request missing string 'job'".into()))?;
            let workers = opt_usize(&v, "workers")?
                .unwrap_or(shared.cfg.workers)
                .max(1);
            let halt_after = opt_usize(&v, "halt_after")?;
            let job = shared.jobs.resume(id)?;
            let resp = status_json(&job);
            spawn_run(job, workers, halt_after);
            Ok(resp)
        }
        "query" => return query(shared, &v, out),
        "query_batch" => return query_batch(shared, &v, out),
        "metrics" => {
            let format = v
                .get("format")
                .and_then(Value::as_str)
                .unwrap_or("prometheus");
            let snap = metrics::snapshot();
            match format {
                "prometheus" => Ok(format!(
                    "{{\"ok\": true, \"format\": \"prometheus\", \"metrics\": {}}}",
                    write_string(&snap.prometheus_text()),
                )),
                "json" => Ok(format!(
                    "{{\"ok\": true, \"format\": \"json\", \"metrics\": {}}}",
                    snap.to_json(),
                )),
                other => Err(SolverError::BadInput(format!(
                    "unknown metrics format '{other}' (expected 'prometheus' or 'json')"
                ))),
            }
        }
        "shutdown" => {
            shared.stop.store(true, Ordering::SeqCst);
            // Wake siblings blocked in accept(); each accepted dummy is
            // dropped after the post-accept stop check.
            for _ in 0..shared.cfg.accept_threads.max(1) {
                UnixStream::connect(&shared.cfg.socket_path).ok();
            }
            Ok("{\"ok\": true, \"stopping\": true}".into())
        }
        other => Err(SolverError::BadInput(format!("unknown op '{other}'"))),
    }?;
    out.push_str(&resp);
    Ok(())
}
