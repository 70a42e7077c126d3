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
use aerothermo_numerics::json::{self, push_f64, Layout, Object, Raw, Value};
use aerothermo_numerics::telemetry::{counters, Counter, SolverError};
use aerothermo_numerics::trace;
use aerothermo_sweep::SweepPlan;

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

/// Most sweep workers one `submit` or `resume` request may ask for, and
/// the most accept threads or default workers a [`ServiceConfig`] may
/// set. Whatever the request, the pool starts no more threads than the
/// job has cases; this cap bounds what one request can claim.
pub const MAX_WORKERS: usize = 1024;

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
    /// [`SolverError::BadInput`] on an `accept_threads` or `workers`
    /// setting above [`MAX_WORKERS`] (checked before anything is bound or
    /// spawned), bind failures, a live socket occupant, an
    /// unreadable/corrupt data directory, or a failed accept-thread
    /// spawn (the threads already started are stopped first).
    pub fn start(cfg: ServiceConfig) -> Result<Self, SolverError> {
        for (name, n) in [
            ("accept_threads", cfg.accept_threads),
            ("workers", cfg.workers),
        ] {
            if n > MAX_WORKERS {
                return Err(SolverError::BadInput(format!(
                    "'{name}' is {n}; the limit is {MAX_WORKERS}"
                )));
            }
        }
        let jobs = JobRegistry::open(&cfg.data_dir)?;
        let listener = Arc::new(bind_or_replace_stale(&cfg.socket_path)?);
        let shared = Arc::new(Shared {
            cfg,
            jobs,
            table: Mutex::new(None),
            stop: AtomicBool::new(false),
        });
        let mut handles = Vec::new();
        for k in 0..shared.cfg.accept_threads.max(1) {
            let (sh, listener) = (Arc::clone(&shared), Arc::clone(&listener));
            match std::thread::Builder::new()
                .name(format!("aerothermod-accept-{k}"))
                .spawn(move || accept_loop(&sh, &listener))
            {
                Ok(h) => handles.push(h),
                Err(e) => {
                    stop_accepting(&shared, handles.len());
                    for h in handles {
                        let _ = h.join();
                    }
                    std::fs::remove_file(&shared.cfg.socket_path).ok();
                    return Err(SolverError::BadInput(format!(
                        "spawning accept thread {k}: {e}"
                    )));
                }
            }
        }
        Ok(Self { shared, handles })
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

/// Raise the stop flag and wake `threads` accept threads blocked in
/// `accept()` with dummy connects; each drops its dummy after the
/// post-accept stop check.
fn stop_accepting(shared: &Shared, threads: usize) {
    shared.stop.store(true, Ordering::SeqCst);
    for _ in 0..threads {
        UnixStream::connect(&shared.cfg.socket_path).ok();
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
    json::write_object(Layout::Inline, |o| {
        o.put("ok", false).put("error", msg);
    })
}

/// Append a success response: `"ok": true`, then the members `body`
/// writes.
fn ok_json(out: &mut String, body: impl FnOnce(&mut Object<'_>)) {
    json::push_object(out, Layout::Inline, |o| body(o.put("ok", true)));
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

/// The request's `workers` (the daemon default when absent), at least 1
/// and at most [`MAX_WORKERS`].
fn req_workers(shared: &Shared, v: &Value) -> Result<usize, SolverError> {
    match opt_usize(v, "workers")? {
        Some(n) if n > MAX_WORKERS => Err(SolverError::BadInput(format!(
            "'workers' is {n}; the limit is {MAX_WORKERS}"
        ))),
        requested => Ok(requested.unwrap_or(shared.cfg.workers).max(1)),
    }
}

fn status_json(out: &mut String, job: &Job) {
    ok_json(out, |o| {
        o.put("job", &job.id).put("plan", &job.plan_name);
        o.put("phase", job.phase().name());
        o.put("done", job.done.load(Ordering::SeqCst).min(job.total));
        o.put("total", job.total).put("error", job.error());
        o.put("store", &job.store_path);
        o.put("events", &job.events_path);
    });
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

/// Spawn a detached sweep thread for `job`. When the thread cannot be
/// started the job is marked failed with the reason (so `resume` accepts
/// it) and the error is returned for the response line.
fn spawn_run(job: Arc<Job>, workers: usize, halt_after: Option<usize>) -> Result<(), SolverError> {
    let runner = Arc::clone(&job);
    match std::thread::Builder::new()
        .name(format!("aerothermod-{}", job.id))
        .spawn(move || runner.run(workers, halt_after))
    {
        Ok(_) => Ok(()),
        Err(e) => {
            let msg = format!("job '{}': could not start its sweep thread: {e}", job.id);
            job.fail(msg.clone());
            Err(SolverError::BadInput(msg))
        }
    }
}

/// Parse one request line and write its response into `out`.
fn handle(shared: &Arc<Shared>, line: &str, out: &mut String) -> Result<(), SolverError> {
    let v = json::parse(line).map_err(|e| SolverError::BadInput(format!("request JSON: {e}")))?;
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| SolverError::BadInput("request missing string 'op'".into()))?;
    match op {
        "ping" => ok_json(out, |o| {
            o.put("pong", true).put("pid", std::process::id());
            o.put("jobs", shared.jobs.list().len());
        }),
        "submit" => {
            let plan_v = v
                .get("plan")
                .ok_or_else(|| SolverError::BadInput("submit missing object 'plan'".into()))?;
            let plan = SweepPlan::from_json(plan_v)?;
            let workers = req_workers(shared, &v)?;
            let halt_after = opt_usize(&v, "halt_after")?;
            let job = shared.jobs.submit(&plan)?;
            ok_json(out, |o| {
                o.put("job", &job.id).put("planned", job.total);
            });
            spawn_run(job, workers, halt_after)?;
        }
        "status" => status_json(out, &*req_job(shared, &v)?),
        "results" => {
            let job = req_job(shared, &v)?;
            let doc = std::fs::read_to_string(&job.store_path).unwrap_or_default();
            // A torn trailing line (daemon killed mid-write) is dropped,
            // matching the store loader's crash tolerance.
            let mut lines: Vec<Raw> = doc
                .lines()
                .filter(|l| !l.trim().is_empty())
                .map(Raw)
                .collect();
            if !doc.ends_with('\n') {
                lines.pop();
            }
            ok_json(out, |o| {
                o.put("job", &job.id).put("records", &lines[..]);
            });
        }
        "cancel" => {
            let job = req_job(shared, &v)?;
            job.cancel.store(true, Ordering::SeqCst);
            status_json(out, &job);
        }
        "resume" => {
            let id = v
                .get("job")
                .and_then(Value::as_str)
                .ok_or_else(|| SolverError::BadInput("request missing string 'job'".into()))?;
            let workers = req_workers(shared, &v)?;
            let halt_after = opt_usize(&v, "halt_after")?;
            let job = shared.jobs.resume(id)?;
            status_json(out, &job);
            spawn_run(job, workers, halt_after)?;
        }
        "query" => query(shared, &v, out)?,
        "query_batch" => query_batch(shared, &v, out)?,
        "metrics" => {
            let format = v
                .get("format")
                .and_then(Value::as_str)
                .unwrap_or("prometheus");
            let snap = trace::snapshot();
            let metrics = match format {
                "prometheus" => json::write_string(&snap.prometheus_text()),
                "json" => snap.to_json(),
                other => {
                    return Err(SolverError::BadInput(format!(
                        "unknown metrics format '{other}' (expected 'prometheus' or 'json')"
                    )))
                }
            };
            ok_json(out, |o| {
                o.put("format", format).put("metrics", Raw(&metrics));
            });
        }
        "shutdown" => {
            stop_accepting(shared, shared.cfg.accept_threads.max(1));
            ok_json(out, |o| {
                o.put("stopping", true);
            });
        }
        other => return Err(SolverError::BadInput(format!("unknown op '{other}'"))),
    }
    Ok(())
}
