//! Blocking client for the `aerothermod` line protocol, shared by the
//! `aeroctl` CLI, the integration drills, and CI.

use std::io::Write;
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use aerothermo_numerics::json::{self, push_f64, write_string, Value};
use aerothermo_numerics::telemetry::SolverError;
use aerothermo_sweep::SweepPlan;

use crate::framing::LineBuf;

/// One connection to a running daemon. Requests are serialized on the
/// connection: `call` writes a line and blocks for the response line.
pub struct Client {
    stream: UnixStream,
    lines: LineBuf,
    /// The outgoing request line, reused across calls.
    req: String,
}

impl Client {
    /// Connect to the daemon at `socket_path`.
    ///
    /// # Errors
    /// [`SolverError::BadInput`] if the socket is absent or refuses.
    pub fn connect(socket_path: &str) -> Result<Self, SolverError> {
        let stream = UnixStream::connect(socket_path)
            .map_err(|e| SolverError::BadInput(format!("connecting to '{socket_path}': {e}")))?;
        Ok(Self {
            stream,
            lines: LineBuf::new(),
            req: String::new(),
        })
    }

    /// Connect, retrying until the daemon binds its socket or `timeout`
    /// elapses — the startup handshake for freshly spawned daemons.
    ///
    /// # Errors
    /// The last connection error once the deadline passes.
    pub fn connect_with_retry(socket_path: &str, timeout: Duration) -> Result<Self, SolverError> {
        let deadline = Instant::now() + timeout;
        loop {
            match Self::connect(socket_path) {
                Ok(mut c) => match c.ping() {
                    Ok(()) => return Ok(c),
                    Err(e) if Instant::now() >= deadline => return Err(e),
                    Err(_) => {}
                },
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => {}
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Send one raw request line and return the parsed response value.
    /// `{"ok": false}` responses surface as `Err` carrying the server's
    /// error message.
    ///
    /// # Errors
    /// Transport failures, malformed responses, and server-side errors.
    pub fn call(&mut self, request: &str) -> Result<Value, SolverError> {
        self.req.clear();
        self.req.push_str(request);
        self.send()
    }

    /// Send the request line in `self.req` and parse the response line.
    fn send(&mut self) -> Result<Value, SolverError> {
        let io = |e: std::io::Error| SolverError::BadInput(format!("daemon socket: {e}"));
        debug_assert!(!self.req.contains('\n'), "requests must be single lines");
        self.req.push('\n');
        self.stream.write_all(self.req.as_bytes()).map_err(io)?;

        let line = self.lines.read_line(&mut self.stream).map_err(io)?;
        let line = String::from_utf8_lossy(line);
        let line = line.trim();
        let v = json::parse(line)
            .map_err(|e| SolverError::BadInput(format!("daemon response JSON: {e}")))?;
        match v.get("ok") {
            Some(Value::Bool(true)) => Ok(v),
            Some(Value::Bool(false)) => Err(SolverError::BadInput(format!(
                "daemon error: {}",
                v.get("error").and_then(Value::as_str).unwrap_or("unknown")
            ))),
            _ => Err(SolverError::BadInput(format!(
                "daemon response missing 'ok': {line}"
            ))),
        }
    }

    /// Liveness check.
    ///
    /// # Errors
    /// Transport or protocol failures.
    pub fn ping(&mut self) -> Result<(), SolverError> {
        self.call("{\"op\": \"ping\"}").map(|_| ())
    }

    /// Submit `plan`, returning the assigned job id. `workers` and
    /// `halt_after` override the daemon defaults when given.
    ///
    /// # Errors
    /// Plan validation and transport failures.
    pub fn submit(
        &mut self,
        plan: &SweepPlan,
        workers: Option<usize>,
        halt_after: Option<usize>,
    ) -> Result<String, SolverError> {
        // The plan serializer is multi-line for on-disk readability;
        // collapse it for the line protocol (embedded string newlines
        // are escaped by the serializer, so this is purely structural).
        let plan_json = plan.to_json().replace('\n', " ");
        let mut req = String::from("{\"op\": \"submit\"");
        if let Some(w) = workers {
            req.push_str(&format!(", \"workers\": {w}"));
        }
        if let Some(k) = halt_after {
            req.push_str(&format!(", \"halt_after\": {k}"));
        }
        req.push_str(&format!(", \"plan\": {plan_json}}}"));
        let v = self.call(&req)?;
        v.get("job")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| SolverError::BadInput("submit response missing 'job'".into()))
    }

    /// Submit one shard of `plan` (`shard` is the `i/n` slice string;
    /// `strategy` is `round_robin`/`cost_balanced`, daemon default when
    /// `None`), returning the assigned job id.
    ///
    /// # Errors
    /// Plan/shard validation and transport failures.
    pub fn submit_shard(
        &mut self,
        plan: &SweepPlan,
        shard: &str,
        strategy: Option<&str>,
        workers: Option<usize>,
        halt_after: Option<usize>,
    ) -> Result<String, SolverError> {
        let plan_json = plan.to_json().replace('\n', " ");
        let mut req = format!(
            "{{\"op\": \"submit_shard\", \"shard\": {}",
            write_string(shard)
        );
        if let Some(s) = strategy {
            req.push_str(&format!(", \"strategy\": {}", write_string(s)));
        }
        if let Some(w) = workers {
            req.push_str(&format!(", \"workers\": {w}"));
        }
        if let Some(k) = halt_after {
            req.push_str(&format!(", \"halt_after\": {k}"));
        }
        req.push_str(&format!(", \"plan\": {plan_json}}}"));
        let v = self.call(&req)?;
        v.get("job")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| SolverError::BadInput("submit_shard response missing 'job'".into()))
    }

    /// Federate the stores of finished shard `jobs` into the canonical
    /// store; the response carries the merged store path and the
    /// federation report object.
    ///
    /// # Errors
    /// Unknown/running/mismatched jobs, conflicting overlaps, transport
    /// failures.
    pub fn federate(&mut self, jobs: &[String]) -> Result<Value, SolverError> {
        let ids = jobs
            .iter()
            .map(|j| write_string(j))
            .collect::<Vec<_>>()
            .join(", ");
        self.call(&format!("{{\"op\": \"federate\", \"jobs\": [{ids}]}}"))
    }

    /// Poll the status object for `job`.
    ///
    /// # Errors
    /// Unknown jobs and transport failures.
    pub fn status(&mut self, job: &str) -> Result<Value, SolverError> {
        self.call(&format!(
            "{{\"op\": \"status\", \"job\": {}}}",
            write_string(job)
        ))
    }

    /// Poll `status` until the phase leaves `running`, returning the
    /// final status object.
    ///
    /// # Errors
    /// Transport failures, or `BadInput` once `timeout` elapses.
    pub fn wait(&mut self, job: &str, timeout: Duration) -> Result<Value, SolverError> {
        self.wait_with(job, timeout, |_| {})
    }

    /// [`Client::wait`] with a per-poll observer: `on_poll` sees every
    /// still-running status object (the `aeroctl wait` progress line).
    ///
    /// Polling backs off exponentially — 50 ms doubling to a 1 s cap —
    /// so a long sweep costs a handful of requests instead of a busy
    /// 20 Hz status loop, while short jobs still return promptly.
    ///
    /// # Errors
    /// Transport failures, or `BadInput` once `timeout` elapses.
    pub fn wait_with(
        &mut self,
        job: &str,
        timeout: Duration,
        mut on_poll: impl FnMut(&Value),
    ) -> Result<Value, SolverError> {
        const BACKOFF_CAP: Duration = Duration::from_secs(1);
        let deadline = Instant::now() + timeout;
        let mut backoff = Duration::from_millis(50);
        loop {
            let st = self.status(job)?;
            let phase = st.get("phase").and_then(Value::as_str).unwrap_or("");
            if phase != "running" {
                return Ok(st);
            }
            on_poll(&st);
            let now = Instant::now();
            if now >= deadline {
                return Err(SolverError::BadInput(format!(
                    "timed out waiting for job '{job}' (still running)"
                )));
            }
            std::thread::sleep(backoff.min(deadline - now));
            backoff = (backoff * 2).min(BACKOFF_CAP);
        }
    }

    /// Fetch the per-case records of `job` (the raw store lines as
    /// parsed JSON values, in execution order).
    ///
    /// # Errors
    /// Unknown jobs and transport failures.
    pub fn results(&mut self, job: &str) -> Result<Value, SolverError> {
        self.call(&format!(
            "{{\"op\": \"results\", \"job\": {}}}",
            write_string(job)
        ))
    }

    /// Raise the cooperative cancel flag on `job`.
    ///
    /// # Errors
    /// Unknown jobs and transport failures.
    pub fn cancel(&mut self, job: &str) -> Result<Value, SolverError> {
        self.call(&format!(
            "{{\"op\": \"cancel\", \"job\": {}}}",
            write_string(job)
        ))
    }

    /// Resume an interrupted/halted/cancelled job through the store's
    /// completed-case skip logic.
    ///
    /// # Errors
    /// Unknown or still-running jobs, and transport failures.
    pub fn resume(&mut self, job: &str, workers: Option<usize>) -> Result<Value, SolverError> {
        let mut req = format!("{{\"op\": \"resume\", \"job\": {}", write_string(job));
        if let Some(w) = workers {
            req.push_str(&format!(", \"workers\": {w}"));
        }
        req.push('}');
        self.call(&req)
    }

    /// One stagnation-heating query at `(altitude [m], velocity [m/s])`.
    ///
    /// # Errors
    /// Exact-path evaluation and transport failures.
    pub fn query(&mut self, altitude: f64, velocity: f64) -> Result<Value, SolverError> {
        self.req.clear();
        self.req.push_str("{\"op\": \"query\", \"altitude\": ");
        push_f64(&mut self.req, altitude);
        self.req.push_str(", \"velocity\": ");
        push_f64(&mut self.req, velocity);
        self.req.push('}');
        self.send()
    }

    /// Batched stagnation-heating queries.
    ///
    /// # Errors
    /// Length mismatches, exact-path evaluation, transport failures.
    pub fn query_batch(
        &mut self,
        altitude: &[f64],
        velocity: &[f64],
    ) -> Result<Value, SolverError> {
        self.req.clear();
        self.req
            .push_str("{\"op\": \"query_batch\", \"altitude\": ");
        push_f64_list(&mut self.req, altitude);
        self.req.push_str(", \"velocity\": ");
        push_f64_list(&mut self.req, velocity);
        self.req.push('}');
        self.send()
    }

    /// Fetch the daemon's metrics exposition. `format` is
    /// `"prometheus"` (default wire format, returned as a string field)
    /// or `"json"` (returned as a structured object).
    ///
    /// # Errors
    /// Unknown formats and transport failures.
    pub fn metrics(&mut self, format: &str) -> Result<Value, SolverError> {
        self.call(&format!(
            "{{\"op\": \"metrics\", \"format\": {}}}",
            write_string(format),
        ))
    }

    /// Ask the daemon to stop accepting and exit.
    ///
    /// # Errors
    /// Transport failures.
    pub fn shutdown(&mut self) -> Result<(), SolverError> {
        self.call("{\"op\": \"shutdown\"}").map(|_| ())
    }
}

/// Append `xs` as a JSON array, `[a, b, c]`.
fn push_f64_list(out: &mut String, xs: &[f64]) {
    out.push('[');
    for (k, &x) in xs.iter().enumerate() {
        if k > 0 {
            out.push_str(", ");
        }
        push_f64(out, x);
    }
    out.push(']');
}
