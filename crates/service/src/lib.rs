//! Persistent aerothermodynamics service: a long-running daemon
//! (`aerothermod`) serving sweep plans and stagnation-heating queries
//! over a Unix domain socket.
//!
//! The sweep engine (`aerothermo_sweep`) already amortizes solver setup
//! across the cases of one plan, but every *process* launch still pays
//! the expensive warm-up tolls: building the equilibrium gas table,
//! adaptively sampling the heating surrogate, and spinning up the worker
//! pool. A trajectory-design loop that submits many small plans and
//! thousands of point queries pays those tolls over and over. This crate
//! keeps them resident:
//!
//! * [`server`] — the daemon: a bounded accept pool (no async runtime;
//!   N threads blocked in `accept()` on one shared listener) speaking a
//!   line-delimited JSON protocol, dispatching to the job registry and
//!   the resident query engine.
//! * [`jobs`] — on-disk job registry: every submitted plan becomes
//!   `job-NNNN.{plan.json,store.jsonl,events.jsonl}` under the data
//!   directory, executed on the existing [`aerothermo_sweep::run_sweep`]
//!   pool with the crash-safe JSONL store as the job journal. Jobs
//!   survive daemon restarts: a startup scan classifies finished versus
//!   interrupted jobs, and `resume` re-enters the store's skip logic.
//! * [`client`] — a blocking [`client::Client`] used by `aeroctl`, the
//!   integration drills, and CI.
//!
//! Splitting a plan across processes is not a daemon job: `sweep
//! --shard=i/n` runs one slice and `sweep federate` merges the shard
//! stores (see [`aerothermo_sweep::shard`]). On one host, a single
//! `submit` with more `workers` does the same work without federation.
//!
//! # Protocol
//!
//! One JSON object per line in each direction. Requests carry an `"op"`
//! field; responses are `{"ok": true, ...}` or
//! `{"ok": false, "error": "..."}`. Ops: `ping`, `submit`, `status`,
//! `results`, `cancel`, `resume`, `query`, `query_batch`, `metrics`,
//! `shutdown`. See `README.md` § Service for the full schemas. Request
//! lines are capped at [`MAX_LINE_BYTES`], batches at
//! [`MAX_BATCH_POINTS`], and the sweep workers one request may ask for
//! at [`MAX_WORKERS`]; [`Daemon::start`] holds the configured accept
//! pool and default worker count to the same cap.
//!
//! # Determinism
//!
//! The daemon adds *no* numerical path of its own: submitted plans run
//! through the same `run_sweep` the CLI uses (per-case thread pinning,
//! cold per-case warm caches), so per-case records served from a job
//! store are bitwise identical to a direct in-process sweep — including
//! after a kill/restart/resume cycle. The integration drill in
//! `tests/determinism_drill.rs` enforces exactly that.

#![warn(missing_docs)]

pub mod client;
mod framing;
pub mod jobs;
pub mod server;

pub use client::Client;
pub use jobs::{JobPhase, JobRegistry};
pub use server::{Daemon, MAX_BATCH_POINTS, MAX_LINE_BYTES, MAX_WORKERS};

/// Daemon configuration: socket, data directory, pool sizes, and the
/// resident surrogate corridor.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Unix-domain socket path the daemon binds.
    pub socket_path: String,
    /// Directory holding per-job plan/store/events files.
    pub data_dir: String,
    /// Accept-pool size: threads concurrently blocked in `accept()`, at
    /// most [`MAX_WORKERS`]. Excess connections queue in the kernel
    /// backlog.
    pub accept_threads: usize,
    /// Default sweep worker count for submitted jobs, at most
    /// [`MAX_WORKERS`] (a `submit` request may override per job).
    pub workers: usize,
    /// Surrogate corridor `((h_lo, h_hi) [m], (v_lo, v_hi) [m/s])` for
    /// the resident stagnation-heating table. Queries outside it fall
    /// back to the exact response path.
    pub corridor: ((f64, f64), (f64, f64)),
    /// Initial surrogate grid `(n_altitude, n_velocity)` before adaptive
    /// refinement.
    pub grid: (usize, usize),
    /// Surrogate max-relative-error tolerance.
    pub tolerance: f64,
    /// Nose radius \[m\] of the resident query engine's body.
    pub nose_radius: f64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            socket_path: "aerothermod.sock".into(),
            data_dir: "aerothermod-data".into(),
            accept_threads: 4,
            workers: 2,
            corridor: ((40_000.0, 80_000.0), (4_000.0, 13_000.0)),
            grid: (17, 17),
            tolerance: 0.02,
            nose_radius: 0.6,
        }
    }
}
