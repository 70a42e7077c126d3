//! `aerothermod` — the persistent aerothermodynamics service daemon.
//!
//! Binds a Unix-domain socket, recovers the job registry from the data
//! directory, and serves the line-delimited JSON protocol until a
//! `shutdown` request. See `README.md` § Service for the schemas and
//! `aeroctl` for the matching CLI client.
//!
//! ```text
//! aerothermod --socket=PATH --data-dir=DIR [--workers=N]
//!             [--accept-threads=N] [--corridor=H0,H1,V0,V1]
//!             [--grid=NH,NV] [--tolerance=T] [--nose-radius=R]
//!             [--prebuild]
//! ```
//!
//! `--workers` and `--accept-threads` are capped at `MAX_WORKERS`
//! (1024). To split one plan across processes or hosts, run
//! `sweep --shard=i/n` per shard and merge with `sweep federate`.
//!
//! Exit codes: 0 clean shutdown, 2 usage error, 3 startup failure
//! (including a flag above its cap).

use aerothermo_service::{Client, Daemon, ServiceConfig};

fn usage() -> ! {
    eprintln!(
        "usage: aerothermod --socket=PATH --data-dir=DIR [--workers=N] \
         [--accept-threads=N] [--corridor=H0,H1,V0,V1] [--grid=NH,NV] \
         [--tolerance=T] [--nose-radius=R] [--prebuild]"
    );
    std::process::exit(2);
}

fn parse_pair(s: &str, flag: &str) -> (usize, usize) {
    let parts: Vec<_> = s.split(',').collect();
    match parts.as_slice() {
        [a, b] => match (a.trim().parse(), b.trim().parse()) {
            (Ok(x), Ok(y)) => (x, y),
            _ => {
                eprintln!("aerothermod: {flag} expects two integers, got '{s}'");
                usage()
            }
        },
        _ => {
            eprintln!("aerothermod: {flag} expects two integers, got '{s}'");
            usage()
        }
    }
}

fn parse_corridor(s: &str) -> ((f64, f64), (f64, f64)) {
    let nums: Vec<f64> = s.split(',').filter_map(|x| x.trim().parse().ok()).collect();
    if nums.len() != 4 {
        eprintln!("aerothermod: --corridor expects H0,H1,V0,V1, got '{s}'");
        usage();
    }
    ((nums[0], nums[1]), (nums[2], nums[3]))
}

fn main() {
    let mut cfg = ServiceConfig::default();
    let mut prebuild = false;
    for arg in std::env::args().skip(1) {
        let (flag, value) = match arg.split_once('=') {
            Some((f, v)) => (f.to_string(), v.to_string()),
            None => (arg.clone(), String::new()),
        };
        match flag.as_str() {
            "--socket" => cfg.socket_path = value,
            "--data-dir" => cfg.data_dir = value,
            "--workers" => match value.parse() {
                Ok(n) => cfg.workers = n,
                Err(_) => usage(),
            },
            "--accept-threads" => match value.parse() {
                Ok(n) => cfg.accept_threads = n,
                Err(_) => usage(),
            },
            "--corridor" => cfg.corridor = parse_corridor(&value),
            "--grid" => cfg.grid = parse_pair(&value, "--grid"),
            "--tolerance" => match value.parse() {
                Ok(t) => cfg.tolerance = t,
                Err(_) => usage(),
            },
            "--nose-radius" => match value.parse() {
                Ok(r) => cfg.nose_radius = r,
                Err(_) => usage(),
            },
            "--prebuild" => prebuild = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("aerothermod: unknown flag '{other}'");
                usage()
            }
        }
    }

    let daemon = match Daemon::start(cfg.clone()) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("aerothermod: startup failed: {e}");
            std::process::exit(3);
        }
    };
    println!(
        "aerothermod ready socket={} data_dir={} workers={} accept_threads={} jobs={}",
        cfg.socket_path,
        cfg.data_dir,
        cfg.workers,
        cfg.accept_threads,
        daemon.job_count(),
    );

    if prebuild {
        // Warm the resident surrogate before the first query arrives by
        // sending ourselves a throwaway in-corridor query.
        let ((h0, h1), (v0, v1)) = cfg.corridor;
        match Client::connect(&cfg.socket_path)
            .and_then(|mut me| me.query(0.5 * (h0 + h1), 0.5 * (v0 + v1)))
        {
            Ok(_) => println!("aerothermod surrogate prebuilt"),
            Err(e) => eprintln!("aerothermod: prebuild failed: {e}"),
        }
    }

    daemon.run_until_shutdown();
    println!("aerothermod stopped");
}
