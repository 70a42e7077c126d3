//! `aeroctl` — CLI client for the `aerothermod` service daemon.
//!
//! ```text
//! aeroctl --socket=PATH <command> [args]
//!
//! Commands:
//!   ping                                liveness check
//!   submit --plan=FILE [--workers=N] [--halt-after=K]
//!                                       submit a sweep plan, print job id
//!   status JOB                          one status line for JOB
//!   wait JOB [--timeout=SECS]           poll until JOB leaves 'running';
//!                                       a live progress line shows
//!                                       done/total, elapsed, and the ETA
//!                                       from the job's event heartbeats
//!   results JOB                         print JOB's per-case records (JSONL)
//!   cancel JOB                          raise JOB's cooperative cancel flag
//!   resume JOB [--workers=N]            resume an interrupted/halted job
//!   query ALT VEL                       one stagnation-heating query
//!   query-batch H1,H2,... V1,V2,...     batched queries (comma lists)
//!   metrics [--json]                    daemon metrics exposition
//!   shutdown                            stop the daemon
//! ```
//!
//! Sharded runs go through `sweep --shard=i/n` and `sweep federate`.
//!
//! Exit codes: 0 success, 2 usage, 3 daemon/transport error, 4 `wait`
//! ended in `halted`/`cancelled`/`interrupted`, 5 `wait` ended `failed`.

use std::time::Duration;

use aerothermo_numerics::json::Put;
use aerothermo_numerics::telemetry::SolverError;
use aerothermo_service::Client;
use aerothermo_sweep::SweepPlan;

fn usage() -> ! {
    eprintln!(
        "usage: aeroctl --socket=PATH <ping|submit|status|wait|\
         results|cancel|resume|query|query-batch|metrics|shutdown> [args]  \
         (see --help)"
    );
    std::process::exit(2);
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .find_map(|a| a.strip_prefix(&format!("{flag}=")).map(str::to_string))
}

fn die(e: &SolverError) -> ! {
    eprintln!("aeroctl: {e}");
    std::process::exit(3);
}

fn parse_list(s: &str, what: &str) -> Vec<f64> {
    let out: Vec<f64> = s.split(',').filter_map(|x| x.trim().parse().ok()).collect();
    if out.is_empty() {
        eprintln!("aeroctl: {what} must be a comma-separated number list, got '{s}'");
        usage();
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
    }
    let socket = flag_value(&args, "--socket").unwrap_or_else(|| "aerothermod.sock".into());
    let positional: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let Some(cmd) = positional.first() else {
        usage()
    };

    let mut client = Client::connect(&socket).unwrap_or_else(|e| die(&e));
    match cmd.as_str() {
        "ping" => {
            client.ping().unwrap_or_else(|e| die(&e));
            println!("pong");
        }
        "submit" => {
            let Some(path) = flag_value(&args, "--plan") else {
                eprintln!("aeroctl: submit requires --plan=FILE");
                usage();
            };
            let plan = SweepPlan::load(&path).unwrap_or_else(|e| die(&e));
            let workers = flag_value(&args, "--workers").and_then(|w| w.parse().ok());
            let halt = flag_value(&args, "--halt-after").and_then(|k| k.parse().ok());
            let job = client
                .submit(&plan, workers, halt)
                .unwrap_or_else(|e| die(&e));
            println!("{job}");
        }
        "status" => {
            let Some(job) = positional.get(1) else {
                usage()
            };
            let st = client.status(job).unwrap_or_else(|e| die(&e));
            print_status(&st);
        }
        "wait" => {
            let Some(job) = positional.get(1) else {
                usage()
            };
            let timeout = flag_value(&args, "--timeout")
                .and_then(|t| t.parse().ok())
                .unwrap_or(600.0);
            let started = std::time::Instant::now();
            let mut progressed = false;
            let st = client
                .wait_with(job, Duration::from_secs_f64(timeout), |st| {
                    print_progress(st, started.elapsed().as_secs_f64());
                    progressed = true;
                })
                .unwrap_or_else(|e| die(&e));
            if progressed {
                eprintln!();
            }
            print_status(&st);
            let phase = st
                .get("phase")
                .and_then(aerothermo_numerics::json::Value::as_str)
                .unwrap_or("");
            std::process::exit(match phase {
                "completed" => 0,
                "failed" => 5,
                _ => 4,
            });
        }
        "results" => {
            let Some(job) = positional.get(1) else {
                usage()
            };
            let v = client.results(job).unwrap_or_else(|e| die(&e));
            let Some(records) = v
                .get("records")
                .and_then(aerothermo_numerics::json::Value::as_array)
            else {
                die(&SolverError::BadInput(
                    "results response missing 'records'".into(),
                ))
            };
            // One record per line, JSONL — pipe-friendly like the store.
            for rec in records {
                let id = rec
                    .get("id")
                    .and_then(aerothermo_numerics::json::Value::as_str)
                    .unwrap_or("?");
                let status = rec
                    .get("status")
                    .and_then(aerothermo_numerics::json::Value::as_str)
                    .unwrap_or("?");
                println!("{id}\t{status}");
            }
        }
        "cancel" => {
            let Some(job) = positional.get(1) else {
                usage()
            };
            let st = client.cancel(job).unwrap_or_else(|e| die(&e));
            print_status(&st);
        }
        "resume" => {
            let Some(job) = positional.get(1) else {
                usage()
            };
            let workers = flag_value(&args, "--workers").and_then(|w| w.parse().ok());
            let st = client.resume(job, workers).unwrap_or_else(|e| die(&e));
            print_status(&st);
        }
        "query" => {
            let (Some(h), Some(v)) = (positional.get(1), positional.get(2)) else {
                usage()
            };
            let (Ok(h), Ok(v)) = (h.parse::<f64>(), v.parse::<f64>()) else {
                usage()
            };
            let resp = client.query(h, v).unwrap_or_else(|e| die(&e));
            print_queries(resp.get("result").into_iter());
        }
        "query-batch" => {
            let (Some(hs), Some(vs)) = (positional.get(1), positional.get(2)) else {
                usage()
            };
            let hs = parse_list(hs, "altitudes");
            let vs = parse_list(vs, "velocities");
            let resp = client.query_batch(&hs, &vs).unwrap_or_else(|e| die(&e));
            let items = resp
                .get("results")
                .and_then(aerothermo_numerics::json::Value::as_array)
                .unwrap_or(&[]);
            print_queries(items.iter());
        }
        "metrics" => {
            let json = args.iter().any(|a| a == "--json");
            let v = client
                .metrics(if json { "json" } else { "prometheus" })
                .unwrap_or_else(|e| die(&e));
            if json {
                // Structured object: re-print the raw response member.
                let mut text = String::new();
                if let Some(m) = v.get("metrics") {
                    m.put(&mut text);
                }
                println!("{text}");
            } else {
                print!(
                    "{}",
                    v.get("metrics")
                        .and_then(aerothermo_numerics::json::Value::as_str)
                        .unwrap_or("")
                );
            }
        }
        "shutdown" => {
            client.shutdown().unwrap_or_else(|e| die(&e));
            println!("stopping");
        }
        other => {
            eprintln!("aeroctl: unknown command '{other}'");
            usage();
        }
    }
}

/// The `wait` progress line: done/total and elapsed from the status
/// poll, ETA from the newest heartbeat in the job's event stream (the
/// pool's mean-completed-case estimate — `None` until a case lands).
fn print_progress(st: &aerothermo_numerics::json::Value, elapsed_secs: f64) {
    use aerothermo_numerics::json::Value;
    use std::io::Write;
    let n = |k: &str| st.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
    let eta = st
        .get("events")
        .and_then(Value::as_str)
        .and_then(last_heartbeat_eta)
        .map_or_else(String::new, |eta| format!(" eta {eta:.1}s"));
    eprint!(
        "\r# {} {:.0}/{:.0} elapsed {elapsed_secs:.1}s{eta}   ",
        st.get("job").and_then(Value::as_str).unwrap_or("?"),
        n("done"),
        n("total"),
    );
    let _ = std::io::stderr().flush();
}

/// `eta_secs` of the last heartbeat line in the events file, if any.
fn last_heartbeat_eta(events_path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(events_path).ok()?;
    text.lines()
        .rev()
        .filter(|l| l.contains("\"event\": \"heartbeat\""))
        .find_map(|l| aerothermo_numerics::json::parse(l).ok())
        .and_then(|v| {
            v.get("eta_secs")
                .and_then(aerothermo_numerics::json::Value::as_f64)
        })
}

fn print_status(st: &aerothermo_numerics::json::Value) {
    use aerothermo_numerics::json::Value;
    let s = |k: &str| st.get(k).and_then(Value::as_str).unwrap_or("?").to_string();
    let n = |k: &str| st.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
    println!(
        "{}\t{}\t{}/{}\tplan={}",
        s("job"),
        s("phase"),
        n("done"),
        n("total"),
        s("plan"),
    );
    if let Some(err) = st.get("error").and_then(Value::as_str) {
        println!("error: {err}");
    }
}

fn print_queries<'a>(items: impl Iterator<Item = &'a aerothermo_numerics::json::Value>) {
    use aerothermo_numerics::json::Value;
    for q in items {
        let f = |k: &str| q.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
        let exact = matches!(q.get("exact"), Some(Value::Bool(true)));
        println!(
            "h={:.1} v={:.1} p_stag={:.6e} t_stag={:.2} q_conv={:.6e} q_rad={:.6e} path={}",
            f("altitude"),
            f("velocity"),
            f("p_stag"),
            f("t_stag"),
            f("q_conv"),
            f("q_rad"),
            if exact { "exact" } else { "surrogate" },
        );
    }
}
