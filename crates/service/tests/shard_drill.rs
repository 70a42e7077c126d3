//! Distributed-shard drill at the service layer: shard jobs submitted to
//! live daemons — one killed mid-shard and resumed after a restart —
//! must federate into a store bitwise identical (order-normalized) to a
//! direct in-process sweep. Plus: the coordinator fleet end to end.

use std::process::{Child, Command, Stdio};
use std::time::Duration;

use aerothermo_numerics::json::Value;
use aerothermo_service::{run_coordinated_sweep, Client, CoordinatorConfig};
use aerothermo_sweep::{
    load_records, normalized_fingerprint, run_sweep, CaseSpec, FlowSpec, GasSpec, LevelSpec,
    ShardStrategy, SweepOptions, SweepPlan,
};

/// The CI smoke plan (4 correlation + 2 VSL cases) — same numbers the
/// determinism drill and the workflow shard-drill exercise.
fn smoke_plan() -> SweepPlan {
    let air = |rho: f64, u: f64| FlowSpec::new(rho, u, 220.0, f64::NAN, 0.5, 1500.0);
    let titan = |rho: f64, u: f64| FlowSpec::new(rho, u, 165.0, f64::NAN, 0.6, 1800.0);
    let corr_air = LevelSpec::Correlation { k_sg: 0.000174 };
    let corr_titan = LevelSpec::Correlation { k_sg: 0.00017 };
    let vsl = LevelSpec::Vsl {
        n_points: 20,
        radiating: false,
    };
    let titan_gas = GasSpec::Titan { ch4: 0.05 };
    SweepPlan {
        name: "service_shard_smoke".into(),
        cases: vec![
            CaseSpec::new(
                "corr-air9-a",
                GasSpec::Air9,
                corr_air.clone(),
                air(3e-5, 9000.0),
            ),
            CaseSpec::new("corr-air9-b", GasSpec::Air9, corr_air, air(1e-4, 7000.0)),
            CaseSpec::new(
                "corr-titan-a",
                titan_gas.clone(),
                corr_titan.clone(),
                titan(3e-5, 10000.0),
            ),
            CaseSpec::new(
                "corr-titan-b",
                titan_gas.clone(),
                corr_titan,
                titan(1e-4, 8000.0),
            ),
            CaseSpec::new("vsl-air9", GasSpec::Air9, vsl.clone(), air(1e-4, 7000.0)),
            CaseSpec::new("vsl-titan", titan_gas, vsl, titan(1e-4, 8000.0)),
        ],
    }
}

struct TestDirs {
    root: std::path::PathBuf,
}

impl TestDirs {
    fn new(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!("aerothermod-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        std::fs::create_dir_all(&root).unwrap();
        Self { root }
    }

    fn path(&self, name: &str) -> String {
        self.root.join(name).to_str().unwrap().to_string()
    }
}

impl Drop for TestDirs {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.root).ok();
    }
}

fn spawn_daemon(socket: &str, data_dir: &str) -> Child {
    Command::new(env!("CARGO_BIN_EXE_aerothermod"))
        .arg(format!("--socket={socket}"))
        .arg(format!("--data-dir={data_dir}"))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning aerothermod")
}

fn connect(socket: &str) -> Client {
    Client::connect_with_retry(socket, Duration::from_secs(60)).expect("daemon came up")
}

fn phase_of(st: &Value) -> String {
    st.get("phase")
        .and_then(Value::as_str)
        .unwrap_or("?")
        .to_string()
}

/// Single-process reference fingerprint for the smoke plan.
fn reference_fingerprint(dirs: &TestDirs) -> Vec<(String, String)> {
    let store = dirs.path("direct.jsonl");
    let report = run_sweep(
        &smoke_plan(),
        &SweepOptions {
            workers: 2,
            store_path: Some(store.clone()),
            ..SweepOptions::default()
        },
    )
    .expect("direct sweep runs");
    assert!(report.all_green(), "reference sweep must be green");
    normalized_fingerprint(&load_records(&store).expect("reference store parses"))
}

#[test]
fn killed_shard_daemon_resumes_and_federates_bitwise_identical() {
    let dirs = TestDirs::new("shard-drill");
    let socket = dirs.path("aerothermod.sock");
    let data_dir = dirs.path("data");
    let plan = smoke_plan();
    let reference = reference_fingerprint(&dirs);

    // Shard 1/2 (five of the six cases: the Titan VSL alone outweighs
    // the rest) with a halt budget so the store is genuinely partial,
    // then SIGKILL the daemon mid-lifecycle.
    let mut daemon = spawn_daemon(&socket, &data_dir);
    let mut client = connect(&socket);
    let job1 = client
        .submit_shard(&plan, "1/2", Some("cost_balanced"), Some(1), Some(1))
        .expect("shard 1 accepted");
    let st = client.wait(&job1, Duration::from_secs(300)).expect("halt");
    assert_eq!(phase_of(&st), "halted", "halt budget should stop shard 1");
    assert_eq!(
        st.get("shard").and_then(Value::as_str),
        Some("1/2"),
        "status must carry the shard slice"
    );
    let store1 = st.get("store").and_then(Value::as_str).unwrap().to_string();
    let n_partial = load_records(&store1).expect("partial store parses").len();
    daemon.kill().expect("kill daemon");
    daemon.wait().expect("reap daemon");

    // Restart on the same data dir: the sidecar must recover the job as
    // a *shard* job (total = slice length, not the full plan), and
    // resume must finish exactly the missing cases.
    let mut daemon = spawn_daemon(&socket, &data_dir);
    let mut client = connect(&socket);
    let st = client.status(&job1).expect("job recovered from disk");
    assert_eq!(phase_of(&st), "interrupted");
    let slice_len = st.get("total").and_then(Value::as_f64).unwrap() as usize;
    assert!(
        slice_len < plan.cases.len(),
        "recovered total must be the shard slice, got {slice_len}"
    );
    assert!(n_partial < slice_len, "drill needs a partial shard store");
    client.resume(&job1, Some(1)).expect("resume accepted");
    let st = client
        .wait(&job1, Duration::from_secs(600))
        .expect("finish");
    assert_eq!(phase_of(&st), "completed");

    // Shard 0/2 runs uninterrupted on the same daemon.
    let job0 = client
        .submit_shard(&plan, "0/2", Some("cost_balanced"), Some(1), None)
        .expect("shard 0 accepted");
    let st = client
        .wait(&job0, Duration::from_secs(600))
        .expect("finish");
    assert_eq!(phase_of(&st), "completed");

    // Federate over the protocol and gate on the reference fingerprint.
    let v = client
        .federate(&[job0, job1])
        .expect("federation over the protocol");
    let merged_store = v.get("store").and_then(Value::as_str).unwrap().to_string();
    assert_eq!(
        v.get("report").and_then(|r| r.get("complete")),
        Some(&Value::Bool(true)),
        "federation must be complete"
    );
    client.shutdown().expect("clean shutdown");
    daemon.wait().expect("daemon exits");

    assert_eq!(
        normalized_fingerprint(&load_records(&merged_store).expect("merged store parses")),
        reference,
        "kill + resume + federate diverged from the single-process run"
    );
}

#[test]
fn coordinator_fleet_federates_bitwise_identical() {
    let dirs = TestDirs::new("coordinator");
    let plan = smoke_plan();
    let reference = reference_fingerprint(&dirs);

    let mut cfg = CoordinatorConfig::new(env!("CARGO_BIN_EXE_aerothermod"), &dirs.path("fleet"), 2);
    cfg.strategy = ShardStrategy::CostBalanced;
    cfg.timeout = Duration::from_secs(600);
    let done = run_coordinated_sweep(&plan, &cfg).expect("coordinated sweep runs");
    assert!(done.report.complete(), "{}", done.report.summary());
    assert_eq!(done.shards.len(), 2);
    assert_eq!(
        normalized_fingerprint(&load_records(&done.store_path).expect("federated store parses")),
        reference,
        "coordinated fleet diverged from the single-process run"
    );
}
