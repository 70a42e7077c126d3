//! Distributed-sharding acceptance: a plan split across N independent
//! shard processes and federated back together must produce a store
//! bitwise identical (order-normalized) to the single-process sweep —
//! for every shard count, for both partition strategies, and across a
//! halt-mid-shard + resume cycle.

use aerothermo_sweep::spec::{FlowSpec, GasSpec, LevelSpec};
use aerothermo_sweep::store::load_records;
use aerothermo_sweep::{
    federate, federate_to_store, normalized_fingerprint, run_sweep, shard_plan, shard_store_path,
    CaseSpec, ShardSpec, ShardStrategy, SweepOptions, SweepPlan,
};

/// The CI smoke plan: 4 instant correlation cases + 2 real VSL solves on
/// two gas models, so cost-balanced sharding has uneven weights to chew.
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
        name: "sharding_smoke".into(),
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

struct TempRoot(std::path::PathBuf);

impl TempRoot {
    fn new(tag: &str) -> Self {
        let root =
            std::env::temp_dir().join(format!("aerothermo-shard-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        std::fs::create_dir_all(&root).unwrap();
        Self(root)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_str().unwrap().to_string()
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Single-process reference store for the smoke plan.
fn direct_store(dirs: &TempRoot) -> String {
    let path = dirs.path("direct.jsonl");
    let report = run_sweep(
        &smoke_plan(),
        &SweepOptions {
            workers: 2,
            store_path: Some(path.clone()),
            ..SweepOptions::default()
        },
    )
    .expect("direct sweep runs");
    assert!(report.all_green(), "reference sweep must be green");
    path
}

/// Run shard `i/n` of the smoke plan into its stamped store, with
/// per-shard sweep options under the caller's control.
fn run_shard(dirs: &TempRoot, spec: ShardSpec, halt_after: Option<usize>, resume: bool) -> String {
    let slice = shard_plan(&smoke_plan(), &spec).expect("shard slices");
    let store = shard_store_path(&dirs.path("shard.jsonl"), &spec);
    run_sweep(
        &slice,
        &SweepOptions {
            workers: 1,
            store_path: Some(store.clone()),
            halt_after_cases: halt_after,
            resume,
            ..SweepOptions::default()
        },
    )
    .expect("shard sweep runs");
    store
}

fn fingerprint_of(path: &str) -> Vec<(String, String)> {
    normalized_fingerprint(&load_records(path).expect("store parses"))
}

#[test]
fn federated_shards_match_single_process_for_every_count_and_strategy() {
    let plan = smoke_plan();
    let dirs = TempRoot::new("counts");
    let reference = fingerprint_of(&direct_store(&dirs));

    for strategy in [ShardStrategy::RoundRobin, ShardStrategy::CostBalanced] {
        for count in [1usize, 2, 4] {
            let tag = format!("{}-{count}", strategy.name());
            let stores: Vec<String> = (0..count)
                .map(|i| {
                    let spec = ShardSpec::new(i, count, strategy).unwrap();
                    run_shard(&dirs, spec, None, false)
                })
                .collect();
            let out = dirs.path(&format!("federated-{tag}.jsonl"));
            let report = federate_to_store(&plan, &stores, &out).expect("federation succeeds");
            assert!(report.complete(), "{tag}: {}", report.summary());
            assert_eq!(report.merged, plan.cases.len(), "{tag}");
            assert_eq!(
                fingerprint_of(&out),
                reference,
                "{tag}: federated store diverged from single-process run"
            );
            for store in stores {
                std::fs::remove_file(store).unwrap();
            }
        }
    }
}

#[test]
fn halted_shard_resumes_then_federates_bitwise_identical() {
    let plan = smoke_plan();
    let dirs = TempRoot::new("resume");
    let reference = fingerprint_of(&direct_store(&dirs));
    let strategy = ShardStrategy::CostBalanced;
    let shard0 = ShardSpec::new(0, 2, strategy).unwrap();
    let shard1 = ShardSpec::new(1, 2, strategy).unwrap();

    // Shard 1 (five of the six cases: the Titan VSL alone outweighs the
    // rest) halts after one case — a mid-shard interruption — then a
    // second process resumes it through the store's skip logic.
    let partial = run_shard(&dirs, shard1, Some(1), false);
    let n_partial = load_records(&partial).expect("partial parses").len();
    let slice_len = shard_plan(&plan, &shard1).unwrap().cases.len();
    assert!(
        n_partial >= 1 && n_partial < slice_len,
        "halt budget must leave shard 1 genuinely partial ({n_partial}/{slice_len})"
    );
    let store1 = run_shard(&dirs, shard1, None, true);
    let store0 = run_shard(&dirs, shard0, None, false);

    let (records, report) = federate(&plan, &[store0, store1]).expect("federation succeeds");
    assert!(report.complete(), "{}", report.summary());
    assert_eq!(
        normalized_fingerprint(&records),
        reference,
        "halt + resume must not change a single federated bit"
    );
}

#[test]
fn missing_shard_surfaces_as_gaps_not_success() {
    let plan = smoke_plan();
    let dirs = TempRoot::new("gaps");
    let spec = ShardSpec::new(0, 2, ShardStrategy::RoundRobin).unwrap();
    let store0 = run_shard(&dirs, spec, None, false);
    let (_, report) = federate(&plan, &[store0]).expect("partial federation still reports");
    assert!(
        !report.complete(),
        "one missing shard must not read as complete"
    );
    let expected_missing = plan.cases.len() - shard_plan(&plan, &spec).unwrap().cases.len();
    assert_eq!(report.gaps.len(), expected_missing);
}
