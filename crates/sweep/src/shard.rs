//! Distributed sweep sharding and result federation.
//!
//! A [`ShardSpec`] names one slice of a plan (`index`/`count` under a
//! [`ShardStrategy`]); partitioning is a **pure function of the plan**, so
//! any process — on any host, independently — computes the same
//! assignment and runs exactly its slice into a shard-stamped JSONL store
//! ([`shard_store_path`]). The [`federate`] engine then merges N shard
//! stores back into the canonical plan-order store, detecting gaps
//! (cases no shard recorded), overlaps (duplicate case IDs: identical
//! payload → deduped, conflicting payload → typed error), and torn tails
//! (a shard killed mid-write), and reporting all of it on a typed
//! [`FederationReport`].
//!
//! Because each case runs pinned to one thread from a cold warm-cache
//! (see the crate docs), a federated N-shard run is *bitwise* identical —
//! under [`crate::store::normalized_fingerprint`] — to the single-process
//! run of the same plan. That equality is the built-in correctness oracle
//! the sharding tests and the CI `shard-drill` job hold.

use crate::plan::SweepPlan;
use crate::store::{load_store, CaseOutcome, JsonlWriter, StoreLoad};
use aerothermo_numerics::json::{self, Layout};
use aerothermo_numerics::telemetry::SolverError;
use aerothermo_numerics::trace;

/// How cases are assigned to shards. Both strategies are deterministic
/// functions of the plan alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardStrategy {
    /// Case at plan position `k` goes to shard `k % count`. Trivially
    /// auditable; balanced when case costs are roughly uniform.
    #[default]
    RoundRobin,
    /// Longest-processing-time greedy: cases sorted by
    /// [`cost_estimate`](crate::spec::CaseSpec::cost_estimate) descending
    /// (plan order as the tiebreak), each assigned to the currently
    /// lightest shard (lowest index as the tiebreak). Balances wall time
    /// when costs are skewed — e.g. a plan mixing instant correlations
    /// with NS solves.
    CostBalanced,
}

impl ShardStrategy {
    /// Stable tag used on the wire and in CLI flags.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ShardStrategy::RoundRobin => "round_robin",
            ShardStrategy::CostBalanced => "cost_balanced",
        }
    }

    /// Parse a strategy tag (accepts `round_robin`/`round-robin` and
    /// `cost_balanced`/`cost-balanced`).
    ///
    /// # Errors
    /// [`SolverError::BadInput`] on unknown tags.
    pub fn parse(s: &str) -> Result<Self, SolverError> {
        match s {
            "round_robin" | "round-robin" => Ok(ShardStrategy::RoundRobin),
            "cost_balanced" | "cost-balanced" => Ok(ShardStrategy::CostBalanced),
            other => Err(SolverError::BadInput(format!(
                "unknown shard strategy '{other}' (want round_robin or cost_balanced)"
            ))),
        }
    }
}

/// One shard's identity: which slice (`index` of `count`) of a plan this
/// process runs, under which [`ShardStrategy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// 0-based shard index.
    pub index: usize,
    /// Total shard count (≥ 1).
    pub count: usize,
    /// Assignment strategy (must match across all shards of a run).
    pub strategy: ShardStrategy,
}

impl ShardSpec {
    /// Build a validated spec.
    ///
    /// # Errors
    /// [`SolverError::BadInput`] when `count` is 0 or `index >= count`.
    pub fn new(index: usize, count: usize, strategy: ShardStrategy) -> Result<Self, SolverError> {
        if count == 0 {
            return Err(SolverError::BadInput(
                "shard count must be >= 1".to_string(),
            ));
        }
        if index >= count {
            return Err(SolverError::BadInput(format!(
                "shard index {index} out of range for {count} shard(s)"
            )));
        }
        Ok(Self {
            index,
            count,
            strategy,
        })
    }

    /// Parse the CLI/wire form `i/n` (e.g. `--shard=0/2`).
    ///
    /// # Errors
    /// [`SolverError::BadInput`] on malformed strings or out-of-range
    /// index.
    pub fn parse(s: &str, strategy: ShardStrategy) -> Result<Self, SolverError> {
        let bad = || SolverError::BadInput(format!("shard spec '{s}' is not of the form i/n"));
        let (i, n) = s.split_once('/').ok_or_else(bad)?;
        let index = i.trim().parse::<usize>().map_err(|_| bad())?;
        let count = n.trim().parse::<usize>().map_err(|_| bad())?;
        Self::new(index, count, strategy)
    }

    /// The filename stamp, e.g. `shard0of2`.
    #[must_use]
    pub fn stamp(&self) -> String {
        format!("shard{}of{}", self.index, self.count)
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Assign every case of `plan` to a shard: returns `count` vectors of
/// plan-order case indices, one per shard, each internally in plan order.
/// Pure in the plan — every process computes the same partition.
#[must_use]
pub fn partition(plan: &SweepPlan, count: usize, strategy: ShardStrategy) -> Vec<Vec<usize>> {
    let _sp = trace::span("shard_partition");
    let count = count.max(1);
    let mut shards: Vec<Vec<usize>> = vec![Vec::new(); count];
    match strategy {
        ShardStrategy::RoundRobin => {
            for k in 0..plan.cases.len() {
                shards[k % count].push(k);
            }
        }
        ShardStrategy::CostBalanced => {
            let mut order: Vec<usize> = (0..plan.cases.len()).collect();
            order.sort_by(|&a, &b| {
                plan.cases[b]
                    .cost_estimate()
                    .total_cmp(&plan.cases[a].cost_estimate())
                    .then(a.cmp(&b))
            });
            let mut loads = vec![0.0_f64; count];
            for k in order {
                let lightest = (0..count)
                    .min_by(|&a, &b| loads[a].total_cmp(&loads[b]).then(a.cmp(&b)))
                    .expect("count >= 1");
                loads[lightest] += plan.cases[k].cost_estimate();
                shards[lightest].push(k);
            }
            for s in &mut shards {
                s.sort_unstable();
            }
        }
    }
    shards
}

/// This shard's slice of the plan, as a sub-plan (same name, cases in
/// plan order) ready for [`crate::pool::run_sweep`].
///
/// # Errors
/// [`SolverError::BadInput`] when the full plan fails
/// [`SweepPlan::validate`]. An *empty* slice (more shards than cases) is
/// not an error here — the caller decides whether to no-op or complain.
pub fn shard_plan(plan: &SweepPlan, spec: &ShardSpec) -> Result<SweepPlan, SolverError> {
    plan.validate()?;
    let assignment = partition(plan, spec.count, spec.strategy);
    Ok(SweepPlan {
        name: plan.name.clone(),
        cases: assignment[spec.index]
            .iter()
            .map(|&k| plan.cases[k].clone())
            .collect(),
    })
}

/// Shard-stamped store path: `base-shard{i}of{n}.ext` (or appended when
/// `base` has no extension). `results.jsonl` at shard 0/2 becomes
/// `results-shard0of2.jsonl`.
#[must_use]
pub fn shard_store_path(base: &str, spec: &ShardSpec) -> String {
    let (dir, file) = match base.rfind('/') {
        Some(k) => (&base[..=k], &base[k + 1..]),
        None => ("", base),
    };
    match file.rfind('.') {
        Some(k) if k > 0 => format!("{dir}{}-{}{}", &file[..k], spec.stamp(), &file[k..]),
        _ => format!("{base}-{}", spec.stamp()),
    }
}

/// What [`federate`] found while merging shard stores. `gaps` or
/// `conflicts` nonempty means the federated store is *not* a complete
/// canonical result; duplicates, supersedes, and torn tails are expected
/// artifacts of retries, resumes, and kills, and are only counted.
#[derive(Debug, Clone, Default)]
pub struct FederationReport {
    /// Cases in the plan.
    pub plan_cases: usize,
    /// Shard store paths examined (missing files count — an absent store
    /// is an empty shard, its cases will show up in `gaps`).
    pub shard_stores: usize,
    /// Records parsed across all shard stores.
    pub records_read: usize,
    /// Records in the merged canonical store.
    pub merged: usize,
    /// Within one store, earlier records shadowed by a later record for
    /// the same case (retry-after-failure / resume artifacts).
    pub superseded: usize,
    /// Cross-shard duplicate case IDs whose payloads were bitwise
    /// identical (same [`CaseOutcome::fingerprint`]) and were deduped.
    pub duplicates_deduped: usize,
    /// Plan case IDs no shard store recorded (plan order).
    pub gaps: Vec<String>,
    /// Record IDs not in the plan (sorted). These are carried into the
    /// merged store (they may be a stale plan, not corruption) but
    /// flagged here.
    pub unknown_ids: Vec<String>,
    /// Shard stores whose final line was torn by a kill mid-write. The
    /// torn record itself is unrecoverable (at most one case re-runs on
    /// resume); counted so the operator knows a shard died uncleanly.
    pub torn_tails: usize,
    /// Counter entries dropped for version skew, summed over shards (see
    /// [`StoreLoad::unknown_counters`]).
    pub unknown_counters: usize,
}

impl FederationReport {
    /// True when every plan case is present exactly once and nothing
    /// outside the plan leaked in: the merged store is the canonical
    /// result.
    #[must_use]
    pub fn complete(&self) -> bool {
        self.gaps.is_empty() && self.unknown_ids.is_empty() && self.merged == self.plan_cases
    }

    /// One-line human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "federated {} record(s) from {} shard store(s): {} merged, \
             {} superseded, {} deduped, {} gap(s), {} unknown id(s), {} torn tail(s)",
            self.records_read,
            self.shard_stores,
            self.merged,
            self.superseded,
            self.duplicates_deduped,
            self.gaps.len(),
            self.unknown_ids.len(),
            self.torn_tails
        )
    }

    /// Serialize to a JSON document (schema `aerothermo-federation-v1`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = json::write_object(Layout::Block, |o| {
            o.put("schema", "aerothermo-federation-v1");
            o.put("plan_cases", self.plan_cases);
            o.put("shard_stores", self.shard_stores);
            o.put("records_read", self.records_read);
            o.put("merged", self.merged)
                .put("superseded", self.superseded);
            o.put("duplicates_deduped", self.duplicates_deduped);
            o.put("gaps", &self.gaps[..]);
            o.put("unknown_ids", &self.unknown_ids[..]);
            o.put("torn_tails", self.torn_tails);
            o.put("unknown_counters", self.unknown_counters);
            o.put("complete", self.complete());
        });
        out.push('\n');
        out
    }
}

/// Reduce one store's records to its canonical per-case view: within a
/// store, a later record for the same ID supersedes an earlier one —
/// that is exactly the resume/retry semantics (`completed_ids` skips only
/// completed cases, so a Failed record followed by a Completed re-run is
/// one case, latest record canonical). Returns records in first-seen
/// order plus the supersede count.
fn canonicalize(records: Vec<CaseOutcome>) -> (Vec<CaseOutcome>, usize) {
    let mut order: Vec<String> = Vec::with_capacity(records.len());
    let mut by_id: std::collections::HashMap<String, CaseOutcome> =
        std::collections::HashMap::new();
    let mut superseded = 0;
    for rec in records {
        match by_id.entry(rec.id.clone()) {
            std::collections::hash_map::Entry::Vacant(e) => {
                order.push(rec.id.clone());
                e.insert(rec);
            }
            std::collections::hash_map::Entry::Occupied(mut e) => {
                superseded += 1;
                e.insert(rec);
            }
        }
    }
    let out = order
        .into_iter()
        .map(|id| by_id.remove(&id).expect("inserted above"))
        .collect();
    (out, superseded)
}

/// Merge N shard stores into the canonical record set for `plan`.
///
/// Per store, later records supersede earlier ones for the same case
/// (retry/resume semantics). Across stores, a case appearing in more than
/// one shard is an *overlap*: bitwise-identical payloads (equal
/// [`CaseOutcome::fingerprint`]) dedupe with a count; conflicting
/// payloads are a typed error naming the case — two shards claiming
/// different results for one case means the partition (or determinism)
/// is broken and no silent pick is safe. A torn final line in a store is
/// tolerated (the kill-mid-write artifact) and counted; interior garbage
/// is corruption and errors as in [`load_store`]. A missing store file
/// is an empty shard.
///
/// Returns the merged records — plan cases in plan order, then unknown
/// IDs in sorted order — plus the [`FederationReport`].
///
/// # Errors
/// [`SolverError::BadInput`] on conflicting duplicate payloads, interior
/// store corruption, or an invalid plan.
pub fn federate(
    plan: &SweepPlan,
    shard_paths: &[String],
) -> Result<(Vec<CaseOutcome>, FederationReport), SolverError> {
    let _sp = trace::span("federate");
    plan.validate()?;
    let mut report = FederationReport {
        plan_cases: plan.cases.len(),
        shard_stores: shard_paths.len(),
        ..FederationReport::default()
    };
    // id → (record, source path) for the conflict error message.
    let mut merged: std::collections::HashMap<String, (CaseOutcome, String)> =
        std::collections::HashMap::new();
    for path in shard_paths {
        // Torn tail: file exists, is non-empty, and does not end in a
        // newline — the writer flushes whole lines, so this is a kill
        // mid-write. `load_store` already skips the torn line.
        if let Ok(bytes) = std::fs::read(path) {
            if !bytes.is_empty() && bytes.last() != Some(&b'\n') {
                report.torn_tails += 1;
            }
        }
        let StoreLoad {
            records,
            unknown_counters,
        } = load_store(path)?;
        report.unknown_counters += unknown_counters;
        report.records_read += records.len();
        let (canonical, superseded) = canonicalize(records);
        report.superseded += superseded;
        for rec in canonical {
            match merged.get(&rec.id) {
                None => {
                    merged.insert(rec.id.clone(), (rec, path.clone()));
                }
                Some((prior, prior_path)) => {
                    if prior.fingerprint() == rec.fingerprint() {
                        report.duplicates_deduped += 1;
                    } else {
                        return Err(SolverError::BadInput(format!(
                            "federation conflict: case '{}' has different payloads in \
                             '{prior_path}' and '{path}' — shard partitions overlap with \
                             non-identical results",
                            rec.id
                        )));
                    }
                }
            }
        }
    }
    // Canonical order: plan cases in plan order, unknown IDs sorted after.
    let mut out = Vec::with_capacity(merged.len());
    for case in &plan.cases {
        match merged.remove(&case.id) {
            Some((rec, _)) => out.push(rec),
            None => report.gaps.push(case.id.clone()),
        }
    }
    let mut unknown: Vec<(String, CaseOutcome)> =
        merged.into_iter().map(|(id, (rec, _))| (id, rec)).collect();
    unknown.sort_by(|a, b| a.0.cmp(&b.0));
    for (id, rec) in unknown {
        report.unknown_ids.push(id);
        out.push(rec);
    }
    report.merged = out.len();
    Ok((out, report))
}

/// [`federate`] straight into a canonical store file at `out_path`
/// (truncating anything already there).
///
/// # Errors
/// As [`federate`], plus store-write I/O failures.
pub fn federate_to_store(
    plan: &SweepPlan,
    shard_paths: &[String],
    out_path: &str,
) -> Result<FederationReport, SolverError> {
    let (records, report) = federate(plan, shard_paths)?;
    if std::path::Path::new(out_path).exists() {
        std::fs::remove_file(out_path).map_err(|e| {
            SolverError::BadInput(format!("truncating federated store '{out_path}': {e}"))
        })?;
    }
    let mut writer = JsonlWriter::append(out_path)?;
    for rec in &records {
        writer.record(rec)?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CaseSpec, FlowSpec, GasSpec, LevelSpec};
    use crate::store::CaseStatus;

    fn plan_with_costs(costs: &[f64]) -> SweepPlan {
        let mut plan = SweepPlan::new("shard_test");
        for (k, &ms) in costs.iter().enumerate() {
            plan.push(CaseSpec::new(
                format!("c{k:02}"),
                GasSpec::IdealAir,
                LevelSpec::Synthetic {
                    work_ms: ms,
                    outcome: "ok".to_string(),
                },
                FlowSpec::new(1e-4, 7000.0, 200.0, 10.0, 0.5, 1500.0),
            ));
        }
        plan
    }

    fn outcome(id: &str, status: CaseStatus, q: f64) -> CaseOutcome {
        CaseOutcome {
            id: id.to_string(),
            status,
            wall_secs: 0.01,
            retries: 0,
            worker: 0,
            note: String::new(),
            error: None,
            metrics: vec![("q".to_string(), q)],
            counters: Vec::new(),
            postmortem: None,
        }
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("shard-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_store(dir: &std::path::Path, name: &str, recs: &[CaseOutcome]) -> String {
        let path = dir.join(name).to_str().unwrap().to_string();
        std::fs::remove_file(&path).ok();
        let mut w = JsonlWriter::append(&path).unwrap();
        for r in recs {
            w.record(r).unwrap();
        }
        path
    }

    #[test]
    fn spec_parses_and_validates() {
        let spec = ShardSpec::parse("1/4", ShardStrategy::RoundRobin).unwrap();
        assert_eq!((spec.index, spec.count), (1, 4));
        assert_eq!(spec.to_string(), "1/4");
        assert_eq!(spec.stamp(), "shard1of4");
        for bad in ["", "1", "1/", "/2", "2/2", "3/2", "a/b", "1/0"] {
            assert!(
                ShardSpec::parse(bad, ShardStrategy::RoundRobin).is_err(),
                "{bad} must not parse"
            );
        }
        assert_eq!(
            ShardStrategy::parse("cost-balanced").unwrap(),
            ShardStrategy::CostBalanced
        );
    }

    #[test]
    fn round_robin_partition_covers_exactly_once() {
        let plan = plan_with_costs(&[1.0; 7]);
        let shards = partition(&plan, 3, ShardStrategy::RoundRobin);
        assert_eq!(shards, vec![vec![0, 3, 6], vec![1, 4], vec![2, 5]]);
    }

    #[test]
    fn cost_balanced_partition_balances_skewed_costs() {
        // One giant case plus six cheap ones: LPT puts the giant alone on
        // one shard and splits the cheap ones across the rest.
        let plan = plan_with_costs(&[600.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
        let shards = partition(&plan, 2, ShardStrategy::CostBalanced);
        let cost = |s: &[usize]| -> f64 { s.iter().map(|&k| plan.cases[k].cost_estimate()).sum() };
        assert_eq!(shards[0], vec![0], "giant case isolated");
        assert_eq!(shards[1], vec![1, 2, 3, 4, 5, 6]);
        assert!(cost(&shards[0]) > cost(&shards[1]));
        // Every case exactly once, whatever the strategy or count.
        for strategy in [ShardStrategy::RoundRobin, ShardStrategy::CostBalanced] {
            for count in [1, 2, 3, 7, 9] {
                let shards = partition(&plan, count, strategy);
                let mut all: Vec<usize> = shards.concat();
                all.sort_unstable();
                assert_eq!(all, (0..7).collect::<Vec<_>>(), "{strategy:?} {count}");
            }
        }
    }

    #[test]
    fn shard_plan_slices_in_plan_order() {
        let plan = plan_with_costs(&[1.0; 5]);
        let spec = ShardSpec::new(1, 2, ShardStrategy::RoundRobin).unwrap();
        let sub = shard_plan(&plan, &spec).unwrap();
        assert_eq!(sub.name, plan.name);
        let ids: Vec<&str> = sub.cases.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(ids, ["c01", "c03"]);
        // More shards than cases: empty slice, not an error.
        let spec = ShardSpec::new(6, 7, ShardStrategy::RoundRobin).unwrap();
        assert!(shard_plan(&plan, &spec).unwrap().cases.is_empty());
    }

    #[test]
    fn shard_store_paths_are_stamped() {
        let spec = ShardSpec::new(0, 2, ShardStrategy::RoundRobin).unwrap();
        assert_eq!(
            shard_store_path("results.jsonl", &spec),
            "results-shard0of2.jsonl"
        );
        assert_eq!(
            shard_store_path("out/fig02-results.jsonl", &spec),
            "out/fig02-results-shard0of2.jsonl"
        );
        assert_eq!(shard_store_path("store", &spec), "store-shard0of2");
    }

    #[test]
    fn federate_merges_disjoint_shards_in_plan_order() {
        let dir = tmp_dir("merge");
        let plan = plan_with_costs(&[1.0; 4]);
        let s0 = write_store(
            &dir,
            "s0.jsonl",
            &[
                outcome("c02", CaseStatus::Completed, 2.0),
                outcome("c00", CaseStatus::Completed, 0.0),
            ],
        );
        let s1 = write_store(
            &dir,
            "s1.jsonl",
            &[
                outcome("c03", CaseStatus::Completed, 3.0),
                outcome("c01", CaseStatus::Completed, 1.0),
            ],
        );
        let (records, report) = federate(&plan, &[s0, s1]).unwrap();
        let ids: Vec<&str> = records.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(
            ids,
            ["c00", "c01", "c02", "c03"],
            "plan order, not file order"
        );
        assert!(report.complete(), "{}", report.summary());
        assert_eq!(report.records_read, 4);
        assert_eq!(report.merged, 4);
        assert_eq!(report.duplicates_deduped, 0);
        assert_eq!(report.torn_tails, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_identical_payloads_dedupe() {
        let dir = tmp_dir("dupe");
        let plan = plan_with_costs(&[1.0; 2]);
        let shared = outcome("c00", CaseStatus::Completed, 4.25);
        let s0 = write_store(
            &dir,
            "s0.jsonl",
            &[shared.clone(), outcome("c01", CaseStatus::Completed, 1.0)],
        );
        // Same case in the other shard too, bitwise-identical payload
        // (wall/worker may differ — they are not in the fingerprint).
        let mut dup = shared;
        dup.wall_secs = 9.0;
        dup.worker = 3;
        let s1 = write_store(&dir, "s1.jsonl", &[dup]);
        let (records, report) = federate(&plan, &[s0, s1]).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(report.duplicates_deduped, 1);
        assert!(report.complete());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_conflicting_payloads_are_typed_errors() {
        let dir = tmp_dir("conflict");
        let plan = plan_with_costs(&[1.0; 2]);
        let s0 = write_store(
            &dir,
            "s0.jsonl",
            &[
                outcome("c00", CaseStatus::Completed, 4.25),
                outcome("c01", CaseStatus::Completed, 1.0),
            ],
        );
        let s1 = write_store(
            &dir,
            "s1.jsonl",
            &[outcome("c00", CaseStatus::Completed, 4.2500001)],
        );
        let err = federate(&plan, &[s0, s1]).expect_err("conflict must not merge silently");
        assert!(matches!(err, SolverError::BadInput(_)));
        assert!(err.to_string().contains("c00"), "{err}");
        assert!(err.to_string().contains("conflict"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_and_missing_shard_stores_become_gaps() {
        let dir = tmp_dir("empty");
        let plan = plan_with_costs(&[1.0; 3]);
        let s0 = write_store(
            &dir,
            "s0.jsonl",
            &[outcome("c01", CaseStatus::Completed, 1.0)],
        );
        let s1 = write_store(&dir, "s1.jsonl", &[]); // empty file
        let missing = dir
            .join("never-written.jsonl")
            .to_str()
            .unwrap()
            .to_string();
        let (records, report) = federate(&plan, &[s0, s1, missing]).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(report.gaps, ["c00", "c02"]);
        assert!(!report.complete());
        assert_eq!(report.shard_stores, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_final_line_is_tolerated_and_counted() {
        let dir = tmp_dir("torn");
        let plan = plan_with_costs(&[1.0; 2]);
        let s0 = write_store(
            &dir,
            "s0.jsonl",
            &[outcome("c00", CaseStatus::Completed, 0.0)],
        );
        let s1 = write_store(
            &dir,
            "s1.jsonl",
            &[outcome("c01", CaseStatus::Completed, 1.0)],
        );
        // SIGKILL mid-write on shard 1: torn trailing line, no newline.
        let mut bytes = std::fs::read(&s1).unwrap();
        bytes.extend_from_slice(b"{\"id\": \"c0");
        std::fs::write(&s1, &bytes).unwrap();
        let (records, report) = federate(&plan, &[s0, s1]).unwrap();
        assert_eq!(records.len(), 2, "torn line skipped, whole lines kept");
        assert_eq!(report.torn_tails, 1);
        assert!(report.complete(), "torn tail alone doesn't break coverage");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn within_store_retry_supersedes_without_conflict() {
        // A shard store from a resume-after-failure run: Failed record for
        // c00 followed by its Completed re-run. The later record is
        // canonical; this is not an overlap error.
        let dir = tmp_dir("retry");
        let plan = plan_with_costs(&[1.0; 2]);
        let mut failed = outcome("c00", CaseStatus::Failed, f64::NAN);
        failed.error = Some("diverged".to_string());
        let s0 = write_store(
            &dir,
            "s0.jsonl",
            &[
                failed,
                outcome("c01", CaseStatus::Completed, 1.0),
                outcome("c00", CaseStatus::Completed, 0.5),
            ],
        );
        let (records, report) = federate(&plan, &[s0]).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(report.superseded, 1);
        let c00 = records.iter().find(|r| r.id == "c00").unwrap();
        assert_eq!(c00.status, CaseStatus::Completed);
        assert_eq!(c00.metric("q"), Some(0.5));
        assert!(report.complete());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_ids_are_flagged_but_kept() {
        let dir = tmp_dir("unknown");
        let plan = plan_with_costs(&[1.0; 1]);
        let s0 = write_store(
            &dir,
            "s0.jsonl",
            &[
                outcome("c00", CaseStatus::Completed, 0.0),
                outcome("zz-stale", CaseStatus::Completed, 9.0),
            ],
        );
        let (records, report) = federate(&plan, &[s0]).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(report.unknown_ids, ["zz-stale"]);
        assert!(!report.complete());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn federate_to_store_writes_canonical_file() {
        let dir = tmp_dir("tostore");
        let plan = plan_with_costs(&[1.0; 2]);
        let s0 = write_store(
            &dir,
            "s0.jsonl",
            &[outcome("c01", CaseStatus::Completed, 1.0)],
        );
        let s1 = write_store(
            &dir,
            "s1.jsonl",
            &[outcome("c00", CaseStatus::Completed, 0.0)],
        );
        let out = dir.join("merged.jsonl").to_str().unwrap().to_string();
        std::fs::write(&out, "stale contents\n").unwrap();
        let report = federate_to_store(&plan, &[s0, s1], &out).unwrap();
        assert!(report.complete());
        let records = crate::store::load_records(&out).unwrap();
        let ids: Vec<&str> = records.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, ["c00", "c01"], "stale file truncated, plan order");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_json_is_parseable() {
        let report = FederationReport {
            plan_cases: 4,
            shard_stores: 2,
            records_read: 4,
            merged: 3,
            gaps: vec!["c03".to_string()],
            ..FederationReport::default()
        };
        let v = aerothermo_numerics::json::parse(&report.to_json()).expect("valid JSON");
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some("aerothermo-federation-v1")
        );
        assert_eq!(
            v.get("complete"),
            Some(&aerothermo_numerics::json::Value::Bool(false))
        );
        assert_eq!(v.get("merged").and_then(|m| m.as_f64()), Some(3.0));
    }
}
