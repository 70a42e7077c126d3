//! `sweep` — batched case-sweep driver over the paper's solver hierarchy.
//!
//! Runs a [`aerothermo_sweep::SweepPlan`] (from `--plan=PATH`, or a preset:
//! `--fig02-titan` builds the Titan trajectory heat-pulse plan,
//! `--fig10-matrix` the four-method cost matrix) on a bounded worker pool
//! with per-case fault isolation, appending one JSONL record per case to
//! the result store (`--out=PATH`) as it lands. `--resume` skips cases an
//! existing store already completed; `--emit-plan=PATH` writes the selected
//! plan as JSON and exits so it can be edited and fed back via `--plan`.
//!
//! Failed cases degrade to records and the exit code stays 0 unless
//! `--strict` is passed (then a non-green sweep exits 4).
//!
//! # Distributed sharding
//!
//! `--shard=i/n` runs only shard `i` of an `n`-way deterministic plan
//! partition (`--shard-strategy=round_robin|cost_balanced`) into a
//! shard-stamped store (`<out>-shard{i}of{n}.jsonl`); any process
//! computes the same partition from the plan alone, so shards run
//! independently. `sweep federate --plan=... STORE...` then merges the
//! shard stores back into the canonical plan-order store, reporting
//! gaps/overlaps/torn tails (under `--strict`, an incomplete federation
//! exits 4).

use aerothermo_atmosphere::planets::ExponentialAtmosphere;
use aerothermo_atmosphere::trajectory::{fly, EntryConditions, StopConditions, Vehicle};
use aerothermo_bench::{cli, emit};
use aerothermo_core::tables::Table;
use aerothermo_sweep::plan::{method_matrix_plan, titan_fig02_plan};
use aerothermo_sweep::shard::{federate_to_store, shard_plan, shard_store_path, ShardSpec};
use aerothermo_sweep::{run_sweep, ScheduleOrder, ShardStrategy, SweepOptions, SweepPlan};

/// The Fig. 2 Titan entry, flown to trajectory points for the preset plan.
fn titan_trajectory_plan() -> SweepPlan {
    let atm = ExponentialAtmosphere::titan();
    let vehicle = Vehicle::titan_probe();
    let traj = fly(
        &atm,
        &vehicle,
        EntryConditions {
            altitude: 450_000.0,
            velocity: 12_000.0,
            gamma: -32f64.to_radians(),
        },
        StopConditions {
            min_velocity: 1_000.0,
            ..StopConditions::default()
        },
    );
    titan_fig02_plan(&traj, 8, vehicle.nose_radius)
}

fn select_plan() -> Result<SweepPlan, String> {
    let args: Vec<String> = std::env::args().collect();
    if let Some(path) = cli::plan_path() {
        return SweepPlan::load(&path).map_err(|e| e.to_string());
    }
    if args.iter().any(|a| a == "--fig02-titan") {
        return Ok(titan_trajectory_plan());
    }
    if args.iter().any(|a| a == "--fig10-matrix") {
        return Ok(method_matrix_plan());
    }
    Err("no plan selected: pass --plan=PATH, --fig02-titan, or --fig10-matrix".to_string())
}

/// The `--shard=i/n` slice (with `--shard-strategy`), if requested.
fn select_shard() -> Result<Option<ShardSpec>, String> {
    let strategy = match cli::shard_strategy() {
        Some(s) => ShardStrategy::parse(&s).map_err(|e| e.to_string())?,
        None => ShardStrategy::default(),
    };
    match cli::shard() {
        Some(s) => ShardSpec::parse(&s, strategy)
            .map(Some)
            .map_err(|e| e.to_string()),
        None => Ok(None),
    }
}

/// `sweep federate --plan=... [--out=PATH] SHARD_STORE...` — merge shard
/// stores into the canonical store and report. Never returns.
fn run_federate() -> ! {
    let plan = match select_plan() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("sweep federate: {e}");
            std::process::exit(2);
        }
    };
    let shard_paths: Vec<String> = std::env::args()
        .skip(2)
        .filter(|a| !a.starts_with("--"))
        .collect();
    if shard_paths.is_empty() {
        eprintln!("sweep federate: no shard stores given (pass one path per shard)");
        std::process::exit(2);
    }
    let out = cli::sweep_store_path(&plan.name);
    let report = match federate_to_store(&plan, &shard_paths, &out) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sweep federate: {e}");
            std::process::exit(2);
        }
    };
    println!("{}", report.summary());
    println!("canonical store written to {out}");
    if let Some(path) = cli::report_path() {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("sweep federate: writing report '{path}': {e}");
            std::process::exit(2);
        }
        eprintln!("# federation report written to {path}");
    }
    if !report.complete() {
        eprintln!(
            "# warning: federation incomplete ({} gap(s), {} unknown id(s))",
            report.gaps.len(),
            report.unknown_ids.len()
        );
        if cli::strict() {
            std::process::exit(aerothermo_sweep::report::STRICT_EXIT_CODE);
        }
    }
    std::process::exit(0);
}

fn main() {
    cli::announce("sweep");
    if std::env::args().nth(1).as_deref() == Some("federate") {
        run_federate();
    }
    let full_plan = match select_plan() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("sweep: {e}");
            std::process::exit(2);
        }
    };
    let shard = match select_shard() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sweep: {e}");
            std::process::exit(2);
        }
    };
    let plan = match &shard {
        Some(spec) => match shard_plan(&full_plan, spec) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("sweep: {e}");
                std::process::exit(2);
            }
        },
        None => full_plan,
    };

    if let Some(path) = cli::emit_plan() {
        plan.save(&path).unwrap_or_else(|e| {
            eprintln!("sweep: {e}");
            std::process::exit(2);
        });
        println!(
            "plan '{}' ({} cases) written to {path}",
            plan.name,
            plan.cases.len()
        );
        return;
    }

    let strict = cli::strict();
    // Sharded runs stamp the store and events paths so n shards of the
    // same plan never collide on one file.
    let stamp = |base: String| match &shard {
        Some(spec) => shard_store_path(&base, spec),
        None => base,
    };
    let opts = SweepOptions {
        workers: cli::workers(),
        order: ScheduleOrder::LongestFirst,
        store_path: Some(stamp(cli::sweep_store_path(&plan.name))),
        resume: cli::resume(),
        default_timeout_secs: cli::timeout_secs(),
        halt_after_cases: cli::halt_after_cases(),
        events_path: cli::events_path(&plan.name).map(stamp),
        trace_base: cli::trace_path(),
        audit_every: cli::audit_cadence().unwrap_or(0),
        ..SweepOptions::default()
    };
    eprintln!(
        "# sweep '{}'{}: {} cases, {} workers, store {}",
        plan.name,
        shard.map_or_else(String::new, |s| format!(
            " shard {s} ({})",
            s.strategy.name()
        )),
        plan.cases.len(),
        opts.workers,
        opts.store_path.as_deref().unwrap_or("-")
    );
    if let Some(ev) = &opts.events_path {
        eprintln!("# lifecycle events streaming to {ev}");
    }

    let report = match run_sweep(&plan, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sweep: {e}");
            std::process::exit(2);
        }
    };

    let mut table = Table::new(&["case", "status", "wall_s", "retries", "q_W_cm2", "note"]);
    for o in &report.outcomes {
        let q = o
            .metric("q_stag_w_m2")
            .or_else(|| o.metric("q_conv_w_m2"))
            .map_or_else(|| "-".to_string(), |q| format!("{:.2}", q / 1e4));
        table.row(&[
            o.id.clone(),
            o.status.name().to_string(),
            format!("{:.3}", o.wall_secs),
            format!("{}", o.retries),
            q,
            o.error.clone().unwrap_or_else(|| o.note.clone()),
        ]);
    }
    emit(
        &format!("sweep '{}' outcomes", report.figure),
        &table,
        cli::output_mode(),
    );

    let counts = report.counts();
    println!(
        "{} planned / {} completed / {} resumed / {} failed / {} timed out in {:.2} s \
         ({:.2} cases/s, {} workers){}",
        report.planned,
        counts.completed,
        counts.resumed,
        counts.failed,
        counts.timed_out,
        report.elapsed_secs,
        report.throughput_cases_per_sec(),
        report.workers,
        if report.halted { " [halted]" } else { "" }
    );

    if let Some(path) = cli::report_path() {
        std::fs::write(&path, report.to_json()).unwrap_or_else(|e| {
            eprintln!("sweep: writing sweep report '{path}': {e}");
            std::process::exit(2);
        });
        eprintln!("# aggregate report written to {path}");
    }
    std::process::exit(report.exit_code(strict));
}
