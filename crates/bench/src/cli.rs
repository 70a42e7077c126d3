//! Shared command-line parsing for every figure binary and the sweep
//! driver.
//!
//! All 14 figure binaries plus `sweep` accept one flag vocabulary, parsed
//! here rather than per-binary: output (`--csv`), observability
//! (`--report`, `--trace`, `--audit`), run control (`--checkpoint`,
//! `--restart`, `--max-retries`, `--inject-nan`, `--halt-after`), and
//! sweep orchestration (`--plan`, `--workers`, `--out`, `--resume`,
//! `--strict`, `--timeout-secs`, `--emit-plan`). Call [`announce`] first
//! in `main`: it serves `--help`, warns on unrecognized flags and exits 2
//! on a malformed numeric value, so typos fail loudly instead of silently
//! running the default configuration.

use std::str::FromStr;

/// Output mode parsed from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputMode {
    /// Aligned text tables.
    Text,
    /// CSV.
    Csv,
}

/// Parse `--csv` from the process arguments.
#[must_use]
pub fn output_mode() -> OutputMode {
    if flag("--csv") {
        OutputMode::Csv
    } else {
        OutputMode::Text
    }
}

/// True when the bare flag is present.
fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// `--name=VALUE` payload, if present.
fn value_of(prefix: &str) -> Option<String> {
    let mut p = String::with_capacity(prefix.len() + 1);
    p.push_str(prefix);
    p.push('=');
    std::env::args().find_map(|a| a.strip_prefix(&p).map(ToString::to_string))
}

/// Flag that may appear bare (→ `default`) or as `--name=VALUE`.
fn flag_or_value(name: &str, default: &str) -> Option<String> {
    if flag(name) {
        return Some(default.to_string());
    }
    value_of(name)
}

/// A numeric flag's parsed value; [`announce`] has already rejected a
/// malformed one.
fn number<T: FromStr>(value: Option<String>) -> Option<T> {
    value.and_then(|v| v.parse().ok())
}

/// Destination for the machine-readable run report, parsed from
/// `--report` (default `run-report.json`) or `--report=PATH`.
#[must_use]
pub fn report_path() -> Option<String> {
    flag_or_value("--report", "run-report.json")
}

/// Destination for the Chrome trace-event profile, parsed from
/// `--trace` (default `trace.json`) or `--trace=PATH`.
#[must_use]
pub fn trace_path() -> Option<String> {
    flag_or_value("--trace", "trace.json")
}

/// In-situ physics-audit cadence, parsed from `--audit` (default: every
/// 10 steps) or `--audit=N`. `None` means audits stay disabled.
#[must_use]
pub fn audit_cadence() -> Option<usize> {
    number(flag_or_value("--audit", "10"))
}

/// Checkpoint cadence in progress units, parsed from `--checkpoint`
/// (default: every 100 units) or `--checkpoint=N`. `None` leaves on-disk
/// checkpointing off (the in-memory rollback ring is always armed).
#[must_use]
pub fn checkpoint_every() -> Option<usize> {
    number(flag_or_value("--checkpoint", "100"))
}

/// Restart-file destination for `--checkpoint`, parsed from
/// `--checkpoint-file=PATH`; defaults to `<figure>-restart.atrc`.
#[must_use]
pub fn checkpoint_file(figure: &str) -> String {
    value_of("--checkpoint-file").unwrap_or_else(|| format!("{figure}-restart.atrc"))
}

/// Restart file to resume from, parsed from `--restart=PATH`.
#[must_use]
pub fn restart_path() -> Option<String> {
    value_of("--restart")
}

/// Rollback/retry budget, parsed from `--max-retries=K` (default 3).
#[must_use]
pub fn max_retries() -> usize {
    number(value_of("--max-retries")).unwrap_or(3)
}

/// Fault-injection unit, parsed from `--inject-nan=K` (`--inject-nan`
/// alone injects after unit 10): poison the state once after unit K
/// completes, exercising the rollback path end to end.
#[must_use]
pub fn inject_nan_at() -> Option<usize> {
    number(flag_or_value("--inject-nan", "10"))
}

/// Deterministic mid-run halt, parsed from `--halt-after=K` (the CI
/// kill/resume drill): the controlled run stops after unit K and the binary
/// exits with [`crate::HALT_EXIT_CODE`].
#[must_use]
pub fn halt_after() -> Option<usize> {
    number(value_of("--halt-after"))
}

/// Sweep plan file, parsed from `--plan=PATH`.
#[must_use]
pub fn plan_path() -> Option<String> {
    value_of("--plan")
}

/// Worker-pool width, parsed from `--workers=N` (default 1).
#[must_use]
pub fn workers() -> usize {
    number(value_of("--workers")).unwrap_or(1)
}

/// Sweep result-store destination, parsed from `--out=PATH` (default
/// `<figure>-results.jsonl`).
#[must_use]
pub fn sweep_store_path(figure: &str) -> String {
    value_of("--out").unwrap_or_else(|| format!("{figure}-results.jsonl"))
}

/// `--resume`: skip cases the result store already records as completed.
#[must_use]
pub fn resume() -> bool {
    flag("--resume")
}

/// `--strict`: failed or timed-out cases flip the sweep's exit code to
/// [`aerothermo_sweep::report::STRICT_EXIT_CODE`] instead of degrading to
/// records.
#[must_use]
pub fn strict() -> bool {
    flag("--strict")
}

/// Default per-case wall-clock timeout, parsed from `--timeout-secs=S`;
/// NaN (no flag) disables the timeout for cases that don't set their own.
#[must_use]
pub fn timeout_secs() -> f64 {
    number(value_of("--timeout-secs")).unwrap_or(f64::NAN)
}

/// `--emit-plan=PATH`: write the selected preset plan as JSON and exit
/// instead of running it.
#[must_use]
pub fn emit_plan() -> Option<String> {
    value_of("--emit-plan")
}

/// `--halt-after-cases=K`: stop the sweep after K case records (the sweep
/// analogue of `--halt-after`, for the kill/resume drill).
#[must_use]
pub fn halt_after_cases() -> Option<usize> {
    number(value_of("--halt-after-cases"))
}

/// Shard slice, parsed from `--shard=i/n` (raw string; the sweep driver
/// parses it into an `aerothermo_sweep::ShardSpec`).
#[must_use]
pub fn shard() -> Option<String> {
    value_of("--shard")
}

/// Shard assignment strategy, parsed from `--shard-strategy=NAME`
/// (`round_robin`, the default, or `cost_balanced`).
#[must_use]
pub fn shard_strategy() -> Option<String> {
    value_of("--shard-strategy")
}

/// Sweep lifecycle-event stream destination, parsed from `--events`
/// (default `<plan>-events.jsonl` by the driver) or `--events=PATH`.
#[must_use]
pub fn events_path(figure: &str) -> Option<String> {
    flag_or_value("--events", &format!("{figure}-events.jsonl"))
}

/// Flight-recorder black-box destination, parsed from `--blackbox=PATH`;
/// defaults to `<figure>-blackbox.json`. The file is only written when a
/// run actually dies (or `--inject-nan` fires), so the default is armed in
/// every binary at no cost to clean runs.
#[must_use]
pub fn blackbox_file(figure: &str) -> String {
    value_of("--blackbox").unwrap_or_else(|| format!("{figure}-blackbox.json"))
}

/// Every flag the shared vocabulary accepts, with its help line.
const KNOWN_FLAGS: &[(&str, &str)] = &[
    ("--csv", "emit CSV tables instead of aligned text"),
    (
        "--report",
        "write run-report JSON [=PATH, default run-report.json]",
    ),
    (
        "--trace",
        "write Chrome trace-event profile [=PATH, default trace.json]",
    ),
    (
        "--audit",
        "arm in-situ physics audits [=N steps, default 10]",
    ),
    (
        "--checkpoint",
        "write restart checkpoints [=N units, default 100]",
    ),
    ("--checkpoint-file", "=PATH restart-file destination"),
    ("--restart", "=PATH resume a halted run from a restart file"),
    ("--max-retries", "=K rollback/retry budget (default 3)"),
    (
        "--inject-nan",
        "poison the state once [=K, after unit 10] (rollback drill)",
    ),
    (
        "--halt-after",
        "=K stop after unit K with exit code 3 (kill/resume drill)",
    ),
    ("--plan", "=PATH run the sweep plan in PATH (JSON)"),
    ("--workers", "=N sweep worker threads (default 1)"),
    ("--out", "=PATH sweep result store (JSONL)"),
    ("--resume", "skip cases the result store already completed"),
    (
        "--strict",
        "failed/timed-out sweep cases exit 4 instead of 0",
    ),
    ("--timeout-secs", "=S default per-case wall-clock timeout"),
    (
        "--emit-plan",
        "=PATH write the preset plan as JSON and exit",
    ),
    (
        "--halt-after-cases",
        "=K stop the sweep after K case records",
    ),
    (
        "--shard",
        "=i/n run only shard i of an n-way deterministic plan partition",
    ),
    (
        "--shard-strategy",
        "=NAME shard assignment: round_robin (default) or cost_balanced",
    ),
    (
        "--events",
        "write sweep lifecycle events [=PATH, default <plan>-events.jsonl]",
    ),
    (
        "--blackbox",
        "=PATH flight-recorder dump destination (default <figure>-blackbox.json)",
    ),
    (
        "--fig02-titan",
        "sweep preset: Titan trajectory heat-pulse plan",
    ),
    (
        "--fig10-matrix",
        "sweep preset: method-comparison matrix plan",
    ),
    ("--help", "print this flag summary and exit"),
    // perf_snapshot extras, accepted everywhere so one vocabulary covers
    // all binaries.
    (
        "--compare",
        "BASE CAND compare two perf snapshots (perf_snapshot)",
    ),
    ("--label", "=NAME perf-snapshot label (perf_snapshot)"),
    ("--tol", "=FRAC perf-comparison tolerance (perf_snapshot)"),
];

fn count(v: &str) -> bool {
    v.parse::<usize>().is_ok()
}

fn positive_count(v: &str) -> bool {
    v.parse::<usize>().is_ok_and(|n| n > 0)
}

fn seconds(v: &str) -> bool {
    v.parse::<f64>().is_ok_and(|s| s.is_finite() && s > 0.0)
}

/// The numeric flags: name, validity test and what a valid value is.
const NUMERIC_FLAGS: &[(&str, fn(&str) -> bool, &str)] = &[
    ("--max-retries", count, "a whole number"),
    ("--checkpoint", count, "a whole number"),
    ("--inject-nan", count, "a whole number"),
    ("--halt-after", count, "a whole number"),
    ("--audit", count, "a whole number"),
    ("--workers", positive_count, "a whole number of at least 1"),
    ("--timeout-secs", seconds, "finite seconds above 0"),
    ("--halt-after-cases", count, "a whole number"),
];

/// Serve `--help` (prints the shared flag vocabulary and exits 0), warn
/// on `--flags` outside it, and exit 2 naming the flag and the value when
/// a numeric flag's `=VALUE` does not parse. Call first in every binary's
/// `main` so an unknown or misspelled flag is loud instead of silently
/// ignored, and a malformed number never falls back to a default.
pub fn announce(figure: &str) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{figure} — shared aerothermo-bench flag set:");
        for (name, help) in KNOWN_FLAGS {
            println!("  {name:<20} {help}");
        }
        std::process::exit(0);
    }
    for a in &args {
        if !a.starts_with("--") {
            continue; // positional (e.g. --compare's file operands)
        }
        let stem = a.split('=').next().unwrap_or(a);
        if !KNOWN_FLAGS.iter().any(|(name, _)| *name == stem) {
            eprintln!("# warning: unrecognized flag '{a}' ignored (see --help)");
        }
        let value = a.split_once('=').map(|(_, v)| v);
        if let Some((name, valid, want)) = NUMERIC_FLAGS.iter().find(|(n, ..)| *n == stem) {
            if let Some(v) = value.filter(|v| !valid(v)) {
                eprintln!("error: {name}: invalid value '{v}' (want {want})");
                std::process::exit(2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_without_flags() {
        // The test harness's own argv has no figure flags.
        assert_eq!(output_mode(), OutputMode::Text);
        assert!(report_path().is_none());
        assert!(trace_path().is_none());
        assert!(audit_cadence().is_none());
        assert!(checkpoint_every().is_none());
        assert!(restart_path().is_none());
        assert_eq!(max_retries(), 3);
        assert!(inject_nan_at().is_none());
        assert!(halt_after().is_none());
        assert!(plan_path().is_none());
        assert_eq!(workers(), 1);
        assert!(!resume());
        assert!(!strict());
        assert!(timeout_secs().is_nan());
        assert!(emit_plan().is_none());
        assert!(halt_after_cases().is_none());
        assert!(shard().is_none());
        assert!(shard_strategy().is_none());
        assert_eq!(checkpoint_file("figX"), "figX-restart.atrc");
        assert_eq!(sweep_store_path("figX"), "figX-results.jsonl");
        assert!(events_path("figX").is_none());
        assert_eq!(blackbox_file("figX"), "figX-blackbox.json");
    }

    #[test]
    fn numeric_flags_are_known_and_their_tests_reject_junk() {
        for (name, valid, _) in NUMERIC_FLAGS {
            assert!(KNOWN_FLAGS.iter().any(|(n, _)| n == name), "{name}");
            for junk in ["", "x", "-1", "1.5x", "nan", "inf"] {
                assert!(!valid(junk), "{name} accepted '{junk}'");
            }
        }
        assert!(count("0") && count("7"));
        assert!(!positive_count("0") && positive_count("2"));
        assert!(seconds("2.5") && !seconds("0"));
    }

    #[test]
    fn every_known_flag_has_a_stem() {
        for (name, help) in KNOWN_FLAGS {
            assert!(name.starts_with("--"), "{name}");
            assert!(!name.contains('='), "{name} should list the stem only");
            assert!(!help.is_empty());
        }
    }
}
