//! Gates on `perf_snapshot --compare`, the comparator CI runs against
//! the committed `BENCH_baseline.json`: the baseline passes against
//! itself and against a candidate with a span it lacks, and hand-edited
//! snapshots trip each ratchet-matrix check — a kernel's normalized mean
//! over its ceiling, a missing kernel, the surrogate queries/s floor, and
//! the one-shot `euler_step` mark on the baseline. The Markdown verdict table goes to `GITHUB_STEP_SUMMARY`.

use aerothermo_bench::json::{self, Put, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn baseline() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_baseline.json")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("perf-compare-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn compare(base: &Path, cand: &Path, summary: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perf_snapshot"))
        .arg("--compare")
        .arg(base)
        .arg(cand)
        .arg("--tol=0.25")
        .env("GITHUB_STEP_SUMMARY", summary)
        .output()
        .expect("perf_snapshot runs")
}

/// The baseline with `edit` applied to its `spans` map, written to `path`.
fn edited(path: &Path, edit: impl FnOnce(&mut std::collections::BTreeMap<String, Value>)) {
    let mut doc = json::parse(&std::fs::read_to_string(baseline()).unwrap()).unwrap();
    let Value::Object(top) = &mut doc else {
        panic!("snapshot is an object")
    };
    let Some(Value::Object(spans)) = top.get_mut("spans") else {
        panic!("snapshot has spans")
    };
    edit(spans);
    let mut text = String::new();
    doc.put(&mut text);
    std::fs::write(path, text).unwrap();
}

fn set(spans: &mut std::collections::BTreeMap<String, Value>, span: &str, key: &str, x: f64) {
    let Some(Value::Object(st)) = spans.get_mut(span) else {
        panic!("no span {span}")
    };
    st.insert(key.to_string(), Value::Number(x));
}

fn get(spans: &std::collections::BTreeMap<String, Value>, span: &str, key: &str) -> f64 {
    spans[span].get(key).and_then(Value::as_f64).unwrap()
}

#[test]
fn baseline_passes_against_itself_and_writes_the_summary_table() {
    let dir = scratch("self");
    let summary = dir.join("summary.md");
    let out = compare(&baseline(), &baseline(), &summary);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(
        stdout.contains("ratchet matrix: all kernels within ceilings, one-shot marks hold"),
        "{stdout}"
    );
    let table = std::fs::read_to_string(&summary).unwrap();
    assert!(table.starts_with("## Perf ratchet matrix\n"), "{table}");
    let rows: Vec<&str> = table.lines().filter(|l| l.ends_with("| ok |")).collect();
    assert_eq!(rows.len(), 8, "six kernels, one mark, one floor:\n{table}");

    // A candidate with a span the baseline lacks still passes; the new
    // span is listed but not gated.
    let cand = dir.join("new_span.json");
    edited(&cand, |spans| {
        let step = spans["euler_step"].clone();
        spans.insert("euler_step_table".to_string(), step);
    });
    let out = compare(&baseline(), &cand, &dir.join("summary_new_span.md"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(
        stdout
            .lines()
            .any(|l| l.trim_start().starts_with("euler_step_table ")
                && l.ends_with("new span (no baseline; not gated)")),
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn edited_candidate_fails_every_candidate_check() {
    let dir = scratch("cand");
    let cand = dir.join("cand.json");
    edited(&cand, |spans| {
        let mean = get(spans, "euler_step", "mean_ns");
        set(spans, "euler_step", "mean_ns", 2.0 * mean);
        // 4096 queries in 5 ms is 8.2e5 queries/s, under the 1e6 floor.
        set(spans, "surrogate_query", "min_ns", 5.0e6);
        spans.remove("trajectory_history");
    });
    let summary = dir.join("summary.md");
    let out = compare(&baseline(), &cand, &summary);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    for want in [
        "euler_step: normalized",
        "trajectory_history: missing from candidate snapshot",
        "surrogate_query: 8.192e5 queries/sec below floor",
    ] {
        assert!(stderr.contains(want), "want '{want}' in:\n{stderr}");
    }
    let table = std::fs::read_to_string(&summary).unwrap();
    for want in [
        "| euler_step |",
        "| REGRESSION |",
        "| MISSING |",
        "| BELOW FLOOR |",
    ] {
        assert!(table.contains(want), "want '{want}' in:\n{table}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn baseline_over_the_one_shot_mark_fails() {
    let dir = scratch("mark");
    let base = dir.join("base.json");
    let mut calib = 0.0;
    edited(&base, |spans| {
        calib = get(spans, "calibration", "min_ns");
    });
    // The snapshot's calibration_ns is the fastest calibration loop; put
    // euler_step's normalized mean at 0.02, over the 0.0156 mark.
    edited(&base, |spans| {
        set(spans, "euler_step", "mean_ns", 0.02 * calib)
    });
    let out = compare(&base, &base, &dir.join("summary.md"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("euler_step: committed baseline 0.020000 over one-shot mark"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
