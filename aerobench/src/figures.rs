//! figures: the paper reproductions users run, each launched as its own
//! process — fig02 and fig03 (equilibrium Newton) and fig07 (stiff
//! relaxation kinetics).

use std::path::Path;
use std::process::Command;
use std::time::Instant;

use crate::gen::Rng;
use crate::proc::{bin, run_quiet, run_watched, RunDir};
use crate::spans::{parse_chrome, self_times, Layers, Span};
use crate::stats::{median, ratio};
use crate::{report_counters, Outcome};

struct Figure {
    tag: &'static str,
    bin: &'static str,
    wall: &'static str,
    unattributed: &'static str,
    /// Span name in the figure's own trace → per-layer self-time metric.
    spans: &'static [(&'static str, &'static str)],
    /// Per-layer metric ← report counter; with a second counter the
    /// metric is the share `first / (first + second)`.
    counters: &'static [(&'static str, &'static str, Option<&'static str>)],
}

/// Spans and counters a figure never produces are left out: fig07 solves
/// no equilibrium and fig02/fig03 integrate no stiff kinetics.
const FIGURES: [Figure; 3] = [
    Figure {
        tag: "fig02",
        bin: "fig02_titan_heating",
        wall: "fig02.wall_s",
        unattributed: "fig02.unattributed_s",
        spans: &[
            ("equilibrium_state", "fig02.gas.equilibrium_state_s"),
            ("newton_solve", "fig02.numerics.newton_solve_s"),
            (
                "spectrum_integration",
                "fig02.radiation.spectrum_integration_s",
            ),
        ],
        counters: &[
            ("fig02.newton_iterations", "newton_iterations", None),
            (
                "fig02.equilibrium_cache_hit_ratio",
                "equilibrium_cache_hits",
                Some("equilibrium_cache_misses"),
            ),
        ],
    },
    Figure {
        tag: "fig03",
        bin: "fig03_species_profiles",
        wall: "fig03.wall_s",
        unattributed: "fig03.unattributed_s",
        spans: &[
            ("equilibrium_state", "fig03.gas.equilibrium_state_s"),
            ("newton_solve", "fig03.numerics.newton_solve_s"),
            (
                "spectrum_integration",
                "fig03.radiation.spectrum_integration_s",
            ),
        ],
        counters: &[
            ("fig03.newton_iterations", "newton_iterations", None),
            (
                "fig03.equilibrium_cache_hit_ratio",
                "equilibrium_cache_hits",
                Some("equilibrium_cache_misses"),
            ),
        ],
    },
    Figure {
        tag: "fig07",
        bin: "fig07_shock_relaxation",
        wall: "fig07.wall_s",
        unattributed: "fig07.unattributed_s",
        spans: &[("stiff_integrate", "fig07.numerics.stiff_integrate_s")],
        counters: &[
            ("fig07.ode_steps_accepted", "ode_steps_accepted", None),
            ("fig07.ode_steps_rejected", "ode_steps_rejected", None),
        ],
    },
];

/// `--help` rounds timed for `setup_s`: each figure's start-up and flag
/// handling, the fixed cost of every launch.
const SETUPS: usize = 9;

/// Launch one figure with `args`; the run passes when it exits 0 and
/// prints its `PASS:` line.
fn launch(
    dir: &RunDir,
    exe: &Path,
    tag: &str,
    args: &[String],
) -> Result<(bool, f64, f64), String> {
    let stdout = dir.file(&format!("{tag}.stdout.txt"));
    let f = run_watched(
        Command::new(exe).current_dir(dir.path()).args(args),
        &stdout,
    )?;
    let printed = std::fs::read_to_string(&stdout).unwrap_or_default();
    let passed = f.status.success() && printed.lines().any(|l| l.starts_with("PASS:"));
    Ok((passed, f.wall_s, f.rss_mb))
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let dir = RunDir::create("figures")?;
    let exes = FIGURES
        .iter()
        .map(|f| bin(f.bin))
        .collect::<Result<Vec<_>, _>>()?;
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let mut round = 0.0;
        for exe in &exes {
            let (status, wall_s) = run_quiet(Command::new(exe).arg("--help"))?;
            if !status.success() {
                return Err(format!("{} --help exited with {status}", exe.display()));
            }
            round += wall_s;
        }
        setups.push(round);
    }

    // The seed only orders the launches within each round.
    let mut rng = Rng::new(seed);
    let mut out = Outcome::new(0);
    let mut walls: [Vec<f64>; 3] = Default::default();
    let mut rss: [Vec<f64>; 3] = Default::default();
    let start = Instant::now();
    while walls[0].is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut order = [0, 1, 2];
        rng.shuffle(&mut order);
        for i in order {
            let (passed, wall_s, rss_mb) = launch(&dir, &exes[i], FIGURES[i].bin, &[])?;
            out.attempted += 1;
            out.check(passed, &format!("{} did not pass", FIGURES[i].bin));
            walls[i].push(wall_s);
            rss[i].push(rss_mb);
        }
    }
    let window_s = start.elapsed().as_secs_f64();
    let launches: usize = walls.iter().map(Vec::len).sum();
    let medians: Vec<f64> = walls.iter().map(|w| median(w)).collect();
    out.metric("setup_s", median(&setups));
    out.metric("latency_ms", medians.iter().sum::<f64>() * 1e3);
    out.metric("throughput", launches as f64 / window_s);
    // The sampler can miss a peak reached in a launch's last few ms; the
    // median over launches is the peak a launch typically reaches.
    let rss = rss.iter().map(|r| median(r)).fold(0.0, f64::max);
    out.metric("rss_peak_mb", rss);

    if trace {
        let origin = Instant::now();
        let (mut spans, mut per_layer) = (Vec::<Span>::new(), Vec::new());
        let mut layers = Layers {
            end_to_end_s: 0.0,
            self_s: Default::default(),
            overhead_pct: 0.0,
        };
        for (i, (fig, exe)) in FIGURES.iter().zip(&exes).enumerate() {
            let (trace_path, report_path) = (
                format!("{}.trace.json", fig.bin),
                format!("{}.report.json", fig.bin),
            );
            let offset_us = origin.elapsed().as_secs_f64() * 1e6;
            let args = [
                format!("--trace={trace_path}"),
                format!("--report={report_path}"),
            ];
            let (passed, wall_s, _) = launch(&dir, exe, fig.bin, &args)?;
            out.check(passed, &format!("traced {} did not pass", fig.bin));
            let counters = report_counters(&dir.file(&report_path))?;
            let doc = std::fs::read_to_string(dir.file(&trace_path))
                .map_err(|e| format!("{trace_path}: {e}"))?;
            let mut fig_spans = parse_chrome(&doc)?;
            let self_us = self_times(&fig_spans);
            let attributed_s: f64 = self_us.values().sum::<f64>() * 1e-6;
            for (name, us) in &self_us {
                layers
                    .self_s
                    .insert(format!("{}.{name}", fig.tag), us * 1e-6);
            }
            layers.end_to_end_s += wall_s;
            per_layer.push((fig.wall, medians[i]));
            per_layer.push((fig.unattributed, wall_s - attributed_s));
            for &(span, metric) in fig.spans {
                per_layer.push((metric, self_us.get(span).copied().unwrap_or(0.0) * 1e-6));
            }
            let c = |name: &str| counters.get(name).copied().unwrap_or(0.0);
            for &(metric, num, other) in fig.counters {
                let v = match other {
                    None => c(num),
                    Some(o) => ratio(c(num), c(num) + c(o)),
                };
                per_layer.push((metric, v));
            }
            for s in &mut fig_spans {
                s.tid += 1000 * i as u64;
                s.start_us += offset_us;
            }
            spans.append(&mut fig_spans);
        }
        layers.overhead_pct = 100.0 * (layers.end_to_end_s / medians.iter().sum::<f64>() - 1.0);
        out.trace(per_layer, layers, spans);
    }
    Ok(out)
}
