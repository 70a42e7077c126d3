//! E10 — The paper's central cost claim: the four equation sets solve the
//! same class of problem at steeply different cost, which is why the
//! discipline maintained all four.
//!
//! One problem: hypersonic flow over a hemisphere (M = 8 class, ideal gas
//! for a clean comparison). Each method computes the stagnation heating
//! (or its inviscid surrogate inputs) by its own route:
//!
//! * VSL  — stagnation-line shock layer (equilibrium-air variant),
//! * E+BL — Euler shock shape + Fay-Riddell/Lees boundary layer,
//! * PNS  — downstream march (plus the nose anchor it needs),
//! * NS   — full viscous relaxation.
//!
//! The matrix executes as the preset sweep plan [`method_matrix_plan`] in
//! plan order on a single worker, so the per-case wall clocks are honest
//! serial costs (the sweep engine's per-case timing replaces the old
//! hand-rolled `Instant` bracketing).
//!
//! Reported: wall-clock time and stagnation heat flux. The checks: NS
//! costs more than each of VSL, E+BL and PNS, and at least 10× VSL; the
//! VSL, E+BL and NS heating agree within a factor of about 3. The order
//! among VSL, E+BL and PNS is not checked: the line-implicit PNS march
//! now runs in about the time of the E+BL case.

use aerothermo_bench::{cli, emit, Report};
use aerothermo_core::tables::Table;
use aerothermo_sweep::plan::method_matrix_plan;
use aerothermo_sweep::{run_sweep, CaseOutcome, ScheduleOrder, SweepOptions};

/// Sweep-case ID and display name per method row.
const METHODS: &[(&str, &str)] = &[
    ("vsl", "VSL"),
    ("euler_bl", "E+BL"),
    ("pns", "PNS"),
    ("ns", "NS"),
];

fn main() {
    cli::announce("fig10_method_comparison");
    let mode = cli::output_mode();
    let mut report = Report::new("fig10_method_comparison");

    // Plan order + one worker: each case gets the whole machine, so wall
    // clocks are comparable serial costs.
    let plan = method_matrix_plan();
    let sweep = run_sweep(
        &plan,
        &SweepOptions {
            workers: 1,
            order: ScheduleOrder::PlanOrder,
            ..SweepOptions::default()
        },
    )
    .expect("fig10 sweep");
    assert!(
        report.check(
            "sweep_all_green",
            sweep.all_green(),
            format!(
                "{} failed / {} timed out of {} cases",
                sweep.counts().failed,
                sweep.counts().timed_out,
                sweep.planned
            ),
        ),
        "every method case must complete"
    );

    let outcome = |id: &str| -> &CaseOutcome {
        sweep
            .outcome(id)
            .unwrap_or_else(|| panic!("case '{id}' ran"))
    };
    let mut table = Table::new(&["method", "wall_time_s", "q_stag_W_cm2", "notes"]);
    for (id, name) in METHODS {
        let o = outcome(id);
        let q = o.metric("q_stag_w_m2").unwrap_or(f64::NAN);
        table.row(&[
            (*name).to_string(),
            format!("{:.3}", o.wall_secs),
            format!("{:.2}", q / 1e4),
            o.note.clone(),
        ]);
        report.metric(
            &format!("wall_time_s_{}", name.replace('+', "_")),
            o.wall_secs,
        );
        report.metric(&format!("q_stag_w_m2_{}", name.replace('+', "_")), q);
        // Kernel counters the pool attributed to exactly this case.
        for (counter, v) in &o.counters {
            report.metric(&format!("{id}.{counter}"), *v as f64);
        }
    }
    emit(
        "E10: equation-set cost and heating comparison",
        &table,
        mode,
    );

    // --- Checks --------------------------------------------------------------
    let time_of = |id: &str| outcome(id).wall_secs;
    let q_of = |id: &str| outcome(id).metric("q_stag_w_m2").unwrap_or(f64::NAN);
    assert!(
        report.check(
            "ns_most_expensive",
            time_of("vsl") < time_of("ns") && time_of("euler_bl") < time_of("ns"),
            format!(
                "VSL {:.3}s, E+BL {:.3}s, NS {:.3}s",
                time_of("vsl"),
                time_of("euler_bl"),
                time_of("ns")
            ),
        ),
        "NS must be the most expensive"
    );
    assert!(
        report.check(
            "ns_order_of_magnitude_over_vsl",
            time_of("ns") > 10.0 * time_of("vsl"),
            format!("NS/VSL time ratio = {:.1}", time_of("ns") / time_of("vsl")),
        ),
        "NS should cost ≥ 10× VSL: {:.3}s vs {:.3}s",
        time_of("ns"),
        time_of("vsl")
    );
    assert!(
        report.check(
            "pns_undercuts_ns",
            time_of("pns") < time_of("ns"),
            format!("PNS {:.3}s vs NS {:.3}s", time_of("pns"), time_of("ns")),
        ),
        "PNS must undercut full NS on marchable problems"
    );
    // All heating estimates agree within a factor ~3 (different fidelity,
    // same physics).
    let q_vsl = q_of("vsl");
    for (id, name) in [("euler_bl", "E+BL"), ("ns", "NS")] {
        let r = q_of(id) / q_vsl;
        assert!(
            report.check(
                &format!("heating_agreement_{}", name.replace('+', "_")),
                (0.3..3.5).contains(&r),
                format!("q/q_VSL = {r:.2}"),
            ),
            "{name} heating ratio vs VSL: {r:.2}"
        );
    }
    report.finish();
    println!("PASS: NS costs the most and ≥ 10× VSL; VSL, E+BL and NS heating agree (paper's method taxonomy)");
}
