//! Sweep plans: ordered collections of [`CaseSpec`]s with builders
//! (cartesian product, zip, trajectory adapters) and the preset plans the
//! `sweep` driver binary ships.

use crate::spec::{CaseSpec, FlowSpec, GasSpec, LevelSpec};
use aerothermo_atmosphere::trajectory::TrajectoryPoint;
use aerothermo_numerics::json::{self, Layout, Value};
use aerothermo_numerics::telemetry::SolverError;

/// An ordered, named batch of cases. Order is the tiebreak the scheduler
/// preserves (and the whole schedule under [`crate::pool::ScheduleOrder::PlanOrder`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPlan {
    /// Plan name; becomes the aggregate report's `figure` field.
    pub name: String,
    /// The cases, in plan order.
    pub cases: Vec<CaseSpec>,
}

impl SweepPlan {
    /// Empty plan.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            cases: Vec::new(),
        }
    }

    /// Cartesian product: every gas × every level × every flow point.
    /// Case IDs are `{gas}-{level}-p{point:03}`; duplicate gas or level
    /// entries therefore collide — [`SweepPlan::validate`] catches that.
    #[must_use]
    pub fn cartesian(
        name: impl Into<String>,
        gases: &[GasSpec],
        levels: &[LevelSpec],
        flows: &[FlowSpec],
    ) -> Self {
        let mut plan = Self::new(name);
        for gas in gases {
            for level in levels {
                for (pi, flow) in flows.iter().enumerate() {
                    plan.cases.push(CaseSpec::new(
                        format!("{}-{}-p{pi:03}", gas.name(), level.name()),
                        gas.clone(),
                        level.clone(),
                        flow.clone(),
                    ));
                }
            }
        }
        plan
    }

    /// Zip equal-length gas/level/flow sequences into one case per index.
    ///
    /// # Errors
    /// [`SolverError::BadInput`] when the lengths differ.
    pub fn zipped(
        name: impl Into<String>,
        gases: &[GasSpec],
        levels: &[LevelSpec],
        flows: &[FlowSpec],
    ) -> Result<Self, SolverError> {
        if gases.len() != levels.len() || levels.len() != flows.len() {
            return Err(SolverError::BadInput(format!(
                "zipped plan needs equal lengths, got {} gases / {} levels / {} flows",
                gases.len(),
                levels.len(),
                flows.len()
            )));
        }
        let mut plan = Self::new(name);
        for (k, ((gas, level), flow)) in gases.iter().zip(levels).zip(flows).enumerate() {
            plan.cases.push(CaseSpec::new(
                format!("{}-{}-z{k:03}", gas.name(), level.name()),
                gas.clone(),
                level.clone(),
                flow.clone(),
            ));
        }
        Ok(plan)
    }

    /// One case per (strided) trajectory point, all at the same gas/level.
    /// Flow state comes from the point (ρ, V, T, time, altitude); pressure
    /// is left unspecified (the correlation and VSL levels do not need it).
    #[must_use]
    pub fn from_trajectory(
        name: impl Into<String>,
        points: &[TrajectoryPoint],
        stride: usize,
        gas: &GasSpec,
        level: &LevelSpec,
        nose_radius: f64,
        t_wall: f64,
    ) -> Self {
        let mut plan = Self::new(name);
        for (k, p) in points.iter().step_by(stride.max(1)).enumerate() {
            let mut flow = FlowSpec::new(
                p.density,
                p.velocity,
                p.temperature,
                f64::NAN,
                nose_radius,
                t_wall,
            );
            flow.time_s = p.time;
            flow.altitude_m = p.altitude;
            plan.cases.push(CaseSpec::new(
                format!("{}-{}-t{k:03}", gas.name(), level.name()),
                gas.clone(),
                level.clone(),
                flow,
            ));
        }
        plan
    }

    /// Append a case (builder-style).
    pub fn push(&mut self, case: CaseSpec) -> &mut Self {
        self.cases.push(case);
        self
    }

    /// Check plan invariants: at least one case, unique case IDs.
    ///
    /// # Errors
    /// [`SolverError::BadInput`] naming the first duplicate ID.
    pub fn validate(&self) -> Result<(), SolverError> {
        if self.cases.is_empty() {
            return Err(SolverError::BadInput(format!(
                "plan '{}' has no cases",
                self.name
            )));
        }
        let mut seen = std::collections::HashSet::new();
        for c in &self.cases {
            if !seen.insert(c.id.as_str()) {
                return Err(SolverError::BadInput(format!(
                    "plan '{}' has duplicate case id '{}'",
                    self.name, c.id
                )));
            }
        }
        Ok(())
    }

    /// Serialize to a pretty-enough JSON document (one case per line).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        json::push_object(&mut out, Layout::Block, |o| {
            o.put("name", &self.name)
                .array("cases", Layout::Block, |a| {
                    for c in &self.cases {
                        a.object(|o| c.write_json(o));
                    }
                });
        });
        out.push('\n');
        out
    }

    /// Parse a plan document produced by [`SweepPlan::to_json`] (or written
    /// by hand to the same schema).
    ///
    /// # Errors
    /// [`SolverError::BadInput`] on parse or schema violations (including
    /// the [`SweepPlan::validate`] invariants).
    pub fn parse(doc: &str) -> Result<Self, SolverError> {
        let v = json::parse(doc).map_err(|e| SolverError::BadInput(format!("plan JSON: {e}")))?;
        Self::from_json(&v)
    }

    /// Deserialize a plan from an already-parsed JSON value (e.g. the
    /// `plan` member of an `aerothermod` `submit` request).
    ///
    /// # Errors
    /// [`SolverError::BadInput`] on schema violations (including the
    /// [`SweepPlan::validate`] invariants).
    pub fn from_json(v: &Value) -> Result<Self, SolverError> {
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| SolverError::BadInput("plan missing string 'name'".into()))?
            .to_string();
        let raw = v
            .get("cases")
            .and_then(Value::as_array)
            .ok_or_else(|| SolverError::BadInput("plan missing array 'cases'".into()))?;
        let mut cases = Vec::with_capacity(raw.len());
        for cv in raw {
            cases.push(CaseSpec::from_json(cv)?);
        }
        let plan = Self { name, cases };
        plan.validate()?;
        Ok(plan)
    }

    /// Read and parse a plan file.
    ///
    /// # Errors
    /// [`SolverError::BadInput`] on I/O, parse, or schema failure.
    pub fn load(path: &str) -> Result<Self, SolverError> {
        let doc = std::fs::read_to_string(path)
            .map_err(|e| SolverError::BadInput(format!("reading plan '{path}': {e}")))?;
        Self::parse(&doc)
    }

    /// Write the plan document to a file.
    ///
    /// # Errors
    /// [`SolverError::BadInput`] on I/O failure.
    pub fn save(&self, path: &str) -> Result<(), SolverError> {
        std::fs::write(path, self.to_json())
            .map_err(|e| SolverError::BadInput(format!("writing plan '{path}': {e}")))
    }
}

// ---------------------------------------------------------------------------
// Preset plans (the driver binary's --fig02-titan / --fig10-matrix).
// ---------------------------------------------------------------------------

/// Fig. 2 preset: Sutton-Graves correlation cases along a flown Titan
/// entry trajectory, a stagnation-line VSL case at every strided point in
/// the hypersonic heat-pulse regime (the envelope the figure actually
/// plots), and one radiating-VSL anchor case at the convective-peak
/// condition (the same anchor `fig02_titan_heating` scales its radiative
/// pulse from). The VSL cases are what make the plan worth a worker pool:
/// each one rebuilds the Titan equilibrium table and solves the shock
/// layer, so they parallelize across workers with no shared state.
#[must_use]
pub fn titan_fig02_plan(points: &[TrajectoryPoint], stride: usize, nose_radius: f64) -> SweepPlan {
    let k_sg = 1.7e-4; // Sutton-Graves constant for N2-dominated atmospheres
    let mut plan = SweepPlan::from_trajectory(
        "fig02_titan_sweep",
        points,
        stride,
        &GasSpec::Titan { ch4: 0.05 },
        &LevelSpec::Correlation { k_sg },
        nose_radius,
        1800.0,
    );
    // Full shock-layer solves where the pulse lives: hypersonic velocity
    // and enough density for a continuum shock layer.
    for (k, p) in points.iter().step_by(stride.max(1)).enumerate() {
        if p.velocity < 4_000.0 || p.density < 1e-7 {
            continue;
        }
        let mut flow = FlowSpec::new(p.density, p.velocity, 165.0, f64::NAN, nose_radius, 1800.0);
        flow.time_s = p.time;
        flow.altitude_m = p.altitude;
        plan.cases.push(CaseSpec::new(
            format!("titan-vsl-t{k:03}"),
            GasSpec::Titan { ch4: 0.05 },
            LevelSpec::Vsl {
                n_points: 40,
                radiating: false,
            },
            flow,
        ));
    }
    // Convective peak ~ max of sqrt(rho)·V^3 — the Sutton-Graves kernel.
    if let Some(peak) = points
        .iter()
        .max_by(|a, b| {
            (a.density.sqrt() * a.velocity.powi(3))
                .total_cmp(&(b.density.sqrt() * b.velocity.powi(3)))
        })
        .filter(|p| p.density > 0.0)
    {
        let mut flow = FlowSpec::new(
            peak.density,
            peak.velocity,
            165.0,
            f64::NAN,
            nose_radius,
            1800.0,
        );
        flow.time_s = peak.time;
        flow.altitude_m = peak.altitude;
        let mut anchor = CaseSpec::new(
            "titan-vsl-anchor",
            GasSpec::Titan { ch4: 0.05 },
            LevelSpec::Vsl {
                n_points: 40,
                radiating: true,
            },
            flow,
        );
        anchor.max_retries = 2;
        plan.cases.push(anchor);
    }
    plan
}

/// Fig. 10 preset: the four-method cost/heating matrix at the paper's
/// Mach-8 hemisphere condition, one case per equation set.
#[must_use]
pub fn method_matrix_plan() -> SweepPlan {
    let t_inf = 230.0;
    let p_inf = 300.0;
    let rho_inf = p_inf / (287.05 * t_inf);
    let v_inf = 8.0 * (1.4_f64 * 287.05 * t_inf).sqrt();
    let rn = 0.15;
    let t_wall = 300.0;
    let flow = FlowSpec::new(rho_inf, v_inf, t_inf, p_inf, rn, t_wall);

    let mut plan = SweepPlan::new("fig10_method_matrix");
    plan.push(CaseSpec::new(
        "vsl",
        GasSpec::Air9,
        LevelSpec::Vsl {
            n_points: 40,
            radiating: false,
        },
        flow.clone(),
    ))
    .push(CaseSpec::new(
        "euler_bl",
        GasSpec::IdealAir,
        LevelSpec::EulerBl {
            ni: 21,
            nj: 41,
            max_steps: 2500,
            tol: 1e-2,
        },
        flow.clone(),
    ))
    .push(CaseSpec::new(
        "pns",
        GasSpec::IdealAir,
        LevelSpec::Pns {
            ni: 70,
            nj: 41,
            i_start: 10,
        },
        flow.clone(),
    ))
    .push(CaseSpec::new(
        "ns",
        GasSpec::IdealAir,
        LevelSpec::Ns {
            ni: 21,
            nj: 57,
            max_steps: 16_000,
            tol: 1e-9,
        },
        flow,
    ));
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flows(n: usize) -> Vec<FlowSpec> {
        (0..n)
            .map(|k| FlowSpec::new(1e-4 * (k + 1) as f64, 7000.0, 200.0, 10.0, 0.5, 1500.0))
            .collect()
    }

    #[test]
    fn cartesian_covers_the_product() {
        let plan = SweepPlan::cartesian(
            "p",
            &[GasSpec::IdealAir, GasSpec::Air9],
            &[
                LevelSpec::Correlation { k_sg: 1.74e-4 },
                LevelSpec::Vsl {
                    n_points: 20,
                    radiating: false,
                },
            ],
            &flows(3),
        );
        assert_eq!(plan.cases.len(), 12);
        plan.validate().expect("unique ids");
    }

    #[test]
    fn zipped_rejects_mismatched_lengths() {
        let err = SweepPlan::zipped(
            "z",
            &[GasSpec::IdealAir],
            &[
                LevelSpec::Correlation { k_sg: 1e-4 },
                LevelSpec::Correlation { k_sg: 2e-4 },
            ],
            &flows(2),
        )
        .unwrap_err();
        assert!(err.to_string().contains("equal lengths"));
    }

    #[test]
    fn plan_json_roundtrips() {
        let plan = SweepPlan::cartesian(
            "roundtrip",
            &[GasSpec::Titan { ch4: 0.05 }],
            &[LevelSpec::Correlation { k_sg: 1.7e-4 }],
            &flows(4),
        );
        let back = SweepPlan::parse(&plan.to_json()).expect("roundtrip");
        assert_eq!(back, plan);
    }

    #[test]
    fn validate_rejects_duplicates_and_empty() {
        assert!(SweepPlan::new("empty").validate().is_err());
        let mut plan = SweepPlan::new("dup");
        let f = flows(1).remove(0);
        plan.push(CaseSpec::new(
            "same",
            GasSpec::IdealAir,
            LevelSpec::Correlation { k_sg: 1e-4 },
            f.clone(),
        ))
        .push(CaseSpec::new(
            "same",
            GasSpec::IdealAir,
            LevelSpec::Correlation { k_sg: 2e-4 },
            f,
        ));
        assert!(plan.validate().is_err());
    }

    #[test]
    fn method_matrix_orders_by_cost() {
        let plan = method_matrix_plan();
        plan.validate().unwrap();
        let cost = |id: &str| {
            plan.cases
                .iter()
                .find(|c| c.id == id)
                .unwrap()
                .cost_estimate()
        };
        assert!(cost("vsl") < cost("euler_bl"));
        assert!(cost("euler_bl") < cost("ns"));
        assert!(cost("pns") < cost("ns"));
    }
}
