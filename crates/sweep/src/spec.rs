//! Declarative case specifications: what to run, on which gas, at which
//! flow condition — JSON-round-trippable so plans can be shipped as files.

use aerothermo_gas::{
    air11_equilibrium, air5_equilibrium, air9_equilibrium, jupiter_equilibrium, titan_equilibrium,
    EquilibriumGas,
};
use aerothermo_numerics::json::{self, Layout, Object, Value};
use aerothermo_numerics::telemetry::SolverError;

/// Gas model selector.
///
/// Selectors are *recipes*, not instances: workers materialize the gas
/// inside the case so nothing is shared across threads.
#[derive(Debug, Clone, PartialEq)]
pub enum GasSpec {
    /// Calorically perfect air (γ = 1.4).
    IdealAir,
    /// 5-species equilibrium air.
    Air5,
    /// 9-species equilibrium air.
    Air9,
    /// 11-species (ionizing) equilibrium air.
    Air11,
    /// N₂/CH₄ Titan atmosphere at the given CH₄ mole fraction.
    Titan {
        /// CH₄ mole fraction (e.g. 0.05).
        ch4: f64,
    },
    /// H₂/He Jupiter atmosphere at the given He mole fraction.
    Jupiter {
        /// He mole fraction (e.g. 0.11).
        he: f64,
    },
}

impl GasSpec {
    /// Stable kind tag used in JSON and in generated case IDs.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            GasSpec::IdealAir => "ideal_air",
            GasSpec::Air5 => "air5",
            GasSpec::Air9 => "air9",
            GasSpec::Air11 => "air11",
            GasSpec::Titan { .. } => "titan",
            GasSpec::Jupiter { .. } => "jupiter",
        }
    }

    /// Build the equilibrium gas this selector names, or `None` for the
    /// ideal gas (which has no equilibrium chemistry to solve).
    #[must_use]
    pub fn equilibrium(&self) -> Option<EquilibriumGas> {
        match self {
            GasSpec::IdealAir => None,
            GasSpec::Air5 => Some(air5_equilibrium()),
            GasSpec::Air9 => Some(air9_equilibrium()),
            GasSpec::Air11 => Some(air11_equilibrium()),
            GasSpec::Titan { ch4 } => Some(titan_equilibrium(*ch4)),
            GasSpec::Jupiter { he } => Some(jupiter_equilibrium(*he)),
        }
    }

    fn write_json(&self, o: &mut Object<'_>) {
        o.put("kind", self.name());
        match self {
            GasSpec::Titan { ch4 } => o.put("ch4", ch4),
            GasSpec::Jupiter { he } => o.put("he", he),
            _ => o,
        };
    }

    fn from_json(v: &Value) -> Result<Self, SolverError> {
        let kind = req_str(v, "kind", "gas")?;
        match kind {
            "ideal_air" => Ok(GasSpec::IdealAir),
            "air5" => Ok(GasSpec::Air5),
            "air9" => Ok(GasSpec::Air9),
            "air11" => Ok(GasSpec::Air11),
            "titan" => Ok(GasSpec::Titan {
                ch4: req_f64(v, "ch4", "gas")?,
            }),
            "jupiter" => Ok(GasSpec::Jupiter {
                he: req_f64(v, "he", "gas")?,
            }),
            other => Err(SolverError::BadInput(format!("unknown gas kind '{other}'"))),
        }
    }
}

/// Solver level (the paper's method hierarchy) plus its grid size.
#[derive(Debug, Clone, PartialEq)]
pub enum LevelSpec {
    /// Engineering correlation: Sutton-Graves convective heating only.
    /// Effectively free; the cheapest rung of the hierarchy.
    Correlation {
        /// Sutton-Graves constant for the atmosphere (≈ 1.74e-4 for air,
        /// ≈ 1.7e-4 for N₂-dominated atmospheres).
        k_sg: f64,
    },
    /// Stagnation-line viscous shock layer (equilibrium gas required).
    Vsl {
        /// Grid points across the layer.
        n_points: usize,
        /// Solve the radiating VSL and run spectral tangent-slab
        /// transport over the converged layer (`q_rad_w_m2` metric).
        radiating: bool,
    },
    /// Euler shock capture + Fay-Riddell boundary-layer heating on a
    /// hemisphere.
    EulerBl {
        /// Cells along the body.
        ni: usize,
        /// Cells across the shock layer.
        nj: usize,
        /// Pseudo-time step budget.
        max_steps: usize,
        /// Residual-ratio convergence tolerance.
        tol: f64,
    },
    /// Parabolized Navier-Stokes afterbody march on a sphere-cone.
    Pns {
        /// Stations along the body.
        ni: usize,
        /// Points across the layer.
        nj: usize,
        /// First marched station (the subsonic nose is anchored, not
        /// marched).
        i_start: usize,
    },
    /// Full Navier-Stokes relaxation on a hemisphere.
    Ns {
        /// Cells along the body.
        ni: usize,
        /// Cells across the shock layer.
        nj: usize,
        /// Pseudo-time step budget.
        max_steps: usize,
        /// Residual-ratio convergence tolerance.
        tol: f64,
    },
    /// Scheduler-test stand-in: sleeps `work_ms`, then succeeds, fails
    /// with a recoverable error, or panics. Never touches the solvers.
    Synthetic {
        /// Simulated compute time per attempt \[ms\].
        work_ms: f64,
        /// `"ok"`, `"fail"` (recoverable error every attempt), or
        /// `"panic"`.
        outcome: String,
    },
}

impl LevelSpec {
    /// Stable kind tag used in JSON and in generated case IDs.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            LevelSpec::Correlation { .. } => "correlation",
            LevelSpec::Vsl { .. } => "vsl",
            LevelSpec::EulerBl { .. } => "euler_bl",
            LevelSpec::Pns { .. } => "pns",
            LevelSpec::Ns { .. } => "ns",
            LevelSpec::Synthetic { .. } => "synthetic",
        }
    }

    fn write_json(&self, o: &mut Object<'_>) {
        o.put("kind", self.name());
        match self {
            LevelSpec::Correlation { k_sg } => o.put("k_sg", k_sg),
            LevelSpec::Vsl {
                n_points,
                radiating,
            } => o.put("n_points", n_points).put("radiating", radiating),
            LevelSpec::EulerBl {
                ni,
                nj,
                max_steps,
                tol,
            }
            | LevelSpec::Ns {
                ni,
                nj,
                max_steps,
                tol,
            } => {
                o.put("ni", ni).put("nj", nj);
                o.put("max_steps", max_steps).put("tol", tol)
            }
            LevelSpec::Pns { ni, nj, i_start } => {
                o.put("ni", ni).put("nj", nj).put("i_start", i_start)
            }
            LevelSpec::Synthetic { work_ms, outcome } => {
                o.put("work_ms", work_ms).put("outcome", outcome)
            }
        };
    }

    fn from_json(v: &Value) -> Result<Self, SolverError> {
        let kind = req_str(v, "kind", "level")?;
        match kind {
            "correlation" => Ok(LevelSpec::Correlation {
                k_sg: req_f64(v, "k_sg", "level")?,
            }),
            "vsl" => Ok(LevelSpec::Vsl {
                n_points: req_usize(v, "n_points", "level")?,
                radiating: req_bool(v, "radiating", "level")?,
            }),
            "euler_bl" => Ok(LevelSpec::EulerBl {
                ni: req_usize(v, "ni", "level")?,
                nj: req_usize(v, "nj", "level")?,
                max_steps: req_usize(v, "max_steps", "level")?,
                tol: req_f64(v, "tol", "level")?,
            }),
            "pns" => Ok(LevelSpec::Pns {
                ni: req_usize(v, "ni", "level")?,
                nj: req_usize(v, "nj", "level")?,
                i_start: req_usize(v, "i_start", "level")?,
            }),
            "ns" => Ok(LevelSpec::Ns {
                ni: req_usize(v, "ni", "level")?,
                nj: req_usize(v, "nj", "level")?,
                max_steps: req_usize(v, "max_steps", "level")?,
                tol: req_f64(v, "tol", "level")?,
            }),
            "synthetic" => Ok(LevelSpec::Synthetic {
                work_ms: req_f64(v, "work_ms", "level")?,
                outcome: req_str(v, "outcome", "level")?.to_string(),
            }),
            other => Err(SolverError::BadInput(format!(
                "unknown level kind '{other}'"
            ))),
        }
    }
}

/// Freestream / body condition for one case.
///
/// `time_s` and `altitude_m` are optional provenance for trajectory-derived
/// cases (NaN ⇒ not applicable; serialized as JSON `null`).
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Freestream density \[kg/m³\].
    pub rho_inf: f64,
    /// Freestream velocity \[m/s\].
    pub u_inf: f64,
    /// Freestream temperature \[K\].
    pub t_inf: f64,
    /// Freestream pressure \[Pa\] (required by the CFD levels; the VSL
    /// computes its own from ρ and T).
    pub p_inf: f64,
    /// Nose radius \[m\].
    pub nose_radius: f64,
    /// Wall temperature \[K\].
    pub t_wall: f64,
    /// Trajectory time of this condition \[s\]; NaN when not
    /// trajectory-derived.
    pub time_s: f64,
    /// Trajectory altitude of this condition \[m\]; NaN when not
    /// trajectory-derived.
    pub altitude_m: f64,
}

/// NaN-tolerant float equality: provenance fields use NaN as "absent", and
/// a serialization roundtrip must compare equal, so NaN == NaN here
/// (bitwise comparison, like `total_cmp`).
fn f64_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

impl PartialEq for FlowSpec {
    fn eq(&self, other: &Self) -> bool {
        f64_eq(self.rho_inf, other.rho_inf)
            && f64_eq(self.u_inf, other.u_inf)
            && f64_eq(self.t_inf, other.t_inf)
            && f64_eq(self.p_inf, other.p_inf)
            && f64_eq(self.nose_radius, other.nose_radius)
            && f64_eq(self.t_wall, other.t_wall)
            && f64_eq(self.time_s, other.time_s)
            && f64_eq(self.altitude_m, other.altitude_m)
    }
}

impl FlowSpec {
    /// Condition at an explicit freestream state (no trajectory
    /// provenance).
    #[must_use]
    pub fn new(
        rho_inf: f64,
        u_inf: f64,
        t_inf: f64,
        p_inf: f64,
        nose_radius: f64,
        t_wall: f64,
    ) -> Self {
        Self {
            rho_inf,
            u_inf,
            t_inf,
            p_inf,
            nose_radius,
            t_wall,
            time_s: f64::NAN,
            altitude_m: f64::NAN,
        }
    }

    fn write_json(&self, o: &mut Object<'_>) {
        o.put("rho_inf", self.rho_inf).put("u_inf", self.u_inf);
        o.put("t_inf", self.t_inf).put("p_inf", self.p_inf);
        o.put("nose_radius", self.nose_radius);
        o.put("t_wall", self.t_wall).put("time_s", self.time_s);
        o.put("altitude_m", self.altitude_m);
    }

    fn from_json(v: &Value) -> Result<Self, SolverError> {
        Ok(Self {
            rho_inf: req_f64(v, "rho_inf", "flow")?,
            u_inf: req_f64(v, "u_inf", "flow")?,
            t_inf: req_f64(v, "t_inf", "flow")?,
            p_inf: opt_f64(v, "p_inf"),
            nose_radius: req_f64(v, "nose_radius", "flow")?,
            t_wall: req_f64(v, "t_wall", "flow")?,
            time_s: opt_f64(v, "time_s"),
            altitude_m: opt_f64(v, "altitude_m"),
        })
    }
}

/// Coefficients of [`CaseSpec::cost_estimate`] \[ms per work unit\],
/// measured on the reference host (EXPERIMENTS E35): means of the traced
/// replays of the envelope benchmark plan, and for the kinds that plan
/// lacks (PNS on the air table, VSL in air11 and Jupiter gas) one run of
/// a probe plan, its VSL times scaled by the envelope's air9 mean over
/// the probe's.
mod cost {
    /// One Sutton-Graves evaluation.
    pub const CORRELATION_MS: f64 = 1.8e-4;
    /// Euler+BL on the ideal-gas EOS, per cell and budgeted step.
    pub const EULER_CELL_STEP_MS: f64 = 1.7e-4;
    /// Full NS on the ideal-gas EOS, per cell and budgeted step.
    pub const NS_CELL_STEP_MS: f64 = 2.7e-4;
    /// What the tabulated equilibrium-air EOS adds per cell and step.
    pub const TABLE_EOS_CELL_STEP_MS: f64 = 5.8e-4;
    /// PNS march on the ideal-gas EOS, per cell.
    pub const PNS_CELL_MS: f64 = 0.022;
    /// PNS march on the tabulated equilibrium-air EOS, per cell.
    pub const PNS_TABLE_CELL_MS: f64 = 0.21;
    /// Equilibrium VSL in 5- or 9-species air, per layer point.
    pub const VSL_AIR_POINT_MS: f64 = 0.26;
    /// Equilibrium VSL in 11-species (ionizing) air, per layer point.
    pub const VSL_AIR11_POINT_MS: f64 = 0.34;
    /// Equilibrium VSL in the N₂/CH₄ Titan gas, per layer point.
    pub const VSL_TITAN_POINT_MS: f64 = 0.49;
    /// Equilibrium VSL in the H₂/He Jupiter gas, per layer point.
    pub const VSL_JUPITER_POINT_MS: f64 = 0.11;
    /// What the radiating VSL and its tangent-slab transport add per point.
    pub const RADIATION_POINT_MS: f64 = 0.16;
}

/// One fully-specified sweep case.
#[derive(Debug, Clone)]
pub struct CaseSpec {
    /// Unique case identifier within the plan (the resume key).
    pub id: String,
    /// Gas model recipe.
    pub gas: GasSpec,
    /// Solver level and grid size.
    pub level: LevelSpec,
    /// Flow condition.
    pub flow: FlowSpec,
    /// Retry/rollback budget delegated to `runctl`.
    pub max_retries: usize,
    /// Per-case wall-clock timeout \[s\]; NaN or ≤ 0 disables the timeout.
    pub timeout_secs: f64,
    /// Fault injection: the case consumes its whole retry budget and
    /// fails with a `NonFinite` error — the `--inject-nan`-style
    /// divergence drill for the fault-isolation tests.
    pub inject_fault: bool,
}

impl PartialEq for CaseSpec {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
            && self.gas == other.gas
            && self.level == other.level
            && self.flow == other.flow
            && self.max_retries == other.max_retries
            && f64_eq(self.timeout_secs, other.timeout_secs)
            && self.inject_fault == other.inject_fault
    }
}

impl CaseSpec {
    /// Case with default control policy (3 retries, no timeout, no
    /// injected fault).
    #[must_use]
    pub fn new(id: impl Into<String>, gas: GasSpec, level: LevelSpec, flow: FlowSpec) -> Self {
        Self {
            id: id.into(),
            gas,
            level,
            flow,
            max_retries: 3,
            timeout_secs: f64::NAN,
            inject_fault: false,
        }
    }

    /// Modelled wall time of this case \[ms\] on the reference host: the
    /// one cost model the longest-first pool queue, the `cost_balanced`
    /// shard partition and the heartbeat ETA share.
    ///
    /// Work units (cell-steps of the step budget for Euler+BL and NS,
    /// cells for the PNS march, layer points for the VSL) times the
    /// measured per-unit cost of the level on this gas (see `cost`). The
    /// model depends only on the level, its grid and step budget, and the
    /// gas; never on a case id or a plan. A synthetic case costs the
    /// `work_ms` it sleeps.
    #[must_use]
    pub fn cost_estimate(&self) -> f64 {
        // The CFD levels integrate the ideal-gas EOS or the tabulated
        // equilibrium-air one (other gases fail at once; charging them
        // the table only queues them early).
        let ideal = self.gas == GasSpec::IdealAir;
        let eos = if ideal {
            0.0
        } else {
            cost::TABLE_EOS_CELL_STEP_MS
        };
        let cells = |ni: usize, nj: usize| (ni * nj) as f64;
        match &self.level {
            LevelSpec::Correlation { .. } => cost::CORRELATION_MS,
            LevelSpec::Synthetic { work_ms, .. } => work_ms.max(0.0),
            LevelSpec::Vsl {
                n_points,
                radiating,
            } => {
                let per_point = match self.gas {
                    GasSpec::Titan { .. } => cost::VSL_TITAN_POINT_MS,
                    GasSpec::Jupiter { .. } => cost::VSL_JUPITER_POINT_MS,
                    GasSpec::Air11 => cost::VSL_AIR11_POINT_MS,
                    // Ideal air fails at once: the VSL needs an
                    // equilibrium gas.
                    GasSpec::IdealAir | GasSpec::Air5 | GasSpec::Air9 => cost::VSL_AIR_POINT_MS,
                };
                let slab = if *radiating {
                    cost::RADIATION_POINT_MS
                } else {
                    0.0
                };
                *n_points as f64 * (per_point + slab)
            }
            LevelSpec::EulerBl {
                ni, nj, max_steps, ..
            } => cells(*ni, *nj) * *max_steps as f64 * (cost::EULER_CELL_STEP_MS + eos),
            LevelSpec::Ns {
                ni, nj, max_steps, ..
            } => cells(*ni, *nj) * *max_steps as f64 * (cost::NS_CELL_STEP_MS + eos),
            LevelSpec::Pns { ni, nj, .. } if ideal => cells(*ni, *nj) * cost::PNS_CELL_MS,
            LevelSpec::Pns { ni, nj, .. } => cells(*ni, *nj) * cost::PNS_TABLE_CELL_MS,
        }
    }

    /// Effective timeout, `None` when disabled.
    #[must_use]
    pub fn timeout(&self) -> Option<std::time::Duration> {
        if self.timeout_secs.is_finite() && self.timeout_secs > 0.0 {
            Some(std::time::Duration::from_secs_f64(self.timeout_secs))
        } else {
            None
        }
    }

    /// Serialize to a single-object JSON string.
    #[must_use]
    pub fn to_json(&self) -> String {
        json::write_object(Layout::Inline, |o| self.write_json(o))
    }

    /// Write this case's members into `o`.
    pub(crate) fn write_json(&self, o: &mut Object<'_>) {
        o.put("id", &self.id);
        o.object("gas", Layout::Inline, |g| self.gas.write_json(g));
        o.object("level", Layout::Inline, |l| self.level.write_json(l));
        o.object("flow", Layout::Inline, |f| self.flow.write_json(f));
        o.put("max_retries", self.max_retries);
        o.put("timeout_secs", self.timeout_secs);
        o.put("inject_fault", self.inject_fault);
    }

    /// Deserialize from a parsed JSON value.
    ///
    /// # Errors
    /// [`SolverError::BadInput`] naming the missing/mistyped field.
    pub fn from_json(v: &Value) -> Result<Self, SolverError> {
        Ok(Self {
            id: req_str(v, "id", "case")?.to_string(),
            gas: GasSpec::from_json(
                v.get("gas")
                    .ok_or_else(|| SolverError::BadInput("case missing 'gas'".into()))?,
            )?,
            level: LevelSpec::from_json(
                v.get("level")
                    .ok_or_else(|| SolverError::BadInput("case missing 'level'".into()))?,
            )?,
            flow: FlowSpec::from_json(
                v.get("flow")
                    .ok_or_else(|| SolverError::BadInput("case missing 'flow'".into()))?,
            )?,
            max_retries: req_usize(v, "max_retries", "case")?,
            timeout_secs: opt_f64(v, "timeout_secs"),
            inject_fault: req_bool(v, "inject_fault", "case")?,
        })
    }

    /// Parse a case from a JSON document string.
    ///
    /// # Errors
    /// [`SolverError::BadInput`] on parse or schema violations.
    pub fn parse(doc: &str) -> Result<Self, SolverError> {
        let v = json::parse(doc).map_err(|e| SolverError::BadInput(format!("case JSON: {e}")))?;
        Self::from_json(&v)
    }
}

fn req_f64(v: &Value, key: &str, ctx: &str) -> Result<f64, SolverError> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| SolverError::BadInput(format!("{ctx} missing number '{key}'")))
}

/// Optional float: absent or `null` parses as NaN (the writers' encoding
/// of "not applicable").
fn opt_f64(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

fn req_usize(v: &Value, key: &str, ctx: &str) -> Result<usize, SolverError> {
    let x = req_f64(v, key, ctx)?;
    if x.fract() == 0.0 && x >= 0.0 && x <= usize::MAX as f64 {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        Ok(x as usize)
    } else {
        Err(SolverError::BadInput(format!(
            "{ctx} field '{key}' is not a non-negative integer: {x}"
        )))
    }
}

fn req_bool(v: &Value, key: &str, ctx: &str) -> Result<bool, SolverError> {
    match v.get(key) {
        Some(Value::Bool(b)) => Ok(*b),
        _ => Err(SolverError::BadInput(format!(
            "{ctx} missing boolean '{key}'"
        ))),
    }
}

fn req_str<'a>(v: &'a Value, key: &str, ctx: &str) -> Result<&'a str, SolverError> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| SolverError::BadInput(format!("{ctx} missing string '{key}'")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_flow() -> FlowSpec {
        FlowSpec::new(3e-4, 6700.0, 230.0, 20.0, 0.6, 1500.0)
    }

    #[test]
    fn case_json_roundtrips_every_variant() {
        let levels = [
            LevelSpec::Correlation { k_sg: 1.74e-4 },
            LevelSpec::Vsl {
                n_points: 40,
                radiating: true,
            },
            LevelSpec::EulerBl {
                ni: 21,
                nj: 41,
                max_steps: 2500,
                tol: 1e-2,
            },
            LevelSpec::Pns {
                ni: 70,
                nj: 41,
                i_start: 10,
            },
            LevelSpec::Ns {
                ni: 21,
                nj: 57,
                max_steps: 400,
                tol: 1e-9,
            },
            LevelSpec::Synthetic {
                work_ms: 5.0,
                outcome: "ok".to_string(),
            },
        ];
        let gases = [
            GasSpec::IdealAir,
            GasSpec::Air5,
            GasSpec::Air9,
            GasSpec::Air11,
            GasSpec::Titan { ch4: 0.05 },
            GasSpec::Jupiter { he: 0.11 },
        ];
        for (k, (level, gas)) in levels.iter().zip(gases.iter()).enumerate() {
            let mut case =
                CaseSpec::new(format!("c{k}"), gas.clone(), level.clone(), sample_flow());
            case.max_retries = k;
            case.inject_fault = k % 2 == 0;
            let back = CaseSpec::parse(&case.to_json()).expect("roundtrip");
            assert_eq!(back, case, "variant {k}");
        }
    }

    #[test]
    fn nan_provenance_roundtrips_as_null() {
        let case = CaseSpec::new(
            "c",
            GasSpec::IdealAir,
            LevelSpec::Correlation { k_sg: 1.74e-4 },
            sample_flow(),
        );
        let doc = case.to_json();
        assert!(doc.contains("\"time_s\": null"), "{doc}");
        let back = CaseSpec::parse(&doc).unwrap();
        assert!(back.flow.time_s.is_nan());
        assert!(back.timeout_secs.is_nan());
        assert_eq!(back.timeout(), None);
    }

    #[test]
    fn bad_specs_are_typed_errors() {
        assert!(CaseSpec::parse("not json").is_err());
        assert!(CaseSpec::parse("{\"id\": \"x\"}").is_err());
        let bad_gas = r#"{"id": "x", "gas": {"kind": "unobtainium"},
            "level": {"kind": "correlation", "k_sg": 1e-4},
            "flow": {"rho_inf": 1, "u_inf": 1, "t_inf": 1, "p_inf": 1,
                     "nose_radius": 1, "t_wall": 1},
            "max_retries": 0, "timeout_secs": null, "inject_fault": false}"#;
        let err = CaseSpec::parse(bad_gas).unwrap_err();
        assert!(err.to_string().contains("unobtainium"), "{err}");
    }

    #[test]
    fn cost_ordering_follows_method_hierarchy() {
        let cost = |gas: GasSpec, level: LevelSpec| {
            CaseSpec::new("c", gas, level, sample_flow()).cost_estimate()
        };
        let vsl = |radiating| LevelSpec::Vsl {
            n_points: 40,
            radiating,
        };
        let euler = |max_steps| LevelSpec::EulerBl {
            ni: 21,
            nj: 41,
            max_steps,
            tol: 1e-2,
        };
        let ns = |nj, max_steps| LevelSpec::Ns {
            ni: 21,
            nj,
            max_steps,
            tol: 1e-9,
        };
        let titan = GasSpec::Titan { ch4: 0.05 };
        let corr = cost(GasSpec::Air9, LevelSpec::Correlation { k_sg: 1.7e-4 });
        let vsl_air9 = cost(GasSpec::Air9, vsl(false));
        let ebl = cost(GasSpec::IdealAir, euler(2500));
        assert!(corr < vsl_air9 && vsl_air9 < ebl);
        assert!(ebl < cost(GasSpec::IdealAir, ns(57, 16_000)));

        // The measured gas orderings of the envelope plan: the tabulated
        // equilibrium EOS costs more per step than the whole ideal-gas
        // budget gap, the NS case is the longest, and radiation adds a
        // fraction, not a multiple, to a Titan layer.
        let euler_air9 = cost(GasSpec::Air9, euler(1500));
        assert!(euler_air9 > ebl, "air9 Euler 1500 steps > ideal Euler 2500");
        assert!(cost(GasSpec::IdealAir, ns(57, 4000)) > euler_air9);
        let vsl_titan = cost(titan.clone(), vsl(false));
        assert!(vsl_titan > vsl_air9);
        let vsl_titan_rad = cost(titan, vsl(true));
        assert!(vsl_titan < vsl_titan_rad && vsl_titan_rad < 2.0 * vsl_titan);
    }
}
