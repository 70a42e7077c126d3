//! Typed error for the gas-phase thermochemistry layer.
//!
//! Mirrors the `SolverError` cleanup in `aerothermo-numerics`: every
//! fallible routine in this crate returns [`GasError`] instead of a bare
//! `String`, while `Display` keeps the wording of the old messages so
//! existing `format!("...: {e}")` call sites and log output are unchanged.

/// Typed error returned by the equilibrium solver and the thermodynamic
/// inversions in `aerothermo-gas`.
#[derive(Debug, Clone, PartialEq)]
pub enum GasError {
    /// The element-potential Newton iteration failed to converge from both
    /// the warm-cache seed (when one was found) and the cold start.
    EquilibriumNotConverged {
        /// Temperature of the failed solve \[K\].
        temperature: f64,
        /// Underlying Newton diagnostic.
        detail: String,
    },
    /// A thermodynamic inversion (Brent bracket/iteration) failed.
    InversionFailed {
        /// Which inversion failed, with its inputs — e.g.
        /// `temperature_from_energy` or `at_rho_e(rho=…, e=…)`.
        context: String,
        /// Underlying root-finder diagnostic.
        detail: String,
    },
    /// Input outside the model's domain of validity.
    BadInput(String),
    /// Lower-level numerical diagnostic, passed through verbatim.
    Numerical(String),
}

impl std::fmt::Display for GasError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GasError::EquilibriumNotConverged {
                temperature,
                detail,
            } => {
                write!(f, "equilibrium at T={temperature}: {detail}")
            }
            GasError::InversionFailed { context, detail } => write!(f, "{context}: {detail}"),
            GasError::BadInput(msg) | GasError::Numerical(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for GasError {}

impl From<String> for GasError {
    fn from(msg: String) -> Self {
        GasError::Numerical(msg)
    }
}

impl From<&str> for GasError {
    fn from(msg: &str) -> Self {
        GasError::Numerical(msg.to_string())
    }
}

/// Gas-layer failures surface in the flow solvers as numerical errors,
/// carrying the full formatted diagnostic.
impl From<GasError> for aerothermo_numerics::telemetry::SolverError {
    fn from(e: GasError) -> Self {
        aerothermo_numerics::telemetry::SolverError::Numerical(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_keeps_legacy_wording() {
        let e = GasError::EquilibriumNotConverged {
            temperature: 300.0,
            detail: "newton stalled".into(),
        };
        assert_eq!(e.to_string(), "equilibrium at T=300: newton stalled");
        let e = GasError::InversionFailed {
            context: "temperature_from_energy".into(),
            detail: "no sign change".into(),
        };
        assert_eq!(e.to_string(), "temperature_from_energy: no sign change");
        let e = GasError::Numerical("verbatim".into());
        assert_eq!(e.to_string(), "verbatim");
    }

    #[test]
    fn converts_into_solver_error() {
        let g = GasError::BadInput("negative density".into());
        let s: aerothermo_numerics::telemetry::SolverError = g.into();
        assert_eq!(s.to_string(), "negative density");
    }
}
