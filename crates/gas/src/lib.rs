//! High-temperature gas thermochemistry for computational
//! aerothermodynamics.
//!
//! The paper's "real-gas effects" — equilibrium and finite-rate chemistry,
//! thermal (two-temperature) nonequilibrium, and the property data feeding
//! radiation — all live here:
//!
//! * [`species`] — spectroscopic species database (9-species ionizing air,
//!   Titan N₂/CH₄ species),
//! * [`thermo`] — statistical-mechanics thermodynamics and [`thermo::Mixture`],
//! * [`equilibrium`] — general element-potential equilibrium solver,
//! * [`eq_table`] — tabulated equilibrium-air equation of state for flow
//!   solvers (the modern version of the era's Tannehill curve fits),
//! * [`model`] — the [`model::GasModel`] EOS abstraction the solvers consume,
//! * [`kinetics`] — Park finite-rate reaction set with two-temperature
//!   coupling and backward rates from equilibrium constants,
//! * [`relaxation`] — Millikan-White/Park vibrational relaxation times,
//! * [`source`] — the two-temperature source terms (ẇ and the vibronic
//!   energy source) of a relaxation march in one pass,
//! * [`transport`] — viscosity/conductivity/diffusion (Blottner + kinetic
//!   theory, Wilke mixing).
#![warn(missing_docs)]
// Indexed loops over parallel arrays are the clearest idiom for the
// numerical kernels here; spelled-out spectroscopic constants keep their
// literature precision.
#![allow(
    clippy::needless_range_loop,
    clippy::excessive_precision,
    clippy::type_complexity
)]

pub mod eq_table;
pub mod equilibrium;
pub mod error;
pub mod kinetics;
pub mod model;
pub mod relaxation;
pub mod source;
pub mod species;
pub mod thermo;
pub mod transport;

pub use equilibrium::{
    air11_equilibrium, air5_equilibrium, air9_equilibrium, jupiter_equilibrium,
    reset_thread_warm_cache, titan_equilibrium, EqState, EquilibriumGas,
};
pub use error::GasError;
pub use model::{GasModel, IdealGas};
pub use species::{Element, Rotation, Species, ViscModel};
pub use thermo::Mixture;
