//! Bit-for-bit pins of the viscous shock layer: the stagnation-line solve
//! (non-radiating air, radiating Titan) and the windward march. Each case
//! folds the `to_bits` of its outputs into one FNV-1a fingerprint, so any
//! change to an operation order in the column solve fails here. A change
//! that moves a result on purpose must update the constant and say why.

use aerothermo::gas::equilibrium::{air9_equilibrium, titan_equilibrium};
use aerothermo::grid::bodies::Hemisphere;
use aerothermo::solvers::vsl::{march, solve, VslProblem, VslSolution};

fn fingerprint(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

fn shuttle_problem() -> VslProblem {
    VslProblem {
        u_inf: 6700.0,
        rho_inf: 1.6e-4,
        t_inf: 230.0,
        nose_radius: 0.6,
        t_wall: 1200.0,
        n_points: 48,
        radiating: false,
    }
}

/// fig03's radiating Titan probe condition.
fn titan_problem() -> VslProblem {
    VslProblem {
        u_inf: 10_100.0,
        rho_inf: 4.6e-4,
        t_inf: 165.0,
        nose_radius: 0.6,
        t_wall: 1800.0,
        n_points: 56,
        radiating: true,
    }
}

/// Standoff, wall fluxes, then every station's y, T, ρ, h, U and ρv.
fn solution_values(sol: &VslSolution) -> Vec<f64> {
    let mut values = vec![sol.standoff, sol.q_conv, sol.q_rad_thin];
    for st in &sol.stations {
        values.extend([
            st.y,
            st.temperature,
            st.density,
            st.enthalpy,
            st.u_grad,
            st.mass_flux,
        ]);
    }
    values
}

#[test]
fn vsl_pin_air_stagnation_line() {
    let sol = solve(&air9_equilibrium(), &shuttle_problem()).unwrap();
    assert_eq!(sol.q_rad_thin, 0.0);
    assert_eq!(fingerprint(solution_values(&sol)), 0x3c09_fdc6_7ce9_4f75);
}

#[test]
fn vsl_pin_titan_radiating_stagnation_line() {
    let sol = solve(&titan_equilibrium(0.05), &titan_problem()).unwrap();
    assert!(sol.q_rad_thin > 0.0);
    assert_eq!(fingerprint(solution_values(&sol)), 0xc3d7_db91_e4fb_a17b);
}

#[test]
fn vsl_pin_air_march() {
    let problem = shuttle_problem();
    let body = Hemisphere::new(problem.nose_radius);
    let sol = march(&air9_equilibrium(), &problem, &body, 10).unwrap();
    let values = sol
        .stations
        .iter()
        .flat_map(|st| [st.s, st.delta, st.p_edge, st.u_edge, st.q_conv]);
    assert_eq!(fingerprint(values), 0xc485_6d7d_646a_6cee);
}
