//! Differential tests: the matrix-free Clique/Ring mixers against the dense reference
//! `SubspaceMixer::from_hamiltonian(&build_xy_hamiltonian(..))`, which eigendecomposes
//! the explicitly assembled Hamiltonian.

use juliqaoa_combinatorics::DickeSubspace;
use juliqaoa_linalg::{vector, Complex64};
use juliqaoa_mixers::xy::build_xy_hamiltonian;
use juliqaoa_mixers::{Mixer, SubspaceMixer, XYCoupling};

const BETAS: [f64; 9] = [
    0.0,
    0.3,
    -0.3,
    1.5,
    3.0,
    2.0 * std::f64::consts::PI - 0.1,
    6.0,
    -4.5,
    1e-9,
];

/// A state with unequal, non-unit norm so relative tolerances are exercised.
fn generic_state(dim: usize, seed: f64) -> Vec<Complex64> {
    (0..dim)
        .map(|i| {
            let t = i as f64 + seed;
            Complex64::new((t * 0.731).sin() * 1.7, (t * 0.293 + 0.4).cos() * 1.7)
        })
        .collect()
}

/// `apply_evolution`, `apply_inverse_evolution` and `apply_hamiltonian` of the
/// matrix-free mixer against the dense reference, to `1e-12·max(1, |β|)·‖ψ‖`: at large
/// |β| both paths round the phase `βλ` itself.
fn check(n: usize, k: usize, betas: &[f64]) {
    let sub = DickeSubspace::new(n, k);
    for (coupling, fast) in [
        (XYCoupling::Clique, Mixer::clique(n, k)),
        (XYCoupling::Ring, Mixer::ring(n, k)),
    ] {
        let h = build_xy_hamiltonian(&sub, coupling);
        let dense = Mixer::Subspace(SubspaceMixer::from_hamiltonian("dense", &h));
        let dim = fast.dim();
        assert_eq!(dim, dense.dim());
        let mut scratch = vec![Complex64::ZERO; dim];
        type Apply = fn(&Mixer, f64, &mut [Complex64], &mut [Complex64]);
        let ops: [(&str, Apply); 3] = [
            ("evolution", |m, b, s, w| m.apply_evolution(b, s, w)),
            ("inverse", |m, b, s, w| m.apply_inverse_evolution(b, s, w)),
            ("hamiltonian", |m, _, s, w| m.apply_hamiltonian(s, w)),
        ];
        for (s, &beta) in betas.iter().enumerate() {
            let psi = generic_state(dim, s as f64);
            let tol = 1e-12 * beta.abs().max(1.0) * vector::norm(&psi);
            for (op, apply) in ops {
                let mut got = psi.clone();
                apply(&fast, beta, &mut got, &mut scratch);
                let mut want = psi.clone();
                apply(&dense, beta, &mut want, &mut scratch);
                let err = vector::max_abs_diff(&got, &want);
                assert!(err <= tol, "{} {op} β = {beta}: |Δ| = {err:e}", fast.name());
            }
        }
    }
}

#[test]
fn matrix_free_mixers_match_the_dense_reference_up_to_ten_qubits() {
    for n in 1..=10 {
        for k in 0..=n {
            check(n, k, &BETAS);
        }
    }
}

#[test]
fn matrix_free_mixers_match_the_dense_reference_at_twelve_qubits() {
    check(12, 6, &BETAS);
}

#[test]
fn large_angles_match_the_dense_reference() {
    // Angles an optimizer's line search reaches; neither evolution's cost grows with β.
    for (n, k) in [(7, 3), (8, 4), (10, 5)] {
        check(n, k, &[44.49, -160_783.82, 250_208.11]);
    }
}
