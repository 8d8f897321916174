//! The `xy_matvecs` kernel counter: one tick per sparse XY `H·v`.
//!
//! Kept as the only test in its binary, so no concurrently running test can tick the
//! process-global counter inside the measured windows.

use juliqaoa_linalg::{vector, Complex64};
use juliqaoa_mixers::Mixer;
use juliqaoa_telemetry::kernels::KERNELS;

fn generic_state(dim: usize) -> Vec<Complex64> {
    let mut v: Vec<Complex64> = (0..dim)
        .map(|i| Complex64::new((i as f64 * 0.53).sin(), (i as f64 * 0.19).cos()))
        .collect();
    vector::normalize(&mut v);
    v
}

/// Clique evolution, Ring evolution, then `H·ψ`; returns the final state and, when
/// `observe` is set, the counter delta of each of the three calls.
fn run(observe: bool) -> (Vec<Complex64>, Option<[u64; 3]>) {
    let clique = Mixer::clique(12, 6);
    let ring = Mixer::ring(12, 6);
    let mut state = generic_state(clique.dim());
    let mut scratch = vec![Complex64::ZERO; clique.dim()];
    let mut deltas = [0; 3];
    let mut tick = |i: usize, f: &mut dyn FnMut()| {
        let before = observe.then(|| KERNELS.xy_matvecs.get());
        f();
        if let Some(before) = before {
            deltas[i] = KERNELS.xy_matvecs.get() - before;
        }
    };
    tick(0, &mut || {
        clique.apply_evolution(0.7, &mut state, &mut scratch)
    });
    tick(1, &mut || {
        ring.apply_evolution(-1.3, &mut state, &mut scratch)
    });
    tick(2, &mut || {
        clique.apply_hamiltonian(&mut state, &mut scratch)
    });
    (state, observe.then_some(deltas))
}

#[test]
fn xy_matvec_counter_ticks_once_per_sparse_product_and_never_changes_results() {
    let (observed, deltas) = run(true);
    let [clique, ring, hamiltonian] = deltas.expect("observed run records deltas");
    // Lanczos breaks down after at most min(k, n−k) + 1 = 7 mat-vecs.
    assert!(
        (1..=7).contains(&clique),
        "clique apply used {clique} mat-vecs"
    );
    // Ring evolution is free-fermion Givens rotations, not mat-vecs.
    assert_eq!(ring, 0);
    assert_eq!(hamiltonian, 1);

    let (unobserved, _) = run(false);
    for (a, b) in observed.iter().zip(&unobserved) {
        assert_eq!(a.re.to_bits(), b.re.to_bits());
        assert_eq!(a.im.to_bits(), b.im.to_bits());
    }
}
