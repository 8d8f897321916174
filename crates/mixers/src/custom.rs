//! Custom user-supplied mixers.
//!
//! "Any mixer that is not of the above formats … can be implemented as a unitary matrix,
//! and JuliQAOA will compute and store the eigendecomposition."  We reproduce that for
//! mixers given as real symmetric Hamiltonians on the feasible subspace (which covers
//! every Hamiltonian whose matrix elements are real in the computational basis — XY
//! models, hypercube mixers, weighted hop mixers, …).  Complex Hermitian input can be
//! handled by the caller through its real representation; see DESIGN.md.

use crate::xy::SubspaceMixer;
use juliqaoa_linalg::RealMatrix;

/// A user-defined mixer built from an arbitrary real symmetric Hamiltonian.
pub struct CustomMixer;

impl CustomMixer {
    /// Eigendecomposes the Hamiltonian and returns a ready-to-apply [`SubspaceMixer`].
    ///
    /// # Panics
    /// Panics if the matrix is not square or not symmetric to within `1e-9`.
    pub fn from_symmetric(name: impl Into<String>, hamiltonian: &RealMatrix) -> SubspaceMixer {
        SubspaceMixer::from_hamiltonian(name, hamiltonian)
    }

    /// Builds a mixer from an explicit list of weighted transitions
    /// `(state_a, state_b, amplitude)` between feasible-subspace indices.  The
    /// Hamiltonian is symmetrised automatically (`H[a][b] = H[b][a] = amplitude`).
    pub fn from_transitions(
        name: impl Into<String>,
        dim: usize,
        transitions: &[(usize, usize, f64)],
    ) -> SubspaceMixer {
        let mut h = RealMatrix::zeros(dim, dim);
        for &(a, b, w) in transitions {
            assert!(a < dim && b < dim, "transition index out of range");
            h[(a, b)] = w;
            h[(b, a)] = w;
        }
        SubspaceMixer::from_hamiltonian(name, &h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use juliqaoa_linalg::{vector, Complex64};

    #[test]
    fn custom_symmetric_mixer_round_trips() {
        let h = RealMatrix::from_fn(4, 4, |i, j| if i == j { 0.0 } else { 1.0 });
        let mixer = CustomMixer::from_symmetric("complete-hop", &h);
        assert_eq!(mixer.dim(), 4);
        // Eigenvalues of J - I on 4 nodes: {-1, -1, -1, 3}.
        assert!((mixer.eigenvalues()[3] - 3.0).abs() < 1e-10);
        assert!((mixer.eigenvalues()[0] + 1.0).abs() < 1e-10);
    }

    #[test]
    fn transitions_builder_symmetrises() {
        let mixer = CustomMixer::from_transitions("pair-hop", 3, &[(0, 1, 1.5), (1, 2, 0.5)]);
        assert_eq!(mixer.dim(), 3);
        // Evolution should be unitary.
        let mut state = vec![
            Complex64::new(0.6, 0.0),
            Complex64::new(0.0, 0.8),
            Complex64::ZERO,
        ];
        let mut scratch = vec![Complex64::ZERO; 3];
        mixer.apply_evolution(0.4, &mut state, &mut scratch);
        assert!((vector::norm(&state) - 1.0).abs() < 1e-10);
    }

    #[test]
    #[should_panic]
    fn asymmetric_hamiltonian_panics() {
        let mut h = RealMatrix::zeros(3, 3);
        h[(0, 1)] = 1.0; // no mirror entry
        let _ = CustomMixer::from_symmetric("bad", &h);
    }

    #[test]
    #[should_panic]
    fn out_of_range_transition_panics() {
        let _ = CustomMixer::from_transitions("bad", 2, &[(0, 5, 1.0)]);
    }
}
