//! Mixer Hamiltonians and how each applies its time evolution.
//!
//! The second box of the paper's Figure 1: every mixer is prepared so that its time
//! evolution `e^{-iβ H_M}` costs no matrix exponentials at simulation time.
//!
//! * [`pauli_x::PauliXMixer`] — any sum of products of Pauli-X operators (transverse
//!   field, higher-order X strings).  Diagonalised analytically by `H^{⊗n}` (Eq. 2), so
//!   evolution is two Walsh–Hadamard transforms plus a phase multiplication.
//! * [`grover::GroverMixer`] — `|ψ₀⟩⟨ψ₀|` over the feasible set.  Evolution is a rank-1
//!   update costing one pass over the state.
//! * [`xy::SubspaceMixer`] — Clique and Ring XY mixers restricted to the weight-k Dicke
//!   subspace, stored matrix-free as a sparse hop pattern (building one takes
//!   milliseconds).  Clique evolution is a Lanczos exp-multiply that terminates after
//!   at most `min(k, n−k) + 1` sparse mat-vecs; Ring evolution is exact free-fermion
//!   evolution (module `fermion`), `n(n−1)/2` Givens rotations of the Dicke state.
//! * [`custom::CustomMixer`] — any user-supplied real-symmetric Hamiltonian on the
//!   feasible subspace, eigendecomposed once (`V D Vᵀ`) and applied as two dense
//!   mat-vecs.
//! * [`mixer::Mixer`] — the enum the simulator consumes, with uniform `apply_evolution`
//!   / `apply_hamiltonian` entry points.

pub mod custom;
mod fermion;
pub mod grover;
pub mod mixer;
pub mod pauli_x;
pub mod xy;

pub use custom::CustomMixer;
pub use grover::GroverMixer;
pub use mixer::Mixer;
pub use pauli_x::PauliXMixer;
pub use xy::{clique_mixer, ring_mixer, SubspaceMixer, XYCoupling};
