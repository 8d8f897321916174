//! XY-model mixers (Clique and Ring) restricted to the Dicke subspace.
//!
//! The Clique mixer `Σ_{i<j} (X_iX_j + Y_iY_j)` and the Ring mixer
//! `Σ_i (X_iX_{i+1} + Y_iY_{i+1})` conserve Hamming weight, so for weight-k constrained
//! problems they never become `2ⁿ×2ⁿ` operators.  They do not become dense
//! `C(n,k)×C(n,k)` matrices either: the Hamiltonian is stored matrix-free, as the
//! sparsity pattern (CSR column indices over Dicke ranks) of its single-hop
//! transitions.  Every nonzero entry equals 2, so no values are stored.
//!
//! * `apply_hamiltonian` is one sparse mat-vec.
//! * **Clique** evolution runs Lanczos with full reorthogonalisation until breakdown,
//!   then exponentiates the small tridiagonal.  On the weight-k subspace
//!   `H = 2(S⁺S⁻ − k)` has `min(k, n−k) + 1` distinct eigenvalues, so the Krylov space
//!   is exhausted after at most that many mat-vecs, whatever β.
//! * **Ring** evolution is exact free-fermion evolution (see `fermion.rs`): under the
//!   Jordan–Wigner map the Ring mixer is a hopping Hamiltonian on `n` modes, so
//!   `e^{-iβH}` is `n(n−1)/2` nearest-neighbour Givens rotations of the Dicke state,
//!   whatever β.  A polynomial (Chebyshev) expansion would need a degree growing with
//!   `|β|·‖H‖`, and optimizer line searches reach `|β| ~ 1e5`.
//!
//! The algorithm follows from the coupling; there is no setting.  Custom mixers
//! ([`crate::CustomMixer`]) keep the dense eigendecomposition `V·e^{-iβD}·Vᵀ`.  An XY
//! mixer computes its eigenpairs only when [`SubspaceMixer::eigenvalues`] or
//! [`SubspaceMixer::eigenvectors`] is called; evolution never does.
//!
//! Sparse mat-vecs are row-parallel above the kernel parallelism threshold (rows are
//! independent, so the result is bit-identical); every reduction runs serially in a
//! fixed order, so results are pure functions of `(n, k, coupling, β, ψ)`.

use crate::fermion::RingFermions;
use juliqaoa_combinatorics::DickeSubspace;
use juliqaoa_linalg::{
    parallel_kernels_enabled, symmetric_eigen, tridiagonal_eigen, vector, Complex64, RealMatrix,
    SymmetricEigen,
};
use juliqaoa_telemetry::kernels::KERNELS;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::OnceLock;

/// A Lanczos step whose residual norm is at most this fraction of `‖H‖` has exhausted
/// the Krylov space: its residual is rounding noise, measured at about 2e-16 of `‖H‖`.
/// Stopping on a genuine residual this small would cost at most
/// `LANCZOS_BREAKDOWN · ‖H‖ · |β| · ‖ψ‖`.
const LANCZOS_BREAKDOWN: f64 = 1e-12;

/// Which pairs of qubits the XY coupling acts on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum XYCoupling {
    /// All pairs `i < j` (the "Clique" or complete-graph mixer).
    Clique,
    /// Cyclically adjacent pairs `(i, i+1 mod n)` (the "Ring" mixer).
    Ring,
}

impl XYCoupling {
    /// The list of coupled qubit pairs for `n` qubits.
    pub fn pairs(&self, n: usize) -> Vec<(usize, usize)> {
        match self {
            XYCoupling::Clique => {
                let mut v = Vec::with_capacity(n * (n - 1) / 2);
                for i in 0..n {
                    for j in (i + 1)..n {
                        v.push((i, j));
                    }
                }
                v
            }
            XYCoupling::Ring => {
                if n < 2 {
                    return Vec::new();
                }
                if n == 2 {
                    return vec![(0, 1)];
                }
                (0..n).map(|i| (i, (i + 1) % n)).collect()
            }
        }
    }
}

/// A mixer acting on a feasible subspace.
///
/// Built either from an XY coupling ([`clique_mixer`], [`ring_mixer`]), applied
/// matrix-free, or from a custom Hermitian matrix ([`crate::CustomMixer`]), applied
/// through its dense eigendecomposition.
#[derive(Clone, Debug)]
pub struct SubspaceMixer {
    name: String,
    op: Operator,
}

#[derive(Clone, Debug)]
enum Operator {
    /// `H = V·diag(λ)·Vᵀ`, columns of `V` are eigenvectors.
    Dense(SymmetricEigen),
    Xy(XyHamiltonian),
}

/// The XY Hamiltonian on the weight-k subspace in CSR form: row `a` has the entry 2 in
/// every column of `cols[row_start[a]..row_start[a + 1]]`.
#[derive(Clone, Debug)]
struct XyHamiltonian {
    row_start: Vec<usize>,
    cols: Vec<u32>,
    evolution: Evolution,
    /// Dense eigenpairs, computed on the first `eigenvalues()`/`eigenvectors()` call.
    eigen: OnceLock<SymmetricEigen>,
}

/// How `e^{-iβH}` is applied, fixed by the coupling.
#[derive(Clone, Debug)]
enum Evolution {
    /// Clique: Lanczos until the residual drops to `breakdown`, at most `krylov_cap`
    /// steps.
    Lanczos { krylov_cap: usize, breakdown: f64 },
    /// Ring: exact free-fermion evolution.
    FreeFermion(RingFermions),
}

thread_local! {
    /// Per-thread Lanczos basis, reused so rounds do not allocate statevectors.
    static KRYLOV_BASIS: RefCell<Vec<Complex64>> = const { RefCell::new(Vec::new()) };
}

impl SubspaceMixer {
    /// Builds the mixer by eigendecomposing a real symmetric Hamiltonian defined on the
    /// feasible subspace.  This is the "costly but done once" pre-computation.
    ///
    /// # Panics
    /// Panics if the matrix is not square/symmetric.
    pub fn from_hamiltonian(name: impl Into<String>, hamiltonian: &RealMatrix) -> Self {
        assert!(
            hamiltonian.is_symmetric(1e-9),
            "subspace mixer Hamiltonians must be real symmetric"
        );
        SubspaceMixer {
            name: name.into(),
            op: Operator::Dense(symmetric_eigen(hamiltonian)),
        }
    }

    fn xy(name: String, n: usize, k: usize, coupling: XYCoupling) -> Self {
        SubspaceMixer {
            name,
            op: Operator::Xy(XyHamiltonian::new(&DickeSubspace::new(n, k), coupling)),
        }
    }

    /// Mixer name (e.g. `"clique(6,3)"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Dimension of the feasible subspace the mixer acts on.
    pub fn dim(&self) -> usize {
        match &self.op {
            Operator::Dense(eig) => eig.dim(),
            Operator::Xy(h) => h.dim(),
        }
    }

    /// The eigenvalues of the mixer Hamiltonian, ascending.  For XY mixers the first
    /// call runs a dense `O(d³)` eigendecomposition.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigen().eigenvalues
    }

    /// The orthogonal eigenvector matrix `V` (columns are eigenvectors).  For XY mixers
    /// the first call runs a dense `O(d³)` eigendecomposition.
    pub fn eigenvectors(&self) -> &RealMatrix {
        &self.eigen().eigenvectors
    }

    fn eigen(&self) -> &SymmetricEigen {
        match &self.op {
            Operator::Dense(eig) => eig,
            Operator::Xy(h) => h.eigen.get_or_init(|| symmetric_eigen(&h.to_dense())),
        }
    }

    /// Applies `e^{-iβ H_M}` to the state, using `scratch` as workspace.
    ///
    /// # Panics
    /// Panics if `state` or `scratch` do not match the mixer dimension.
    pub fn apply_evolution(&self, beta: f64, state: &mut [Complex64], scratch: &mut [Complex64]) {
        assert_eq!(state.len(), self.dim(), "state dimension mismatch");
        assert_eq!(scratch.len(), self.dim(), "scratch dimension mismatch");
        match &self.op {
            Operator::Dense(eig) => {
                // scratch ← Vᵀ ψ;  scratch ← e^{-iβD}·scratch;  ψ ← V·scratch
                eig.eigenvectors.matvec_transpose_complex(state, scratch);
                vector::apply_phases(scratch, &eig.eigenvalues, beta);
                eig.eigenvectors.matvec_complex(scratch, state);
            }
            Operator::Xy(h) => match &h.evolution {
                &Evolution::Lanczos {
                    krylov_cap,
                    breakdown,
                } => KRYLOV_BASIS.with(|basis| {
                    let basis = &mut basis.borrow_mut();
                    h.lanczos_evolution(beta, state, scratch, krylov_cap, breakdown, basis);
                }),
                Evolution::FreeFermion(fermions) => fermions.apply_evolution(beta, state),
            },
        }
    }

    /// Applies the Hamiltonian itself, `ψ ← H_M·ψ` (for gradient sweeps).
    pub fn apply_hamiltonian(&self, state: &mut [Complex64], scratch: &mut [Complex64]) {
        assert_eq!(state.len(), self.dim());
        assert_eq!(scratch.len(), self.dim());
        match &self.op {
            Operator::Dense(eig) => {
                eig.eigenvectors.matvec_transpose_complex(state, scratch);
                for (z, &lambda) in scratch.iter_mut().zip(eig.eigenvalues.iter()) {
                    *z = z.scale(lambda);
                }
                eig.eigenvectors.matvec_complex(scratch, state);
            }
            Operator::Xy(h) => {
                h.matvec(state, scratch);
                state.copy_from_slice(scratch);
            }
        }
    }
}

impl XyHamiltonian {
    fn new(subspace: &DickeSubspace, coupling: XYCoupling) -> Self {
        let (n, k, dim) = (subspace.n(), subspace.k(), subspace.dim());
        assert!(dim < u32::MAX as usize, "XY mixer subspace too large");
        let pairs = coupling.pairs(n);
        let mut row_start = Vec::with_capacity(dim + 1);
        let mut cols = Vec::with_capacity(dim * pairs.len().min(k * (n - k)));
        row_start.push(0);
        for (_, state) in subspace.iter() {
            let start = cols.len();
            for &(i, j) in &pairs {
                if (state >> i) & 1 != (state >> j) & 1 {
                    let hopped = state ^ ((1u64 << i) | (1u64 << j));
                    cols.push(subspace.index_of(hopped) as u32);
                }
            }
            cols[start..].sort_unstable();
            row_start.push(cols.len());
        }
        let evolution = match coupling {
            // H = 2(S⁺S⁻ − k) has min(k, n−k) + 1 distinct eigenvalues, so exact
            // arithmetic breaks down by then; twice that only bounds memory should
            // rounding hide the breakdown (later steps couple to the tridiagonal at
            // rounding size and leave the result unchanged).
            // Every row has k(n−k) entries of 2, so ‖H‖ = 2k(n−k) scales the breakdown.
            XYCoupling::Clique => Evolution::Lanczos {
                krylov_cap: (2 * (k.min(n - k) + 1)).min(dim),
                breakdown: LANCZOS_BREAKDOWN * (2 * k * (n - k)) as f64,
            },
            XYCoupling::Ring => Evolution::FreeFermion(RingFermions::new(subspace)),
        };
        XyHamiltonian {
            row_start,
            cols,
            evolution,
            eigen: OnceLock::new(),
        }
    }

    fn dim(&self) -> usize {
        self.row_start.len() - 1
    }

    /// `out ← H·x`.
    fn matvec(&self, x: &[Complex64], out: &mut [Complex64]) {
        KERNELS.xy_matvecs.inc();
        let row = |(a, o): (usize, &mut Complex64)| {
            let mut acc = Complex64::ZERO;
            for &b in &self.cols[self.row_start[a]..self.row_start[a + 1]] {
                acc += x[b as usize];
            }
            *o = acc.scale(2.0);
        };
        if parallel_kernels_enabled(self.cols.len()) {
            out.par_iter_mut().enumerate().for_each(row);
        } else {
            out.iter_mut().enumerate().for_each(row);
        }
    }

    /// `ψ ← e^{-iβH}·ψ` by Lanczos with full reorthogonalisation, run until the
    /// residual norm is at most `breakdown` (at most `krylov_cap` steps) with the Krylov
    /// basis kept in `basis`.  Once the Krylov space is exhausted the result is exact
    /// for every β.  Returns the Krylov dimension (the number of mat-vecs).
    fn lanczos_evolution(
        &self,
        beta: f64,
        state: &mut [Complex64],
        w: &mut [Complex64],
        krylov_cap: usize,
        breakdown: f64,
        basis: &mut Vec<Complex64>,
    ) -> usize {
        let d = state.len();
        let norm = dot(state, state).re.sqrt();
        if beta == 0.0 || norm == 0.0 || !norm.is_finite() {
            return 0;
        }
        let (mut alpha, mut off): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
        basis.clear();
        basis.extend(state.iter().map(|z| z.scale(1.0 / norm)));
        loop {
            let j = alpha.len();
            let (done, v) = basis.split_at(j * d);
            self.matvec(v, w);
            let a = dot(v, w).re;
            alpha.push(a);
            // Three-term recurrence, then one full Gram–Schmidt pass against the basis.
            axpy(Complex64::from_real(-a), v, w);
            if let Some(&b) = off.last() {
                axpy(Complex64::from_real(-b), &done[(j - 1) * d..], w);
            }
            for q in basis.chunks_exact(d) {
                axpy(-dot(q, w), q, w);
            }
            let b = dot(w, w).re.sqrt();
            // A NaN residual (from a non-finite state) also ends the iteration.
            if b.is_nan() || b <= breakdown || j + 1 == krylov_cap {
                break;
            }
            off.push(b);
            basis.extend(w.iter().map(|z| z.scale(1.0 / b)));
        }
        // e^{-iβT}·e₁ from the tridiagonal's eigenpairs, then ψ ← ‖ψ‖·V·that.
        let eig = tridiagonal_eigen(&alpha, &off);
        let z = &eig.eigenvectors;
        let phases: Vec<Complex64> = (0..alpha.len())
            .map(|l| Complex64::cis(-beta * eig.eigenvalues[l]).scale(z[(0, l)] * norm))
            .collect();
        let coeffs: Vec<Complex64> = (0..alpha.len())
            .map(|i| {
                let mut c = Complex64::ZERO;
                for (l, &p) in phases.iter().enumerate() {
                    c += p.scale(z[(i, l)]);
                }
                c
            })
            .collect();
        for (x, out) in state.iter_mut().enumerate() {
            let mut acc = Complex64::ZERO;
            for (i, &c) in coeffs.iter().enumerate() {
                acc += c * basis[i * d + x];
            }
            *out = acc;
        }
        alpha.len()
    }

    /// The dense matrix, for the lazily computed eigenpairs.
    fn to_dense(&self) -> RealMatrix {
        let mut h = RealMatrix::zeros(self.dim(), self.dim());
        for a in 0..self.dim() {
            for &b in &self.cols[self.row_start[a]..self.row_start[a + 1]] {
                h[(a, b as usize)] = 2.0;
            }
        }
        h
    }
}

/// Serial Hermitian inner product `⟨a|b⟩` in index order.
fn dot(a: &[Complex64], b: &[Complex64]) -> Complex64 {
    let mut acc = Complex64::ZERO;
    for (x, y) in a.iter().zip(b) {
        acc += x.conj() * *y;
    }
    acc
}

/// `y += alpha·x`, serially.
fn axpy(alpha: Complex64, x: &[Complex64], y: &mut [Complex64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * *xi;
    }
}

/// Builds the XY mixer Hamiltonian as a dense real symmetric matrix on the weight-k
/// subspace.  `X_iX_j + Y_iY_j` contributes a matrix element `2` between any two
/// feasible states related by hopping a single excitation between qubits `i` and `j`.
///
/// This is the independent dense reference the matrix-free mixers are tested against.
pub fn build_xy_hamiltonian(subspace: &DickeSubspace, coupling: XYCoupling) -> RealMatrix {
    let dim = subspace.dim();
    let pairs = coupling.pairs(subspace.n());
    let mut h = RealMatrix::zeros(dim, dim);
    for (a, state) in subspace.iter() {
        for &(i, j) in &pairs {
            let bi = (state >> i) & 1;
            let bj = (state >> j) & 1;
            if bi == bj {
                continue;
            }
            let hopped = state ^ ((1u64 << i) | (1u64 << j));
            let b = subspace.index_of(hopped);
            h[(a, b)] += 2.0;
        }
    }
    h
}

/// The Clique mixer `Σ_{i<j} X_iX_j + Y_iY_j` on the weight-k subspace of `n` qubits,
/// ready to apply.  Matches `mixer_clique(n, k)` from Listing 2.
pub fn clique_mixer(n: usize, k: usize) -> SubspaceMixer {
    SubspaceMixer::xy(format!("clique({n},{k})"), n, k, XYCoupling::Clique)
}

/// The Ring mixer `Σ_i X_iX_{i+1} + Y_iY_{i+1}` (cyclic) on the weight-k subspace.
pub fn ring_mixer(n: usize, k: usize) -> SubspaceMixer {
    SubspaceMixer::xy(format!("ring({n},{k})"), n, k, XYCoupling::Ring)
}

#[cfg(test)]
mod tests {
    use super::*;
    use juliqaoa_linalg::vector::{fill_uniform, norm};

    fn xy_operator(mixer: &SubspaceMixer) -> &XyHamiltonian {
        match &mixer.op {
            Operator::Xy(h) => h,
            Operator::Dense(_) => panic!("{} is not matrix-free", mixer.name()),
        }
    }

    /// Runs the Clique Lanczos evolution and returns its Krylov dimension.
    fn krylov_dim(mixer: &SubspaceMixer, beta: f64, state: &mut [Complex64]) -> usize {
        let h = xy_operator(mixer);
        let Evolution::Lanczos {
            krylov_cap,
            breakdown,
        } = h.evolution
        else {
            panic!("{} does not use Lanczos", mixer.name());
        };
        let mut w = vec![Complex64::ZERO; mixer.dim()];
        h.lanczos_evolution(beta, state, &mut w, krylov_cap, breakdown, &mut Vec::new())
    }

    fn generic_state(dim: usize) -> Vec<Complex64> {
        let mut v: Vec<Complex64> = (0..dim)
            .map(|i| Complex64::new((i as f64 * 0.71).sin(), (i as f64 * 0.29 + 0.4).cos()))
            .collect();
        vector::normalize(&mut v);
        v
    }

    #[test]
    fn coupling_pair_counts() {
        assert_eq!(XYCoupling::Clique.pairs(6).len(), 15);
        assert_eq!(XYCoupling::Ring.pairs(6).len(), 6);
        assert_eq!(XYCoupling::Ring.pairs(2).len(), 1);
        assert_eq!(XYCoupling::Ring.pairs(1).len(), 0);
    }

    #[test]
    fn xy_hamiltonian_is_symmetric_with_zero_diagonal() {
        let sub = DickeSubspace::new(6, 3);
        for coupling in [XYCoupling::Clique, XYCoupling::Ring] {
            let h = build_xy_hamiltonian(&sub, coupling);
            assert!(h.is_symmetric(1e-12));
            for a in 0..sub.dim() {
                assert_eq!(h[(a, a)], 0.0);
            }
        }
    }

    #[test]
    fn clique_row_sums_equal_2k_times_n_minus_k() {
        // Every weight-k state has k·(n−k) hop neighbours under the Clique coupling, each
        // contributing 2, so every row sums to 2·k·(n−k).
        let n = 6;
        let k = 2;
        let sub = DickeSubspace::new(n, k);
        let h = build_xy_hamiltonian(&sub, XYCoupling::Clique);
        for a in 0..sub.dim() {
            let row_sum: f64 = (0..sub.dim()).map(|b| h[(a, b)]).sum();
            assert_eq!(row_sum, 2.0 * (k * (n - k)) as f64);
        }
        let sparse = xy_operator(&clique_mixer(n, k)).to_dense();
        assert_eq!(sparse.frobenius_diff(&h), 0.0);
    }

    #[test]
    fn dicke_state_is_clique_eigenvector() {
        // The uniform superposition over the subspace is the top eigenvector of the
        // Clique mixer with eigenvalue 2k(n−k).
        let n = 6;
        let k = 3;
        let mixer = clique_mixer(n, k);
        let top = *mixer.eigenvalues().last().expect("non-empty spectrum");
        assert!((top - 2.0 * (k * (n - k)) as f64).abs() < 1e-9);

        let mut state = vec![Complex64::ZERO; mixer.dim()];
        fill_uniform(&mut state);
        let mut scratch = vec![Complex64::ZERO; mixer.dim()];
        let mut evolved = state.clone();
        let beta = 0.63;
        mixer.apply_evolution(beta, &mut evolved, &mut scratch);
        // Should equal e^{-iβ·top}·state.
        let phase = Complex64::cis(-beta * top);
        for (a, b) in evolved.iter().zip(state.iter()) {
            assert!((*a - phase * *b).abs() < 1e-9);
        }
    }

    #[test]
    fn evolution_is_unitary_for_both_mixers() {
        for mixer in [clique_mixer(6, 3), ring_mixer(6, 3)] {
            let dim = mixer.dim();
            let mut state: Vec<Complex64> = (0..dim)
                .map(|i| Complex64::new((i as f64 * 0.31).sin(), (i as f64 * 0.17).cos()))
                .collect();
            vector::normalize(&mut state);
            let mut scratch = vec![Complex64::ZERO; dim];
            mixer.apply_evolution(1.234, &mut state, &mut scratch);
            assert!((norm(&state) - 1.0).abs() < 1e-9, "{}", mixer.name());
        }
    }

    #[test]
    fn zero_angle_evolution_is_identity() {
        let mixer = ring_mixer(5, 2);
        let dim = mixer.dim();
        let orig: Vec<Complex64> = (0..dim)
            .map(|i| Complex64::new(i as f64 * 0.2 - 0.5, 0.3 * i as f64))
            .collect();
        let mut state = orig.clone();
        let mut scratch = vec![Complex64::ZERO; dim];
        mixer.apply_evolution(0.0, &mut state, &mut scratch);
        for (a, b) in state.iter().zip(orig.iter()) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn apply_hamiltonian_matches_dense_matrix() {
        let n = 5;
        let k = 2;
        let sub = DickeSubspace::new(n, k);
        let h = build_xy_hamiltonian(&sub, XYCoupling::Ring);
        let dim = sub.dim();
        let state: Vec<Complex64> = (0..dim)
            .map(|i| Complex64::new(0.1 * i as f64, 1.0 - 0.05 * i as f64))
            .collect();
        // Dense reference: H·ψ.
        let mut expected = vec![Complex64::ZERO; dim];
        h.matvec_complex(&state, &mut expected);
        for mixer in [
            SubspaceMixer::from_hamiltonian("ring-test", &h),
            ring_mixer(n, k),
        ] {
            let mut got = state.clone();
            let mut scratch = vec![Complex64::ZERO; dim];
            mixer.apply_hamiltonian(&mut got, &mut scratch);
            for (a, b) in got.iter().zip(expected.iter()) {
                assert!((*a - *b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn hamming_weight_conservation_under_hops() {
        // Every nonzero off-diagonal entry connects two states of the same weight by
        // construction; verify indices map to weight-k states.
        let sub = DickeSubspace::new(6, 2);
        let h = build_xy_hamiltonian(&sub, XYCoupling::Clique);
        for a in 0..sub.dim() {
            for b in 0..sub.dim() {
                if h[(a, b)] != 0.0 {
                    assert_eq!(sub.state_at(a).count_ones(), 2);
                    assert_eq!(sub.state_at(b).count_ones(), 2);
                }
            }
        }
    }

    #[test]
    fn ring_is_sparser_than_clique() {
        let sub = DickeSubspace::new(7, 3);
        let clique = build_xy_hamiltonian(&sub, XYCoupling::Clique);
        let ring = build_xy_hamiltonian(&sub, XYCoupling::Ring);
        let nnz = |m: &RealMatrix| {
            let mut c = 0;
            for i in 0..m.nrows() {
                for j in 0..m.ncols() {
                    if m[(i, j)] != 0.0 {
                        c += 1;
                    }
                }
            }
            c
        };
        assert!(nnz(&ring) < nnz(&clique));
        assert_eq!(xy_operator(&ring_mixer(7, 3)).cols.len(), nnz(&ring));
        assert_eq!(xy_operator(&clique_mixer(7, 3)).cols.len(), nnz(&clique));
    }

    #[test]
    fn csr_sizes_at_twelve_qubits() {
        assert_eq!(xy_operator(&clique_mixer(12, 6)).cols.len(), 33_264);
        assert_eq!(xy_operator(&ring_mixer(12, 6)).cols.len(), 6_048);
    }

    #[test]
    fn clique_krylov_dimension_is_bounded_by_distinct_eigenvalues() {
        for (n, k) in [(6, 3), (8, 2), (8, 4), (9, 3), (12, 6)] {
            let mixer = clique_mixer(n, k);
            let bound = k.min(n - k) + 1;
            for beta in [0.3, 1.5, -4.5, 6.0, 2.5e5] {
                let mut state = generic_state(mixer.dim());
                let steps = krylov_dim(&mixer, beta, &mut state);
                // A generic state touches every eigenspace, so the bound is attained.
                assert_eq!(steps, bound, "clique({n},{k}) at β = {beta}");
            }
            // The Dicke state is an eigenvector: one step.
            let mut state = vec![Complex64::ZERO; mixer.dim()];
            fill_uniform(&mut state);
            assert_eq!(krylov_dim(&mixer, 0.8, &mut state), 1);
        }
    }

    #[test]
    fn lazy_eigenpairs_reconstruct_the_sparse_hamiltonian() {
        let mixer = ring_mixer(6, 3);
        let dense = build_xy_hamiltonian(&DickeSubspace::new(6, 3), XYCoupling::Ring);
        let v = mixer.eigenvectors();
        let rebuilt = RealMatrix::from_fn(mixer.dim(), mixer.dim(), |i, j| {
            (0..mixer.dim())
                .map(|l| v[(i, l)] * mixer.eigenvalues()[l] * v[(j, l)])
                .sum()
        });
        assert!(rebuilt.frobenius_diff(&dense) < 1e-10);
    }
}
