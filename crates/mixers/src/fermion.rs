//! Exact Ring-mixer evolution through the Jordan–Wigner map.
//!
//! With `c_i = (Π_{j<i} Z_j)·σ⁻_i`, nearest-neighbour hops are fermion hops,
//! `σ⁺_iσ⁻_{i+1} = c†_i c_{i+1}`, and the wrap-around bond picks up the parity of the
//! qubits between its ends: on the weight-k subspace
//! `σ⁺_{n−1}σ⁻_0 = (−1)^{k−1}·c†_{n−1}c_0`.  The Ring mixer is therefore the free-fermion
//! Hamiltonian `Σ_ij A_ij c†_i c_j` with `A` the `n×n` ring adjacency (entries 2, wrap
//! bond twisted by `(−1)^{k−1}`), and `e^{-iβH}` is the fermionic Gaussian unitary of
//! the single-particle propagator `U = e^{-iβA}`.
//!
//! `A` is diagonalised by plane waves `e^{iθj}/√n` with `e^{iθn} = (−1)^{k−1}`, so `U`
//! has a closed form.  `U` is factored into `n(n−1)/2` nearest-neighbour Givens
//! rotations and a diagonal phase; a rotation `g` on modes `(p, p+1)` acts on the Dicke
//! state by mixing each amplitude pair (`p` occupied, `p+1` empty) ↔ (`p` empty, `p+1`
//! occupied) with `g` and multiplying amplitudes with both occupied by `det g`.  Adjacent
//! modes carry no Jordan–Wigner sign, and the basis state `|x⟩` equals
//! `c†_{i₁}⋯c†_{i_k}|0⟩` (ascending modes) exactly.  One evolution costs `O(n²·C(n,k))`
//! whatever β, with no tolerance: the result is exact up to rounding.

use juliqaoa_combinatorics::DickeSubspace;
use juliqaoa_linalg::Complex64;
use std::f64::consts::PI;

/// The Ring mixer on the weight-k subspace as free fermions.
#[derive(Clone, Debug)]
pub(crate) struct RingFermions {
    n: usize,
    /// Momentum offset `φ` of the plane waves: 0 when the wrap-around bond has sign
    /// `(−1)^{k−1} = +1` (odd k), ½ when it is −1 (even k).
    phi: f64,
    /// The basis states in Dicke-rank order (for the diagonal phase).
    states: Vec<u64>,
    /// For each adjacent mode pair `(p, p+1)`: the Dicke-rank pairs (`p` occupied,
    /// `p+1` empty) and (`p` empty, `p+1` occupied) that a rotation mixes.
    hops: Vec<Vec<(u32, u32)>>,
    /// For each `(p, p+1)`: the Dicke ranks with both modes occupied.
    both: Vec<Vec<u32>>,
}

impl RingFermions {
    pub(crate) fn new(subspace: &DickeSubspace) -> Self {
        let (n, k) = (subspace.n(), subspace.k());
        let mut hops = vec![Vec::new(); n.saturating_sub(1)];
        let mut both = vec![Vec::new(); n.saturating_sub(1)];
        for (a, x) in subspace.iter() {
            for p in 0..n.saturating_sub(1) {
                match ((x >> p) & 1, (x >> (p + 1)) & 1) {
                    (1, 0) => {
                        let b = subspace.index_of(x ^ (0b11 << p));
                        hops[p].push((a as u32, b as u32));
                    }
                    (1, 1) => both[p].push(a as u32),
                    _ => {}
                }
            }
        }
        RingFermions {
            n,
            phi: if k % 2 == 1 { 0.0 } else { 0.5 },
            states: subspace.states().to_vec(),
            hops,
            both,
        }
    }

    /// `ψ ← e^{-iβH}·ψ`.
    pub(crate) fn apply_evolution(&self, beta: f64, state: &mut [Complex64]) {
        let n = self.n;
        let mut w = self.propagator(beta);
        // Eliminate below the diagonal bottom-up with rotations on rows (p, p+1):
        // G_m⋯G_1·U = D, so U = G_1†⋯G_m†·D, applied right to left.
        let mut rotations = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for col in 0..n {
            for row in (col + 1..n).rev() {
                let (a, b) = (w[(row - 1) * n + col], w[row * n + col]);
                if b.norm_sqr() == 0.0 {
                    continue;
                }
                let r = (a.norm_sqr() + b.norm_sqr()).sqrt();
                // g·(a, b)ᵀ = (r, 0)ᵀ with g = [[ā, b̄], [−b, a]] / r.
                let g = [
                    a.conj().scale(1.0 / r),
                    b.conj().scale(1.0 / r),
                    (-b).scale(1.0 / r),
                    a.scale(1.0 / r),
                ];
                for c in 0..n {
                    let (u, v) = (w[(row - 1) * n + c], w[row * n + c]);
                    w[(row - 1) * n + c] = g[0] * u + g[1] * v;
                    w[row * n + c] = g[2] * u + g[3] * v;
                }
                rotations.push((row - 1, g));
            }
        }
        // Γ(D): each occupied mode contributes its phase.
        for (z, &x) in state.iter_mut().zip(&self.states) {
            let mut phase = Complex64::ONE;
            let mut bits = x;
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                phase *= w[i * n + i];
                bits &= bits - 1;
            }
            *z *= phase;
        }
        // Γ(g†) for the recorded rotations, last first.
        for &(p, g) in rotations.iter().rev() {
            let h = [g[0].conj(), g[2].conj(), g[1].conj(), g[3].conj()];
            for &(a, b) in &self.hops[p] {
                let (u, v) = (state[a as usize], state[b as usize]);
                state[a as usize] = h[0] * u + h[1] * v;
                state[b as usize] = h[2] * u + h[3] * v;
            }
            let det = h[0] * h[3] - h[1] * h[2];
            for &a in &self.both[p] {
                state[a as usize] *= det;
            }
        }
    }

    /// `U = e^{-iβA}`, row-major `n×n`.
    fn propagator(&self, beta: f64) -> Vec<Complex64> {
        let n = self.n;
        match n {
            0 => Vec::new(),
            1 => vec![Complex64::ONE],
            // A single bond: A = 2X.
            2 => {
                let (c, s) = ((2.0 * beta).cos(), (2.0 * beta).sin());
                let (d, o) = (Complex64::from_real(c), Complex64::new(0.0, -s));
                vec![d, o, o, d]
            }
            _ => {
                // U_ij = (1/n)·Σ_m e^{iθ_m(i−j)}·e^{−4iβ·cos θ_m}, θ_m = 2π(m + φ)/n.
                let thetas: Vec<f64> = (0..n)
                    .map(|m| 2.0 * PI * (m as f64 + self.phi) / n as f64)
                    .collect();
                let weights: Vec<Complex64> = thetas
                    .iter()
                    .map(|t| Complex64::cis(-4.0 * beta * t.cos()))
                    .collect();
                // The entry depends on i − j only; tabulate the 2n − 1 differences.
                let by_offset: Vec<Complex64> = (0..2 * n - 1)
                    .map(|o| {
                        let delta = o as f64 - (n - 1) as f64;
                        let mut acc = Complex64::ZERO;
                        for (t, &wt) in thetas.iter().zip(&weights) {
                            acc += Complex64::cis(t * delta) * wt;
                        }
                        acc.scale(1.0 / n as f64)
                    })
                    .collect();
                let mut u = vec![Complex64::ZERO; n * n];
                for i in 0..n {
                    for j in 0..n {
                        u[i * n + j] = by_offset[i + n - 1 - j];
                    }
                }
                u
            }
        }
    }
}
