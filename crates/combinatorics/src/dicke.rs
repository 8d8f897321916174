//! The Dicke (fixed Hamming weight) subspace.
//!
//! A [`DickeSubspace`] represents the set of all `n`-qubit computational basis states
//! with Hamming weight `k` — the feasible set of Hamming-weight-constrained problems and
//! the support of the Dicke state `|D^n_k⟩` the constrained QAOA starts in.  It owns the
//! enumeration of those states and the bidirectional map between basis states and dense
//! indices `0..C(n,k)` used by the constrained simulator and mixer builders.

use crate::binomial::binomial;
use crate::gosper::GosperIter;

/// The subspace of `n`-bit strings with Hamming weight `k`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DickeSubspace {
    n: usize,
    k: usize,
    /// All basis states in increasing numeric order; `states[i]` is the state with
    /// dense index `i`.
    states: Vec<u64>,
    /// `C(p, i)` at `p·(k+1) + i` for `p < n`, `i ≤ k`: the ranking terms, so
    /// [`DickeSubspace::index_of`] costs `k` table reads.
    choose: Vec<u64>,
}

impl DickeSubspace {
    /// Enumerates the subspace.  Requires `k ≤ n ≤ 63`.
    ///
    /// # Panics
    /// Panics if `k > n`, or if the subspace dimension would not fit in memory-relevant
    /// bounds (`C(n,k)` must fit in a `usize`).
    pub fn new(n: usize, k: usize) -> Self {
        assert!(k <= n, "Hamming weight k={k} exceeds qubit count n={n}");
        assert!(n <= 63, "DickeSubspace supports at most 63 qubits");
        let dim = binomial(n, k);
        let states: Vec<u64> = GosperIter::new(n, k).collect();
        debug_assert_eq!(states.len() as u64, dim);
        let choose = (0..n)
            .flat_map(|p| (0..=k).map(move |i| binomial(p, i)))
            .collect();
        DickeSubspace {
            n,
            k,
            states,
            choose,
        }
    }

    /// Number of qubits.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Hamming weight of every state in the subspace.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Dimension `C(n,k)` of the subspace.
    #[inline]
    pub fn dim(&self) -> usize {
        self.states.len()
    }

    /// The basis states in index order.
    #[inline]
    pub fn states(&self) -> &[u64] {
        &self.states
    }

    /// The basis state at dense index `i`.
    #[inline]
    pub fn state_at(&self, i: usize) -> u64 {
        self.states[i]
    }

    /// The dense index of a basis state, computed via the combinatorial number system.
    ///
    /// # Panics
    /// In debug builds, panics if the state does not belong to the subspace.
    #[inline]
    pub fn index_of(&self, state: u64) -> usize {
        debug_assert_eq!(
            state.count_ones() as usize,
            self.k,
            "state {state:b} does not have Hamming weight {}",
            self.k
        );
        debug_assert!(state < (1u64 << self.n));
        // The combinatorial number system of `rank_combination`, from the table.
        let mut rank = 0;
        let mut rest = state;
        for i in 1..=self.k {
            let pos = rest.trailing_zeros() as usize;
            rank += self.choose[pos * (self.k + 1) + i];
            rest &= rest - 1;
        }
        rank as usize
    }

    /// Whether a basis state belongs to this subspace.
    #[inline]
    pub fn contains(&self, state: u64) -> bool {
        state < (1u64 << self.n) && state.count_ones() as usize == self.k
    }

    /// Iterates over `(dense index, basis state)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.states.iter().copied().enumerate()
    }

    /// All states reachable from `state` by moving a single 1 to a 0 position, together
    /// with the (source, destination) qubit pair.  These are exactly the transitions
    /// generated by XY-model mixers (Clique/Ring), which hop excitations between qubits.
    pub fn single_hop_neighbors(&self, state: u64) -> Vec<(u64, usize, usize)> {
        let mut out = Vec::new();
        for src in 0..self.n {
            if (state >> src) & 1 == 0 {
                continue;
            }
            for dst in 0..self.n {
                if (state >> dst) & 1 == 1 {
                    continue;
                }
                let neighbor = (state & !(1u64 << src)) | (1u64 << dst);
                out.push((neighbor, src, dst));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranking::rank_combination;

    #[test]
    fn dimension_matches_binomial() {
        for (n, k) in [(6, 3), (8, 4), (12, 6), (10, 0), (10, 10)] {
            let s = DickeSubspace::new(n, k);
            assert_eq!(s.dim() as u64, binomial(n, k));
            assert_eq!(s.n(), n);
            assert_eq!(s.k(), k);
        }
    }

    #[test]
    fn index_of_inverts_state_at() {
        for (n, k) in [(10, 4), (1, 0), (1, 1), (7, 7), (12, 6)] {
            let s = DickeSubspace::new(n, k);
            for (i, state) in s.iter() {
                assert_eq!(s.index_of(state), i);
                assert_eq!(s.index_of(state) as u64, rank_combination(state));
                assert_eq!(s.state_at(i), state);
            }
        }
    }

    #[test]
    fn contains_rejects_wrong_weight_and_range() {
        let s = DickeSubspace::new(6, 3);
        assert!(s.contains(0b000111));
        assert!(!s.contains(0b000011));
        assert!(!s.contains(0b1000111)); // 7th bit set → out of range
    }

    #[test]
    fn states_sorted_and_unique() {
        let s = DickeSubspace::new(9, 5);
        for w in s.states().windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn single_hop_neighbors_have_correct_weight_and_count() {
        let s = DickeSubspace::new(6, 2);
        let state = 0b000011u64;
        let neighbors = s.single_hop_neighbors(state);
        // 2 ones × 4 zeros = 8 hops.
        assert_eq!(neighbors.len(), 2 * 4);
        for (nb, src, dst) in neighbors {
            assert!(s.contains(nb));
            assert_eq!((state >> src) & 1, 1);
            assert_eq!((state >> dst) & 1, 0);
            assert_eq!(crate::bits::hamming_distance(state, nb), 2);
        }
    }

    #[test]
    fn hop_neighbors_of_extremes() {
        let s = DickeSubspace::new(5, 0);
        assert!(s.single_hop_neighbors(0).is_empty());
        let s = DickeSubspace::new(5, 5);
        assert!(s.single_hop_neighbors(0b11111).is_empty());
    }

    #[test]
    #[should_panic]
    fn k_greater_than_n_panics() {
        let _ = DickeSubspace::new(4, 5);
    }
}
