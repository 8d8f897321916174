//! Fast Walsh–Hadamard transforms (`H^{⊗n}`).
//!
//! Every Pauli-X product mixer Hamiltonian `f(X_i)` is diagonalised by the uniform
//! Hadamard rotation: `e^{-iβ f(X_i)} = H^{⊗n} e^{-iβ f(Z_i)} H^{⊗n}` (Eq. 2 in the
//! paper).  Applying `H^{⊗n}` to a statevector is the butterfly-structured fast
//! Walsh–Hadamard transform, costing `O(n·2ⁿ)` — the "appropriate tensor contractions"
//! of §2.2.  This module provides an in-place, normalised (unitary) transform.
//!
//! # Cache-blocked, two-phase kernel
//!
//! Butterfly level `h` (`h = 1, 2, 4, …, len/2`) combines amplitudes `i` and `i + h`.
//! Serial and parallel transforms share one blocked kernel and differ only in whether
//! its phases fan out across threads:
//!
//! 1. **Phase 1** splits the state into contiguous chunks of
//!    `min(BLOCK, len / current_num_threads().next_power_of_two())` amplitudes
//!    (`min(BLOCK, len)` on the serial path), with `BLOCK = 2^15` amplitudes
//!    (512 KiB, sized to stay in L2).  Every level `h < chunk` pairs amplitudes inside
//!    one chunk, so each chunk runs all of them while it is cache-resident, two
//!    levels per sweep (radix 4).  The whole phase is one parallel region.
//! 2. **Phase 2** runs the levels `h ≥ chunk`, which pair amplitudes across chunks,
//!    one parallel region per level.
//!
//! The normalisation `2^{-n/2}` is fused into the final butterfly level.  A parallel
//! transform therefore opens `1 + log2(len / chunk)` regions
//! ([`walsh_hadamard_regions`]): a `2^16` transform on 2 threads opens 2, against 17
//! for one region per level plus a separate scale pass.
//!
//! Every amplitude sees the same additions and subtractions in the same order as the
//! textbook level-by-level loop, followed by one multiplication by the scale, so the
//! output is bit-identical to it for every `n` and every thread count.

use crate::{parallel_kernels_enabled, Complex64};
use juliqaoa_telemetry::kernels::KERNELS;
use rayon::prelude::*;

/// Largest phase-1 chunk, in amplitudes: `2^15 × 16 B = 512 KiB`, sized to stay in L2.
const BLOCK: usize = 1 << 15;

/// Applies the unitary transform `H^{⊗n}` to `state` in place.
///
/// `state.len()` must be a power of two; `n = log2(len)`.  The transform is normalised
/// (an overall `2^{-n/2}` factor), so applying it twice returns the original state.
///
/// # Panics
/// Panics if the length is not a power of two.
pub fn walsh_hadamard(state: &mut [Complex64]) {
    let scale = 1.0 / (state.len() as f64).sqrt();
    transform(state, Some(scale));
}

/// Applies the *unnormalised* Walsh–Hadamard transform (all butterflies, no `2^{-n/2}`).
///
/// Useful when the caller folds the normalisation into another constant; applying it
/// twice multiplies the state by `2ⁿ`.
pub fn walsh_hadamard_unnormalized(state: &mut [Complex64]) {
    transform(state, None);
}

/// Number of parallel regions (scoped-thread fan-outs) one transform of `len`
/// amplitudes opens on the calling thread: `0` on the serial path, otherwise one for
/// phase 1 plus one per cross-chunk level.
pub fn walsh_hadamard_regions(len: usize) -> usize {
    let plan = Plan::new(len);
    if !plan.parallel || rayon::current_num_threads() < 2 || plan.chunk >= len {
        return 0;
    }
    1 + (len / plan.chunk).trailing_zeros() as usize
}

/// How one transform splits its state (see the module docs).
struct Plan {
    /// Whether the phases fan out across threads.
    parallel: bool,
    /// Phase-1 chunk length: levels `h < chunk` stay inside one chunk.
    chunk: usize,
    /// Longest run of butterfly pairs one phase-2 work item handles.
    piece: usize,
}

impl Plan {
    fn new(len: usize) -> Self {
        let parallel = parallel_kernels_enabled(len);
        let ways = if parallel {
            rayon::current_num_threads().next_power_of_two()
        } else {
            1
        };
        Plan {
            parallel,
            chunk: BLOCK.min(len / ways).max(2),
            piece: (len / (2 * ways)).max(1),
        }
    }
}

fn transform(state: &mut [Complex64], scale: Option<f64>) {
    let len = state.len();
    assert!(
        len.is_power_of_two(),
        "statevector length must be a power of two"
    );
    KERNELS.wht_passes.inc();
    if len < 2 {
        // H^{⊗0} is the identity and its scale is 1.
        return;
    }
    let plan = Plan::new(len);
    let chunk = plan.chunk;
    // The scale rides on the final level, wherever that level runs.
    let chunk_scale = if chunk == len { scale } else { None };
    if plan.parallel {
        state
            .par_chunks_mut(chunk)
            .for_each(|c| chunk_levels(c, chunk_scale));
    } else {
        state
            .chunks_mut(chunk)
            .for_each(|c| chunk_levels(c, chunk_scale));
    }
    let mut h = chunk;
    while h < len {
        let level_scale = if 2 * h == len { scale } else { None };
        cross_chunk_level(state, h, &plan, level_scale);
        h *= 2;
    }
}

/// Phase 1: every level `h < chunk.len()` inside one contiguous chunk.  Levels go two
/// at a time (radix 4) while two remain: the same operations in half the sweeps.
fn chunk_levels(chunk: &mut [Complex64], last_scale: Option<f64>) {
    let len = chunk.len();
    let mut h = 1;
    while 4 * h <= len {
        let scale = if 4 * h == len { last_scale } else { None };
        for block in chunk.chunks_exact_mut(4 * h) {
            radix4(block, scale);
        }
        h *= 4;
    }
    if h < len {
        // An odd level count leaves the single level h = len/2.
        let (lo, hi) = chunk.split_at_mut(h);
        butterflies(lo, hi, last_scale);
    }
}

/// Phase 2: one level `h ≥ chunk`, split into runs of at most `plan.piece` pairs that
/// fan out as a single parallel region.
fn cross_chunk_level(state: &mut [Complex64], h: usize, plan: &Plan, scale: Option<f64>) {
    let piece = plan.piece.min(h);
    let pairs = state.chunks_exact_mut(2 * h).flat_map(|block| {
        let (lo, hi) = block.split_at_mut(h);
        lo.chunks_mut(piece).zip(hi.chunks_mut(piece))
    });
    if plan.parallel {
        pairs
            .collect::<Vec<_>>()
            .into_par_iter()
            .for_each(|(lo, hi)| butterflies(lo, hi, scale));
    } else {
        pairs.for_each(|(lo, hi)| butterflies(lo, hi, scale));
    }
}

/// One level: `(a, b) ← (a + b, a − b)` for each pair, then times `scale` if given.
fn butterflies(lo: &mut [Complex64], hi: &mut [Complex64], scale: Option<f64>) {
    fn run(lo: &mut [Complex64], hi: &mut [Complex64], out: impl Fn(Complex64) -> Complex64) {
        for (a, b) in lo.iter_mut().zip(hi) {
            let (x, y) = (*a, *b);
            *a = out(x + y);
            *b = out(x - y);
        }
    }
    match scale {
        None => run(lo, hi, |z| z),
        Some(s) => run(lo, hi, |z| z.scale(s)),
    }
}

/// Levels `h` and `2h` over one block of `4h`: the quarters `(x0, x1, x2, x3)` become
/// `(s0 + s2, s1 + s3, s0 − s2, s1 − s3)` with `s = (x0 + x1, x0 − x1, x2 + x3,
/// x2 − x3)`, then times `scale` if given.
fn radix4(block: &mut [Complex64], scale: Option<f64>) {
    fn run(block: &mut [Complex64], out: impl Fn(Complex64) -> Complex64) {
        let h = block.len() / 4;
        let (lo, hi) = block.split_at_mut(2 * h);
        let (q0, q1) = lo.split_at_mut(h);
        let (q2, q3) = hi.split_at_mut(h);
        let quads = q0.iter_mut().zip(q1).zip(q2).zip(q3);
        for (((a, b), c), d) in quads {
            let (s0, s1) = (*a + *b, *a - *b);
            let (s2, s3) = (*c + *d, *c - *d);
            *a = out(s0 + s2);
            *b = out(s1 + s3);
            *c = out(s0 - s2);
            *d = out(s1 - s3);
        }
    }
    match scale {
        None => run(block, |z| z),
        Some(s) => run(block, |z| z.scale(s)),
    }
}

/// Evaluates the Walsh character `(-1)^{popcount(x & y)}`, i.e. the `(x, y)` entry of the
/// unnormalised Hadamard matrix `H^{⊗n}·2^{n/2}`.  Used for spot-checking the transform.
pub fn walsh_character(x: usize, y: usize) -> f64 {
    if (x & y).count_ones().is_multiple_of(2) {
        1.0
    } else {
        -1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector;

    fn basis_state(len: usize, idx: usize) -> Vec<Complex64> {
        let mut v = vec![Complex64::ZERO; len];
        v[idx] = Complex64::ONE;
        v
    }

    #[test]
    fn hadamard_of_basis_zero_is_uniform() {
        let n = 4;
        let len = 1 << n;
        let mut v = basis_state(len, 0);
        walsh_hadamard(&mut v);
        let amp = 1.0 / (len as f64).sqrt();
        for z in &v {
            assert!((z.re - amp).abs() < 1e-12);
            assert!(z.im.abs() < 1e-12);
        }
    }

    #[test]
    fn transform_is_self_inverse() {
        let len = 1 << 6;
        let orig: Vec<Complex64> = (0..len)
            .map(|i| Complex64::new((i % 7) as f64 * 0.3 - 1.0, (i % 5) as f64 * 0.2))
            .collect();
        let mut v = orig.clone();
        walsh_hadamard(&mut v);
        walsh_hadamard(&mut v);
        assert!(vector::max_abs_diff(&v, &orig) < 1e-12);
    }

    #[test]
    fn transform_preserves_norm() {
        let len = 1 << 7;
        let mut v: Vec<Complex64> = (0..len)
            .map(|i| Complex64::new((i as f64).sin(), (i as f64 * 0.7).cos()))
            .collect();
        let before = vector::norm(&v);
        walsh_hadamard(&mut v);
        assert!((vector::norm(&v) - before).abs() < 1e-10);
    }

    #[test]
    fn matches_walsh_character_matrix() {
        // H^{⊗n}|y⟩ should have amplitude 2^{-n/2}·(-1)^{x·y} at position x.
        let n = 5;
        let len = 1 << n;
        let scale = 1.0 / (len as f64).sqrt();
        for y in [0usize, 1, 7, 19, 31] {
            let mut v = basis_state(len, y);
            walsh_hadamard(&mut v);
            for (x, amp) in v.iter().enumerate() {
                let expected = scale * walsh_character(x, y);
                assert!((amp.re - expected).abs() < 1e-12, "x={x} y={y}");
                assert!(amp.im.abs() < 1e-12);
            }
        }
    }

    #[test]
    fn unnormalized_twice_scales_by_length() {
        let len = 1 << 5;
        let orig: Vec<Complex64> = (0..len)
            .map(|i| Complex64::new(i as f64, -(i as f64) * 0.5))
            .collect();
        let mut v = orig.clone();
        walsh_hadamard_unnormalized(&mut v);
        walsh_hadamard_unnormalized(&mut v);
        for i in 0..len {
            assert!((v[i] - orig[i].scale(len as f64)).abs() < 1e-9);
        }
    }

    /// Textbook transform: every butterfly level over the whole state, then a separate
    /// scale pass.  The blocked kernel must reproduce it bit for bit.
    fn textbook(state: &mut [Complex64], scale: Option<f64>) {
        let len = state.len();
        let mut h = 1;
        while h < len {
            for start in (0..len).step_by(2 * h) {
                for i in start..start + h {
                    let (a, b) = (state[i], state[i + h]);
                    state[i] = a + b;
                    state[i + h] = a - b;
                }
            }
            h *= 2;
        }
        if let Some(s) = scale {
            state.iter_mut().for_each(|z| *z = z.scale(s));
        }
    }

    fn bits(v: &[Complex64]) -> Vec<(u64, u64)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    /// Both transforms against the textbook reference for `n = 0..=18`: one chunk,
    /// one cross-chunk level and several, on the parallel path from `2^16` up.
    fn assert_matches_textbook() {
        for n in 0..=18 {
            let len = 1usize << n;
            let orig: Vec<Complex64> = (0..len)
                .map(|i| {
                    Complex64::new(
                        ((i * 37) % 101) as f64 * 0.01 - 0.3,
                        ((i * 13) % 17) as f64 * 0.05,
                    )
                })
                .collect();
            let scale = 1.0 / (len as f64).sqrt();
            let mut expected = orig.clone();
            textbook(&mut expected, Some(scale));
            let mut got = orig.clone();
            walsh_hadamard(&mut got);
            assert_eq!(bits(&got), bits(&expected), "walsh_hadamard n={n}");

            let mut expected = orig.clone();
            textbook(&mut expected, None);
            let mut got = orig;
            walsh_hadamard_unnormalized(&mut got);
            assert_eq!(bits(&got), bits(&expected), "unnormalized n={n}");
        }
    }

    #[test]
    fn parallel_path_matches_serial_path() {
        assert_matches_textbook();
        let _serial = crate::enter_outer_parallelism();
        assert_matches_textbook();
    }

    #[test]
    fn regions_per_transform() {
        if crate::par_threshold() <= 1 << 16 {
            // 2 threads: 2^16 splits into two 2^15 chunks and one cross-chunk level;
            // 2^18 into 2^15 chunks (BLOCK) and three cross-chunk levels.
            let expected = match rayon::current_num_threads() {
                1 => Some((0, 0)),
                2 => Some((2, 4)),
                _ => None,
            };
            if let Some((at16, at18)) = expected {
                assert_eq!(walsh_hadamard_regions(1 << 16), at16);
                assert_eq!(walsh_hadamard_regions(1 << 18), at18);
            }
        }
        let _serial = crate::enter_outer_parallelism();
        assert_eq!(walsh_hadamard_regions(1 << 18), 0);
    }

    #[test]
    fn single_element_transform_is_identity() {
        let mut v = vec![Complex64::new(0.3, -0.4)];
        walsh_hadamard(&mut v);
        assert!((v[0] - Complex64::new(0.3, -0.4)).abs() < 1e-15);
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_panics() {
        let mut v = vec![Complex64::ZERO; 6];
        walsh_hadamard(&mut v);
    }

    #[test]
    fn walsh_character_parity() {
        assert_eq!(walsh_character(0b101, 0b100), -1.0);
        assert_eq!(walsh_character(0b101, 0b101), 1.0);
        assert_eq!(walsh_character(0, 12345), 1.0);
    }
}
