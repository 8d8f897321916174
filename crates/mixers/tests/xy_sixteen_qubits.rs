//! Clique and Ring mixers at n = 16, k = 8 (d = 12 870), where a dense `d×d` matrix
//! would take 1.3 GB.  A counting global allocator checks that building and applying
//! them never allocates anything close to `d×d`.
//!
//! Kept as the only test in its binary, so the allocation high-water mark is its own.

use juliqaoa_linalg::{vector, Complex64};
use juliqaoa_mixers::Mixer;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct LargestAllocation;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for LargestAllocation {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // relaxed: a monotone maximum read after the measured calls return on this thread.
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // relaxed: as in `alloc`.
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: LargestAllocation = LargestAllocation;

#[test]
fn sixteen_qubit_xy_mixers_evolve_without_dense_matrices() {
    let (n, k) = (16, 8);
    let beta = 0.37;
    for mixer in [Mixer::clique(n, k), Mixer::ring(n, k)] {
        let dim = mixer.dim();
        assert_eq!(dim, 12_870);
        let mut scratch = vec![Complex64::ZERO; dim];

        let mut state: Vec<Complex64> = (0..dim)
            .map(|i| Complex64::new((i as f64 * 0.41).sin(), (i as f64 * 0.23).cos()))
            .collect();
        vector::normalize(&mut state);
        mixer.apply_evolution(beta, &mut state, &mut scratch);
        let drift = (vector::norm(&state) - 1.0).abs();
        assert!(drift < 1e-12, "{}: norm drift {drift:e}", mixer.name());

        if mixer.name().starts_with("clique") {
            // The Dicke state is the top eigenvector, eigenvalue 2k(n−k).
            let mut dicke = vec![Complex64::ZERO; dim];
            vector::fill_uniform(&mut dicke);
            let mut evolved = dicke.clone();
            mixer.apply_evolution(beta, &mut evolved, &mut scratch);
            let phase = Complex64::cis(-beta * (2 * k * (n - k)) as f64);
            for (a, b) in evolved.iter().zip(&dicke) {
                assert!((*a - phase * *b).abs() < 1e-12);
            }
        }

        // relaxed: read on the thread that did every allocation being checked.
        let largest = LARGEST.load(Ordering::Relaxed);
        assert!(
            largest < dim * dim,
            "{}: an allocation of {largest} bytes is d×d-sized",
            mixer.name()
        );
    }
}
