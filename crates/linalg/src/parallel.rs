//! Runtime control of kernel parallelism.
//!
//! Two mechanisms decide whether a vector kernel takes its rayon path:
//!
//! 1. **The size threshold** ([`par_threshold`]): below this many elements the
//!    scheduling overhead of data parallelism outweighs the work.  The default suits
//!    the vendored scoped-thread rayon shim; it can be overridden *once at startup*
//!    with the `JULIQAOA_PAR_THRESHOLD` environment variable, so small-core CI boxes
//!    and large servers can both be tuned without recompiling.
//! 2. **The outer-parallelism guard** ([`enter_outer_parallelism`]): when the
//!    angle-finding outer loop is already fanning candidates out across cores, the
//!    tiny inner kernels must *not* also go parallel — nested data parallelism just
//!    multiplies scheduling overhead while the cores are already busy.  Outer loops
//!    hold a guard in each worker thread; [`parallel_kernels_enabled`] then reports
//!    `false` on that thread regardless of size.

use std::cell::Cell;
use std::sync::OnceLock;

/// Default element count below which vector kernels stay serial.
///
/// The vendored rayon shim spawns scoped threads per call instead of keeping a
/// work-stealing pool, so the crossover sits higher than the `n ≈ 12` of a pooled
/// rayon.  One scoped region (spawn and join 2 threads) costs about 40–60 µs on a
/// 2-vCPU x86-64 VM, and a serial `2^16`-element streaming kernel takes tens to
/// hundreds of µs, so `2^16` elements (`n = 16` qubits) pays only for a kernel that
/// opens a constant number of regions per call.  A kernel above the threshold must
/// not open one region per inner step: a `2^16` Walsh–Hadamard transform with one
/// region per butterfly level (17 in all) ran 1.5–2× slower than its serial loop.
pub const DEFAULT_PAR_THRESHOLD: usize = 1 << 16;

static PAR_THRESHOLD: OnceLock<usize> = OnceLock::new();

/// The active parallelism threshold: `JULIQAOA_PAR_THRESHOLD` if set to a valid
/// positive integer at first use, [`DEFAULT_PAR_THRESHOLD`] otherwise.  Read once into
/// a `OnceLock`; later changes to the environment have no effect.
pub fn par_threshold() -> usize {
    *PAR_THRESHOLD.get_or_init(|| {
        std::env::var("JULIQAOA_PAR_THRESHOLD")
            .ok()
            .and_then(|raw| raw.trim().parse::<usize>().ok())
            .filter(|&v| v > 0)
            .unwrap_or(DEFAULT_PAR_THRESHOLD)
    })
}

thread_local! {
    static OUTER_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// RAII guard marking the current thread as a worker of an outer parallel loop; see
/// [`enter_outer_parallelism`].
#[must_use = "the guard disables inner-kernel parallelism only while it is alive"]
pub struct OuterParallelGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Marks the current thread as running inside an outer parallel region (e.g. one
/// candidate of a parallel angle-finding loop).  While the returned guard lives,
/// [`parallel_kernels_enabled`] reports `false` on this thread, keeping the inner
/// kernels serial.  Re-entrant: nested guards stack.
pub fn enter_outer_parallelism() -> OuterParallelGuard {
    OUTER_DEPTH.with(|depth| depth.set(depth.get() + 1));
    OuterParallelGuard {
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for OuterParallelGuard {
    fn drop(&mut self) {
        OUTER_DEPTH.with(|depth| depth.set(depth.get().saturating_sub(1)));
    }
}

/// Whether the current thread is inside an outer parallel region.
pub fn in_outer_parallelism() -> bool {
    OUTER_DEPTH.with(|depth| depth.get() > 0)
}

/// Whether a kernel over `len` elements should take its rayon path on this thread.
#[inline]
pub fn parallel_kernels_enabled(len: usize) -> bool {
    len >= par_threshold() && !in_outer_parallelism()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_is_positive_and_stable() {
        let first = par_threshold();
        assert!(first > 0);
        assert_eq!(par_threshold(), first);
    }

    #[test]
    fn guard_disables_and_restores() {
        assert!(!in_outer_parallelism());
        {
            let _g = enter_outer_parallelism();
            assert!(in_outer_parallelism());
            assert!(!parallel_kernels_enabled(usize::MAX));
            {
                let _g2 = enter_outer_parallelism();
                assert!(in_outer_parallelism());
            }
            assert!(in_outer_parallelism(), "guards must stack");
        }
        assert!(!in_outer_parallelism());
        assert!(parallel_kernels_enabled(usize::MAX));
    }

    #[test]
    fn small_lengths_stay_serial() {
        assert!(!parallel_kernels_enabled(0));
        assert!(!parallel_kernels_enabled(1));
    }
}
