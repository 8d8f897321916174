//! Process-wide kernel profiling counters.
//!
//! The simulator core, mixers, optimizers and sampler record into these statics with a
//! single relaxed `fetch_add` per event — no locks, no allocation, no effect on
//! floating-point evaluation order, so instrumented kernels produce bit-identical
//! numbers. Counters are process-global and never reset; consumers interested in
//! a window (benches, tests) take a [`snapshot`] before and after and diff with
//! [`KernelSnapshot::delta`], which also keeps readings meaningful under cargo's
//! parallel test threads.

use crate::Counter;

/// The set of kernel-level profiling counters.
#[derive(Debug)]
pub struct Kernels {
    /// Phase separators applied via the compressed phase-table path.
    pub phase_table_applies: Counter,
    /// Phase separators that fell back to the dense per-amplitude path.
    pub dense_phase_applies: Counter,
    /// Fused Grover rounds (phase apply + reflection in one sweep).
    pub fused_grover_rounds: Counter,
    /// Walsh–Hadamard transform passes over a statevector.
    pub wht_passes: Counter,
    /// Sparse XY-mixer Hamiltonian mat-vecs (`H·v` on a Dicke subspace).  Not a
    /// [`KernelSnapshot`] field yet; read it with `KERNELS.xy_matvecs.get()`.
    pub xy_matvecs: Counter,
    /// Prefix-cache checkpoint hits (evolutions resumed mid-circuit).
    pub prefix_checkpoint_hits: Counter,
    /// Prefix-cache misses (evolutions started from round 0).
    pub prefix_cold_starts: Counter,
    /// Rounds skipped thanks to prefix checkpoints (work avoided).
    pub prefix_rounds_saved: Counter,
    /// Measurement shots drawn by the alias sampler.
    pub shots_drawn: Counter,
    /// Objective function evaluations across all optimizers.
    pub objective_evals: Counter,
}

/// The process-wide counters every kernel records into.
pub static KERNELS: Kernels = Kernels {
    phase_table_applies: Counter::new(),
    dense_phase_applies: Counter::new(),
    fused_grover_rounds: Counter::new(),
    wht_passes: Counter::new(),
    xy_matvecs: Counter::new(),
    prefix_checkpoint_hits: Counter::new(),
    prefix_cold_starts: Counter::new(),
    prefix_rounds_saved: Counter::new(),
    shots_drawn: Counter::new(),
    objective_evals: Counter::new(),
};

/// A point-in-time copy of every kernel counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelSnapshot {
    pub phase_table_applies: u64,
    pub dense_phase_applies: u64,
    pub fused_grover_rounds: u64,
    pub wht_passes: u64,
    pub prefix_checkpoint_hits: u64,
    pub prefix_cold_starts: u64,
    pub prefix_rounds_saved: u64,
    pub shots_drawn: u64,
    pub objective_evals: u64,
}

/// Reads all kernel counters (relaxed; each field individually consistent).
pub fn snapshot() -> KernelSnapshot {
    KernelSnapshot {
        phase_table_applies: KERNELS.phase_table_applies.get(),
        dense_phase_applies: KERNELS.dense_phase_applies.get(),
        fused_grover_rounds: KERNELS.fused_grover_rounds.get(),
        wht_passes: KERNELS.wht_passes.get(),
        prefix_checkpoint_hits: KERNELS.prefix_checkpoint_hits.get(),
        prefix_cold_starts: KERNELS.prefix_cold_starts.get(),
        prefix_rounds_saved: KERNELS.prefix_rounds_saved.get(),
        shots_drawn: KERNELS.shots_drawn.get(),
        objective_evals: KERNELS.objective_evals.get(),
    }
}

impl KernelSnapshot {
    /// The counts accumulated between `earlier` and `self` (saturating, so a
    /// stale `earlier` from another snapshot interleaving never underflows).
    pub fn delta(&self, earlier: &KernelSnapshot) -> KernelSnapshot {
        KernelSnapshot {
            phase_table_applies: self
                .phase_table_applies
                .saturating_sub(earlier.phase_table_applies),
            dense_phase_applies: self
                .dense_phase_applies
                .saturating_sub(earlier.dense_phase_applies),
            fused_grover_rounds: self
                .fused_grover_rounds
                .saturating_sub(earlier.fused_grover_rounds),
            wht_passes: self.wht_passes.saturating_sub(earlier.wht_passes),
            prefix_checkpoint_hits: self
                .prefix_checkpoint_hits
                .saturating_sub(earlier.prefix_checkpoint_hits),
            prefix_cold_starts: self
                .prefix_cold_starts
                .saturating_sub(earlier.prefix_cold_starts),
            prefix_rounds_saved: self
                .prefix_rounds_saved
                .saturating_sub(earlier.prefix_rounds_saved),
            shots_drawn: self.shots_drawn.saturating_sub(earlier.shots_drawn),
            objective_evals: self.objective_evals.saturating_sub(earlier.objective_evals),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_isolate_a_window_even_with_parallel_tests_recording() {
        let before = snapshot();
        KERNELS.phase_table_applies.add(3);
        KERNELS.wht_passes.inc();
        KERNELS.prefix_rounds_saved.add(17);
        let d = snapshot().delta(&before);
        // Other tests in the process may record concurrently, so assert lower
        // bounds on the touched counters and exact equality only via >= checks.
        assert!(d.phase_table_applies >= 3);
        assert!(d.wht_passes >= 1);
        assert!(d.prefix_rounds_saved >= 17);
    }

    #[test]
    fn delta_saturates_instead_of_underflowing() {
        let newer = KernelSnapshot {
            shots_drawn: 5,
            ..Default::default()
        };
        let older = KernelSnapshot {
            shots_drawn: 9,
            objective_evals: 2,
            ..Default::default()
        };
        let d = newer.delta(&older);
        assert_eq!(d.shots_drawn, 0);
        assert_eq!(d.objective_evals, 0);
    }
}
