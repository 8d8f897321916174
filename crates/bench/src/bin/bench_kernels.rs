//! Kernel performance snapshot: dense vs table-driven phase separator, fused vs
//! unfused Grover rounds and the Walsh–Hadamard transform behind every Pauli-X mixer,
//! written to `BENCH_kernels.json`.
//!
//! This is the machine-readable counterpart of `benches/phase_table.rs`, meant to seed
//! the repo's performance trajectory: run it on a quiet machine and commit the JSON to
//! compare across PRs.
//!
//! Usage: `cargo run --release -p juliqaoa_bench --bin bench_kernels [output.json]`

use juliqaoa_bench::harness::BenchTimer;
use juliqaoa_bench::instances::paper_maxcut_instance;
use juliqaoa_core::{Angles, Simulator};
use juliqaoa_linalg::{enter_outer_parallelism, vector, walsh, Complex64};
use juliqaoa_mixers::Mixer;
use juliqaoa_problems::{precompute_full, MaxCut, PhaseClasses};
use serde::Serialize;
use std::hint::black_box;

#[derive(Serialize)]
struct PhaseSeparatorRow {
    n: usize,
    distinct_values: usize,
    dense_cis_ns: f64,
    table_driven_ns: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct GroverRoundRow {
    n: usize,
    rounds: usize,
    unfused_dense_ns: f64,
    fused_table_ns: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct WalshHadamardRow {
    n: usize,
    /// Parallel regions one default-path transform opens.
    parallel_regions: usize,
    /// `(n + 1) × 32 B` per amplitude: one read and one write per butterfly level plus
    /// the scale, as perfbench's roofline counts it.
    bytes_per_call: f64,
    default_ns: f64,
    outer_guard_ns: f64,
}

#[derive(Serialize)]
struct Snapshot {
    description: String,
    threads: usize,
    par_threshold: usize,
    phase_separator: Vec<PhaseSeparatorRow>,
    grover_round: Vec<GroverRoundRow>,
    walsh_hadamard: Vec<WalshHadamardRow>,
}

fn main() {
    let output = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_kernels.json".to_string());

    let mut phase_rows = Vec::new();
    let mut grover_rows = Vec::new();
    let mut walsh_rows = Vec::new();

    for &(n, reps) in &[(16usize, 7usize), (20, 5), (24, 3)] {
        let graph = paper_maxcut_instance(n, 0);
        let obj = precompute_full(&MaxCut::new(graph));
        let classes = PhaseClasses::build(&obj).expect("MaxCut compresses");
        let timer = BenchTimer::new(reps);

        // Dense vs table-driven phase separator on a live statevector.
        let mut psi = vec![Complex64::ZERO; 1 << n];
        vector::fill_uniform(&mut psi);
        let (dense_min, _) =
            timer.measure(|| vector::apply_phases(black_box(&mut psi), black_box(&obj), 0.37));
        let mut table = Vec::new();
        let (table_min, _) = timer.measure(|| {
            vector::build_phase_table(classes.distinct_values(), 0.37, &mut table);
            vector::apply_phases_indexed(black_box(&mut psi), classes.class_indices(), &table);
        });
        let dense_ns = dense_min.as_nanos() as f64;
        let table_ns = table_min.as_nanos() as f64;
        println!(
            "phase separator  n={n:2}  dense {:>12.1} µs   table {:>12.1} µs   speedup {:.2}x",
            dense_ns / 1e3,
            table_ns / 1e3,
            dense_ns / table_ns
        );
        phase_rows.push(PhaseSeparatorRow {
            n,
            distinct_values: classes.num_classes(),
            dense_cis_ns: dense_ns,
            table_driven_ns: table_ns,
            speedup: dense_ns / table_ns,
        });

        // Fused vs unfused GM-QAOA evaluation (p = 3).
        let rounds = 3;
        let angles = Angles::linear_ramp(rounds, 0.5);
        let fused = Simulator::new(obj.clone(), Mixer::grover_full(n)).expect("setup");
        let mut ws = fused.workspace();
        let (fused_min, _) = timer.measure(|| {
            black_box(fused.expectation_with(&angles, &mut ws).expect("setup"));
        });
        let unfused = fused.clone().with_dense_phases();
        let mut ws = unfused.workspace();
        let (unfused_min, _) = timer.measure(|| {
            black_box(unfused.expectation_with(&angles, &mut ws).expect("setup"));
        });
        let fused_ns = fused_min.as_nanos() as f64;
        let unfused_ns = unfused_min.as_nanos() as f64;
        println!(
            "grover round p=3 n={n:2}  dense {:>12.1} µs   fused {:>12.1} µs   speedup {:.2}x",
            unfused_ns / 1e3,
            fused_ns / 1e3,
            unfused_ns / fused_ns
        );
        grover_rows.push(GroverRoundRow {
            n,
            rounds,
            unfused_dense_ns: unfused_ns,
            fused_table_ns: fused_ns,
            speedup: unfused_ns / fused_ns,
        });

        // Walsh–Hadamard transform on the default path and with the outer-parallelism
        // guard held (the serial path an angle-finding worker takes).
        let wht_timer = BenchTimer::new(5 * reps);
        let (default_min, _) = wht_timer.measure(|| walsh::walsh_hadamard(black_box(&mut psi)));
        let (guard_min, _) = {
            let _serial = enter_outer_parallelism();
            wht_timer.measure(|| walsh::walsh_hadamard(black_box(&mut psi)))
        };
        let default_ns = default_min.as_nanos() as f64;
        let guard_ns = guard_min.as_nanos() as f64;
        let regions = walsh::walsh_hadamard_regions(psi.len());
        println!(
            "walsh-hadamard   n={n:2}  default {:>10.1} µs ({regions} regions)   guard {:>10.1} µs",
            default_ns / 1e3,
            guard_ns / 1e3,
        );
        walsh_rows.push(WalshHadamardRow {
            n,
            parallel_regions: regions,
            bytes_per_call: (n as f64 + 1.0) * 32.0 * psi.len() as f64,
            default_ns,
            outer_guard_ns: guard_ns,
        });
    }

    let snapshot = Snapshot {
        description: "juliqaoa kernel snapshot: dense vs table-driven phase separator \
                      (MaxCut G(n,0.5)), unfused vs fused GM-QAOA rounds, and the \
                      Walsh-Hadamard transform on the default path and with an \
                      outer-parallelism guard held; times are minimum over \
                      repetitions, nanoseconds per call"
            .to_string(),
        threads: rayon::current_num_threads(),
        par_threshold: juliqaoa_linalg::par_threshold(),
        phase_separator: phase_rows,
        grover_round: grover_rows,
        walsh_hadamard: walsh_rows,
    };
    let json = serde_json::to_string_pretty(&snapshot).expect("snapshot serialises");
    std::fs::write(&output, json).expect("snapshot file is writable");
    println!("\nwrote {output}");
}
