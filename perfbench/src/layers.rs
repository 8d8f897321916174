//! Per-layer measurements for the traced run: replays of each job's own
//! instance at its returned angles, kernel probes, and a memory-bandwidth
//! roofline.  Every call into a layer's public function is wrapped in a span.
//!
//! Bytes per kernel call are *computed* from array sizes (streamed passes over
//! the state), not measured; cache reuse makes real traffic lower, so an
//! L2-resident kernel can exceed 1.0 of the DRAM roofline.

use crate::trace::Recorder;
use crate::util::{llc_bytes, median};
use juliqaoa_combinatorics::DickeSubspace;
use juliqaoa_core::{adjoint_gradient, Angles, Simulator};
use juliqaoa_linalg::{vector, walsh, Complex64};
use juliqaoa_mixers::Mixer;
use juliqaoa_optim::SampledObjective;
use juliqaoa_problems::{precompute_dicke, precompute_full, PhaseClasses};
use juliqaoa_sampling::StateSampler;
use juliqaoa_service::{EstimatorSpec, JobResult, JobSpec};
use std::time::Instant;

/// Timed repetitions per replayed call; the median is reported.
const REPS: usize = 5;

/// A state of `dim` amplitudes with no special structure.
pub fn test_state(dim: usize) -> Vec<Complex64> {
    let norm = 1.0 / (dim as f64).sqrt();
    (0..dim)
        .map(|i| Complex64::cis(0.37 * i as f64).scale(norm))
        .collect()
}

/// Median µs of `reps` calls of `f`, each in its own span.
fn timed(
    rec: &Recorder,
    trace: &str,
    parent: Option<usize>,
    name: &str,
    layer: &'static str,
    mut f: impl FnMut(),
) -> f64 {
    let times: Vec<f64> = (0..REPS)
        .map(|_| rec.time(trace, parent, name, layer, &mut f).1)
        .collect();
    median(&times)
}

/// What one replayed job measured.
pub struct Replay {
    pub precompute_ms: f64,
    pub phase_classes_ms: f64,
    pub distinct_values: f64,
    pub expectation_us: f64,
    pub adjoint_gradient_us: f64,
    /// A decomposed evaluation (phase and mixer kernels called one by one):
    /// its total and the part no kernel span covers (core's self time).
    pub decomposed_us: f64,
    pub core_self_us: f64,
    pub phase_apply_us: f64,
    pub phase_bytes: f64,
    /// A shot readout at the returned angles, as the engine runs it for
    /// sampled jobs (1024 shots, CVaR-0.1).
    pub readout_ms: f64,
    pub alias_build_us: f64,
    pub shots_per_s: f64,
}

/// Replays one finished job on its own instance at its returned angles.
pub fn replay(rec: &Recorder, spec: &JobSpec, result: &JobResult) -> Result<Replay, String> {
    let trace = result.trace.as_str();
    let root = rec.open(trace, None, "replay", "bench");
    let problem = spec.problem.build()?;
    let (values, precompute_us) =
        rec.time(
            trace,
            Some(root),
            "precompute",
            "problems",
            || match problem.subspace_k {
                Some(k) => {
                    precompute_dicke(problem.cost.as_ref(), &DickeSubspace::new(problem.n, k))
                }
                None => precompute_full(problem.cost.as_ref()),
            },
        );
    let (classes, classes_us) =
        rec.time(trace, Some(root), "PhaseClasses::build", "problems", || {
            PhaseClasses::build(&values)
        });
    let distinct_values = classes.as_ref().map_or(values.len(), |c| c.num_classes()) as f64;
    let (mixer, _) = rec.time(trace, Some(root), "mixer.build", "mixers", || {
        spec.mixer.build(&problem)
    });
    let mixer = mixer?;
    let sim = Simulator::from_parts(values.clone(), classes.clone(), vec![mixer.clone()])
        .map_err(|e| e.to_string())?;
    let angles = Angles::from_flat(&result.angles);
    let mut ws = sim.workspace();
    let mut value = 0.0;
    let expectation_us = timed(
        rec,
        trace,
        Some(root),
        "Simulator::expectation_with",
        "core",
        || {
            value = sim
                .expectation_with(&angles, &mut ws)
                .expect("replayed angles fit the simulator");
        },
    );
    let adjoint_gradient_us = timed(rec, trace, Some(root), "adjoint_gradient", "core", || {
        adjoint_gradient(&sim, &angles, &mut ws).expect("replayed angles fit the simulator");
    });
    let final_state = ws.state.clone();

    // The same evaluation, kernel by kernel, so core's own overhead shows as
    // the part of the evaluation span its kernel children do not cover.
    let dim = values.len();
    let mut state = vec![Complex64::ZERO; dim];
    let mut scratch = vec![Complex64::ZERO; dim];
    let mut table = Vec::new();
    let eval = rec.open(trace, Some(root), "evaluation (decomposed)", "core");
    sim.prepare_initial(&mut state);
    for (&beta, &gamma) in angles.betas().iter().zip(angles.gammas()) {
        rec.time(
            trace,
            Some(eval),
            "phase separator",
            "linalg",
            || match &classes {
                Some(c) => {
                    vector::build_phase_table(c.distinct_values(), gamma, &mut table);
                    vector::apply_phases_indexed(&mut state, c.class_indices(), &table);
                }
                None => vector::apply_phases(&mut state, &values, gamma),
            },
        );
        rec.time(
            trace,
            Some(eval),
            "Mixer::apply_evolution",
            "mixers",
            || mixer.apply_evolution(beta, &mut state, &mut scratch),
        );
    }
    let (decomposed_value, _) =
        rec.time(trace, Some(eval), "diagonal_expectation", "linalg", || {
            vector::diagonal_expectation(&state, &values)
        });
    let decomposed_us = rec.close(eval) * 1e3;
    let kids: f64 = rec
        .spans()
        .iter()
        .filter(|s| s.parent == Some(eval))
        .map(|s| s.end_ms - s.start_ms)
        .sum::<f64>()
        * 1e3;
    if (decomposed_value - value).abs() > 1e-9 * value.abs().max(1.0) {
        return Err(format!(
            "job {}: kernel-by-kernel evaluation {decomposed_value} disagrees with the simulator {value}",
            spec.id
        ));
    }

    let gamma = angles.gammas()[0];
    let (phase_apply_us, phase_bytes) = match &classes {
        Some(c) => (
            timed(
                rec,
                trace,
                Some(root),
                "apply_phases_indexed",
                "linalg",
                || {
                    vector::build_phase_table(c.distinct_values(), gamma, &mut table);
                    vector::apply_phases_indexed(&mut state, c.class_indices(), &table);
                },
            ),
            // Read and write the state (16 B each) and read a u16 class index.
            34.0 * dim as f64,
        ),
        None => (
            timed(rec, trace, Some(root), "apply_phases", "linalg", || {
                vector::apply_phases(&mut state, &values, gamma)
            }),
            40.0 * dim as f64,
        ),
    };

    let estimator = EstimatorSpec::CVaR { alpha: 0.1 }.build();
    let readout_us = timed(
        rec,
        trace,
        Some(root),
        "SampledObjective::counts_at",
        "sampling",
        || {
            let mut readout = SampledObjective::new(&sim, 1024, estimator, result.seed);
            std::hint::black_box(readout.counts_at(&result.angles));
        },
    );

    let probs: Vec<f64> = final_state.iter().map(|z| z.norm_sqr()).collect();
    let mut sampler = None;
    let alias_build_us = timed(
        rec,
        trace,
        Some(root),
        "StateSampler::from_probabilities",
        "sampling",
        || {
            sampler = Some(StateSampler::from_probabilities(
                probs.iter().copied(),
                result.seed,
            ));
        },
    );
    let sampler = sampler.expect("built above");
    let shots = 1u64 << 16;
    let draw_us = timed(
        rec,
        trace,
        Some(root),
        "StateSampler::sample_counts",
        "sampling",
        || {
            std::hint::black_box(sampler.sample_counts(shots));
        },
    );
    rec.close(root);
    Ok(Replay {
        precompute_ms: precompute_us / 1e3,
        phase_classes_ms: classes_us / 1e3,
        distinct_values,
        expectation_us,
        adjoint_gradient_us,
        decomposed_us,
        core_self_us: decomposed_us - kids,
        phase_apply_us,
        phase_bytes,
        readout_ms: readout_us / 1e3,
        alias_build_us,
        shots_per_s: shots as f64 / (draw_us / 1e6),
    })
}

/// Kernel and mixer probes at each mixer's workload dimension.
pub struct Probes {
    /// `(kind, µs per Mixer::apply_evolution)`.
    pub mixer_apply_us: Vec<(&'static str, f64)>,
    /// `(kind, ms per build)` for the dense subspace mixers.
    pub mixer_build_ms: Vec<(&'static str, f64)>,
    pub wht_us: f64,
    pub wht_bytes: f64,
    pub grover_round_us: f64,
    pub grover_round_bytes: f64,
    pub xy_matvec_us: f64,
    pub xy_matvec_bytes: f64,
}

/// Probes every mixer family the service accepts: transverse field and
/// Grover at n = 16 (dim 2¹⁶), Clique and Ring at n = 12, k = 6 (dim 924).
pub fn probe_kernels(rec: &Recorder, values_16: &[f64]) -> Probes {
    let trace = "probe";
    let root = rec.open(trace, None, "kernel probes", "bench");
    let n = 16;
    let dim = 1usize << n;
    let mut state = test_state(dim);
    let mut scratch = vec![Complex64::ZERO; dim];
    let mut mixer_apply_us = Vec::new();
    for (kind, mixer) in [
        ("transverse_field", Mixer::transverse_field(n)),
        ("grover", Mixer::grover_full(n)),
    ] {
        let us = timed(
            rec,
            trace,
            Some(root),
            "Mixer::apply_evolution",
            "mixers",
            || mixer.apply_evolution(0.3, &mut state, &mut scratch),
        );
        mixer_apply_us.push((kind, us));
    }
    let wht_us = timed(rec, trace, Some(root), "walsh_hadamard", "linalg", || {
        walsh::walsh_hadamard(&mut state)
    });
    // n butterfly passes plus the normalising pass, each reading and writing
    // every 16-byte amplitude.
    let wht_bytes = (n as f64 + 1.0) * 32.0 * dim as f64;

    let classes = PhaseClasses::build(values_16).expect("MaxCut objectives compress");
    let grover = juliqaoa_mixers::GroverMixer::new(dim);
    let mut table = Vec::new();
    let grover_round_us = timed(
        rec,
        trace,
        Some(root),
        "fused Grover round",
        "linalg",
        || {
            vector::build_phase_table(classes.distinct_values(), 0.7, &mut table);
            let sum = vector::apply_phases_indexed_sum(&mut state, classes.class_indices(), &table);
            grover.apply_evolution_with_sum(0.4, &mut state, sum);
        },
    );
    // The phase sweep (34 B per amplitude) plus the rank-one update (32 B).
    let grover_round_bytes = 66.0 * dim as f64;

    let (sub_n, sub_k) = (12, 6);
    let sub_dim = DickeSubspace::new(sub_n, sub_k).dim();
    let mut sub_state = test_state(sub_dim);
    let mut sub_scratch = vec![Complex64::ZERO; sub_dim];
    let mut mixer_build_ms = Vec::new();
    let mut xy = None;
    for kind in ["clique", "ring"] {
        let (mixer, build_us) =
            rec.time(trace, Some(root), "mixer build", "mixers", || match kind {
                "clique" => Mixer::clique(sub_n, sub_k),
                _ => Mixer::ring(sub_n, sub_k),
            });
        mixer_build_ms.push((kind, build_us / 1e3));
        let us = timed(
            rec,
            trace,
            Some(root),
            "Mixer::apply_evolution",
            "mixers",
            || mixer.apply_evolution(0.3, &mut sub_state, &mut sub_scratch),
        );
        mixer_apply_us.push((kind, us));
        xy.get_or_insert(mixer);
    }
    let Some(Mixer::Subspace(xy)) = xy else {
        unreachable!("Mixer::clique builds a subspace mixer")
    };
    let xy_matvec_us = timed(
        rec,
        trace,
        Some(root),
        "RealMatrix::matvec_complex",
        "linalg",
        || {
            xy.eigenvectors()
                .matvec_complex(&sub_state, &mut sub_scratch)
        },
    );
    // The dense real matrix (8 B per entry) plus one complex vector in and out.
    let xy_matvec_bytes = 8.0 * (sub_dim * sub_dim) as f64 + 32.0 * sub_dim as f64;
    rec.close(root);
    Probes {
        mixer_apply_us,
        mixer_build_ms,
        wht_us,
        wht_bytes,
        grover_round_us,
        grover_round_bytes,
        xy_matvec_us,
        xy_matvec_bytes,
    }
}

/// Measured copy and triad bandwidth, GB/s, with the array size used.
pub struct Roofline {
    pub copy_gbs: f64,
    pub triad_gbs: f64,
    pub array_bytes: u64,
    pub llc_bytes: u64,
    pub threads: usize,
}

/// STREAM-style copy (`b = a`) and in-place triad (`a = a + s·b`) over arrays
/// of four times the last-level cache each, split over every core (the
/// kernels run on every core at their dimension).  Best of three passes.
pub fn roofline(threads: usize) -> Roofline {
    let llc = llc_bytes().unwrap_or(32 << 20);
    let mut array_bytes = 4 * llc;
    // Two arrays must fit comfortably in the memory the machine has free.
    if let Some(avail_kib) = mem_available_kib() {
        let cap = (avail_kib * 1024.0 / 4.0) as u64;
        array_bytes = array_bytes.min(cap);
    }
    let len = (array_bytes / 8) as usize;
    let mut a = vec![1.0f64; len];
    let mut b = vec![2.0f64; len];
    let chunk = len.div_ceil(threads.max(1));
    let mut best_copy = f64::INFINITY;
    let mut best_triad = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        std::thread::scope(|s| {
            for (src, dst) in a.chunks(chunk).zip(b.chunks_mut(chunk)) {
                s.spawn(move || dst.copy_from_slice(src));
            }
        });
        best_copy = best_copy.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        std::thread::scope(|s| {
            for (x, y) in a.chunks_mut(chunk).zip(b.chunks(chunk)) {
                s.spawn(move || {
                    for (x, y) in x.iter_mut().zip(y) {
                        *x += 0.5 * *y;
                    }
                });
            }
        });
        best_triad = best_triad.min(t.elapsed().as_secs_f64());
    }
    std::hint::black_box((&a, &b));
    let bytes = (len * 8) as f64;
    Roofline {
        copy_gbs: 2.0 * bytes / best_copy / 1e9,
        triad_gbs: 3.0 * bytes / best_triad / 1e9,
        array_bytes: bytes as u64,
        llc_bytes: llc,
        threads,
    }
}

fn mem_available_kib() -> Option<f64> {
    std::fs::read_to_string("/proc/meminfo")
        .ok()?
        .lines()
        .find(|l| l.starts_with("MemAvailable:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}
