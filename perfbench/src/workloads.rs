//! The four workloads and the seeded job lists they run.
//!
//! Every spec is a pure function of `(workload, --seed, job index)`; the
//! program under test only ever sees the generated specs.

use crate::util::SeedStream;
use juliqaoa_service::{
    EstimatorSpec, JobSpec, MixerSpec, OptimizerSpec, ProblemSpec, SamplingSpec,
};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// MaxCut G(16, 0.5), transverse-field mixer, p = 2, four shared instances.
    MaxcutTf,
    /// Random 3-SAT n = 16 at density 6, Grover mixer, p = 2, CVaR-sampled.
    KsatGroverSampled,
    /// Densest-k-Subgraph / Max-k-Vertex-Cover on G(12, 0.5), k = 6, Clique/Ring.
    DksXy,
    /// MaxCut n = 8, p = 1 over HTTP, open loop at three offered rates.
    ServeTiny,
}

pub const ALL: [Workload; 4] = [
    Workload::MaxcutTf,
    Workload::KsatGroverSampled,
    Workload::DksXy,
    Workload::ServeTiny,
];

/// Client threads and service workers each workload starts; the benchmark
/// refuses to run a workload whose counts exceed the machine's cores.
pub struct Concurrency {
    pub clients: usize,
    pub workers: usize,
}

/// Basin hopping with one hop: two BFGS local minimisations per job.
const OPTIMIZER: OptimizerSpec = OptimizerSpec::BasinHopping {
    n_hops: 1,
    step_size: 0.3,
    temperature: 1.0,
};

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::MaxcutTf => "maxcut-tf",
            Workload::KsatGroverSampled => "ksat-grover-sampled",
            Workload::DksXy => "dks-xy",
            Workload::ServeTiny => "serve-tiny",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn concurrency(self) -> Concurrency {
        match self {
            // One generator and one poller thread against `serve --workers 2`.
            Workload::ServeTiny => Concurrency {
                clients: 2,
                workers: 2,
            },
            // One closed-loop client thread; inner kernels use the rayon path.
            _ => Concurrency {
                clients: 1,
                workers: 1,
            },
        }
    }

    /// How many shared instances every job reuses (hot instance cache); 0 when
    /// each job brings its own instance.
    pub fn shared_instances(self) -> usize {
        match self {
            Workload::MaxcutTf | Workload::ServeTiny => 4,
            _ => 0,
        }
    }

    /// The seeded job list: job `i` of the run with this seed.
    pub fn jobs(self, seed: u64, count: usize) -> Vec<JobSpec> {
        let mut stream = SeedStream::new(seed ^ (self as u64).wrapping_mul(0x5851_F42D_4C95_7F2D));
        // Instance indices are drawn from a range disjoint from the paper's
        // small figure indices; 2^20 distinct instances per family.
        let mut instance = move || stream.next_u64() & 0xF_FFFF;
        let shared: Vec<u64> = (0..self.shared_instances()).map(|_| instance()).collect();
        let mut job_seeds = SeedStream::new(seed.rotate_left(17) ^ 0xA5A5);
        (0..count)
            .map(|i| {
                let job_seed = job_seeds.next_u64();
                let (problem, mixer, p, sampling) = match self {
                    Workload::MaxcutTf => (
                        ProblemSpec::MaxCutGnp {
                            n: 16,
                            instance: shared[i % shared.len()],
                        },
                        MixerSpec::TransverseField,
                        2,
                        None,
                    ),
                    Workload::KsatGroverSampled => (
                        ProblemSpec::KSatRandom {
                            n: 16,
                            k: 3,
                            density: 6.0,
                            instance: instance(),
                        },
                        MixerSpec::Grover,
                        2,
                        Some(SamplingSpec {
                            shots: 1024,
                            seed: job_seed.rotate_left(32),
                            estimator: EstimatorSpec::CVaR { alpha: 0.1 },
                        }),
                    ),
                    Workload::DksXy if i % 2 == 0 => (
                        ProblemSpec::DensestKSubgraphGnp {
                            n: 12,
                            k: 6,
                            instance: instance(),
                        },
                        MixerSpec::Clique,
                        2,
                        None,
                    ),
                    Workload::DksXy => (
                        ProblemSpec::MaxKVertexCoverGnp {
                            n: 12,
                            k: 6,
                            instance: instance(),
                        },
                        MixerSpec::Ring,
                        2,
                        None,
                    ),
                    Workload::ServeTiny => (
                        ProblemSpec::MaxCutGnp {
                            n: 8,
                            instance: shared[i % shared.len()],
                        },
                        MixerSpec::TransverseField,
                        1,
                        None,
                    ),
                };
                JobSpec {
                    id: format!("{}-{seed}-{i}", self.name()),
                    problem,
                    mixer,
                    p,
                    optimizer: OPTIMIZER,
                    seed: job_seed,
                    sampling,
                    timeout_ms: None,
                }
            })
            .collect()
    }
}
