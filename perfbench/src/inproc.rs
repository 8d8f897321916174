//! In-process workloads: one client thread runs the job list one job at a
//! time through `Engine::run_job` (a closed loop).

use crate::util::{ms_since, self_peak_rss_mb};
use crate::workloads::Workload;
use juliqaoa_optim::RunControl;
use juliqaoa_service::{Engine, JobResult, JobSpec, DEFAULT_CACHE_CAPACITY};
use juliqaoa_telemetry::kernels::{snapshot, KernelSnapshot};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Jobs generated per run; more than any run gets through.
pub const JOB_LIST_LEN: usize = 256;

/// A workload ready to accept its first job.
pub struct Ready {
    pub engine: Engine,
    pub jobs: Vec<JobSpec>,
}

/// Creates the engine, generates and validates the job list, and — for
/// workloads that share instances — fills the instance cache, since a user
/// running many jobs on one instance pays that once.
pub fn set_up(workload: Workload, seed: u64) -> Result<Ready, String> {
    let engine = Engine::new(DEFAULT_CACHE_CAPACITY);
    let jobs = workload.jobs(seed, JOB_LIST_LEN);
    // The checks the service makes at submission, including the trace id,
    // which realises each instance (graph or clauses, not the 2ⁿ objective).
    for spec in &jobs {
        let (_, subspace_k) = spec.problem.shape()?;
        spec.mixer.check_compatible(subspace_k)?;
        if let Some(s) = &spec.sampling {
            s.validate()?;
        }
        spec.trace_id()?;
    }
    let mut seen = BTreeSet::new();
    for spec in jobs.iter().take(workload.shared_instances()) {
        let problem = spec.problem.build()?;
        if seen.insert(problem.instance_id.raw()) {
            engine.prepare(&problem);
        }
    }
    Ok(Ready { engine, jobs })
}

/// Sets the workload up `reps` times and keeps the last; returns it with
/// every set-up time in seconds.
pub fn set_up_repeated(
    workload: Workload,
    seed: u64,
    reps: usize,
) -> Result<(Ready, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut ready = None;
    for _ in 0..reps.max(1) {
        drop(ready.take());
        let t = Instant::now();
        ready = Some(set_up(workload, seed)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((ready.expect("at least one set-up"), times))
}

/// One finished job.
pub struct Done {
    pub spec: JobSpec,
    pub result: JobResult,
    /// Client-measured `run_job` wall time.
    pub wall_ms: f64,
    /// Kernel-counter movement during the job.
    pub kernels: KernelSnapshot,
}

/// Jobs after which the closed loop reads the peak resident set: cold-cache
/// workloads grow the instance cache with every job, so a fixed job count
/// keeps the figure independent of how many jobs fit in the run.
pub const RSS_AFTER_JOBS: usize = 4;

pub struct LoopReport {
    pub done: Vec<Done>,
    pub failures: Vec<String>,
    pub wall_s: f64,
    /// Peak resident memory, MiB, once [`RSS_AFTER_JOBS`] jobs have run.
    pub peak_rss_mb: f64,
}

/// Runs one job and records its wall time and kernel-counter delta.
pub fn run_one(engine: &Engine, spec: &JobSpec) -> Result<Done, String> {
    let before = snapshot();
    let t = Instant::now();
    let result = engine.run_job(spec, &RunControl::new());
    let wall_ms = ms_since(t);
    let kernels = snapshot().delta(&before);
    match result {
        Ok(result) => Ok(Done {
            spec: spec.clone(),
            result,
            wall_ms,
            kernels,
        }),
        Err(e) => Err(format!("job {}: {e}", spec.id)),
    }
}

/// The closed loop: starts jobs in list order until `budget` has elapsed.
pub fn closed_loop(ready: &Ready, budget: Duration) -> LoopReport {
    let start = Instant::now();
    let mut done = Vec::new();
    let mut failures = Vec::new();
    let mut peak_rss_mb = None;
    for (i, spec) in ready.jobs.iter().enumerate() {
        if start.elapsed() >= budget {
            break;
        }
        match run_one(&ready.engine, spec) {
            Ok(d) => done.push(d),
            Err(e) => failures.push(e),
        }
        if i + 1 == RSS_AFTER_JOBS {
            peak_rss_mb = Some(self_peak_rss_mb());
        }
    }
    LoopReport {
        done,
        failures,
        wall_s: start.elapsed().as_secs_f64(),
        peak_rss_mb: peak_rss_mb.unwrap_or_else(self_peak_rss_mb),
    }
}
