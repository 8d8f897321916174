//! Runs a workload in timed or traced mode and turns what it measured into
//! the benchmark's metrics and run record.

use crate::check::Checker;
use crate::inproc::{self, Done};
use crate::layers::{self, Probes, Replay, Roofline};
use crate::serve::{self, LoadReport, Phase, ServeProcess};
use crate::trace::Recorder;
use crate::util::{self, mean, median, quantile, tail};
use crate::workloads::Workload;
use crate::{Args, CLAIM_CHECK_SEED, OUT_DIR};
use juliqaoa_problems::precompute_full;
use juliqaoa_service::{JobResult, JobSpec};
use juliqaoa_telemetry::kernels::KernelSnapshot;
use juliqaoa_telemetry::{SpanCollector, TraceId};
use serde::Value;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Offered rates of the `serve-tiny` open loop, jobs/s, each held for a third
/// of the run: light load, moderate load, and near what the service sustains.
const RATES: [(&str, f64); 3] = [("low", 10.0), ("mid", 25.0), ("high", 40.0)];
/// Latency limit for `max_rate_ok`, on the highest percentile the sample
/// count supports.
const LATENCY_LIMIT_MS: f64 = 100.0;
/// The short open loop an in-process traced run sends through the HTTP tier.
const PROBE_PHASE: Phase = Phase {
    label: "probe",
    rate: 5.0,
    seconds: 3.0,
};
/// Traced jobs replayed on their own instance.
const REPLAYS: usize = 2;

/// The end-to-end metrics every `--trace 0` run reports, in order.
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "peak_rss_mb",
    "job_ms_p50",
    "evals_per_s",
    "quality_mean",
];

/// The per-layer metrics every `--trace 1` run reports, in order.
pub const PER_LAYER: [&str; 48] = [
    "server.submit_ms_p50",
    "server.poll_ms_p50",
    "server.queue_wait_ms_p50",
    "server.polls_per_job",
    "server.rejected_frac",
    "loadgen.lag_ms_max",
    "engine.prep_ms_p50",
    "engine.optimize_ms_p50",
    "engine.unattributed_ms_p50",
    "engine.cache_hit_ratio",
    "optim.function_evals_per_job",
    "optim.objective_evals_per_job",
    "optim.eval_gap_per_job",
    "optim.ms_per_eval",
    "core.expectation_us",
    "core.adjoint_gradient_us",
    "core.self_us",
    "core.prefix_hit_ratio",
    "core.prefix_rounds_saved_per_job",
    "mixers.apply_us.transverse_field",
    "mixers.apply_us.grover",
    "mixers.apply_us.clique",
    "mixers.apply_us.ring",
    "mixers.build_ms.clique",
    "mixers.build_ms.ring",
    "mixers.wht_passes_per_eval",
    "problems.precompute_ms",
    "problems.phase_classes_ms",
    "problems.distinct_values",
    "linalg.wht_us",
    "linalg.wht_roofline_frac",
    "linalg.phase_apply_us",
    "linalg.phase_apply_roofline_frac",
    "linalg.grover_round_us",
    "linalg.grover_round_roofline_frac",
    "linalg.xy_matvec_us",
    "linalg.xy_matvec_roofline_frac",
    "linalg.phase_table_applies_per_eval",
    "linalg.dense_phase_applies",
    "linalg.fused_grover_rounds_per_eval",
    "roofline.copy_gbs",
    "roofline.triad_gbs",
    "sampling.readout_ms",
    "sampling.alias_build_us",
    "sampling.shots_per_s",
    "sampling.shots_per_job",
    "telemetry.span_overhead_frac",
    "trace.overhead_frac",
];

pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Everything one run measured.
pub struct Run {
    attempted: usize,
    /// The contract metrics (end-to-end or per-layer).
    metrics: Vec<Metric>,
    /// Further figures printed and recorded but not gated.
    extra: Vec<Metric>,
    notes: Vec<(String, Value)>,
    spans: Vec<(&'static str, String)>,
}

impl Run {
    fn new(attempted: usize) -> Self {
        Run {
            attempted,
            metrics: Vec::new(),
            extra: Vec::new(),
            notes: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    fn extra(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.extra.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn note(&mut self, key: &str, value: Value) {
        self.notes.push((key.to_string(), value));
    }

    /// Prints every figure, writes the run record, and returns the result line.
    pub fn finish(self, args: &Args) -> Result<String, String> {
        let expected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
        let names: Vec<&str> = self.metrics.iter().map(|m| m.name.as_str()).collect();
        if names != expected {
            return Err(format!("metric set {names:?} differs from {expected:?}"));
        }
        if let Some(m) = self
            .metrics
            .iter()
            .chain(&self.extra)
            .find(|m| !m.value.is_finite())
        {
            return Err(format!("{} is not a finite number", m.name));
        }
        let workload = args.workload.name();
        for m in self.metrics.iter().chain(&self.extra) {
            println!("{workload}  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let metric_obj = |ms: &[Metric]| {
            Value::Object(
                ms.iter()
                    .map(|m| {
                        (
                            m.name.clone(),
                            Value::Object(vec![
                                ("value".into(), Value::Num(m.value)),
                                ("unit".into(), Value::Str(m.unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            )
        };
        let stem = format!("{workload}-seed{}-trace{}", args.seed, u8::from(args.trace));
        let mut record = vec![
            ("workload".into(), Value::Str(workload.into())),
            ("seed".into(), Value::UInt(args.seed)),
            ("claim_check_seed".into(), Value::UInt(CLAIM_CHECK_SEED)),
            ("seconds".into(), Value::UInt(args.seconds)),
            ("traced".into(), Value::Bool(args.trace)),
            ("environment".into(), environment()),
            ("metrics".into(), metric_obj(&self.metrics)),
            ("extra".into(), metric_obj(&self.extra)),
        ];
        record.extend(self.notes);
        for (kind, jsonl) in &self.spans {
            let path = PathBuf::from(OUT_DIR).join(format!("{stem}.{kind}.spans.jsonl"));
            std::fs::write(&path, jsonl).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        let path = PathBuf::from(OUT_DIR).join(format!("{stem}.json"));
        let text =
            serde_json::to_string_pretty(&Value::Object(record)).map_err(|e| e.to_string())?;
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        let line = Value::Object(vec![
            ("correct".into(), Value::Bool(true)),
            ("attempted".into(), Value::UInt(self.attempted as u64)),
            ("failed".into(), Value::UInt(0)),
            ("metrics".into(), metric_obj(&self.metrics)),
        ]);
        serde_json::to_string(&line).map_err(|e| e.to_string())
    }
}

/// Machine and build facts every result depends on.
fn environment() -> Value {
    let caches = util::cache_sizes()
        .into_iter()
        .map(|(level, bytes)| {
            Value::Object(vec![
                ("level".into(), Value::UInt(level.into())),
                ("bytes".into(), Value::UInt(bytes)),
            ])
        })
        .collect();
    Value::Object(vec![
        ("nproc".into(), Value::UInt(util::nproc() as u64)),
        (
            "par_threshold".into(),
            Value::UInt(juliqaoa_linalg::par_threshold() as u64),
        ),
        (
            "rayon_threads".into(),
            Value::UInt(rayon::current_num_threads() as u64),
        ),
        ("caches".into(), Value::Array(caches)),
        ("commit".into(), Value::Str(util::commit())),
    ])
}

/// Fails the run unless every job finished and passed its check.
fn gate(
    failures: &[String],
    checker: &mut Checker,
    jobs: &[(&JobSpec, &JobResult)],
) -> Result<(), String> {
    if let Some(first) = failures.first() {
        return Err(format!(
            "{} of the jobs did not finish: {first}",
            failures.len()
        ));
    }
    for (spec, result) in jobs {
        checker.check(spec, result)?;
    }
    Ok(())
}

fn results_of(done: &[Done]) -> Vec<(&JobSpec, &JobResult)> {
    done.iter().map(|d| (&d.spec, &d.result)).collect()
}

/// The reconciliation figures: stage times that `total_ms` does not cover,
/// and the gap between the optimizer's own eval count and the counter.
fn reconcile(run: &mut Run, results: &[&JobResult], objective_evals: u64) {
    let unattributed: Vec<f64> = results.iter().map(|r| unattributed_ms(r)).collect();
    run.extra("engine.unattributed_ms_p50", median(&unattributed), "ms");
    run.extra("optim.function_evals", sum_function_evals(results), "count");
    run.extra("optim.objective_evals", objective_evals as f64, "count");
    run.extra(
        "optim.eval_gap",
        objective_evals as f64 - sum_function_evals(results),
        "count",
    );
}

fn unattributed_ms(r: &JobResult) -> f64 {
    let t = &r.timings;
    t.total_ms - t.prep_ms - t.optimize_ms - t.sampling_readout_ms
}

fn sum_optimize_s(results: &[&JobResult]) -> f64 {
    results.iter().map(|r| r.timings.optimize_ms).sum::<f64>() / 1e3
}

fn sum_function_evals(results: &[&JobResult]) -> f64 {
    results.iter().map(|r| r.function_evals).sum::<usize>() as f64
}

/// Objective evaluations per second of optimize time over all jobs of the run.
/// Evaluations are the optimizer's own count (`function_evals`): the kernel
/// counter misses sampled evaluations, so it is reported beside this figure.
fn evals_per_s(results: &[&JobResult]) -> f64 {
    sum_function_evals(results) / sum_optimize_s(results)
}

pub fn inproc_timed(workload: Workload, seed: u64, budget: Duration) -> Result<Run, String> {
    let (ready, setups) = inproc::set_up_repeated(workload, seed, SETUP_REPS)?;
    let lp = inproc::closed_loop(&ready, budget);
    let mut checker = Checker::new();
    gate(&lp.failures, &mut checker, &results_of(&lp.done))?;
    let results: Vec<&JobResult> = lp.done.iter().map(|d| &d.result).collect();
    let wall: Vec<f64> = lp.done.iter().map(|d| d.wall_ms).collect();
    let objective_evals = sum_counts(&lp.done).objective_evals;
    let mut run = Run::new(lp.done.len());
    run.put("setup_s", median(&setups), "s");
    run.put("peak_rss_mb", lp.peak_rss_mb, "MiB");
    run.put("job_ms_p50", median(&wall), "ms");
    run.put("evals_per_s", evals_per_s(&results), "1/s");
    run.put(
        "quality_mean",
        mean(&results.iter().map(|r| r.quality).collect::<Vec<_>>()),
        "ratio",
    );
    // Closed-loop throughput; ungated, because one long search in a run
    // moves it far more than any bound a regression check could use.
    run.extra("jobs_per_s", lp.done.len() as f64 / lp.wall_s, "jobs/s");
    run.extra("failed_frac", 0.0, "ratio");
    run.extra("jobs", lp.done.len() as f64, "count");
    if let Some((label, value)) = tail(&wall) {
        run.extra(format!("job_ms_{label}"), value, "ms");
    }
    reconcile(&mut run, &results, objective_evals);
    run.note("digest", Value::Str(checker.digest()));
    run.note(
        "setup_s_all",
        Value::Array(setups.into_iter().map(Value::Num).collect()),
    );
    run.note(
        "jobs",
        Value::Array(lp.done.iter().map(job_record).collect()),
    );
    Ok(run)
}

/// One job's figures in the run record.
fn job_record(d: &Done) -> Value {
    let r = &d.result;
    let num = |k: &str, v: f64| (k.to_string(), Value::Num(v));
    Value::Object(vec![
        ("id".into(), Value::Str(r.id.clone())),
        num("wall_ms", d.wall_ms),
        num("prep_ms", r.timings.prep_ms),
        num("optimize_ms", r.timings.optimize_ms),
        num("readout_ms", r.timings.sampling_readout_ms),
        num("function_evals", r.function_evals as f64),
        num("objective_evals", d.kernels.objective_evals as f64),
        num("wht_passes", d.kernels.wht_passes as f64),
        num("phase_table_applies", d.kernels.phase_table_applies as f64),
        num("quality", r.quality),
    ])
}

fn serve_phases(budget: Duration) -> Vec<Phase> {
    let third = budget.as_secs_f64() / 3.0;
    RATES
        .iter()
        .map(|&(label, rate)| Phase {
            label,
            rate,
            seconds: third,
        })
        .collect()
}

fn journal(name: &str) -> PathBuf {
    PathBuf::from(OUT_DIR).join(format!("{name}-{}.journal.jsonl", std::process::id()))
}

/// Enough distinct specs for every submission of one open loop.
fn serve_specs(seed: u64, phases: &[Phase], offset: usize) -> Vec<JobSpec> {
    let count: usize = phases
        .iter()
        .map(|p| (p.rate * p.seconds).round() as usize)
        .sum();
    Workload::ServeTiny
        .jobs(seed, offset + count + 1)
        .split_off(offset)
}

/// Checks every outcome of an open loop against the service's journal.
fn gate_load(
    load: &LoadReport,
    specs: &[JobSpec],
    results: &[JobResult],
    checker: &mut Checker,
) -> Result<Vec<JobResult>, String> {
    let failures: Vec<String> = load
        .outcomes
        .iter()
        .filter_map(|o| {
            o.error
                .as_ref()
                .map(|e| format!("submission {}: {e}", o.spec_index))
        })
        .collect();
    let by_id: HashMap<&str, &JobResult> = results.iter().map(|r| (r.id.as_str(), r)).collect();
    let mut pairs = Vec::new();
    for o in &load.outcomes {
        let mut spec = specs[o.spec_index].clone();
        spec.id = o.id.clone();
        if o.error.is_none() {
            let result = by_id
                .get(spec.id.as_str())
                .ok_or_else(|| format!("job {} is done but missing from the journal", spec.id))?;
            pairs.push((spec, (*result).clone()));
        }
    }
    let refs: Vec<(&JobSpec, &JobResult)> = pairs.iter().map(|(s, r)| (s, r)).collect();
    gate(&failures, checker, &refs)?;
    Ok(pairs.into_iter().map(|(_, r)| r).collect())
}

/// Jobs completed per second over a phase: from its first due time to the
/// last `done` seen.
fn phase_throughput(load: &LoadReport, phase: usize) -> f64 {
    let done: Vec<(f64, f64)> = load
        .outcomes
        .iter()
        .filter(|o| o.phase == phase)
        .filter_map(|o| o.latency_ms.map(|l| (o.due_ms, o.due_ms + l)))
        .collect();
    let first = done.iter().map(|d| d.0).fold(f64::INFINITY, f64::min);
    let last = done.iter().map(|d| d.1).fold(0.0, f64::max);
    done.len() as f64 / ((last - first) / 1e3)
}

fn latencies(load: &LoadReport, phase: Option<usize>) -> Vec<f64> {
    load.outcomes
        .iter()
        .filter(|o| phase.is_none_or(|p| o.phase == p))
        .filter_map(|o| o.latency_ms)
        .collect()
}

/// Per-rate latency figures and the highest rate that meets the limit
/// without a growing backlog.
fn rate_ladder(run: &mut Run, load: &LoadReport, phases: &[Phase]) {
    let mut max_ok = 0.0;
    for (p, phase) in phases.iter().enumerate() {
        let lat = latencies(load, Some(p));
        run.extra(
            format!("latency_ms_p50.{}", phase.label),
            median(&lat),
            "ms",
        );
        let (label, tail_ms) = tail(&lat).unwrap_or(("max", quantile(&lat, 1.0)));
        run.extra(format!("latency_ms_{label}.{}", phase.label), tail_ms, "ms");
        let (mid, end) = load.backlog[p];
        let jobs = (phase.rate * phase.seconds).round();
        let growing = end as f64 > mid as f64 + (0.1 * jobs).max(2.0);
        if tail_ms <= LATENCY_LIMIT_MS && !growing && lat.len() as f64 == jobs {
            max_ok = phase.rate;
        }
        run.extra(format!("backlog_end.{}", phase.label), end as f64, "count");
    }
    run.extra("max_rate_ok", max_ok, "jobs/s");
}

pub fn serve_timed(seed: u64, budget: Duration) -> Result<Run, String> {
    let phases = serve_phases(budget);
    let specs = serve_specs(seed, &phases, 0);
    let mut setups = Vec::new();
    let mut server: Option<ServeProcess> = None;
    for _ in 0..SETUP_REPS {
        if let Some(s) = server.take() {
            let path = s.journal.clone();
            s.shutdown()?;
            let _ = std::fs::remove_file(path);
        }
        let t = Instant::now();
        server = Some(ServeProcess::start(2, &journal("serve"))?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let server = server.expect("at least one set-up");
    let path = server.journal.clone();
    let before = server.kernel_counts()?;
    let load = serve::open_loop(&server.addr, &specs, &phases, None);
    let counts = server.kernel_counts()?.delta(&before);
    let rss = server.peak_rss_mb();
    let journal_results = server.shutdown()?;
    let _ = std::fs::remove_file(path);
    let mut checker = Checker::new();
    let results = gate_load(&load, &specs, &journal_results, &mut checker)?;
    let results: Vec<&JobResult> = results.iter().collect();
    let mut run = Run::new(load.outcomes.len());
    run.put("setup_s", median(&setups), "s");
    run.put("peak_rss_mb", rss, "MiB");
    run.put("job_ms_p50", median(&latencies(&load, None)), "ms");
    run.put("evals_per_s", evals_per_s(&results), "1/s");
    run.put(
        "quality_mean",
        mean(&results.iter().map(|r| r.quality).collect::<Vec<_>>()),
        "ratio",
    );
    run.extra(
        "jobs_per_s",
        phase_throughput(&load, phases.len() - 1),
        "jobs/s",
    );
    run.extra("failed_frac", 0.0, "ratio");
    rate_ladder(&mut run, &load, &phases);
    let lags: Vec<f64> = load.outcomes.iter().map(|o| o.lag_ms).collect();
    run.extra("loadgen.lag_ms_max", quantile(&lags, 1.0), "ms");
    reconcile(&mut run, &results, counts.objective_evals);
    run.note("digest", Value::Str(checker.digest()));
    run.note(
        "setup_s_all",
        Value::Array(setups.into_iter().map(Value::Num).collect()),
    );
    run.note(
        "rates",
        Value::Object(
            RATES
                .iter()
                .map(|(l, r)| (l.to_string(), Value::Num(*r)))
                .collect(),
        ),
    );
    Ok(run)
}

/// Figures the traced runs of every workload report the same way.
struct LayerInputs<'a> {
    load: &'a LoadReport,
    load_results: &'a [JobResult],
    /// The traced jobs of the workload itself.
    results: Vec<&'a JobResult>,
    counts: KernelSnapshot,
    replays: Vec<Replay>,
    probes: Probes,
    roofline: Roofline,
    span_overhead: f64,
    trace_overhead: f64,
}

fn per_layer(run: &mut Run, x: LayerInputs) {
    let submit: Vec<f64> = x.load.outcomes.iter().map(|o| o.submit_ms).collect();
    let waits: Vec<f64> = x
        .load_results
        .iter()
        .map(|r| r.timings.queue_wait_ms)
        .collect();
    let polls: Vec<f64> = x.load.outcomes.iter().map(|o| f64::from(o.polls)).collect();
    let rejected = x
        .load
        .outcomes
        .iter()
        .filter(|o| o.error.as_deref().is_some_and(|e| e.contains("on submit")))
        .count();
    let lags: Vec<f64> = x.load.outcomes.iter().map(|o| o.lag_ms).collect();
    run.put("server.submit_ms_p50", median(&submit), "ms");
    run.put("server.poll_ms_p50", median(&x.load.poll_ms), "ms");
    run.put("server.queue_wait_ms_p50", median(&waits), "ms");
    run.put("server.polls_per_job", mean(&polls), "count");
    run.put(
        "server.rejected_frac",
        rejected as f64 / x.load.outcomes.len().max(1) as f64,
        "ratio",
    );
    run.put("loadgen.lag_ms_max", quantile(&lags, 1.0), "ms");

    let jobs = x.results.len().max(1) as f64;
    let stage =
        |f: fn(&JobResult) -> f64| median(&x.results.iter().map(|r| f(r)).collect::<Vec<_>>());
    run.put("engine.prep_ms_p50", stage(|r| r.timings.prep_ms), "ms");
    run.put(
        "engine.optimize_ms_p50",
        stage(|r| r.timings.optimize_ms),
        "ms",
    );
    run.put("engine.unattributed_ms_p50", stage(unattributed_ms), "ms");
    run.put(
        "engine.cache_hit_ratio",
        x.results.iter().filter(|r| r.cache_hit).count() as f64 / jobs,
        "ratio",
    );

    let c = x.counts;
    let evals = sum_function_evals(&x.results).max(1.0);
    run.put("optim.function_evals_per_job", evals / jobs, "count");
    run.put(
        "optim.objective_evals_per_job",
        c.objective_evals as f64 / jobs,
        "count",
    );
    run.put(
        "optim.eval_gap_per_job",
        (c.objective_evals as f64 - evals) / jobs,
        "count",
    );
    run.put(
        "optim.ms_per_eval",
        sum_optimize_s(&x.results) * 1e3 / evals,
        "ms",
    );

    let replayed = |f: fn(&Replay) -> f64| median(&x.replays.iter().map(f).collect::<Vec<_>>());
    run.put("core.expectation_us", replayed(|r| r.expectation_us), "us");
    run.put(
        "core.adjoint_gradient_us",
        replayed(|r| r.adjoint_gradient_us),
        "us",
    );
    run.put("core.self_us", replayed(|r| r.core_self_us), "us");
    let starts = (c.prefix_checkpoint_hits + c.prefix_cold_starts).max(1) as f64;
    run.put(
        "core.prefix_hit_ratio",
        c.prefix_checkpoint_hits as f64 / starts,
        "ratio",
    );
    run.put(
        "core.prefix_rounds_saved_per_job",
        c.prefix_rounds_saved as f64 / jobs,
        "count",
    );

    for kind in ["transverse_field", "grover", "clique", "ring"] {
        let us = x
            .probes
            .mixer_apply_us
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0.0, |m| m.1);
        run.put(&format!("mixers.apply_us.{kind}"), us, "us");
    }
    for kind in ["clique", "ring"] {
        let ms = x
            .probes
            .mixer_build_ms
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0.0, |m| m.1);
        run.put(&format!("mixers.build_ms.{kind}"), ms, "ms");
    }
    run.put(
        "mixers.wht_passes_per_eval",
        c.wht_passes as f64 / evals,
        "count",
    );

    run.put(
        "problems.precompute_ms",
        replayed(|r| r.precompute_ms),
        "ms",
    );
    run.put(
        "problems.phase_classes_ms",
        replayed(|r| r.phase_classes_ms),
        "ms",
    );
    run.put(
        "problems.distinct_values",
        replayed(|r| r.distinct_values),
        "count",
    );

    // Achieved bytes/s over the measured triad bandwidth.
    let frac = |bytes: f64, us: f64| bytes / (us * 1e-6) / (x.roofline.triad_gbs * 1e9);
    let p = &x.probes;
    run.put("linalg.wht_us", p.wht_us, "us");
    run.put(
        "linalg.wht_roofline_frac",
        frac(p.wht_bytes, p.wht_us),
        "ratio",
    );
    let phase_us = replayed(|r| r.phase_apply_us);
    run.put("linalg.phase_apply_us", phase_us, "us");
    run.put(
        "linalg.phase_apply_roofline_frac",
        frac(replayed(|r| r.phase_bytes), phase_us),
        "ratio",
    );
    run.put("linalg.grover_round_us", p.grover_round_us, "us");
    run.put(
        "linalg.grover_round_roofline_frac",
        frac(p.grover_round_bytes, p.grover_round_us),
        "ratio",
    );
    run.put("linalg.xy_matvec_us", p.xy_matvec_us, "us");
    run.put(
        "linalg.xy_matvec_roofline_frac",
        frac(p.xy_matvec_bytes, p.xy_matvec_us),
        "ratio",
    );
    run.put(
        "linalg.phase_table_applies_per_eval",
        c.phase_table_applies as f64 / evals,
        "count",
    );
    run.put(
        "linalg.dense_phase_applies",
        c.dense_phase_applies as f64,
        "count",
    );
    run.put(
        "linalg.fused_grover_rounds_per_eval",
        c.fused_grover_rounds as f64 / evals,
        "count",
    );
    run.put("roofline.copy_gbs", x.roofline.copy_gbs, "GB/s");
    run.put("roofline.triad_gbs", x.roofline.triad_gbs, "GB/s");

    run.put("sampling.readout_ms", replayed(|r| r.readout_ms), "ms");
    run.put(
        "sampling.alias_build_us",
        replayed(|r| r.alias_build_us),
        "us",
    );
    run.put("sampling.shots_per_s", replayed(|r| r.shots_per_s), "1/s");
    run.put(
        "sampling.shots_per_job",
        c.shots_drawn as f64 / jobs,
        "count",
    );
    run.put("telemetry.span_overhead_frac", x.span_overhead, "ratio");
    run.put("trace.overhead_frac", x.trace_overhead, "ratio");

    run.extra(
        "roofline.array_mib",
        x.roofline.array_bytes as f64 / (1 << 20) as f64,
        "MiB",
    );
    run.extra(
        "roofline.llc_mib",
        x.roofline.llc_bytes as f64 / (1 << 20) as f64,
        "MiB",
    );
    run.extra("roofline.threads", x.roofline.threads as f64, "count");
    run.extra("bytes_computed.wht", p.wht_bytes, "B");
    run.extra(
        "bytes_computed.phase_apply",
        replayed(|r| r.phase_bytes),
        "B",
    );
    run.extra("bytes_computed.grover_round", p.grover_round_bytes, "B");
    run.extra("bytes_computed.xy_matvec", p.xy_matvec_bytes, "B");
    run.extra(
        "core.decomposed_eval_us",
        replayed(|r| r.decomposed_us),
        "us",
    );
    // The engine's own readout stage exists only for sampled jobs.
    run.extra(
        "engine.readout_ms_p50",
        stage(|r| r.timings.sampling_readout_ms),
        "ms",
    );
}

/// The objective of a MaxCut n = 16 instance from this seed: the state the
/// n = 16 kernel probes phase with.
fn maxcut16_values(seed: u64) -> Result<Vec<f64>, String> {
    let spec = Workload::MaxcutTf.jobs(seed, 1).remove(0);
    Ok(precompute_full(spec.problem.build()?.cost.as_ref()))
}

/// Replays, kernel probes and the roofline, all after the jobs finished.
fn replays_and_probes(
    rec: &Recorder,
    seed: u64,
    jobs: &[(&JobSpec, &JobResult)],
) -> Result<(Vec<Replay>, Probes, Roofline), String> {
    let replays = jobs
        .iter()
        .take(REPLAYS)
        .map(|(s, r)| layers::replay(rec, s, r))
        .collect::<Result<Vec<_>, _>>()?;
    let probes = layers::probe_kernels(rec, &maxcut16_values(seed)?);
    let roofline = layers::roofline(util::nproc());
    Ok((replays, probes, roofline))
}

/// `1 − base/variant` over matched sums: the share of throughput the
/// variant's instrumentation costs.
fn overhead(base: &[f64], variant: &[f64]) -> f64 {
    1.0 - base.iter().sum::<f64>() / variant.iter().sum::<f64>()
}

/// Runs `spec` on the untraced engine and the one with a span collector,
/// alternating which goes first; returns their wall times.
fn collector_pairs(
    workload: Workload,
    seed: u64,
    pairs: usize,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let plain = inproc::set_up(workload, seed)?;
    let spanned = inproc::set_up(workload, seed)?;
    spanned
        .engine
        .set_span_collector(Arc::new(SpanCollector::new(1 << 12, 1)));
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for (i, spec) in plain.jobs.iter().take(pairs).enumerate() {
        for first in [i % 2 == 0, i % 2 == 1] {
            if first {
                a.push(inproc::run_one(&plain.engine, spec)?.wall_ms);
            } else {
                b.push(inproc::run_one(&spanned.engine, spec)?.wall_ms);
            }
        }
    }
    Ok((a, b))
}

/// The short open loop an in-process traced run sends through the HTTP tier,
/// so every traced run reports the server layer.
fn server_probe(
    rec: &Recorder,
    seed: u64,
    checker: &mut Checker,
) -> Result<(LoadReport, Vec<JobResult>), String> {
    let phases = [PROBE_PHASE];
    let specs = serve_specs(seed, &phases, 0);
    let server = ServeProcess::start(2, &journal("probe"))?;
    let path = server.journal.clone();
    let load = serve::open_loop(&server.addr, &specs, &phases, Some(rec));
    let results = server.shutdown()?;
    let _ = std::fs::remove_file(path);
    let results = gate_load(&load, &specs, &results, checker)?;
    Ok((load, results))
}

pub fn inproc_traced(workload: Workload, seed: u64, budget: Duration) -> Result<Run, String> {
    let plain = inproc::set_up(workload, seed)?;
    let spanned = inproc::set_up(workload, seed)?;
    let traced = inproc::set_up(workload, seed)?;
    spanned
        .engine
        .set_span_collector(Arc::new(SpanCollector::new(1 << 12, 1)));
    let collector = Arc::new(SpanCollector::new(1 << 12, 2));
    traced.engine.set_span_collector(collector.clone());
    let rec = Recorder::new();
    let replay_rec = Recorder::new();
    let offset = rec.now_ms() - collector.now_ms();

    // Untraced, collector-only and fully traced runs of the same jobs, in
    // rotating order so none always runs first.
    let start = Instant::now();
    let mut wall: [Vec<f64>; 3] = Default::default();
    let mut done: Vec<Done> = Vec::new();
    for (i, spec) in plain.jobs.iter().enumerate() {
        if i >= 2 && start.elapsed() >= budget {
            break;
        }
        for v in 0..3 {
            let variant = (i + v) % 3;
            if variant < 2 {
                let engine = if variant == 0 {
                    &plain.engine
                } else {
                    &spanned.engine
                };
                wall[variant].push(inproc::run_one(engine, spec)?.wall_ms);
                continue;
            }
            let trace = spec.trace_id()?;
            let hex = trace.to_hex();
            let root = rec.open(&hex, None, "Engine::run_job", "service::engine");
            let d = inproc::run_one(&traced.engine, spec)?;
            rec.close(root);
            wall[2].push(d.wall_ms);
            import_engine_spans(&rec, &collector, trace, root, offset);
            done.push(d);
        }
    }
    let mut checker = Checker::new();
    gate(&[], &mut checker, &results_of(&done))?;
    let (load, load_results) = server_probe(&rec, seed, &mut checker)?;
    let (replays, probes, roofline) = replays_and_probes(&replay_rec, seed, &results_of(&done))?;

    let mut run = Run::new(done.len() + load.outcomes.len());
    per_layer(
        &mut run,
        LayerInputs {
            load: &load,
            load_results: &load_results,
            results: done.iter().map(|d| &d.result).collect(),
            counts: sum_counts(&done),
            replays,
            probes,
            roofline,
            span_overhead: overhead(&wall[0], &wall[1]),
            trace_overhead: overhead(&wall[0], &wall[2]),
        },
    );
    self_times(&mut run, &rec);
    run.note("digest", Value::Str(checker.digest()));
    run.spans = vec![("jobs", rec.to_jsonl()), ("replay", replay_rec.to_jsonl())];
    Ok(run)
}

fn sum_counts(done: &[Done]) -> KernelSnapshot {
    let zero = KernelSnapshot::default();
    done.iter().fold(zero, |acc, d| KernelSnapshot {
        phase_table_applies: acc.phase_table_applies + d.kernels.phase_table_applies,
        dense_phase_applies: acc.dense_phase_applies + d.kernels.dense_phase_applies,
        fused_grover_rounds: acc.fused_grover_rounds + d.kernels.fused_grover_rounds,
        wht_passes: acc.wht_passes + d.kernels.wht_passes,
        prefix_checkpoint_hits: acc.prefix_checkpoint_hits + d.kernels.prefix_checkpoint_hits,
        prefix_cold_starts: acc.prefix_cold_starts + d.kernels.prefix_cold_starts,
        prefix_rounds_saved: acc.prefix_rounds_saved + d.kernels.prefix_rounds_saved,
        shots_drawn: acc.shots_drawn + d.kernels.shots_drawn,
        objective_evals: acc.objective_evals + d.kernels.objective_evals,
    })
}

/// Adds the engine's own stage spans for `trace` as children of the
/// benchmark's `run_job` span, shifted onto the recorder's clock.
fn import_engine_spans(
    rec: &Recorder,
    collector: &SpanCollector,
    trace: TraceId,
    parent: usize,
    offset: f64,
) {
    let hex = trace.to_hex();
    for s in collector.for_trace(trace) {
        let layer = match s.name.as_str() {
            "optimize" => "optim",
            "sampling_readout" => "sampling",
            _ => "service::engine",
        };
        let start = s.start_ms + offset;
        rec.record(
            &hex,
            Some(parent),
            &s.name,
            layer,
            start,
            start + s.duration_ms,
        );
    }
}

/// Self time per layer and job: the engine's job trees and the HTTP tier's.
fn self_times(run: &mut Run, rec: &Recorder) {
    for root in ["Engine::run_job", "loadgen.job"] {
        let (by_layer, trees) = rec.self_time_by_layer(root);
        for (layer, ms) in by_layer {
            run.extra(
                format!("self_ms_per_job.{root}.{layer}"),
                ms / trees.max(1) as f64,
                "ms",
            );
        }
    }
}

pub fn serve_traced(seed: u64, budget: Duration) -> Result<Run, String> {
    let phases = serve_phases(budget);
    let untraced_specs = serve_specs(seed, &phases, 0);
    let traced_specs = serve_specs(seed, &phases, untraced_specs.len());
    let rec = Recorder::new();
    let replay_rec = Recorder::new();
    let server = ServeProcess::start(2, &journal("serve-traced"))?;
    let path = server.journal.clone();
    let untraced = serve::open_loop(&server.addr, &untraced_specs, &phases, None);
    let before = server.kernel_counts()?;
    let load = serve::open_loop(&server.addr, &traced_specs, &phases, Some(&rec));
    let counts = server.kernel_counts()?.delta(&before);
    let journal_results = server.shutdown()?;
    let _ = std::fs::remove_file(path);
    let mut checker = Checker::new();
    gate_load(&untraced, &untraced_specs, &journal_results, &mut checker)?;
    let results = gate_load(&load, &traced_specs, &journal_results, &mut checker)?;
    let pairs: Vec<(&JobSpec, &JobResult)> = traced_specs.iter().zip(&results).collect();
    let (replays, probes, roofline) = replays_and_probes(&replay_rec, seed, &pairs)?;
    let (plain, spanned) = collector_pairs(Workload::ServeTiny, seed, 100)?;
    let mut run = Run::new(untraced.outcomes.len() + load.outcomes.len());
    per_layer(
        &mut run,
        LayerInputs {
            load: &load,
            load_results: &results,
            results: results.iter().collect(),
            counts,
            replays,
            probes,
            roofline,
            span_overhead: overhead(&plain, &spanned),
            // An open loop's throughput is its offered rate, so the tracing
            // cost shows in latency instead.
            trace_overhead: 1.0
                - median(&latencies(&untraced, None)) / median(&latencies(&load, None)),
        },
    );
    self_times(&mut run, &rec);
    run.note("digest", Value::Str(checker.digest()));
    run.spans = vec![("jobs", rec.to_jsonl()), ("replay", replay_rec.to_jsonl())];
    Ok(run)
}
