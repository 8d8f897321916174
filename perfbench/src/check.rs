//! The correctness gate: every job must finish `done`, and every reported
//! expectation is re-evaluated at the returned angles by a path independent of
//! the one the service used.
//!
//! * MaxCut jobs: the gate-level `juliqaoa_circuit::GateSimulator` (one RZZ per
//!   edge, one RX per qubit per round).
//! * Every other job: a fresh `Simulator` with dense phases and no prefix cache.
//!
//! A results digest over ids, expectations, angles and eval counts lets two
//! runs with the same seed be compared; it is recorded, never pinned.

use crate::util::Digest;
use juliqaoa_circuit::maxcut_qaoa_expectation_gate_sim;
use juliqaoa_combinatorics::DickeSubspace;
use juliqaoa_core::{Angles, Simulator};
use juliqaoa_mixers::Mixer;
use juliqaoa_problems::{paper_maxcut_instance, precompute_dicke, precompute_full};
use juliqaoa_service::{JobResult, JobSpec, MixerSpec, ProblemSpec};
use std::collections::HashMap;

/// Absolute agreement required between the service and the reference, scaled
/// by the objective's magnitude.
pub const TOLERANCE: f64 = 1e-9;

pub struct Checker {
    /// Subspace mixers depend only on `(kind, n, k)`, so the reference builds
    /// each once per run.
    mixers: HashMap<(MixerSpec, usize, usize), Mixer>,
    digest: Digest,
}

impl Checker {
    pub fn new() -> Self {
        Checker {
            mixers: HashMap::new(),
            digest: Digest::new(),
        }
    }

    pub fn digest(&self) -> String {
        self.digest.hex()
    }

    /// Checks one job's result; `Err` carries the reason it failed.
    pub fn check(&mut self, spec: &JobSpec, result: &JobResult) -> Result<(), String> {
        let fail = |what: String| Err(format!("job {}: {what}", spec.id));
        if result.id != spec.id {
            return fail(format!("result carries id {:?}", result.id));
        }
        if result.status != "done" {
            return fail(format!("status {:?}, want \"done\"", result.status));
        }
        if result.angles.len() != 2 * spec.p {
            return fail(format!("{} angles for p = {}", result.angles.len(), spec.p));
        }
        let (exact, reference) = self.reference(spec, result)?;
        let scale = reference.abs().max(1.0);
        if (exact - reference).abs() > TOLERANCE * scale || !exact.is_finite() {
            return fail(format!(
                "expectation {exact:.15} disagrees with the reference {reference:.15}"
            ));
        }
        if !(-1e-9..=1.0 + 1e-9).contains(&result.quality) {
            return fail(format!("quality {} outside [0, 1]", result.quality));
        }
        self.digest.update(result.id.as_bytes());
        self.digest
            .update(&result.expectation.to_bits().to_le_bytes());
        for a in &result.angles {
            self.digest.update(&a.to_bits().to_le_bytes());
        }
        self.digest
            .update(&(result.function_evals as u64).to_le_bytes());
        Ok(())
    }

    /// `(service value, reference value)` for the job's exact expectation.
    fn reference(&mut self, spec: &JobSpec, result: &JobResult) -> Result<(f64, f64), String> {
        let p = spec.p;
        let exact = match &result.sampling {
            Some(report) => report.exact_expectation,
            None => result.expectation,
        };
        if let ProblemSpec::MaxCutGnp { n, instance } = spec.problem {
            let graph = paper_maxcut_instance(n, instance);
            let values = precompute_full(&juliqaoa_problems::MaxCut::new(graph.clone()));
            let gate = maxcut_qaoa_expectation_gate_sim(
                &graph,
                &result.angles[..p],
                &result.angles[p..],
                &values,
            );
            return Ok((exact, gate));
        }
        let problem = spec.problem.build()?;
        let values = match problem.subspace_k {
            Some(k) => precompute_dicke(problem.cost.as_ref(), &DickeSubspace::new(problem.n, k)),
            None => precompute_full(problem.cost.as_ref()),
        };
        let key = (spec.mixer, problem.n, problem.subspace_k.unwrap_or(0));
        let mixer = match self.mixers.get(&key) {
            Some(m) => m.clone(),
            None => {
                let m = spec.mixer.build(&problem)?;
                self.mixers.insert(key, m.clone());
                m
            }
        };
        let sim = Simulator::new(values, mixer)
            .map_err(|e| e.to_string())?
            .with_dense_phases();
        let reference = sim
            .expectation(&Angles::from_flat(&result.angles))
            .map_err(|e| e.to_string())?;
        Ok((exact, reference))
    }
}
