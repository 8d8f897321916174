//! The HTTP tier: spawning `qaoa-service serve` and driving it with an open
//! loop.
//!
//! One generator thread sends `POST /jobs` on a fixed schedule and one poller
//! thread cycles `GET /jobs/:id` over the outstanding jobs, so never more than
//! two connections are open.  Each job's latency runs from the moment its
//! submission was *due* until the poller sees `done`, so a stalled generator
//! charges its lateness to every job behind it.

use crate::trace::Recorder;
use crate::util::{ms_since, proc_status_kib};
use juliqaoa_service::http::client_request;
use juliqaoa_service::journal::strip_frame;
use juliqaoa_service::{JobResult, JobSpec, JobStatusBody};
use juliqaoa_telemetry::kernels::KernelSnapshot;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);
/// How long after the last submission outstanding jobs may still finish.
const DRAIN_LIMIT: Duration = Duration::from_secs(20);

/// A running `qaoa-service serve` child process.
pub struct ServeProcess {
    child: Child,
    pub addr: String,
    stderr: Option<JoinHandle<()>>,
    pub journal: PathBuf,
}

impl ServeProcess {
    /// Spawns the service next to this executable and waits until `/readyz`
    /// answers 200.
    pub fn start(workers: usize, journal: &Path) -> Result<ServeProcess, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let bin = exe.with_file_name("qaoa-service");
        let _ = std::fs::remove_file(journal);
        let mut child = Command::new(&bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers"])
            .arg(workers.to_string())
            .arg("--out")
            .arg(journal)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().ok_or("no stderr pipe")?;
        let (tx, rx) = mpsc::channel();
        // Reads the listening address, then keeps draining stderr so the child
        // never blocks on a full pipe; ends when the child exits.
        let reader = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(rest) = line.split("listening on http://").nth(1) {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(rest.split_whitespace().next().unwrap_or("").to_string());
                    }
                }
            }
        });
        let mut process = ServeProcess {
            child,
            addr: String::new(),
            stderr: Some(reader),
            journal: journal.to_path_buf(),
        };
        process.addr = rx
            .recv_timeout(Duration::from_secs(30))
            .map_err(|_| "qaoa-service never reported its address".to_string())?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match client_request(&process.addr, "GET", "/readyz", None, REQUEST_TIMEOUT) {
                Ok(r) if r.status == 200 => return Ok(process),
                _ if Instant::now() > deadline => return Err("/readyz never returned 200".into()),
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident memory of the service process, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        proc_status_kib(&self.pid().to_string(), "VmHWM").unwrap_or(0.0) / 1024.0
    }

    pub fn get(&self, path: &str) -> Result<String, String> {
        match client_request(&self.addr, "GET", path, None, REQUEST_TIMEOUT) {
            Ok(r) if r.status == 200 => Ok(r.body),
            Ok(r) => Err(format!("GET {path}: HTTP {}", r.status)),
            Err(e) => Err(format!("GET {path}: {e}")),
        }
    }

    /// The service's kernel counters, read from `/metrics`.
    pub fn kernel_counts(&self) -> Result<KernelSnapshot, String> {
        let text = self.get("/metrics")?;
        let counter = |name: &str| -> Result<u64, String> {
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .find_map(|l| {
                    let mut parts = l.split_whitespace();
                    (parts.next()? == name).then(|| parts.last()?.parse::<f64>().ok())?
                })
                .map(|v| v as u64)
                .ok_or_else(|| format!("/metrics has no {name}"))
        };
        Ok(KernelSnapshot {
            phase_table_applies: counter("kernel_phase_table_applies")?,
            dense_phase_applies: counter("kernel_dense_phase_applies")?,
            fused_grover_rounds: counter("kernel_fused_grover_rounds")?,
            wht_passes: counter("kernel_wht_passes")?,
            prefix_checkpoint_hits: counter("kernel_prefix_checkpoint_hits")?,
            prefix_cold_starts: counter("kernel_prefix_cold_starts")?,
            prefix_rounds_saved: counter("kernel_prefix_rounds_saved")?,
            shots_drawn: counter("kernel_shots_drawn")?,
            objective_evals: counter("kernel_objective_evals")?,
        })
    }

    /// Asks the service to drain and exit, waits for it, and returns every
    /// result its journal holds.
    pub fn shutdown(mut self) -> Result<Vec<JobResult>, String> {
        let _ = client_request(&self.addr, "POST", "/shutdown", Some(""), REQUEST_TIMEOUT);
        self.wait_or_kill(Duration::from_secs(30));
        read_journal(&self.journal)
    }

    fn wait_or_kill(&mut self, limit: Duration) {
        let deadline = Instant::now() + limit;
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
    }
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        if self.stderr.is_some() {
            self.wait_or_kill(Duration::ZERO);
        }
    }
}

fn read_journal(path: &Path) -> Result<Vec<JobResult>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(text
        .lines()
        .filter_map(strip_frame)
        .filter_map(|body| serde_json::from_str::<JobResult>(&body).ok())
        .collect())
}

/// One offered rate of the open loop.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    pub label: &'static str,
    pub rate: f64,
    pub seconds: f64,
}

/// What happened to one submission.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub spec_index: usize,
    /// The id the job was submitted under.
    pub id: String,
    pub phase: usize,
    pub due_ms: f64,
    pub lag_ms: f64,
    pub submit_ms: f64,
    /// Due → `done` seen by the poller; `None` if the job never got there.
    pub latency_ms: Option<f64>,
    pub polls: u32,
    /// `None` when done; otherwise why the job did not finish.
    pub error: Option<String>,
}

pub struct LoadReport {
    pub outcomes: Vec<Outcome>,
    pub poll_ms: Vec<f64>,
    /// Outstanding jobs at each phase's midpoint and end.
    pub backlog: Vec<(usize, usize)>,
}

struct Sent {
    index: usize,
    id: String,
    trace: String,
    due_ms: f64,
    span: Option<usize>,
}

/// Runs the open loop: job `k` of the schedule is `specs[k % specs.len()]`
/// (each under a fresh id), due at its phase's start plus `k / rate`.
pub fn open_loop(
    addr: &str,
    specs: &[JobSpec],
    phases: &[Phase],
    rec: Option<&Recorder>,
) -> LoadReport {
    let start = Instant::now();
    let (tx, rx) = mpsc::channel::<Sent>();
    let (done_tx, done_rx) = mpsc::channel::<Outcome>();
    let mut schedule = Vec::new();
    let mut phase_start = 0.0;
    let mut phase_bounds = Vec::new();
    for (p, phase) in phases.iter().enumerate() {
        let count = (phase.rate * phase.seconds).round() as usize;
        for k in 0..count {
            schedule.push((p, phase_start + k as f64 * 1e3 / phase.rate));
        }
        phase_bounds.push((
            phase_start + phase.seconds * 5e2,
            phase_start + phase.seconds * 1e3,
        ));
        phase_start += phase.seconds * 1e3;
    }
    std::thread::scope(|scope| {
        let generator_done = done_tx.clone();
        scope.spawn(move || {
            for (index, &(phase, due_ms)) in schedule.iter().enumerate() {
                let wait = due_ms - ms_since(start);
                if wait > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(wait / 1e3));
                }
                let mut spec = specs[index % specs.len()].clone();
                spec.id = format!("{}-{index}", spec.id);
                let trace = spec.trace_id().map(|t| t.to_hex()).unwrap_or_default();
                let body = serde_json::to_string(&spec).unwrap_or_default();
                let sent_ms = ms_since(start);
                let root = rec.map(|r| {
                    let now = r.now_ms();
                    r.record(
                        &trace,
                        None,
                        "loadgen.job",
                        "service::server",
                        now - (sent_ms - due_ms),
                        f64::NAN,
                    )
                });
                let t = Instant::now();
                let submit_span =
                    rec.map(|r| r.open(&trace, root, "server.submit", "service::server"));
                let response = client_request(addr, "POST", "/jobs", Some(&body), REQUEST_TIMEOUT);
                if let (Some(r), Some(id)) = (rec, submit_span) {
                    r.close(id);
                }
                let submit_ms = ms_since(t);
                let mut outcome = Outcome {
                    spec_index: index,
                    id: spec.id.clone(),
                    phase,
                    due_ms,
                    lag_ms: sent_ms - due_ms,
                    submit_ms,
                    latency_ms: None,
                    polls: 0,
                    error: None,
                };
                match response {
                    Ok(r) if r.status == 202 => {
                        let _ = tx.send(Sent {
                            index,
                            id: spec.id,
                            trace,
                            due_ms,
                            span: root,
                        });
                        // The poller reports this job's outcome; send only
                        // the submission facts it cannot see.
                        outcome.error = Some("submitted".into());
                    }
                    Ok(r) => outcome.error = Some(format!("HTTP {} on submit", r.status)),
                    Err(e) => outcome.error = Some(format!("submit failed: {e}")),
                }
                let _ = generator_done.send(outcome);
            }
        });
        let poller = scope.spawn(move || {
            let mut outstanding: VecDeque<(Sent, u32)> = VecDeque::new();
            let mut finished = Vec::new();
            let mut poll_ms = Vec::new();
            let mut backlog = vec![(0usize, 0usize); phase_bounds.len()];
            let mut marks: Vec<(usize, bool, f64)> = phase_bounds
                .iter()
                .enumerate()
                .flat_map(|(p, &(mid, end))| [(p, true, mid), (p, false, end)])
                .collect();
            marks.sort_by(|a, b| a.2.total_cmp(&b.2));
            let mut marks = marks.into_iter().peekable();
            let mut generator_open = true;
            let mut drain_deadline: Option<Instant> = None;
            loop {
                loop {
                    match rx.try_recv() {
                        Ok(sent) => outstanding.push_back((sent, 0)),
                        Err(mpsc::TryRecvError::Empty) => break,
                        Err(mpsc::TryRecvError::Disconnected) => {
                            generator_open = false;
                            break;
                        }
                    }
                }
                let now = ms_since(start);
                while let Some(&(p, mid, at)) = marks.peek() {
                    if now < at {
                        break;
                    }
                    if mid {
                        backlog[p].0 = outstanding.len();
                    } else {
                        backlog[p].1 = outstanding.len();
                    }
                    marks.next();
                }
                if !generator_open && drain_deadline.is_none() {
                    drain_deadline = Some(Instant::now() + DRAIN_LIMIT);
                }
                let Some((sent, polls)) = outstanding.pop_front() else {
                    if !generator_open {
                        break;
                    }
                    match rx.recv_timeout(Duration::from_millis(20)) {
                        Ok(sent) => outstanding.push_back((sent, 0)),
                        Err(mpsc::RecvTimeoutError::Timeout) => {}
                        Err(mpsc::RecvTimeoutError::Disconnected) => generator_open = false,
                    }
                    continue;
                };
                if drain_deadline.is_some_and(|d| Instant::now() > d) {
                    finished.push((
                        sent.index,
                        None,
                        polls,
                        Some("not done before the drain limit".to_string()),
                    ));
                    continue;
                }
                let t = Instant::now();
                let span =
                    rec.map(|r| r.open(&sent.trace, sent.span, "server.poll", "service::server"));
                let response = client_request(
                    addr,
                    "GET",
                    &format!("/jobs/{}", sent.id),
                    None,
                    REQUEST_TIMEOUT,
                );
                if let (Some(r), Some(id)) = (rec, span) {
                    r.close(id);
                }
                poll_ms.push(ms_since(t));
                let polls = polls + 1;
                let status = response.map_err(|e| e.to_string()).and_then(|r| {
                    serde_json::from_str::<JobStatusBody>(&r.body)
                        .map(|b| b.status)
                        .map_err(|e| format!("HTTP {}: {e}", r.status))
                });
                match status.as_deref() {
                    Ok("done") => {
                        let latency = ms_since(start) - sent.due_ms;
                        if let (Some(r), Some(id)) = (rec, sent.span) {
                            r.close(id);
                        }
                        finished.push((sent.index, Some(latency), polls, None));
                    }
                    Ok("queued" | "running") => outstanding.push_back((sent, polls)),
                    Ok(other) => {
                        finished.push((sent.index, None, polls, Some(format!("status {other}"))))
                    }
                    Err(e) => finished.push((sent.index, None, polls, Some(e.clone()))),
                }
            }
            (finished, poll_ms, backlog)
        });
        drop(done_tx);
        let mut outcomes: Vec<Outcome> = done_rx.iter().collect();
        let (finished, poll_ms, backlog) = poller.join().expect("poller thread panicked");
        outcomes.sort_by_key(|o| o.spec_index);
        for (index, latency, polls, error) in finished {
            if let Some(o) = outcomes.get_mut(index) {
                o.latency_ms = latency;
                o.polls = polls;
                o.error = error;
            }
        }
        LoadReport {
            outcomes,
            poll_ms,
            backlog,
        }
    })
}
