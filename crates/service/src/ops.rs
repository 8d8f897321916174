//! The ops layer both HTTP tiers run on: one accept loop, one lifecycle trace
//! and one set of ops endpoints, shared by `serve` ([`crate::server`]) and
//! `route` ([`crate::router`]).
//!
//! A tier implements [`Tier`]: its own routes (`/jobs*`, `/metrics`, `/stats`)
//! plus the few hooks the shared endpoints need.  Everything else lives here:
//!
//! | Method & path     | Behaviour                                                |
//! |-------------------|----------------------------------------------------------|
//! | `GET /healthz`    | Liveness probe (200 whenever the process can answer)     |
//! | `GET /readyz`     | Readiness probe: 200, or 503 with the tier's reason      |
//! | `POST /shutdown`  | Stops the accept loop (serve then drains its workers)    |
//! | `GET /trace`      | Recent lifecycle events from the bounded trace ring      |
//! | `GET /trace/:id`  | The retained spans of one trace, flat + as a tree        |
//! | `GET /version`    | Build identity (crate version, profile, git describe)    |
//! | anything else     | `404`; `405` for a `/jobs/…` or `/trace/…` path with the |
//! |                   | wrong method                                             |
//!
//! [`Ops`] owns the state behind them: the start instant, the stop flag, the
//! lifecycle [`TraceRing`] and the [`SpanCollector`], both mirrored to the
//! optional `--trace-out` JSONL file.

use crate::http::{read_request_limited, write_error, write_json, write_json_or_500, Request};
use crate::spans::{collector_salt, trace_body, version_value};
use juliqaoa_telemetry::{PromWriter, Span, SpanCollector, TraceId, TraceRing};
use serde::{Deserialize, Serialize};
use std::io::{BufWriter, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long the accept loop sleeps when no connection is pending.
pub const POLL_SLEEP: Duration = Duration::from_millis(10);

/// Default per-connection socket read and write timeout, in milliseconds.
pub const IO_TIMEOUT_MS: u64 = 5_000;

/// One entry in the lifecycle trace ring (`GET /trace` and `--trace-out`).
///
/// `ts_ms` is milliseconds since the process started serving — a monotonic
/// offset, not wall-clock time, so traces stay comparable across restarts and
/// replays.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct TraceEvent {
    /// Monotonic sequence number (gaps mean the ring dropped events).
    pub seq: u64,
    /// Milliseconds since start.
    pub ts_ms: f64,
    /// Serve: `submit` / `shed` / `reject` / `retry` / `done` / `cancelled` /
    /// `timed_out` / `failed` / `panic` / `drain`.  Route: `backend_up` /
    /// `backend_down` / `backend_tripped` / `failover` / `hedge`.
    pub event: String,
    /// The job id the event concerns (empty for process-wide events).
    pub job: String,
    /// Free-form context, e.g. the error that triggered a retry.
    pub detail: String,
}

/// The `GET /trace` body.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct TraceBody {
    /// Events evicted from the ring since start (oldest-first window follows).
    pub dropped: u64,
    /// The ring's capacity (`--trace-ring-cap` / `JULIQAOA_TRACE_CAP`).
    pub capacity: u64,
    /// The retained events, oldest first.
    pub events: Vec<TraceEvent>,
}

/// The `--trace-out` writer, shared by lifecycle events and the span sink.
pub type TraceOut = Arc<Mutex<BufWriter<std::fs::File>>>;

/// Process-wide ops state of one tier.
pub struct Ops {
    started: Instant,
    /// Set by `POST /shutdown`; the accept loop stops at the next poll.
    stop_requested: AtomicBool,
    trace: TraceRing<TraceEvent>,
    trace_seq: AtomicU64,
    trace_out: Option<TraceOut>,
    /// Completed spans for `GET /trace/:id`, mirrored to `--trace-out`.
    pub spans: Arc<SpanCollector>,
}

impl Ops {
    /// Creates (truncating) the `--trace-out` file when `trace_path` is set and
    /// sizes both the trace ring and the span collector to `trace_cap`.
    pub fn new(trace_path: Option<&Path>, trace_cap: usize) -> std::io::Result<Ops> {
        let (spans, trace_out) = traced_spans(trace_path, trace_cap)?;
        Ok(Ops {
            started: Instant::now(),
            stop_requested: AtomicBool::new(false),
            trace: TraceRing::new(trace_cap.max(1)),
            trace_seq: AtomicU64::new(0),
            trace_out,
            spans,
        })
    }

    /// Seconds since start.
    pub fn uptime_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Records a lifecycle event into the trace ring (and the `--trace-out`
    /// file, when configured).  Observation only: failures to write the trace
    /// file are swallowed so tracing can never fail a job.
    pub fn trace_event(&self, event: &str, job: &str, detail: impl Into<String>) {
        let entry = TraceEvent {
            // relaxed: sequence allocator; fetch_add is atomic regardless of ordering.
            seq: self.trace_seq.fetch_add(1, Ordering::Relaxed),
            ts_ms: self.started.elapsed().as_secs_f64() * 1e3,
            event: event.to_string(),
            job: job.to_string(),
            detail: detail.into(),
        };
        if let Some(out) = &self.trace_out {
            if let Ok(line) = serde_json::to_string(&entry) {
                let mut w = out.lock().expect("trace out lock");
                let _ = writeln!(w, "{line}");
                let _ = w.flush();
            }
        }
        self.trace.push(entry);
    }

    /// The `trace_events_dropped` and `trace_spans_dropped` counters for `/metrics`.
    pub fn write_dropped(&self, w: &mut PromWriter) {
        w.counter(
            "trace_events_dropped",
            "Lifecycle events evicted from the bounded trace ring.",
            self.trace.dropped(),
        );
        w.counter(
            "trace_spans_dropped",
            "Completed spans evicted from the bounded span collector.",
            self.spans.dropped(),
        );
    }
}

/// Creates (truncating) the `--trace-out` file when `trace_path` is set, and a
/// span collector of capacity `cap` that mirrors every completed span into it.
/// Span lines are distinguishable from lifecycle-event lines by their leading
/// `"span"` key.  Write failures are swallowed — tracing must never fail a job.
pub fn traced_spans(
    trace_path: Option<&Path>,
    cap: usize,
) -> std::io::Result<(Arc<SpanCollector>, Option<TraceOut>)> {
    let spans = Arc::new(SpanCollector::new(cap.max(1), collector_salt()));
    let Some(path) = trace_path else {
        return Ok((spans, None));
    };
    let out: TraceOut = Arc::new(Mutex::new(BufWriter::new(std::fs::File::create(path)?)));
    let sink = out.clone();
    spans.set_sink(Box::new(move |span: &Span| {
        let mut w = sink.lock().expect("trace out lock");
        let _ = writeln!(w, "{}", span.to_json_line());
        let _ = w.flush();
    }));
    Ok((spans, Some(out)))
}

/// What a tier plugs into the shared accept loop.
pub trait Tier {
    /// Where `GET /trace/:id` looked, appended to its 404 message.
    const TRACE_SCOPE: &'static str = "";

    /// The tier's ops state.
    fn ops(&self) -> &Ops;

    /// Upper bound on request bodies (structured 413 beyond it).
    fn max_body_bytes(&self) -> usize;

    /// Per-connection socket `(read, write)` timeouts in milliseconds.
    fn io_timeout_ms(&self) -> (u64, u64) {
        (IO_TIMEOUT_MS, IO_TIMEOUT_MS)
    }

    /// Runs once per accepted connection, before the request is read.
    fn on_connection(&self) {}

    /// Serves the tier's own routes; returns `false` for any other request,
    /// which then falls through to the ops routes (405 for a `/jobs/…` path,
    /// 404 for an unknown one).  `path` has trailing slashes trimmed.
    fn route(&self, stream: &mut TcpStream, request: &Request, path: &str) -> bool;

    /// `Ok` when the tier can take work; `Err(reason)` makes `/readyz` a 503.
    fn readiness(&self) -> Result<(), &'static str>;

    /// Spans held outside this process that `GET /trace/:id` merges in.
    fn remote_spans(&self, _trace: TraceId) -> Vec<Span> {
        Vec::new()
    }
}

/// Serves `tier` on `listener` until `stop` or `POST /shutdown`.  The listener
/// is polled nonblockingly so an external stop (SIGTERM) is noticed between
/// connections, not only after the next client happens to connect.
pub fn serve<T: Tier>(listener: &TcpListener, tier: &T, stop: &AtomicBool) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    while !stop.load(Ordering::SeqCst) && !tier.ops().stop_requested.load(Ordering::SeqCst) {
        poll_once(listener, tier);
    }
    Ok(())
}

/// Polls the nonblocking listener once and serves the connection, if any;
/// sleeps [`POLL_SLEEP`] when none is pending.
pub fn poll_once<T: Tier>(listener: &TcpListener, tier: &T) {
    match listener.accept() {
        Ok((mut stream, _)) => {
            // The accepted socket must not inherit nonblocking mode: request
            // reads rely on the read timeout, not on a WouldBlock spin.
            let _ = stream.set_nonblocking(false);
            let (read_ms, write_ms) = tier.io_timeout_ms();
            let _ = stream.set_read_timeout(Some(Duration::from_millis(read_ms.max(1))));
            let _ = stream.set_write_timeout(Some(Duration::from_millis(write_ms.max(1))));
            handle_connection(tier, &mut stream);
        }
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::sleep(POLL_SLEEP),
        Err(_) => {}
    }
}

/// Handles one connection end to end: the tier's routes first, then the ops
/// routes, then the 404/405 fallbacks.
fn handle_connection<T: Tier>(tier: &T, stream: &mut TcpStream) {
    tier.on_connection();
    let request = match read_request_limited(stream, tier.max_body_bytes()) {
        Ok(r) => r,
        Err(e) => {
            write_error(stream, e.status, &e.message);
            return;
        }
    };
    let path = request.path.trim_end_matches('/');
    if tier.route(stream, &request, path) {
        return;
    }
    let ops = tier.ops();
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => write_json(stream, 200, "{\"status\": \"ok\"}"),
        ("GET", "/readyz") => match tier.readiness() {
            Ok(()) => write_json(stream, 200, "{\"status\": \"ready\"}"),
            Err(reason) => write_error(stream, 503, reason),
        },
        ("POST", "/shutdown") => {
            ops.stop_requested.store(true, Ordering::SeqCst);
            write_json(stream, 200, "{\"status\": \"shutting down\"}");
        }
        ("GET", "/trace") => {
            let body = TraceBody {
                dropped: ops.trace.dropped(),
                capacity: ops.trace.capacity() as u64,
                events: ops.trace.snapshot(),
            };
            write_json_or_500(stream, 200, serde_json::to_string_pretty(&body));
        }
        ("GET", "/version") => {
            write_json_or_500(stream, 200, serde_json::to_string_pretty(&version_value()))
        }
        (method, path) => match path.strip_prefix("/trace/") {
            Some(raw) if method == "GET" => handle_trace_id(tier, stream, raw),
            // A known resource with the wrong method: `/trace/:id`, or a
            // `/jobs/…` path the tier declined.
            _ if path.starts_with("/trace/") || path.starts_with("/jobs/") => {
                write_error(stream, 405, "method not allowed")
            }
            _ => write_error(stream, 404, "no such endpoint"),
        },
    }
}

/// `GET /trace/:id`: this process's spans of one trace plus the tier's
/// [`Tier::remote_spans`], flat and as a tree.
fn handle_trace_id<T: Tier>(tier: &T, stream: &mut TcpStream, raw: &str) {
    let Some(trace) = TraceId::parse(raw) else {
        write_error(
            stream,
            400,
            &format!("invalid trace id {raw:?} (want 16 hex digits)"),
        );
        return;
    };
    let mut spans = tier.ops().spans.for_trace(trace);
    spans.extend(tier.remote_spans(trace));
    if spans.is_empty() {
        let scope = T::TRACE_SCOPE;
        write_error(
            stream,
            404,
            &format!("no spans retained for trace {raw:?}{scope}"),
        );
        return;
    }
    write_json_or_500(
        stream,
        200,
        serde_json::to_string_pretty(&trace_body(trace, spans)),
    );
}
