//! The traced run's own spans: the benchmark wraps each call it makes into a
//! layer's public function in a span (name, layer, start, end, parent), keyed
//! by the job's trace id.  Spans stay in memory and are written out when the
//! run ends.  A layer's self time is its spans' durations minus the part of
//! each interval that child spans cover.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub trace: String,
    pub id: usize,
    pub parent: Option<usize>,
    /// The tree's root span (itself for a root).
    pub root: usize,
    pub name: String,
    pub layer: &'static str,
    pub start_ms: f64,
    pub end_ms: f64,
}

pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ms(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e3
    }

    /// Records an already-closed span; returns its id.
    pub fn record(
        &self,
        trace: &str,
        parent: Option<usize>,
        name: &str,
        layer: &'static str,
        start_ms: f64,
        end_ms: f64,
    ) -> usize {
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        let id = spans.len();
        let root = parent.map_or(id, |p| spans[p].root);
        spans.push(Span {
            trace: trace.to_string(),
            id,
            parent,
            root,
            name: name.to_string(),
            layer,
            start_ms,
            end_ms,
        });
        id
    }

    /// Opens a span that [`Recorder::close`] ends; children may name it as
    /// parent in between.
    pub fn open(
        &self,
        trace: &str,
        parent: Option<usize>,
        name: &str,
        layer: &'static str,
    ) -> usize {
        let now = self.now_ms();
        self.record(trace, parent, name, layer, now, f64::NAN)
    }

    pub fn close(&self, id: usize) -> f64 {
        let now = self.now_ms();
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        spans[id].end_ms = now;
        now - spans[id].start_ms
    }

    /// Runs `f` inside a span and returns its value and duration in µs.
    pub fn time<T>(
        &self,
        trace: &str,
        parent: Option<usize>,
        name: &str,
        layer: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(trace, parent, name, layer);
        let out = std::hint::black_box(f());
        (out, self.close(id) * 1e3)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Self time per layer in ms, summed over the spans of every tree whose
    /// root is named `root_name`; also returns how many such trees there are.
    pub fn self_time_by_layer(&self, root_name: &str) -> (BTreeMap<&'static str, f64>, usize) {
        let all = self.spans();
        let in_tree = |s: &Span| all[s.root].name == root_name;
        let trees = all.iter().filter(|s| s.id == s.root && in_tree(s)).count();
        let spans: Vec<Span> = all.iter().filter(|s| in_tree(s)).cloned().collect();
        let index: BTreeMap<usize, usize> =
            spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                children[index[&p]].push((s.start_ms, s.end_ms));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in spans.iter().zip(children.iter_mut()) {
            if !s.end_ms.is_finite() {
                continue;
            }
            *out.entry(s.layer).or_insert(0.0) +=
                (s.end_ms - s.start_ms) - covered(s.start_ms, s.end_ms, kids);
        }
        (out, trees)
    }

    /// One JSON object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            out.push_str(&format!(
                "{{\"trace\": \"{}\", \"id\": {}, \"parent\": {}, \"name\": \"{}\", \"layer\": \"{}\", \"start_ms\": {}, \"end_ms\": {}}}\n",
                s.trace,
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.layer,
                s.start_ms,
                s.end_ms
            ));
        }
        out
    }
}

/// Length of `[start, end]` covered by the union of `intervals`.
fn covered(start: f64, end: f64, intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let s = s.max(reach);
        let e = e.min(end);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}
