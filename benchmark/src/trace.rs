//! In-memory spans for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer's
//! public functions: name, start, end, the span that caused it, and the
//! request or point id. Spans stay in memory while the workload runs and
//! are written out once it ends. A layer is the span name up to its first
//! `.` (`cpu.lane_batch` belongs to `cpu`), and its self time is the time
//! its spans cover minus the part their child spans cover.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span, in nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request or point id (0 when the span has none).
    pub id: u64,
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span starting now and returns its index.
    pub fn open(&self, name: &'static str, parent: Option<usize>, id: u64) -> usize {
        let now = self.ns(Instant::now());
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            id,
        });
        spans.len() - 1
    }

    /// Closes span `index` now.
    pub fn close(&self, index: usize) {
        let now = self.ns(Instant::now());
        self.spans.lock().expect("span list poisoned")[index].end_ns = now;
    }

    /// Records a span whose interval was measured elsewhere.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            id,
        };
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Runs `f` inside a span.
    pub fn scope<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.open(name, parent, id);
        let result = f();
        self.close(span);
        result
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// The layer a span belongs to.
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time of every span, in seconds: its duration minus the union of
/// its children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered) as f64 / 1e9
        })
        .collect()
}

/// Total self time per key (span name or layer), in seconds.
pub fn self_time_by(spans: &[Span], key: impl Fn(&Span) -> String) -> BTreeMap<String, f64> {
    let mut totals = BTreeMap::new();
    for (span, secs) in spans.iter().zip(self_times(spans)) {
        *totals.entry(key(span)).or_insert(0.0) += secs;
    }
    totals
}

/// The spans as JSON, one object per span.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"spans\":[\n");
    for (index, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"index\":{index},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"id\":{}}}{}\n",
            span.name,
            span.start_ns as f64 / 1e3,
            span.end_ns as f64 / 1e3,
            span.id,
            if index + 1 == spans.len() { "" } else { "," },
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("sweep", 0, 100, None),
            span("cpu.scalar", 10, 50, Some(0)),
            span("cpu.scalar", 30, 70, Some(0)), // overlaps its sibling
            span("render.table4", 80, 120, Some(0)), // overruns the parent
        ];
        let selfs = self_times(&spans);
        assert!((selfs[0] - 20e-9).abs() < 1e-15);
        assert!((selfs[1] - 40e-9).abs() < 1e-15);
        let by_layer = self_time_by(&spans, |s| layer(s.name).to_string());
        assert!((by_layer["cpu"] - 80e-9).abs() < 1e-15);
    }
}
