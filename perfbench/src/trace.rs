//! In-memory spans recorded around calls into the library layers.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer was
//! created) and the index of the span that was open when it started. Spans
//! stay in memory until the run ends and are then written out as JSON. A
//! span's *self time* is its duration minus the durations of its direct
//! children.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::Value;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or phase name, e.g. `tree.build`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin (equal to the start
    /// while the span is open).
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall time of the span in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    /// Panics when no span is open, which is a bug in the caller.
    pub fn close(&mut self) {
        let end_ns = self.now_ns();
        let idx = self.open.pop().expect("close() matches an open()");
        self.spans[idx].end_ns = end_ns;
    }

    /// Closes open spans until `depth` remain, e.g. after a traced call
    /// panicked inside a span.
    pub fn close_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.close();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Wall times in seconds of every span named `name`, in start order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Self times in seconds, grouped by span name, in start order.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            out.entry(span.name).or_default().push(own as f64 * 1e-9);
        }
        out
    }

    /// The spans as a JSON array of `{name, start_ns, end_ns, parent}`.
    pub fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    Value::Object(vec![
                        ("name".to_string(), Value::from(s.name)),
                        ("start_ns".to_string(), Value::from(s.start_ns)),
                        ("end_ns".to_string(), Value::from(s.end_ns)),
                        ("parent".to_string(), Value::from(s.parent)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.open("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        t.close();
        let outer = t.durations("outer")[0];
        let inner = t.durations("inner")[0];
        let own = t.self_times()["outer"][0];
        assert!(inner >= 0.02);
        assert!((outer - inner - own).abs() < 1e-6);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
    }
}
