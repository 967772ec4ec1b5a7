//! Benchmark-side spans around calls into the program's layers.
//!
//! Every timed call goes through [`Tracer::enter`] / [`Tracer::exit`], so
//! the untraced and traced runs time exactly the same code; a traced run
//! additionally keeps one [`Span`] per call in memory and writes them out
//! when the run ends. Span names are `<layer>.<call>`, with the layer
//! named after the workspace crate it calls into.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Offsets from the tracer's origin.
    pub start: Duration,
    /// End offset.
    pub end: Duration,
}

impl Span {
    /// Wall time of the span.
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }

    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// An open span, closed by [`Tracer::exit`].
#[must_use = "close the span with Tracer::exit"]
pub struct Open {
    slot: Option<usize>,
    start: Instant,
}

/// Span recorder; records nothing while disabled.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder, recording when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start or stop recording (only between spans).
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside a span");
        self.enabled = on;
    }

    /// Open a span named `name` inside the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let slot = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                parent: self.stack.last().copied(),
                start: start - self.origin,
                end: start - self.origin,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { slot, start }
    }

    /// Close `open` and return its wall time.
    pub fn exit(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        if let Some(slot) = open.slot {
            self.spans[slot].end = end - self.origin;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(slot), "spans must nest");
        }
        end - open.start
    }

    /// Run `f` inside a span and return its result and wall time.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.enter(name);
        let r = f();
        (r, self.exit(open).as_secs_f64())
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per layer: each span's duration minus the part its child
/// spans cover, summed by layer.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, Duration> {
    let mut child_time = vec![Duration::ZERO; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_time[p] += s.duration();
        }
    }
    let mut out = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_time) {
        *out.entry(s.layer()).or_insert(Duration::ZERO) += s.duration().saturating_sub(children);
    }
    out
}

/// The spans as JSON lines: `id`, `parent`, `name`, `start_ns`, `end_ns`.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.name,
            s.start.as_nanos(),
            s.end.as_nanos()
        )
        .expect("writing to a String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            start: Duration::from_millis(start),
            end: Duration::from_millis(end),
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("serve.round", None, 0, 100),
            span("serve.put", Some(0), 0, 10),
            span("network.fit", Some(0), 10, 40),
            span("core.learn", None, 100, 150),
        ];
        let self_times = layer_self_times(&spans);
        // serve: 100 − (10 + 30) round self + 10 put.
        assert_eq!(self_times["serve"], Duration::from_millis(70));
        assert_eq!(self_times["network"], Duration::from_millis(30));
        assert_eq!(self_times["core"], Duration::from_millis(50));
    }

    #[test]
    fn tracer_nests_and_records_only_when_enabled() {
        let mut t = Tracer::new(false);
        let (v, _) = t.time("core.learn", || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        let outer = t.enter("serve.round");
        let inner = t.enter("serve.put");
        let d_inner = t.exit(inner);
        let d_outer = t.exit(outer);
        assert!(d_outer >= d_inner);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(to_jsonl(t.spans()).contains("\"parent\":0,\"name\":\"serve.put\""));
    }
}
