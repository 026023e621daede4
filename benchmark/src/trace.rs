//! In-memory spans around the calls the harness makes into each layer.
//!
//! A span records a name, start, end, the span that caused it and the turn
//! it belongs to. Spans live in a `Vec` until the run ends and are then
//! written as Chrome trace-event JSON. A layer's busy time is the *self*
//! time of its spans: duration minus the part covered by direct children.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub turn: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Span recorder. A disabled tracer records nothing and its calls cost a
/// branch, so the untraced run executes the same harness code.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    turn: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            turn: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the turn identifier stamped on spans begun from now on.
    pub fn set_turn(&mut self, turn: u64) {
        self.turn = turn;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            turn: self.turn,
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Ends a span and returns its duration in seconds (0 when disabled).
    ///
    /// # Panics
    ///
    /// Panics if spans are ended out of nesting order: that is a bug in the
    /// harness, and self times computed from such a trace would be wrong.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let Some(id) = id.0 else { return 0.0 };
        let now = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must end in nesting order");
        self.spans[id].end_ns = now;
        self.spans[id].seconds()
    }

    /// Ends a span at `dur_ns` after its start rather than now: the call it
    /// wraps ended then, and the harness has since been timing that call's
    /// inner layer by replay (see [`Tracer::synthetic_child`]).
    pub fn end_with_duration(&mut self, id: SpanId, dur_ns: u64) {
        let Some(id) = id.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must end in nesting order");
        self.spans[id].end_ns = self.spans[id].start_ns + dur_ns;
    }

    /// Runs `f` and returns its result with the seconds it took: the span's
    /// duration when tracing, a bare `Instant` pair otherwise. The ratio of
    /// the two over the same calls is the tracing overhead.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        if self.enabled {
            let id = self.begin(name);
            let r = f();
            let seconds = self.end(id);
            (r, seconds)
        } else {
            let t0 = Instant::now();
            let r = f();
            (r, t0.elapsed().as_secs_f64())
        }
    }

    /// Records a child of the innermost open span whose duration was
    /// measured elsewhere: it is laid out from `offset_ns` after the
    /// parent's start. Used where a layer runs *inside* a public call and
    /// can only be timed by replaying it directly (see `layers`).
    pub fn synthetic_child(&mut self, name: &'static str, offset_ns: u64, dur_ns: u64) {
        if !self.enabled {
            return;
        }
        let parent = *self
            .stack
            .last()
            .expect("synthetic child needs an open parent");
        let start = self.spans[parent].start_ns + offset_ns;
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start + dur_ns,
            parent: Some(parent),
            turn: self.turn,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): complete
    /// events, microsecond timestamps, the turn id and parent index in
    /// `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"turn\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i,
                parent,
                s.turn
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span, in seconds: its duration minus the time its
/// direct children cover, clamped at zero (a synthetic child may have been
/// measured slightly longer than the parent call it sits in).
pub fn self_seconds(spans: &[Span]) -> Vec<f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64 * 1e-9)
        .collect()
}

/// Sum of span self times per span name.
pub fn busy_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_seconds(spans)) {
        *out.entry(s.name).or_insert(0.0) += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            turn: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("top", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        let own = self_seconds(&spans);
        let ns: Vec<u64> = own.iter().map(|s| (s * 1e9).round() as u64).collect();
        assert_eq!(ns, [30, 20, 10, 40]);
        // Self times partition the root's duration.
        assert_eq!(ns.iter().sum::<u64>(), 100);
        let busy = busy_by_name(&spans);
        assert!((busy["a"] - 20e-9).abs() < 1e-15);
    }

    #[test]
    fn self_time_clamps_oversized_children() {
        let spans = vec![span("top", 0, 10, None), span("kid", 0, 12, Some(0))];
        assert_eq!(self_seconds(&spans)[0], 0.0);
    }

    #[test]
    fn tracer_nests_and_stamps_turns() {
        let mut t = Tracer::new(true);
        t.set_turn(7);
        let outer = t.begin("outer");
        let (two, seconds) = t.timed("inner", || std::hint::black_box(1 + 1));
        assert_eq!(two, 2);
        assert!(seconds >= 0.0);
        t.synthetic_child("replayed", 5, 3);
        t.end(outer);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[2].start_ns, s[0].start_ns + 5);
        assert!(s.iter().all(|s| s.turn == 7));
        assert!(s[0].end_ns >= s[1].end_ns);
        let json = t.to_chrome_json();
        assert!(json.contains("\"name\":\"inner\""));
        assert!(json.contains("\"turn\":7"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x");
        assert_eq!(t.end(id), 0.0);
        t.synthetic_child("y", 0, 1);
        let ((), seconds) = t.timed("z", || ());
        assert!(seconds >= 0.0);
        assert!(t.spans().is_empty());
    }
}
