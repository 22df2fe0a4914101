//! Spans recorded from outside the program: the benchmark wraps each
//! call it makes into a layer. Spans stay in memory and are written out
//! when the run ends. (Spans inside the program are a later change.)

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, e.g. `db.scan_columns`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// The table the work was for: the identifier spans of one request
    /// share.
    pub table: Option<u32>,
}

impl Span {
    /// Length of the interval.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span, to be passed back to [`Recorder::exit`].
#[must_use]
pub struct Open(Option<u32>);

/// Collects spans; when disabled every call is a no-op, which is what
/// the tracing-overhead measurement compares against.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, table: Option<u32>) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        self.stack.push(idx);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            table,
        });
        Open(Some(idx))
    }

    /// Closes a span. Spans close innermost first.
    pub fn exit(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost first");
            self.spans[idx as usize].end_ns = end_ns;
        }
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Consumes the recorder, returning its spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Wraps an expression in a span: `span!(rec, "db.connect", None, db.connect())`.
#[macro_export]
macro_rules! span {
    ($rec:expr, $name:expr, $table:expr, $body:expr) => {{
        let __open = $rec.enter($name, $table);
        let __out = $body;
        $rec.exit(__open);
        __out
    }};
}

/// Each span's self time: its duration minus the part its child spans
/// cover. Children of one span never overlap here (one thread records),
/// so the covered part is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(p) = span.parent {
            own[p as usize] = own[p as usize].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Self time and call count per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times_ns(spans)) {
        let slot = out.entry(span.name).or_default();
        slot.0 += own;
        slot.1 += 1;
    }
    out
}

/// The trace file: one object per span.
pub fn to_json(spans: &[Span]) -> Value {
    Value::Array(
        spans
            .iter()
            .map(|s| {
                json!({
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": s.parent,
                    "table": s.table,
                })
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            table: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("root", 0, 100, None),
            span("stage", 10, 70, Some(0)),
            span("call", 20, 50, Some(1)),
            span("call", 50, 60, Some(1)),
            span("stage", 70, 95, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![15, 20, 30, 10, 25]);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["root"], (15, 1));
        assert_eq!(totals["stage"], (45, 2));
        assert_eq!(totals["call"], (40, 2));
        // Self times partition the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_and_a_disabled_one_records_nothing() {
        let mut rec = Recorder::new(true);
        let outer = rec.enter("outer", Some(3));
        let got = span!(rec, "inner", Some(3), 6 * 7);
        rec.exit(outer);
        assert_eq!(got, 42);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!(
            (spans[1].name, spans[1].parent, spans[1].table),
            ("inner", Some(0), Some(3))
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Recorder::new(false);
        assert_eq!(span!(off, "x", None, 1 + 1), 2);
        assert!(off.spans().is_empty());
    }
}
