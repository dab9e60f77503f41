//! The trace store of an [`crate::EventLog`].
//!
//! Every trace of a log lives in one interned event-id arena with an
//! offsets column (classic CSR layout), so the support scans of both
//! matcher engines stream contiguous memory instead of chasing one heap
//! pointer per trace. [`crate::EventLog::traces`] returns this store;
//! the builder, the readers and the generators append into it, and the
//! dependency graph, trace index and statistics are computed from it.

use crate::event::EventId;
use crate::log::EventLog;

/// The traces of a log: one flat event-id arena plus an offsets column
/// (`offsets.len() == trace_count + 1`, `offsets[0] == 0`).
///
/// `trace(t)` is the slice `arena[offsets[t]..offsets[t+1]]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnarLog {
    /// Every trace's events, concatenated in trace order.
    arena: Vec<EventId>,
    /// `offsets[t]` = start of trace `t` in `arena`; the final entry is
    /// `arena.len()`.
    offsets: Vec<usize>,
}

impl Default for ColumnarLog {
    /// The store of zero traces (a lone `0` offset).
    fn default() -> Self {
        ColumnarLog {
            arena: Vec::new(),
            offsets: vec![0],
        }
    }
}

impl ColumnarLog {
    /// A copy of `log`'s trace store.
    pub fn from_log(log: &EventLog) -> Self {
        log.traces().clone()
    }

    /// Appends one trace.
    pub(crate) fn push(&mut self, events: impl IntoIterator<Item = EventId>) {
        self.arena.extend(events);
        self.offsets.push(self.arena.len());
    }

    /// Releases the growth slack of the arena and the offsets.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.arena.shrink_to_fit();
        self.offsets.shrink_to_fit();
    }

    /// The first `n` traces (all of them when `n` exceeds the count).
    pub(crate) fn prefix(&self, n: usize) -> ColumnarLog {
        let n = n.min(self.len());
        ColumnarLog {
            arena: self.arena[..self.offsets[n]].to_vec(),
            offsets: self.offsets[..=n].to_vec(),
        }
    }

    /// The events of trace `t`, as a contiguous slice of the arena.
    /// Panics if `t` is out of range.
    #[inline]
    pub fn trace(&self, t: usize) -> &[EventId] {
        &self.arena[self.offsets[t]..self.offsets[t + 1]]
    }

    /// Every trace, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[EventId]> + '_ {
        self.offsets.windows(2).map(|w| &self.arena[w[0]..w[1]])
    }

    /// Number of traces.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the store holds no traces.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of event occurrences across all traces (arena length).
    pub fn total_events(&self) -> usize {
        self.arena.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LogBuilder;
    use crate::trace::Trace;

    #[test]
    fn columnar_view_mirrors_the_log() {
        let mut b = LogBuilder::new();
        b.push_named_trace(["A", "B", "C"]);
        b.push_named_trace(["B"]);
        b.push_named_trace(["C", "A"]);
        let log = b.build();
        let col = log.traces();
        assert_eq!(col.len(), 3);
        assert_eq!(col.total_events(), 6);
        let names: Vec<Vec<&str>> = col
            .iter()
            .map(|t| t.iter().map(|&e| log.events().name(e)).collect())
            .collect();
        assert_eq!(names, [vec!["A", "B", "C"], vec!["B"], vec!["C", "A"]]);
        assert_eq!(ColumnarLog::from_log(&log), *col);
    }

    #[test]
    fn empty_log_and_empty_traces_are_representable() {
        let empty = LogBuilder::new().build();
        assert!(empty.traces().is_empty());
        assert_eq!(empty.traces().total_events(), 0);

        let mut b = LogBuilder::new();
        b.push_named_trace(["A"]);
        b.push_trace(Trace::from(Vec::<u32>::new()));
        b.push_named_trace(["A", "A"]);
        let col = b.build().traces().clone();
        assert_eq!(col.len(), 3);
        assert_eq!(col.trace(0), &[EventId(0)]);
        assert!(col.trace(1).is_empty());
        assert_eq!(col.trace(2).len(), 2);
        assert_eq!(col.prefix(2).iter().count(), 2);
        assert_eq!(col.prefix(9), col);
        assert!(col.prefix(0).is_empty());
    }

    #[test]
    fn defaults_hold_zero_traces() {
        let col = ColumnarLog::default();
        assert_eq!(col.len(), 0);
        assert!(col.is_empty());
        assert_eq!(col.iter().count(), 0);
        let log = EventLog::default();
        assert_eq!(log.len(), 0);
        assert!(log.is_empty());
        assert_eq!(log.traces().iter().count(), 0);
        assert_eq!(log, LogBuilder::new().build());
    }
}
