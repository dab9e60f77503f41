//! Traces: finite event sequences ordered by occurrence time.
//!
//! A log stores its traces in one arena (see [`crate::ColumnarLog`]) and
//! hands them out as `&[EventId]` slices; [`Trace`] is the owned form a
//! caller builds before pushing it into a log.

use std::ops::Deref;

use crate::event::EventId;

/// One trace of an event log — e.g. the sequence of processing steps of a
/// single order in the paper's running ERP example.
///
/// Timestamps are abstracted away: the paper's model (Section 2.1) only
/// consumes the *order* of events, so a trace is simply a `Vec<EventId>`.
/// It dereferences to the `[EventId]` slice a stored trace is read as.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Trace {
    events: Vec<EventId>,
}

impl Trace {
    /// Creates a trace from an event sequence.
    pub fn new(events: Vec<EventId>) -> Self {
        Trace { events }
    }

    /// The event sequence.
    #[inline]
    pub fn events(&self) -> &[EventId] {
        &self.events
    }
}

impl Deref for Trace {
    type Target = [EventId];

    fn deref(&self) -> &[EventId] {
        &self.events
    }
}

impl AsRef<[EventId]> for Trace {
    fn as_ref(&self) -> &[EventId] {
        &self.events
    }
}

impl From<Vec<EventId>> for Trace {
    fn from(events: Vec<EventId>) -> Self {
        Trace::new(events)
    }
}

impl From<Vec<u32>> for Trace {
    fn from(events: Vec<u32>) -> Self {
        Trace::new(events.into_iter().map(EventId).collect())
    }
}

impl FromIterator<EventId> for Trace {
    fn from_iter<T: IntoIterator<Item = EventId>>(iter: T) -> Self {
        Trace::new(iter.into_iter().collect())
    }
}

/// Whether `a` is immediately followed by `b` somewhere in `trace`.
///
/// This is the "two consecutive events" relation of Definition 1; note
/// `a == b` asks whether the event repeats back to back.
pub(crate) fn has_consecutive(trace: &[EventId], a: EventId, b: EventId) -> bool {
    trace.windows(2).any(|w| w[0] == a && w[1] == b)
}

/// Iterates over the consecutive event pairs of `trace`.
pub(crate) fn consecutive_pairs(
    trace: &[EventId],
) -> impl Iterator<Item = (EventId, EventId)> + '_ {
    trace.windows(2).map(|w| (w[0], w[1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ids: &[u32]) -> Trace {
        Trace::from(ids.to_vec())
    }

    #[test]
    fn contains_and_consecutive() {
        let tr = t(&[0, 1, 2, 1]);
        assert!(tr.contains(&EventId(2)));
        assert!(!tr.contains(&EventId(3)));
        assert!(has_consecutive(&tr, EventId(1), EventId(2)));
        assert!(has_consecutive(&tr, EventId(2), EventId(1)));
        assert!(!has_consecutive(&tr, EventId(0), EventId(2)));
    }

    #[test]
    fn repeated_event_consecutive() {
        let tr = t(&[5, 5]);
        assert!(has_consecutive(&tr, EventId(5), EventId(5)));
    }

    #[test]
    fn consecutive_pairs_enumeration() {
        let tr = t(&[0, 1, 2]);
        let pairs: Vec<_> = consecutive_pairs(&tr).collect();
        assert_eq!(
            pairs,
            vec![(EventId(0), EventId(1)), (EventId(1), EventId(2))]
        );
        assert_eq!(consecutive_pairs(&t(&[7])).count(), 0);
        assert_eq!(consecutive_pairs(&t(&[])).count(), 0);
    }
}
