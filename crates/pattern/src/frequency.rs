//! Pattern frequency evaluation over event logs.
//!
//! `f(p)` (Section 2.2) is the number of traces matching `p` divided by
//! `|L|`. Counting scans only the traces containing *all* of the pattern's
//! events, obtained from the inverted trace index `I_t` (Section 3.2.3).
//! Every support count in the workspace runs through [`support_scan`]; the
//! matcher engines only decide, per candidate trace, whether it matches.

use evematch_eventlog::{ColumnarLog, EventLog, TraceIndex};

use crate::ast::Pattern;
use crate::compiled::{CompileError, CompiledPattern};
use crate::graph_form::{edge_groups, PatternGraph};
use crate::matcher::{Interrupted, TraceMatcher};

/// Work counters of one (or several accumulated) support scans, for
/// observability. Every field is deterministic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SupportStats {
    /// Inverted-index intersections performed (`I_t` probes).
    pub index_probes: u64,
    /// Candidate traces handed to the matcher engine.
    pub candidate_traces: u64,
    /// Candidate traces that actually matched.
    pub matched_traces: u64,
}

/// The support scan: the number of traces of `traces` that `matcher`
/// accepts, visiting only the candidates `⋂ I_t(v)` over the mapped
/// pattern's events `v`.
///
/// `index` must have been built from the same log as `traces`. A pattern
/// mentioning an event outside the index's vocabulary has support 0, and
/// the index is then not probed. With `fuel`, the scan polls it once per
/// candidate trace (the unit of work) and stops with [`Interrupted`] as
/// soon as it runs dry; the partial count is not returned, since an
/// interrupted scan has no sound frequency. `stats` accumulates the work
/// done, interrupted scans included.
pub fn support_scan(
    matcher: TraceMatcher<'_>,
    traces: &ColumnarLog,
    index: &TraceIndex,
    mut fuel: Option<&mut dyn FnMut() -> bool>,
    stats: &mut SupportStats,
) -> Result<usize, Interrupted> {
    let events = matcher.events();
    // An event outside the vocabulary can never match; guard so
    // `traces_with_all` does not index out of bounds.
    if events.iter().any(|e| e.index() >= index.event_count()) {
        return Ok(0);
    }
    let matches = matcher.predicate(index.event_count());
    stats.index_probes += 1;
    let mut matched = 0usize;
    for t in index.traces_with_all(&events) {
        if let Some(fuel) = fuel.as_mut() {
            if !fuel() {
                return Err(Interrupted);
            }
        }
        stats.candidate_traces += 1;
        if matches(traces.trace(t as usize)) {
            matched += 1;
            stats.matched_traces += 1;
        }
    }
    Ok(matched)
}

/// Number of traces of `log` matching `p`, counted by the interpreter
/// through [`support_scan`].
///
/// `index` must have been built from `log`.
pub fn pattern_support(p: &Pattern, log: &EventLog, index: &TraceIndex) -> usize {
    let mut stats = SupportStats::default();
    let matcher = TraceMatcher::Interpreted(p);
    // Without fuel the scan cannot be interrupted.
    support_scan(matcher, log.traces(), index, None, &mut stats).unwrap_or(0)
}

/// Normalized frequency `f(p) = pattern_support / |L|`.
pub fn pattern_freq(p: &Pattern, log: &EventLog, index: &TraceIndex) -> f64 {
    if log.is_empty() {
        0.0
    } else {
        pattern_support(p, log, index) as f64 / log.len() as f64
    }
}

/// A pattern bundled with everything the matching algorithms repeatedly
/// need: its sorted event set, graph form, Table-2 classification and its
/// frequency in the *source* log `L1`.
///
/// Built once per pattern before the search starts; the A\* and heuristic
/// engines then only evaluate *mapped* frequencies in `L2`.
#[derive(Clone, Debug)]
pub struct EvaluatedPattern {
    /// The pattern itself.
    pub pattern: Pattern,
    /// `V(p)`, sorted ascending.
    pub events: Vec<evematch_eventlog::EventId>,
    /// Graph form (provides `ω(p)` and the edge list).
    pub graph: PatternGraph,
    /// Required edge groups (see [`crate::edge_groups`]) driving the
    /// structure-aware frequency caps.
    pub edge_groups: Vec<Vec<(evematch_eventlog::EventId, evematch_eventlog::EventId)>>,
    /// Unnormalized support in `L1`.
    pub support: usize,
    /// Normalized frequency `f1(p)`.
    pub freq: f64,
    /// The bit-parallel compiled form (see [`crate::CompiledPattern`]),
    /// or the typed reason this pattern must use the interpreter.
    /// Compiled once here so no evaluation path ever recompiles.
    pub compiled: Result<CompiledPattern, CompileError>,
}

impl EvaluatedPattern {
    /// Evaluates `pattern` against `log` (its `L1`).
    pub fn new(pattern: Pattern, log: &EventLog, index: &TraceIndex) -> Self {
        let support = pattern_support(&pattern, log, index);
        let freq = if log.is_empty() {
            0.0
        } else {
            support as f64 / log.len() as f64
        };
        EvaluatedPattern {
            events: pattern.events(),
            graph: PatternGraph::of(&pattern),
            edge_groups: edge_groups(&pattern),
            support,
            freq,
            compiled: CompiledPattern::compile(&pattern),
            pattern,
        }
    }

    /// Number of events `|p|`.
    pub fn size(&self) -> usize {
        self.events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evematch_eventlog::{EventId, LogBuilder};

    fn e(i: u32) -> Pattern {
        Pattern::event(i)
    }

    /// 4 traces: A(B‖C)D twice as ABCD, once as ACBD, once without C.
    fn log() -> EventLog {
        let mut b = LogBuilder::new();
        b.push_named_trace(["A", "B", "C", "D"]);
        b.push_named_trace(["A", "C", "B", "D"]);
        b.push_named_trace(["A", "B", "C", "D"]);
        b.push_named_trace(["A", "B", "D"]);
        b.build()
    }

    #[test]
    fn vertex_pattern_frequency_matches_vertex_frequency() {
        let l = log();
        let idx = l.trace_index();
        let c = l.events().lookup("C").unwrap();
        assert_eq!(pattern_support(&Pattern::Event(c), &l, &idx), 3);
        assert!((pattern_freq(&Pattern::Event(c), &l, &idx) - l.vertex_freq(c)).abs() < 1e-12);
    }

    #[test]
    fn edge_pattern_frequency_matches_edge_frequency() {
        let l = log();
        let idx = l.trace_index();
        let a = l.events().lookup("A").unwrap();
        let b = l.events().lookup("B").unwrap();
        let p = Pattern::seq_of_events([a, b]).unwrap();
        assert_eq!(pattern_support(&p, &l, &idx), 3);
        assert!((pattern_freq(&p, &l, &idx) - l.edge_freq(a, b)).abs() < 1e-12);
    }

    #[test]
    fn paper_p1_counts_both_orders() {
        let l = log();
        let idx = l.trace_index();
        // SEQ(A, AND(B, C), D) matches ABCD and ACBD but not ABD.
        let p = Pattern::seq(vec![e(0), Pattern::and(vec![e(1), e(2)]).unwrap(), e(3)]).unwrap();
        assert_eq!(pattern_support(&p, &l, &idx), 3);
        assert!((pattern_freq(&p, &l, &idx) - 0.75).abs() < 1e-12);
    }

    /// A fuel closure granting `units` polls.
    fn fuel_of(mut units: u32) -> impl FnMut() -> bool {
        move || {
            let ok = units > 0;
            units = units.saturating_sub(1);
            ok
        }
    }

    #[test]
    fn fueled_support_counts_or_interrupts() {
        let l = log();
        let idx = l.trace_index();
        let p = Pattern::seq(vec![e(0), Pattern::and(vec![e(1), e(2)]).unwrap(), e(3)]).unwrap();
        let m = TraceMatcher::Interpreted(&p);
        let mut stats = SupportStats::default();
        let r = support_scan(m, l.traces(), &idx, Some(&mut || true), &mut stats);
        assert_eq!(r, Ok(3));
        // Three candidate traces contain {A,B,C,D}; two units of fuel stop
        // the scan before the third.
        let r = support_scan(m, l.traces(), &idx, Some(&mut fuel_of(2)), &mut stats);
        assert_eq!(r, Err(Interrupted));
    }

    #[test]
    fn support_stats_count_probes_and_candidates() {
        let l = log();
        let idx = l.trace_index();
        let p = Pattern::seq(vec![e(0), Pattern::and(vec![e(1), e(2)]).unwrap(), e(3)]).unwrap();
        let m = TraceMatcher::Interpreted(&p);
        let mut stats = SupportStats::default();
        assert_eq!(support_scan(m, l.traces(), &idx, None, &mut stats), Ok(3));
        assert_eq!(stats.index_probes, 1);
        assert_eq!(stats.candidate_traces, 3, "only {{A,B,C,D}} traces scanned");
        assert_eq!(stats.matched_traces, 3);
        // Interrupted scans keep the partial work counted.
        let mut stats = SupportStats::default();
        let r = support_scan(m, l.traces(), &idx, Some(&mut fuel_of(2)), &mut stats);
        assert_eq!(r, Err(Interrupted));
        assert_eq!(stats.index_probes, 1);
        assert_eq!(stats.candidate_traces, 2);
    }

    #[test]
    fn out_of_vocabulary_pattern_has_zero_support() {
        let l = log();
        let idx = l.trace_index();
        let p = Pattern::seq_of_events([EventId(0), EventId(99)]).unwrap();
        assert_eq!(pattern_support(&p, &l, &idx), 0);
    }

    #[test]
    fn empty_log_frequency_is_zero() {
        let l = LogBuilder::new().build();
        let idx = l.trace_index();
        assert_eq!(pattern_freq(&e(0), &l, &idx), 0.0);
    }

    #[test]
    fn evaluated_pattern_caches_everything() {
        let l = log();
        let idx = l.trace_index();
        let p = Pattern::seq(vec![e(0), Pattern::and(vec![e(1), e(2)]).unwrap(), e(3)]).unwrap();
        let ep = EvaluatedPattern::new(p.clone(), &l, &idx);
        assert_eq!(ep.pattern, p);
        assert_eq!(ep.size(), 4);
        assert_eq!(ep.support, 3);
        assert!((ep.freq - 0.75).abs() < 1e-12);
        assert_eq!(ep.graph.edge_count(), 6);
        assert_eq!(
            ep.events,
            vec![EventId(0), EventId(1), EventId(2), EventId(3)]
        );
    }
}
