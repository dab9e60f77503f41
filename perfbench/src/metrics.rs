//! The metric catalogue and the result record one run prints.
//!
//! `BENCHMARK.json` lists the same names and units; the tests hold the two
//! in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by untraced runs: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("runs_per_s", "1/s"),
    ("run_s.p50", "s"),
    ("score_ratio", "ratio"),
    ("finished_share", "ratio"),
    ("ok_share", "ratio"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics, printed by traced runs: `(name, unit)`. A layer a
/// workload never calls reads 0 on that workload (README.md lists which
/// workload calls which layer).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("eventlog.read_s", "s"),
    ("eventlog.read_mb_per_s", "MB/s"),
    ("eventlog.depgraph_s", "s"),
    ("eventlog.trace_index_s", "s"),
    ("eventlog.columnar_s", "s"),
    ("pattern.f1_s", "s"),
    ("pattern.compile_s", "s"),
    ("pattern.compile_fallbacks", "count"),
    ("pattern.scan_s", "s"),
    ("pattern.candidate_traces", "count"),
    ("pattern.matched_traces", "count"),
    ("pattern.match_ratio", "ratio"),
    ("context.new_s", "s"),
    ("context.unattributed_s", "s"),
    ("search.solve_s", "s"),
    ("search.processed", "count"),
    ("search.processed_per_s", "1/s"),
    ("search.pops", "count"),
    ("search.expansions", "count"),
    ("bounds.pruned", "count"),
    ("evaluator.cache_hits", "count"),
    ("evaluator.cache_misses", "count"),
    ("evaluator.cache_hit_ratio", "ratio"),
    ("evaluator.log_scans", "count"),
    ("evaluator.score_s", "s"),
    ("evaluator.shared_hits", "count"),
    ("parpool.batches", "count"),
    ("parpool.steals", "count"),
    ("parpool.seq_s", "s"),
    ("parpool.par_s", "s"),
    ("parpool.speedup", "ratio"),
    ("grid.cell_s_sum", "s"),
    ("grid.utilization", "ratio"),
    ("grid.straggler_s", "s"),
    ("persist.write_s", "s"),
    ("persist.bytes_written", "bytes"),
    ("persist.journal_s", "s"),
    ("trace.overhead_s", "s"),
];

/// What one run measured: the run counts, the metric values it set, and
/// facts for the line printed ahead of the result.
#[derive(Debug, Default)]
pub struct Report {
    /// Runs attempted (grid cells for the grid workload).
    pub attempted: u64,
    /// Runs that panicked, returned an error, or failed the output check.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    facts: Vec<(&'static str, String)>,
}

impl Report {
    /// Records metric `name`, which must be in the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// Records a fact for the line printed ahead of the result.
    pub fn fact(&mut self, key: &'static str, value: impl ToString) {
        self.facts.push((key, value.to_string()));
    }

    /// The names this run set explicitly.
    pub fn emitted(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.values.keys().copied()
    }

    /// The value of `name`, when set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Whether every attempted run passed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The facts as one JSON object, values as strings or numbers.
    pub fn facts_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.facts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let is_number = v.parse::<f64>().is_ok_and(f64::is_finite);
            if is_number || v.starts_with('{') {
                let _ = write!(out, "\"{k}\":{v}");
            } else {
                let _ = write!(
                    out,
                    "\"{k}\":\"{}\"",
                    v.replace('\\', "\\\\").replace('"', "\\\"")
                );
            }
        }
        out.push('}');
        out
    }

    /// The result line: end-to-end metrics for an untraced run, per-layer
    /// metrics for a traced one. Unset per-layer metrics read 0.
    pub fn result_json(&self, traced: bool) -> String {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let v = self.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            let _ = write!(out, "\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

#[cfg(test)]
/// Whether `name` is made only of `[A-Za-z0-9_.-]` and is not empty.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}
