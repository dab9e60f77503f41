//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, the span open around it, and the
//! run it belongs to. Spans stay in memory while the workload runs and are
//! written out as JSON lines when it ends, followed by each span name's
//! total self time (its duration minus the part its child spans cover).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `context.new`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created; equal to `start_ns` while
    /// the span is open.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The run (solver run or grid) the span belongs to.
    pub run: u32,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Span recorder. While disabled, `open` returns `None` and nothing is
/// recorded, so the untraced iterations of a traced run pay nothing.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    run: u32,
    enabled: bool,
}

impl Tracer {
    /// A disabled tracer with no spans.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            run: 0,
            enabled: false,
        }
    }

    /// Enables or disables recording for the following spans, and sets the
    /// run id they carry.
    pub fn start_run(&mut self, run: u32, enabled: bool) {
        self.close_all();
        self.run = run;
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            run: self.run,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        Some(id)
    }

    /// Closes span `id` and any span still open inside it.
    pub fn close(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Closes every open span (after a run that returned early).
    pub fn close_all(&mut self) {
        if let Some(&bottom) = self.stack.first() {
            self.close(Some(bottom));
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Total self time in seconds per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_secs = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_secs[p] += s.secs();
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_secs) {
            *out.entry(s.name).or_insert(0.0) += (s.secs() - children).max(0.0);
        }
        out
    }

    /// Writes every span as one JSON line, then one line with the self
    /// times.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run
            );
        }
        out.push_str("{\"self_s\":{");
        for (i, (name, secs)) in self.self_times().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{secs}");
        }
        out.push_str("}}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_runs_record_nothing() {
        let mut tr = Tracer::new();
        tr.start_run(0, false);
        assert_eq!(tr.open("skipped"), None);
        tr.start_run(1, true);
        let root = tr.open("run");
        tr.span("child", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        tr.close(root);
        let run = tr.durations("run")[0];
        let child = tr.durations("child")[0];
        assert!(child >= 0.02 && run >= child);
        let selfs = tr.self_times();
        assert!((selfs["run"] - (run - child)).abs() < 1e-9);
        assert!(tr.durations("skipped").is_empty());
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(tr.spans[1].run, 1);
    }
}
