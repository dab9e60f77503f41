//! `perfbench`: the repository's end-to-end matching benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. One run generates the workload's inputs
//! from `--seed`, measures for `--seconds`, checks every returned mapping,
//! and prints two lines: the run's facts (host, sizes, sample count, DNF
//! and failure shares) and, last, the result object. An untraced run
//! reports the end-to-end metrics, a traced run (`--trace 1`) the
//! per-layer ones. README.md lists the workloads and metrics.
//!
//! Exit codes: 0 when every run passed its output check, 1 when one failed
//! or the workload could not run, 2 for bad arguments or ambient knobs.

mod check;
mod grid;
mod heap;
mod metrics;
mod solve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use trace::Tracer;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// How many times a run sets up its inputs; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `run_grid` over the Figure 12 methods.
    Fig12Grid,
    /// Logs read from disk, solved, mapping written back.
    IngestReal,
    /// Pattern-Tight A* with two eval threads.
    ExactT2,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Fig12Grid, Workload::IngestReal, Workload::ExactT2];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig12Grid => "fig12_grid",
            Workload::IngestReal => "ingest_real",
            Workload::ExactT2 => "exact_t2",
        }
    }
}

/// Input sizes: `Full` is what the benchmark measures; `Tiny` keeps the
/// same code paths at sizes the unit tests can afford.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes stated in README.md.
    Full,
    /// Test sizes.
    Tiny,
}

/// One invocation's settings.
#[derive(Clone, Debug)]
pub struct Options {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measurement window.
    pub seconds: u64,
    /// Print per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Scratch directory for input files, journals and mappings.
    pub work: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <fig12_grid|ingest_real|exact_t2> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<(Workload, u64, u64, bool), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace.unwrap_or(false),
    ))
}

/// Environment variables that would steer the library or its harness from
/// outside the benchmark's own settings.
fn ambient_knobs() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("EVEMATCH_"))
        .collect()
}

/// Runs one workload and returns its report.
pub fn run_workload(
    workload: Workload,
    opts: &Options,
    tr: &mut Tracer,
) -> Result<metrics::Report, String> {
    match workload {
        Workload::Fig12Grid => grid::run(opts, tr),
        w => solve::run(w, opts, tr),
    }
}

fn host_facts(root: &Path) -> String {
    format!(
        "{{\"nproc\":{},\"profile\":\"{}\",\"commit\":\"{}\",\"source_digest\":\"{}\"}}",
        stats::nproc(),
        stats::build_profile(),
        stats::commit(root),
        stats::source_digest(root)
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, seed, seconds, trace) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let knobs = ambient_knobs();
    if !knobs.is_empty() || evematch_core::fault::is_armed() {
        eprintln!(
            "perfbench: refusing to run with ambient knobs set ({}); unset them",
            if knobs.is_empty() {
                "armed failpoints".to_owned()
            } else {
                knobs.join(", ")
            }
        );
        return ExitCode::from(2);
    }
    let root = PathBuf::from(".");
    let scratch = root.join(".perfbench_work");
    let work = scratch.join(format!("{}-{}", workload.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(1);
    }
    let opts = Options {
        seed,
        seconds,
        trace,
        scale: Scale::Full,
        work,
    };
    let mut tr = Tracer::new();
    let result = run_workload(workload, &opts, &mut tr);
    let _ = std::fs::remove_dir_all(&opts.work);
    let mut rep = match result {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!("perfbench: {} could not run: {e}", workload.name());
            return ExitCode::from(1);
        }
    };
    if trace {
        let spans = scratch.join(format!("spans-{}-seed{seed}.jsonl", workload.name()));
        match tr.write_jsonl(&spans) {
            Ok(()) => rep.fact("spans", spans.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", spans.display()),
        }
    }
    rep.fact("workload", workload.name());
    rep.fact("seed", seed);
    rep.fact("traced", trace);
    rep.fact("host", host_facts(&root));
    println!("{}", rep.facts_json());
    println!("{}", rep.result_json(trace));
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evematch_core::telemetry::json::JsonValue;
    use std::collections::BTreeSet;

    fn benchmark_json() -> JsonValue {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        JsonValue::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(JsonValue::as_str)
                        .expect("string field")
                        .to_owned()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    /// Runs every workload at test sizes, untraced and traced, and returns
    /// the metric names each set.
    fn emitted() -> (BTreeSet<&'static str>, BTreeSet<&'static str>) {
        let (mut e2e, mut layers) = (BTreeSet::new(), BTreeSet::new());
        for w in Workload::ALL {
            for trace in [false, true] {
                let work = std::env::temp_dir().join(format!(
                    "perfbench-test-{}-{}-{trace}",
                    w.name(),
                    std::process::id()
                ));
                std::fs::create_dir_all(&work).expect("temp dir");
                let opts = Options {
                    seed: 7,
                    seconds: 0,
                    trace,
                    scale: Scale::Tiny,
                    work: work.clone(),
                };
                let rep = run_workload(w, &opts, &mut Tracer::new()).expect("workload runs");
                std::fs::remove_dir_all(&work).expect("temp dir removed");
                assert!(rep.correct(), "{} failed its output check", w.name());
                if trace { &mut layers } else { &mut e2e }.extend(rep.emitted());
            }
        }
        (e2e, layers)
    }

    #[test]
    fn every_benchmark_metric_is_emitted_and_every_name_is_valid() {
        let doc = benchmark_json();
        let (e2e, layers) = emitted();
        for (key, catalogue, seen) in [
            ("end_to_end", metrics::END_TO_END, &e2e),
            ("per_layer", metrics::PER_LAYER, &layers),
        ] {
            let listed = listed(&doc, key);
            let expected: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect();
            assert_eq!(
                listed, expected,
                "{key} in BENCHMARK.json differs from the catalogue"
            );
            for (name, _) in &listed {
                assert!(metrics::valid_name(name), "invalid metric name {name}");
                assert!(seen.contains(name.as_str()), "no workload emits {name}");
            }
        }
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(JsonValue::as_arr)
            .expect("workload list")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .expect("name")
                    .to_owned()
            })
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
        assert_eq!(workloads, ours);
        assert!(workloads.iter().all(|w| metrics::valid_name(w)));
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        assert_eq!(
            parse_args(&args("--workload exact_t2 --seed 3 --seconds 10 --trace 1")),
            Ok((Workload::ExactT2, 3, 10, true))
        );
        assert!(parse_args(&args("--workload nope --seed 3 --seconds 10")).is_err());
        assert!(parse_args(&args("--workload exact_t2 --seconds 10")).is_err());
        assert!(parse_args(&args("--workload exact_t2 --seed 3 --seconds 10 --trace 2")).is_err());
    }
}
