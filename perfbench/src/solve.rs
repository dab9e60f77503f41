//! The workloads that solve one instance per run: `exact_t2` and
//! `ingest_real`.
//!
//! A run goes from the workload's inputs to a returned mapping: for
//! `ingest_real` it reads both logs from disk and writes the mapping back
//! with `persist::atomic_write_verified`; for `exact_t2` the logs are
//! already in memory. Each run builds a `MatchContext` and calls the
//! solver's `solve_with` under an explicit, cap-only budget.

use std::fmt::Write as _;
use std::fs::File;
use std::hint::black_box;
use std::io::{BufReader, BufWriter, Write as _};
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::time::Instant;

use evematch_core::persist::{self, integrity};
use evematch_core::{
    score, AdvancedHeuristic, BoundKind, Budget, EvalConfig, ExactMatcher, Mapping, MatchContext,
    MatchOutcome, MatcherEngine, PatternSetBuilder,
};
use evematch_datagen::{datasets, Dataset};
use evematch_eval::MatchQuality;
use evematch_eventlog::{
    read_csv_log_with, read_log_with, write_csv_log, write_log, ColumnarLog, EventLog,
    IngestOptions,
};
use evematch_pattern::{
    compiled_pattern_support_stats, pattern_support, CompiledPattern, SupportStats,
};

use crate::check::check_mapping;
use crate::metrics::Report;
use crate::stats::{mean, median, ratio};
use crate::trace::Tracer;
use crate::{Options, Scale, Workload, SETUP_REPS};

/// Which solver a workload runs.
#[derive(Clone, Copy, Debug)]
enum Solver {
    /// `AdvancedHeuristic` (Heuristic-Advanced) with the tight bound.
    Advanced,
    /// `ExactMatcher` (Pattern-Tight A*) with the tight bound.
    Tight,
}

/// The generated dataset a workload runs on.
#[derive(Clone, Copy, Debug)]
enum Data {
    /// `datasets::larger_synthetic(modules, traces, seed)`.
    Synthetic { modules: usize, traces: usize },
    /// `datasets::real_like_sized(traces, traces, seed)`.
    RealLike { traces: usize },
}

/// One workload's fixed settings.
#[derive(Clone, Copy, Debug)]
struct Spec {
    data: Data,
    solver: Solver,
    threads: usize,
    cap: u64,
    /// Read both logs from disk and write the mapping back each run.
    from_disk: bool,
    /// Instances generated from the seed; runs cycle through them, so a
    /// run's figures do not rest on one instance.
    panel: usize,
}

/// A processed-mapping cap no finishing run of these sizes reaches: the
/// budget stays deterministic and never cuts a heuristic short.
const NEVER_CAP: u64 = 1_000_000_000;

fn spec(workload: Workload, scale: Scale) -> Spec {
    let full = scale == Scale::Full;
    match workload {
        Workload::ExactT2 => Spec {
            data: if full {
                Data::Synthetic {
                    modules: 2,
                    traces: 3000,
                }
            } else {
                Data::Synthetic {
                    modules: 1,
                    traces: 100,
                }
            },
            solver: Solver::Tight,
            threads: 2,
            cap: if full { 100_000 } else { 2_000 },
            from_disk: false,
            panel: 8,
        },
        Workload::IngestReal => Spec {
            data: Data::RealLike {
                traces: if full { 20_000 } else { 300 },
            },
            solver: Solver::Advanced,
            threads: 1,
            cap: NEVER_CAP,
            from_disk: true,
            panel: 2,
        },
        Workload::Fig12Grid => unreachable!("the grid workload lives in grid.rs"),
    }
}

/// One generated instance plus, for disk workloads, its two input files.
struct Instance {
    ds: Dataset,
    files: Option<(PathBuf, PathBuf)>,
}

/// Generates the workload's panel of instances from `seed` (instance `k`
/// uses dataset seed `seed * panel + k`) and writes the input files.
fn setup(spec: &Spec, seed: u64, work: &Path) -> Result<Vec<Instance>, String> {
    (0..spec.panel)
        .map(|k| {
            let seed = seed.wrapping_mul(spec.panel as u64).wrapping_add(k as u64);
            let ds = match spec.data {
                Data::Synthetic { modules, traces } => {
                    datasets::larger_synthetic(modules, traces, seed)
                }
                Data::RealLike { traces } => datasets::real_like_sized(traces, traces, seed),
            };
            let files = if spec.from_disk {
                let l1 = work.join(format!("l1-{k}.log"));
                let l2 = work.join(format!("l2-{k}.csv"));
                write_file(&l1, |w| write_log(&ds.pair.log1, w))?;
                write_file(&l2, |w| write_csv_log(&ds.pair.log2, w))?;
                Some((l1, l2))
            } else {
                None
            };
            Ok(Instance { ds, files })
        })
        .collect()
}

fn write_file(
    path: &Path,
    fill: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> Result<(), String> {
    let mut w = BufWriter::new(
        File::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?,
    );
    fill(&mut w)
        .and_then(|()| w.flush())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// What one run returned.
struct Done {
    secs: f64,
    ctx: MatchContext,
    out: MatchOutcome,
    read_bytes: u64,
    /// The mapping file's bytes, for disk workloads.
    written: Option<Vec<u8>>,
}

fn solve(ctx: &MatchContext, spec: &Spec, threads: usize) -> MatchOutcome {
    let config = EvalConfig::from_budget(Budget::UNLIMITED.with_processed_cap(spec.cap))
        .with_threads(threads)
        .with_engine(MatcherEngine::Compiled);
    match spec.solver {
        Solver::Advanced => AdvancedHeuristic::new(BoundKind::Tight).solve_with(ctx, &config),
        Solver::Tight => ExactMatcher::new(BoundKind::Tight).solve_with(ctx, &config),
    }
}

fn read_logs(l1: &Path, l2: &Path) -> Result<(EventLog, EventLog, u64), String> {
    let open = |p: &Path| {
        let f = File::open(p).map_err(|e| format!("cannot open {}: {e}", p.display()))?;
        let len = f.metadata().map_err(|e| e.to_string())?.len();
        Ok::<_, String>((BufReader::new(f), len))
    };
    let (r1, n1) = open(l1)?;
    let log1 = read_log_with(r1, &IngestOptions::strict())
        .map_err(|e| format!("{}: {e}", l1.display()))?
        .log;
    let (r2, n2) = open(l2)?;
    let log2 = read_csv_log_with(r2, &IngestOptions::strict())
        .map_err(|e| format!("{}: {e}", l2.display()))?
        .log;
    Ok((log1, log2, n1 + n2))
}

/// The mapping as `name1<TAB>name2` lines, the CLI's output format.
fn render_mapping(ctx: &MatchContext, m: &Mapping) -> String {
    let mut text = String::new();
    for (a, b) in m.pairs() {
        let _ = writeln!(
            text,
            "{}\t{}",
            ctx.log1().events().name(a),
            ctx.log2().events().name(b)
        );
    }
    text
}

fn run_once(spec: &Spec, inputs: &Instance, work: &Path, tr: &mut Tracer) -> Result<Done, String> {
    let in_memory = match inputs.files {
        None => Some((inputs.ds.pair.log1.clone(), inputs.ds.pair.log2.clone())),
        Some(_) => None,
    };
    let start = Instant::now();
    let root = tr.open("run");
    let (log1, log2, read_bytes) = match (in_memory, &inputs.files) {
        (Some((l1, l2)), _) => (l1, l2, 0),
        (None, Some((p1, p2))) => tr.span("eventlog.read", || read_logs(p1, p2))?,
        (None, None) => unreachable!("disk workloads always have files"),
    };
    let patterns = PatternSetBuilder::new()
        .vertices()
        .edges()
        .complex_all(inputs.ds.patterns.iter().cloned());
    let ctx = tr
        .span("context.new", || MatchContext::new(log1, log2, patterns))
        .map_err(|e| e.to_string())?;
    let out = tr.span("search.solve", || solve(&ctx, spec, spec.threads));
    let written = if spec.from_disk {
        let text = render_mapping(&ctx, &out.mapping);
        let path = work.join("mapping.tsv");
        tr.span("persist.write", || {
            persist::atomic_write_verified(&path, text.as_bytes())
        })
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Some(text.into_bytes())
    } else {
        None
    };
    tr.close(root);
    Ok(Done {
        secs: start.elapsed().as_secs_f64(),
        ctx,
        out,
        read_bytes,
        written,
    })
}

/// The ground truth in the context's event ids (the CSV reader numbers
/// `L2`'s events by first appearance, so ids are matched by name).
fn truth_in(ctx: &MatchContext, ds: &Dataset) -> Mapping {
    let pairs = ds.pair.truth.pairs().filter_map(|(a, b)| {
        let a = ctx.log1().events().lookup(ds.pair.log1.events().name(a))?;
        let b = ctx.log2().events().lookup(ds.pair.log2.events().name(b))?;
        Some((a, b))
    });
    Mapping::from_pairs(ctx.n1(), ctx.n2(), pairs)
}

/// The output check of one run, beyond `check_mapping`: the mapping file
/// reads back verified and byte-identical. Returns whether the reported
/// score equals the rescoring to the bit.
fn verify(done: &Done, work: &Path) -> Result<bool, String> {
    let exact = check_mapping(&done.ctx, &done.out.mapping, done.out.score)?;
    if let Some(bytes) = &done.written {
        let path = work.join("mapping.tsv");
        let (back, how) = integrity::read_verified(&path)
            .map_err(|e| format!("cannot read back {}: {e}", path.display()))?;
        if how != integrity::Verification::Verified || &back != bytes {
            return Err(format!("{} did not read back verified", path.display()));
        }
    }
    Ok(exact)
}

/// Work counts the layer probes saw.
#[derive(Default)]
struct ProbeCounts {
    fallbacks: u64,
    scans: SupportStats,
}

/// Times each layer step of `MatchContext::new` on its own, then the
/// compiled scans of every pattern under the returned mapping's images,
/// then the rescoring, all as spans under `probe`.
fn probe_layers(ctx: &MatchContext, out: &MatchOutcome, tr: &mut Tracer) -> ProbeCounts {
    let root = tr.open("probe");
    let (log1, log2) = (ctx.log1(), ctx.log2());
    tr.span("eventlog.depgraph", || {
        black_box((log1.dep_graph(), log2.dep_graph()))
    });
    let index1 = tr.span("eventlog.trace_index", || {
        black_box(log2.trace_index());
        log1.trace_index()
    });
    tr.span("eventlog.columnar", || {
        black_box(ColumnarLog::from_log(log2))
    });
    tr.span("pattern.f1", || {
        black_box(
            ctx.patterns()
                .iter()
                .map(|ep| pattern_support(&ep.pattern, log1, &index1))
                .sum::<usize>(),
        )
    });
    let compiled: Vec<_> = tr.span("pattern.compile", || {
        ctx.patterns()
            .iter()
            .map(|ep| CompiledPattern::compile(&ep.pattern))
            .collect()
    });
    let mut counts = ProbeCounts {
        fallbacks: compiled.iter().filter(|c| c.is_err()).count() as u64,
        ..ProbeCounts::default()
    };
    tr.span("pattern.scan", || {
        for (ep, cp) in ctx.patterns().iter().zip(&compiled) {
            let images: Option<Vec<_>> = ep.events.iter().map(|&e| out.mapping.get(e)).collect();
            if let (Ok(cp), Some(images)) = (cp, images) {
                black_box(compiled_pattern_support_stats(
                    cp,
                    &images,
                    ctx.columnar2(),
                    ctx.index2(),
                    &mut counts.scans,
                ));
            }
        }
    });
    tr.span("evaluator.score", || {
        black_box(score::pattern_normal_distance(ctx, &out.mapping))
    });
    tr.close(root);
    counts
}

fn counter(out: &MatchOutcome, name: &str) -> u64 {
    out.metrics.counters.get(name).copied().unwrap_or(0)
}

fn info(out: &MatchOutcome, name: &str) -> u64 {
    out.metrics.info.get(name).copied().unwrap_or(0)
}

/// Runs the workload for `opts.seconds` and reports its metrics.
pub fn run(workload: Workload, opts: &Options, tr: &mut Tracer) -> Result<Report, String> {
    let spec = spec(workload, opts.scale);
    let mut rep = Report::default();

    let mut setup_s = Vec::new();
    let mut panel = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        panel = setup(&spec, opts.seed, &opts.work)?;
        setup_s.push(start.elapsed().as_secs_f64());
    }

    let mut run_s = Vec::new();
    let mut traced_run_s = Vec::new();
    // F-measure and score ratio of each instance's first run: the
    // quality figures depend on the seed only, not on how many runs fit.
    let mut quality: Vec<Option<(f64, f64)>> = vec![None; panel.len()];
    // The heap's peak during each instance's first run, resident inputs
    // included.
    let mut heap_mb: Vec<Option<f64>> = vec![None; panel.len()];
    let mut finished = 0u64;
    let mut bits_differ = 0u64;
    let mut read_bytes = 0u64;
    let mut written_bytes = 0u64;
    let mut first_traced: Option<(MatchOutcome, ProbeCounts)> = None;
    let mut deadline = None;
    for i in 0u32.. {
        // Run 0 warms the allocator and caches up on the first instance:
        // its output is checked like any other, but its time is not a
        // sample, and the measurement window opens when it ends. After it,
        // a traced run solves each instance twice in a row, untraced then
        // traced, so the tracing overhead compares like with like.
        let warm_up = i == 0;
        let j = i.saturating_sub(1);
        let (k, traced) = if warm_up {
            (0, false)
        } else if opts.trace {
            ((j / 2) as usize % panel.len(), j % 2 == 1)
        } else {
            (j as usize % panel.len(), false)
        };
        let instance = &panel[k];
        tr.start_run(i, traced);
        crate::heap::reset_peak();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_once(&spec, instance, &opts.work, tr)
        }));
        heap_mb[k].get_or_insert_with(crate::heap::peak_mb);
        tr.close_all();
        rep.attempted += 1;
        let verdict = match result {
            Ok(Ok(done)) => verify(&done, &opts.work).map(|exact| (done, exact)),
            Ok(Err(e)) => Err(e),
            Err(_) => Err("the run panicked".into()),
        };
        let verdict = verdict.and_then(|(done, exact)| {
            if !traced {
                return Ok((done, exact, None));
            }
            let counts = probe_layers(&done.ctx, &done.out, tr);
            if spec.threads > 1 {
                // The same instance at one eval thread: the leaf-prefetch
                // pool's speed-up, and a check that it changes no output.
                let seq = tr.span("parpool.seq", || solve(&done.ctx, &spec, 1));
                if seq.mapping != done.out.mapping
                    || seq.score.to_bits() != done.out.score.to_bits()
                {
                    return Err(format!(
                        "1-thread and {}-thread outputs differ",
                        spec.threads
                    ));
                }
            }
            Ok((done, exact, Some(counts)))
        });
        match verdict {
            Err(e) => {
                eprintln!("perfbench: {} run {i} failed: {e}", workload.name());
                rep.failed += 1;
            }
            Ok((done, exact, counts)) => {
                bits_differ += u64::from(!exact);
                if !warm_up {
                    (if traced {
                        &mut traced_run_s
                    } else {
                        &mut run_s
                    })
                    .push(done.secs);
                }
                quality[k].get_or_insert_with(|| {
                    let truth = truth_in(&done.ctx, &instance.ds);
                    let truth_score = score::pattern_normal_distance(&done.ctx, &truth);
                    (
                        MatchQuality::of(&done.out.mapping, &truth).f_measure,
                        ratio(done.out.score, truth_score),
                    )
                });
                finished += u64::from(done.out.completion.is_finished());
                read_bytes = done.read_bytes;
                if let Some(bytes) = &done.written {
                    let sidecar = integrity::sidecar_path(&opts.work.join("mapping.tsv"));
                    let sidecar_len = std::fs::metadata(sidecar).map_or(0, |m| m.len());
                    written_bytes = bytes.len() as u64 + sidecar_len;
                }
                if let (Some(counts), None) = (counts, &first_traced) {
                    first_traced = Some((done.out, counts));
                }
            }
        }
        let deadline = *deadline
            .get_or_insert_with(|| Instant::now() + std::time::Duration::from_secs(opts.seconds));
        // Every instance runs at least once (twice when traced) after the
        // warm-up.
        let min_runs = panel.len() as u32 * if opts.trace { 2 } else { 1 };
        if i >= min_runs && Instant::now() >= deadline {
            break;
        }
    }

    let ok = rep.attempted - rep.failed;
    let (f, score_ratio): (Vec<f64>, Vec<f64>) = quality.into_iter().flatten().unzip();
    rep.fact("size", describe(&spec));
    rep.fact("panel", panel.len());
    rep.fact("threads", spec.threads);
    rep.fact("processed_cap", spec.cap);
    rep.fact("samples", run_s.len() + traced_run_s.len());
    rep.fact(
        "dnf_share",
        ratio((ok - finished) as f64, rep.attempted as f64),
    );
    rep.fact(
        "failed_share",
        ratio(rep.failed as f64, rep.attempted as f64),
    );
    rep.fact("score_bits_differ", bits_differ);
    rep.fact("peak_rss_mb", crate::stats::peak_rss_mb());
    rep.fact("f_measure", mean(&f));
    if !opts.trace {
        rep.set("setup_s", median(&setup_s));
        rep.set("runs_per_s", ratio(run_s.len() as f64, run_s.iter().sum()));
        rep.set("run_s.p50", median(&run_s));
        rep.set("score_ratio", mean(&score_ratio));
        rep.set(
            "finished_share",
            ratio(finished as f64, rep.attempted as f64),
        );
        rep.set("ok_share", ratio(ok as f64, rep.attempted as f64));
        let heap_mb: Vec<f64> = heap_mb.into_iter().flatten().collect();
        rep.set("peak_heap_mb", median(&heap_mb));
        return Ok(rep);
    }

    let med = |name: &str| median(&tr.durations(name));
    rep.set("trace.overhead_s", median(&traced_run_s) - median(&run_s));
    let Some((out, counts)) = first_traced else {
        return Ok(rep);
    };
    if spec.from_disk {
        let read_s = med("eventlog.read");
        rep.set("eventlog.read_s", read_s);
        rep.set(
            "eventlog.read_mb_per_s",
            ratio(read_bytes as f64 / 1e6, read_s),
        );
        rep.set("persist.write_s", med("persist.write"));
        rep.set("persist.bytes_written", written_bytes as f64);
    }
    let (depgraph, index, columnar, f1) = (
        med("eventlog.depgraph"),
        med("eventlog.trace_index"),
        med("eventlog.columnar"),
        med("pattern.f1"),
    );
    rep.set("eventlog.depgraph_s", depgraph);
    rep.set("eventlog.trace_index_s", index);
    rep.set("eventlog.columnar_s", columnar);
    rep.set("pattern.f1_s", f1);
    rep.set("pattern.compile_s", med("pattern.compile"));
    rep.set("pattern.compile_fallbacks", counts.fallbacks as f64);
    rep.set("pattern.scan_s", med("pattern.scan"));
    let (cand, matched) = (counts.scans.candidate_traces, counts.scans.matched_traces);
    rep.set("pattern.candidate_traces", cand as f64);
    rep.set("pattern.matched_traces", matched as f64);
    rep.set("pattern.match_ratio", ratio(matched as f64, cand as f64));
    let context_s = med("context.new");
    rep.set("context.new_s", context_s);
    rep.set(
        "context.unattributed_s",
        context_s - (depgraph + index + columnar + f1),
    );
    let solve_s = med("search.solve");
    let processed = out.stats.processed_mappings as f64;
    rep.set("search.solve_s", solve_s);
    rep.set("search.processed", processed);
    rep.set("search.processed_per_s", ratio(processed, solve_s));
    rep.set("search.pops", counter(&out, "search.pops") as f64);
    rep.set(
        "search.expansions",
        counter(&out, "search.expansions") as f64,
    );
    let pruned: u64 = out
        .metrics
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("bounds.pruned"))
        .map(|(_, v)| v)
        .sum();
    rep.set("bounds.pruned", pruned as f64);
    let (hits, misses) = (
        counter(&out, "eval.cache_hits"),
        counter(&out, "eval.cache_misses"),
    );
    rep.set("evaluator.cache_hits", hits as f64);
    rep.set("evaluator.cache_misses", misses as f64);
    rep.set(
        "evaluator.cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    rep.set(
        "evaluator.log_scans",
        counter(&out, "eval.log_scans") as f64,
    );
    rep.set("evaluator.score_s", med("evaluator.score"));
    if spec.threads > 1 {
        let seq_s = med("parpool.seq");
        rep.set("parpool.batches", info(&out, "parpool.batches") as f64);
        rep.set("parpool.steals", info(&out, "parpool.steals") as f64);
        rep.set("parpool.seq_s", seq_s);
        rep.set("parpool.par_s", solve_s);
        rep.set("parpool.speedup", ratio(seq_s, solve_s));
    }
    Ok(rep)
}

fn describe(spec: &Spec) -> String {
    let solver = match spec.solver {
        Solver::Advanced => "Heuristic-Advanced",
        Solver::Tight => "Pattern-Tight",
    };
    match spec.data {
        Data::Synthetic { modules, traces } => {
            format!("{solver} on larger_synthetic({modules} modules, {traces} traces/side)")
        }
        Data::RealLike { traces } => {
            format!("{solver} on real_like({traces} traces/side), L1 text + L2 CSV on disk")
        }
    }
}
