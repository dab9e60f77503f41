//! `bench` — benchmark subcommands emitting machine-readable `BENCH_*.json`
//! evidence under the output directory.
//!
//! Usage:
//!
//! ```text
//! bench parpool
//! bench profile
//! bench matcher
//! bench verify [dir]
//! ```
//!
//! ## `bench parpool`
//!
//! Measures the parallel support-evaluation kernel (`core::parpool`)
//! against the sequential baseline on a scan-heavy exact-search workload,
//! and the cross-method warm-up effect of the shared per-cell support
//! cache. Emits `BENCH_parpool.json` with:
//!
//! * seq-vs-parallel wall-clock and the full deterministic scan counters
//!   (`eval.log_scans`, `frequency.*`) for both runs — the deterministic
//!   sections must be byte-identical, and the bench prints the first
//!   diverging metric key (with both values) and exits with code 3 if
//!   they are not;
//! * `parpool.batches` / `parpool.steals` execution-shape facts for the
//!   parallel run;
//! * a shared-cache panel: the measured method's `eval.cache.shared_hits`
//!   and scan savings when another method warmed the cache first.
//!
//! Knobs: `EVEMATCH_BENCH_MODULES` (process-model modules, default 2 —
//! 20 events, the most composite-heavy configuration), `EVEMATCH_TRACES`
//! (default 3000), `EVEMATCH_SEEDS` (first seed used, default 11),
//! `EVEMATCH_EVAL_THREADS` (parallel thread count, default 8),
//! `EVEMATCH_LIMIT_PROCESSED` (processed-mapping cap keeping the exact
//! search bounded, default 20,000). Wall-clock numbers reflect
//! the host: on a single-core machine the parallel run shows pool overhead
//! rather than speedup, which is why `host_parallelism` is recorded in the
//! artifact.
//!
//! ## `bench profile`
//!
//! Runs the hierarchical phase profiler over the same scan-heavy workload
//! under a *pure-cap* budget (processed-mapping cap only, no wall-clock
//! deadline, so the deterministic section is bit-stable across hosts and
//! reruns) and emits `BENCH_profile.json` in the shape `xtask perf append`
//! ingests:
//!
//! * `work` — the flattened deterministic work counters
//!   (`"<phase-path>/<column>": n`), byte-identical across
//!   `EVEMATCH_EVAL_THREADS`; the perf-trajectory gate
//!   (`cargo xtask perf check`) alerts on regressions in these;
//! * `wall_nanos` — the flattened per-phase wall clocks plus
//!   `overlay/<name>` entries, advisory only (host-dependent).
//!
//! The deterministic sections of a sequential and a parallel run are
//! compared first; a divergence prints both documents' first differing
//! byte region and exits with code 3 — the artifact is only written from
//! a verified profile. Same knobs as `bench parpool`.
//!
//! ## `bench matcher`
//!
//! Pits the bit-parallel compiled pattern matcher (`pattern::compiled`)
//! against the interpreter on the same workloads, enforcing
//! byte-equivalence along the way, and emits `BENCH_matcher.json` in the
//! shape `xtask perf append` ingests:
//!
//! * a **kernel panel**: every complex pattern of the Figure-12 dataset is
//!   support-scanned under rotated injective bindings by both engines; the
//!   per-binding supports must agree exactly (any mismatch prints the
//!   pattern and binding and exits with code 3) and the headline `speedup`
//!   is interpreted-wall over compiled-wall across the whole scan set —
//!   the acceptance bar is ≥ 2x;
//! * two **grid panels**: a reduced Figure-7 grid (exact methods over
//!   event-set sizes on the real-like dataset) and a reduced Figure-12
//!   grid (all methods on the larger synthetic data), each run once per
//!   engine under a pure processed cap. The deterministic CSV panels and
//!   every method's merged deterministic metrics must be byte-identical
//!   across engines; the first diverging metric key (or CSV) is printed
//!   and the exit code is 3. Wall-clocks per engine ride along as
//!   advisory `wall_nanos`;
//! * `work` — deterministic scan counters of the compiled grid runs, so
//!   `cargo xtask perf check` gates the matcher's work trajectory like
//!   every other bench.
//!
//! Knobs: `EVEMATCH_TRACES` (grid + kernel trace count, default 3000 for
//! the kernel and 300 for the grids), `EVEMATCH_BENCH_MODULES`,
//! `EVEMATCH_SEEDS` (first seed used), `EVEMATCH_LIMIT_PROCESSED`,
//! `EVEMATCH_BENCH_ITERS` (kernel repetitions, default 3).
//!
//! ## `bench verify [dir]`
//!
//! Walks an output directory (default: the `EVEMATCH_OUT` / `results`
//! directory) and checks every artifact's integrity offline — `.evmi`
//! checksum sidecars for whole-file artifacts, the framed header and
//! per-record trailers for `*.journal` files (see
//! `evematch_core::persist::integrity`). Prints a per-file report; exits
//! 0 when everything verifies (files without integrity data are warnings)
//! and 2 on any corruption or orphaned sidecar.
//!
//! Exits with code 2 if the artifact cannot be written.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use evematch_core::telemetry::MetricsSnapshot;
use evematch_core::{Budget, Mapping, MatcherEngine};
use evematch_datagen::datasets;
use evematch_eval::experiments::{
    run_grid, FigureResult, SweepConfig, EXACT_FIGURE_METHODS, FIG12_METHODS,
};
use evematch_eval::SupportCachePool;
use evematch_eval::{project_dataset, Method, RunOutcome, Table};
use evematch_eventlog::EventId;
use evematch_pattern::{
    compiled_pattern_support_stats, pattern_support, CompiledPattern, SupportStats,
};

fn env_or<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// One timed run: wall-clock plus the metrics snapshot.
struct Timed {
    wall_nanos: u128,
    out: RunOutcome,
}

fn timed_run(
    method: Method,
    ds: &evematch_datagen::Dataset,
    budget: Budget,
    threads: usize,
    pool: Option<&SupportCachePool>,
) -> Timed {
    let start = Instant::now();
    let out = method.run_with(&ds.pair, &ds.patterns, budget, threads, pool);
    Timed {
        wall_nanos: start.elapsed().as_nanos(),
        out,
    }
}

fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

/// The first key (in section, then key order) whose value differs between
/// the two deterministic sections, with both values rendered — so a
/// determinism regression names the diverging metric instead of forcing a
/// JSON-blob eyeball diff. Returns `(section.key, seq value, par value)`;
/// a key missing on one side renders as `<absent>`.
fn first_divergence(
    seq: &MetricsSnapshot,
    par: &MetricsSnapshot,
) -> Option<(String, String, String)> {
    fn diff_maps<V: PartialEq + std::fmt::Debug>(
        section: &str,
        a: &std::collections::BTreeMap<String, V>,
        b: &std::collections::BTreeMap<String, V>,
    ) -> Option<(String, String, String)> {
        let render = |v: Option<&V>| v.map_or_else(|| "<absent>".into(), |v| format!("{v:?}"));
        a.keys()
            .chain(b.keys())
            .find(|k| a.get(*k) != b.get(*k))
            .map(|k| (format!("{section}.{k}"), render(a.get(k)), render(b.get(k))))
    }
    diff_maps("counters", &seq.counters, &par.counters)
        .or_else(|| diff_maps("gauges", &seq.gauges, &par.gauges))
        .or_else(|| diff_maps("histograms", &seq.histograms, &par.histograms))
}

fn info(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.info.get(name).copied().unwrap_or(0)
}

/// The scan-facing counters of one run as a JSON object fragment.
fn push_run(out: &mut String, t: &Timed, threads: usize) {
    let snap = t.out.metrics();
    let _ = write!(
        out,
        "{{\"threads\":{},\"wall_nanos\":{},\"log_scans\":{},\"candidate_traces\":{},\
         \"matched_traces\":{},\"index_probes\":{},\"cache_hits\":{},\"cache_misses\":{},\
         \"shared_hits\":{},\"parpool_batches\":{},\"parpool_steals\":{}}}",
        threads,
        t.wall_nanos,
        counter(snap, "eval.log_scans"),
        counter(snap, "frequency.candidate_traces"),
        counter(snap, "frequency.matched_traces"),
        counter(snap, "frequency.index_probes"),
        counter(snap, "eval.cache_hits"),
        counter(snap, "eval.cache_misses"),
        counter(snap, "eval.cache.shared_hits"),
        info(snap, "parpool.batches"),
        info(snap, "parpool.steals"),
    );
}

fn run_parpool() -> ExitCode {
    let seed = std::env::var("EVEMATCH_SEEDS")
        .ok()
        .and_then(|s| s.split(',').next().and_then(|x| x.trim().parse().ok()))
        .unwrap_or(11u64);
    let traces = env_or("EVEMATCH_TRACES", 3000usize);
    let modules = env_or("EVEMATCH_BENCH_MODULES", 2usize);
    let par_threads = env_or("EVEMATCH_EVAL_THREADS", 8usize).max(2);
    let cap = env_or("EVEMATCH_LIMIT_PROCESSED", 20_000u64);
    let budget = Budget::UNLIMITED.with_processed_cap(cap);
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let ds = datasets::larger_synthetic(modules, traces, seed);
    let method = Method::PatternTight;

    println!(
        "bench parpool: {} on larger_synthetic({modules}, {traces}, seed {seed}), \
         cap {cap}, {par_threads} threads (host parallelism {host})",
        method.name()
    );

    // Panel 1: sequential vs parallel, each on a cold private cache.
    let seq = timed_run(method, &ds, budget, 1, None);
    let par = timed_run(method, &ds, budget, par_threads, None);

    let identical =
        seq.out.metrics().deterministic_json() == par.out.metrics().deterministic_json();
    let speedup = seq.wall_nanos as f64 / par.wall_nanos.max(1) as f64;
    println!(
        "  seq {:.3}s  par {:.3}s  speedup {speedup:.2}x  deterministic sections identical: {identical}",
        seq.wall_nanos as f64 / 1e9,
        par.wall_nanos as f64 / 1e9,
    );

    // Panel 2: shared-cache warm-up — the advanced heuristic runs first on
    // the shared pool, then the measured method reuses its scans.
    let pool = SupportCachePool::new();
    let warm_method = Method::HeuristicAdvanced;
    let warm = timed_run(warm_method, &ds, budget, 1, Some(&pool));
    let warmed = timed_run(method, &ds, budget, 1, Some(&pool));
    let shared_hits = counter(warmed.out.metrics(), "eval.cache.shared_hits");
    println!(
        "  shared cache: {} warmed {} -> shared_hits {shared_hits}, log_scans {} (cold: {})",
        warm_method.name(),
        method.name(),
        counter(warmed.out.metrics(), "eval.log_scans"),
        counter(seq.out.metrics(), "eval.log_scans"),
    );

    let mut json = String::from("{\"bench\":\"parpool\",\"workload\":{");
    let _ = write!(
        json,
        "\"dataset\":\"larger_synthetic\",\"modules\":{modules},\"traces\":{traces},\
         \"seed\":{seed},\"method\":\"{}\",\"processed_cap\":{cap}}},\
         \"host_parallelism\":{host},",
        method.name()
    );
    json.push_str("\"seq\":");
    push_run(&mut json, &seq, 1);
    json.push_str(",\"par\":");
    push_run(&mut json, &par, par_threads);
    let _ = write!(
        json,
        ",\"speedup\":{speedup:.4},\"identical_outputs\":{identical},\"shared_cache\":{{\
         \"warm_method\":\"{}\",\"measured_method\":\"{}\",\"shared_hits\":{shared_hits},\
         \"cold_log_scans\":{},\"warmed_log_scans\":{},\"warm_wall_nanos\":{},\
         \"warmed_wall_nanos\":{}}}}}",
        warm_method.name(),
        method.name(),
        counter(seq.out.metrics(), "eval.log_scans"),
        counter(warmed.out.metrics(), "eval.log_scans"),
        warm.wall_nanos,
        warmed.wall_nanos,
    );
    json.push('\n');

    let path = match evematch_bench::out_dir() {
        Ok(dir) => dir.join("BENCH_parpool.json"),
        Err(err) => {
            eprintln!("error: cannot create output dir: {err}");
            return ExitCode::from(2);
        }
    };
    if let Err(err) = evematch_core::persist::atomic_write_verified(&path, json.as_bytes()) {
        eprintln!("error: failed to write {}: {err}", path.display());
        return ExitCode::from(2);
    }
    println!("wrote {}", path.display());

    if !identical {
        eprintln!("error: parallel deterministic section diverged from sequential");
        match first_divergence(seq.out.metrics(), par.out.metrics()) {
            Some((key, seq_v, par_v)) => {
                eprintln!("  first divergence: {key}\n    seq: {seq_v}\n    par: {par_v}");
            }
            // The JSON strings differed but the typed maps agree — the
            // serializer itself is non-deterministic, which is its own bug.
            None => eprintln!("  (no diverging key: serialization is non-deterministic)"),
        }
        return ExitCode::from(3);
    }
    ExitCode::SUCCESS
}

fn run_profile() -> ExitCode {
    let seed = std::env::var("EVEMATCH_SEEDS")
        .ok()
        .and_then(|s| s.split(',').next().and_then(|x| x.trim().parse().ok()))
        .unwrap_or(11u64);
    let traces = env_or("EVEMATCH_TRACES", 3000usize);
    let modules = env_or("EVEMATCH_BENCH_MODULES", 2usize);
    let par_threads = env_or("EVEMATCH_EVAL_THREADS", 8usize).max(2);
    let cap = env_or("EVEMATCH_LIMIT_PROCESSED", 20_000u64);
    // Pure cap — a wall-clock deadline would make the charged work
    // host-dependent and the perf gate's counters noisy.
    let budget = Budget::UNLIMITED.with_processed_cap(cap);
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let ds = datasets::larger_synthetic(modules, traces, seed);
    let method = Method::PatternTight;

    println!(
        "bench profile: {} on larger_synthetic({modules}, {traces}, seed {seed}), \
         cap {cap} (pure), {par_threads} threads (host parallelism {host})",
        method.name()
    );

    let seq = timed_run(method, &ds, budget, 1, None);
    let par = timed_run(method, &ds, budget, par_threads, None);

    let seq_det = seq.out.profile().deterministic_json();
    let par_det = par.out.profile().deterministic_json();
    if seq_det != par_det {
        eprintln!("error: profile deterministic section diverged across thread counts");
        let split = seq_det
            .bytes()
            .zip(par_det.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(seq_det.len().min(par_det.len()));
        let lo = split.saturating_sub(40);
        eprintln!(
            "  seq[{lo}..]: {}",
            &seq_det[lo..(split + 40).min(seq_det.len())]
        );
        eprintln!(
            "  par[{lo}..]: {}",
            &par_det[lo..(split + 40).min(par_det.len())]
        );
        return ExitCode::from(3);
    }
    let profile = seq.out.profile();
    println!(
        "  seq {:.3}s  par {:.3}s  deterministic sections identical: true",
        seq.wall_nanos as f64 / 1e9,
        par.wall_nanos as f64 / 1e9,
    );

    let mut json = String::from("{\"bench\":\"profile\",\"workload\":{");
    let _ = write!(
        json,
        "\"dataset\":\"larger_synthetic\",\"modules\":{modules},\"traces\":{traces},\
         \"seed\":{seed},\"method\":\"{}\",\"processed_cap\":{cap}}},\
         \"host_parallelism\":{host},\"work\":{{",
        method.name()
    );
    for (i, (key, n)) in profile.flat_work().iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(json, "\"{key}\":{n}");
    }
    json.push_str("},\"wall_nanos\":{");
    for (i, (key, n)) in profile.flat_wall().iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(json, "\"{key}\":{n}");
    }
    json.push_str("}}\n");

    let path = match evematch_bench::out_dir() {
        Ok(dir) => dir.join("BENCH_profile.json"),
        Err(err) => {
            eprintln!("error: cannot create output dir: {err}");
            return ExitCode::from(2);
        }
    };
    if let Err(err) = evematch_core::persist::atomic_write_verified(&path, json.as_bytes()) {
        eprintln!("error: failed to write {}: {err}", path.display());
        return ExitCode::from(2);
    }
    println!("wrote {}", path.display());
    ExitCode::SUCCESS
}

/// One engine's timed pass over the kernel scan set: total support (the
/// equality witness) plus the wall clock.
struct KernelPass {
    total_support: u64,
    wall_nanos: u128,
}

/// All injective bindings the kernel panel scans: for each complex
/// pattern, `rotations` rotations of its ground-truth binding over `V2`.
/// Rotation 0 is the truth — the co-occurrence-heavy case with full
/// candidate lists and real matches — and the rest exercise sparse and
/// out-of-pattern bindings. Rotating distinct indices mod `|V2|` keeps
/// every binding injective.
fn kernel_bindings(
    patterns: &[evematch_pattern::Pattern],
    truth: &Mapping,
    n2: u32,
    rotations: u32,
) -> Vec<(usize, Vec<EventId>)> {
    let mut out = Vec::new();
    for (pi, p) in patterns.iter().enumerate() {
        let evs = p.events();
        for r in 0..rotations {
            let images: Vec<EventId> = evs
                .iter()
                .map(|e| {
                    let base = truth.get(*e).expect("ground truth is complete");
                    EventId((base.index() as u32 + r) % n2)
                })
                .collect();
            out.push((pi, images));
        }
    }
    out
}

fn run_matcher() -> ExitCode {
    let seed = std::env::var("EVEMATCH_SEEDS")
        .ok()
        .and_then(|s| s.split(',').next().and_then(|x| x.trim().parse().ok()))
        .unwrap_or(11u64);
    let kernel_traces = env_or("EVEMATCH_TRACES", 3000usize);
    let grid_traces = env_or("EVEMATCH_TRACES", 300usize);
    let modules = env_or("EVEMATCH_BENCH_MODULES", 2usize);
    let cap = env_or("EVEMATCH_LIMIT_PROCESSED", 20_000u64);
    let iters = env_or("EVEMATCH_BENCH_ITERS", 3u32);
    let rotations = 8u32;
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    // -----------------------------------------------------------------
    // Kernel panel: raw support scans, interpreter vs compiled NFA.
    // -----------------------------------------------------------------
    let ds = datasets::larger_synthetic(modules, kernel_traces, seed);
    let log2 = &ds.pair.log2;
    let idx = log2.trace_index();
    let col = log2.traces();
    let n2 = log2.event_count() as u32;
    println!(
        "bench matcher: {} complex patterns on larger_synthetic({modules}, {kernel_traces}, \
         seed {seed}), {rotations} bindings each, {iters} iters (host parallelism {host})",
        ds.patterns.len()
    );

    let mut compiled: Vec<Option<CompiledPattern>> = Vec::new();
    let mut fallbacks = 0u64;
    for p in &ds.patterns {
        match CompiledPattern::compile(p) {
            Ok(cp) => compiled.push(Some(cp)),
            Err(err) => {
                // Typed, counted, never silent — the same contract the
                // evaluator's `matcher.fallback.*` info facts enforce.
                println!("  fallback to interpreter: {err}");
                fallbacks += 1;
                compiled.push(None);
            }
        }
    }
    let bindings = kernel_bindings(&ds.patterns, &ds.pair.truth, n2, rotations);

    // Correctness first (untimed): every binding's support must agree.
    for (pi, images) in &bindings {
        let p = &ds.patterns[*pi];
        let evs = p.events();
        let mapped = p.map_events(&|e| images[evs.binary_search(&e).expect("own event")]);
        let interp = pattern_support(&mapped, log2, &idx);
        if let Some(cp) = &compiled[*pi] {
            let comp =
                compiled_pattern_support_stats(cp, images, col, &idx, &mut SupportStats::default());
            if interp != comp {
                eprintln!(
                    "error: engines diverged on pattern #{pi} {p:?} under {images:?}: \
                     interpreted {interp} vs compiled {comp}"
                );
                return ExitCode::from(3);
            }
        }
    }

    // Timed passes. The interpreter pays `map_events` per scan and the
    // compiled engine pays its dense reverse-lookup per scan — both are
    // what the evaluator's cache-miss path actually pays per evaluation.
    let kernel_pass = |use_compiled: bool| -> KernelPass {
        let start = Instant::now();
        let mut total = 0u64;
        for _ in 0..iters {
            for (pi, images) in &bindings {
                let p = &ds.patterns[*pi];
                match (&compiled[*pi], use_compiled) {
                    (Some(cp), true) => {
                        total += compiled_pattern_support_stats(
                            cp,
                            images,
                            col,
                            &idx,
                            &mut SupportStats::default(),
                        ) as u64;
                    }
                    _ => {
                        let evs = p.events();
                        let mapped =
                            p.map_events(&|e| images[evs.binary_search(&e).expect("own event")]);
                        total += pattern_support(&mapped, log2, &idx) as u64;
                    }
                }
            }
        }
        KernelPass {
            total_support: total,
            wall_nanos: start.elapsed().as_nanos(),
        }
    };
    let interp = kernel_pass(false);
    let comp = kernel_pass(true);
    if interp.total_support != comp.total_support {
        eprintln!(
            "error: timed passes disagree on total support: interpreted {} vs compiled {}",
            interp.total_support, comp.total_support
        );
        return ExitCode::from(3);
    }
    let speedup = interp.wall_nanos as f64 / comp.wall_nanos.max(1) as f64;
    println!(
        "  kernel: interpreted {:.3}s  compiled {:.3}s  speedup {speedup:.2}x  \
         ({} scans, {} fallbacks)",
        interp.wall_nanos as f64 / 1e9,
        comp.wall_nanos as f64 / 1e9,
        bindings.len() as u64 * u64::from(iters),
        fallbacks,
    );

    // -----------------------------------------------------------------
    // Grid panels: reduced Fig7/Fig12 grids, one run per engine.
    // -----------------------------------------------------------------
    let cfg = |engine: MatcherEngine| SweepConfig {
        seeds: vec![seed],
        budget: Budget::UNLIMITED.with_processed_cap(cap),
        workers: host,
        eval_threads: 1,
        traces: grid_traces,
        checkpoint: None,
        retry: evematch_core::retry::RetryPolicy::io_default(),
        verify_journal: true,
        matcher: engine,
    };
    let fig7_xs: Vec<usize> = (2..=6).collect();
    let fig7 = |engine: MatcherEngine| {
        let cfg = cfg(engine);
        let start = Instant::now();
        let fig = run_grid(
            "Fig7",
            "#events",
            &fig7_xs,
            &EXACT_FIGURE_METHODS,
            &cfg,
            |x, seed| project_dataset(&datasets::real_like_sized(cfg.traces, cfg.traces, seed), x),
        );
        (fig, start.elapsed().as_nanos())
    };
    let fig12_xs = [10usize, 20];
    let fig12 = |engine: MatcherEngine| {
        let cfg = cfg(engine);
        let start = Instant::now();
        let fig = run_grid(
            "Fig12",
            "#events",
            &fig12_xs,
            &FIG12_METHODS,
            &cfg,
            |x, seed| datasets::larger_synthetic(x / 10, cfg.traces, seed),
        );
        (fig, start.elapsed().as_nanos())
    };

    let mut grid_walls: Vec<(String, u128, u128)> = Vec::new();
    let mut work: Vec<(String, u64)> = Vec::new();
    for (name, run) in [
        (
            "fig7",
            &fig7 as &dyn Fn(MatcherEngine) -> (FigureResult, u128),
        ),
        ("fig12", &fig12),
    ] {
        let (int_fig, int_wall) = run(MatcherEngine::Interpreted);
        let (cmp_fig, cmp_wall) = run(MatcherEngine::Compiled);
        if let Some(diverged) = grid_divergence(&int_fig, &cmp_fig) {
            eprintln!("error: {name} grid deterministic section diverged across engines");
            eprintln!("  {diverged}");
            return ExitCode::from(3);
        }
        println!(
            "  {name} grid: interpreted {:.3}s  compiled {:.3}s  deterministic sections identical: true",
            int_wall as f64 / 1e9,
            cmp_wall as f64 / 1e9,
        );
        for (method, snap) in &cmp_fig.metrics {
            work.push((
                format!("{name}/{method}/log_scans"),
                counter(snap, "eval.log_scans"),
            ));
            work.push((
                format!("{name}/{method}/candidate_traces"),
                counter(snap, "frequency.candidate_traces"),
            ));
        }
        grid_walls.push((name.to_string(), int_wall, cmp_wall));
    }

    // -----------------------------------------------------------------
    // Artifact, in the flat work/wall_nanos shape `xtask perf` ingests.
    // -----------------------------------------------------------------
    let mut json = String::from("{\"bench\":\"matcher\",\"workload\":{");
    let _ = write!(
        json,
        "\"dataset\":\"larger_synthetic+real_like\",\"modules\":{modules},\
         \"kernel_traces\":{kernel_traces},\"grid_traces\":{grid_traces},\"seed\":{seed},\
         \"rotations\":{rotations},\"iters\":{iters},\"processed_cap\":{cap}}},\
         \"host_parallelism\":{host},\"speedup\":{speedup:.4},\
         \"kernel\":{{\"scans\":{},\"fallbacks\":{fallbacks},\"total_support\":{},\
         \"interpreted_wall_nanos\":{},\"compiled_wall_nanos\":{}}},\"work\":{{",
        bindings.len() as u64 * u64::from(iters),
        comp.total_support,
        interp.wall_nanos,
        comp.wall_nanos,
    );
    let _ = write!(
        json,
        "\"kernel/scans\":{},\"kernel/total_support\":{}",
        bindings.len() as u64 * u64::from(iters),
        comp.total_support
    );
    for (key, n) in &work {
        let _ = write!(json, ",\"{key}\":{n}");
    }
    json.push_str("},\"wall_nanos\":{");
    let _ = write!(
        json,
        "\"kernel/interpreted\":{},\"kernel/compiled\":{}",
        interp.wall_nanos, comp.wall_nanos
    );
    for (name, int_wall, cmp_wall) in &grid_walls {
        let _ = write!(
            json,
            ",\"{name}/interpreted\":{int_wall},\"{name}/compiled\":{cmp_wall}"
        );
    }
    json.push_str("}}\n");

    let path = match evematch_bench::out_dir() {
        Ok(dir) => dir.join("BENCH_matcher.json"),
        Err(err) => {
            eprintln!("error: cannot create output dir: {err}");
            return ExitCode::from(2);
        }
    };
    if let Err(err) = evematch_core::persist::atomic_write_verified(&path, json.as_bytes()) {
        eprintln!("error: failed to write {}: {err}", path.display());
        return ExitCode::from(2);
    }
    println!("wrote {}", path.display());
    ExitCode::SUCCESS
}

/// The first way two engine runs of the same grid differ in their
/// deterministic sections: a CSV panel byte difference or a merged
/// deterministic-metric divergence, rendered for the error report.
fn grid_divergence(a: &FigureResult, b: &FigureResult) -> Option<String> {
    let csv = |t: &Table| {
        let mut buf = Vec::new();
        // In-memory CSV rendering cannot fail.
        t.write_csv(&mut buf).expect("in-memory write");
        String::from_utf8(buf).expect("CSV is UTF-8")
    };
    for (name, ta, tb) in [
        ("f_measure", &a.f_measure, &b.f_measure),
        ("anytime_f", &a.anytime_f, &b.anytime_f),
        ("processed", &a.processed, &b.processed),
    ] {
        if csv(ta) != csv(tb) {
            return Some(format!("CSV panel `{name}` differs"));
        }
    }
    for ((ma, snap_a), (mb, snap_b)) in a.metrics.iter().zip(&b.metrics) {
        if ma != mb {
            return Some(format!("method order differs: {ma} vs {mb}"));
        }
        if snap_a.deterministic_json() != snap_b.deterministic_json() {
            return match first_divergence(snap_a, snap_b) {
                Some((key, va, vb)) => Some(format!(
                    "{ma}: first divergence {key}: interpreted {va} vs compiled {vb}"
                )),
                None => Some(format!("{ma}: serialization is non-deterministic")),
            };
        }
    }
    None
}

/// `bench verify [dir]` — the offline integrity walk; see the module docs.
fn run_verify(dir_arg: Option<String>) -> ExitCode {
    let dir = match dir_arg {
        Some(d) => std::path::PathBuf::from(d),
        None => match evematch_bench::out_dir() {
            Ok(dir) => dir,
            Err(err) => {
                eprintln!("error: cannot resolve output dir: {err}");
                return ExitCode::from(2);
            }
        },
    };
    match evematch_core::persist::integrity::verify_dir(&dir) {
        Ok(report) => {
            print!("{}", report.render());
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            }
        }
        Err(err) => {
            eprintln!("error: cannot read {}: {err}", dir.display());
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let sub = std::env::args().nth(1).unwrap_or_default();
    match sub.as_str() {
        "parpool" => run_parpool(),
        "profile" => run_profile(),
        "matcher" => run_matcher(),
        "verify" => run_verify(std::env::args().nth(2)),
        other => {
            eprintln!(
                "usage: bench <subcommand>\n  parpool    seq-vs-parallel support evaluation + shared-cache warm-up\n  profile    phase-profiled run under a pure cap; emits BENCH_profile.json for `xtask perf`\n  matcher    interpreted-vs-compiled pattern matcher: kernel speedup + engine byte-equivalence on Fig7/Fig12 grids; emits BENCH_matcher.json\n  verify     offline integrity check of an output directory (default: results)"
            );
            if other.is_empty() {
                ExitCode::from(2)
            } else {
                eprintln!("error: unknown subcommand `{other}`");
                ExitCode::from(2)
            }
        }
    }
}
