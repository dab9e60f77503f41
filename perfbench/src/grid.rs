//! The `fig12_grid` workload: `experiments::run_grid` over `FIG12_METHODS`
//! on `larger_synthetic`, two grid workers, one eval thread, checkpoint
//! journal on — the path `repro_fig12` users wait on.
//!
//! A run here is one grid cell: one method on one event count. The grid
//! returns only its panels, so per-cell figures come from the checkpoint
//! journal it writes, read back through the public integrity framing.
//! After the timed grids, the cells of the first one are run again one by
//! one through `Method::run_with`; each returned mapping passes the output
//! check, and its F-measure must equal the journal's to the bit.

use std::path::{Path, PathBuf};
use std::time::Instant;

use evematch_core::persist::integrity;
use evematch_core::retry::RetryPolicy;
use evematch_core::telemetry::json::JsonValue;
use evematch_core::{
    score, Budget, MatchContext, MatcherEngine, MetricsSnapshot, PatternSetBuilder,
};
use evematch_datagen::{datasets, Dataset};
use evematch_eval::experiments::{run_grid, FigureResult, SweepConfig, FIG12_METHODS};
use evematch_eval::{Method, RunOutcome, SupportCachePool, Table};
use evematch_pattern::Pattern;

use crate::check::check_mapping;
use crate::metrics::Report;
use crate::stats::{mean, median, ratio};
use crate::trace::Tracer;
use crate::{Options, Scale, SETUP_REPS};

/// Grid workers (at most `nproc` = 2 on the reference host).
const WORKERS: usize = 2;

/// The grid's shape at one scale.
struct Shape {
    xs: Vec<usize>,
    traces: usize,
    cap: u64,
}

fn shape(scale: Scale) -> Shape {
    match scale {
        Scale::Full => Shape {
            xs: vec![10, 20, 30, 40, 50],
            traces: 500,
            cap: 50_000,
        },
        Scale::Tiny => Shape {
            xs: vec![10, 20],
            traces: 40,
            cap: 2_000,
        },
    }
}

/// Every knob set explicitly: cap-only budget, fixed workers and engine.
fn sweep(shape: &Shape, seed: u64, checkpoint: Option<PathBuf>) -> SweepConfig {
    SweepConfig {
        seeds: vec![seed],
        budget: Budget::UNLIMITED.with_processed_cap(shape.cap),
        workers: WORKERS,
        eval_threads: 1,
        traces: shape.traces,
        checkpoint,
        retry: RetryPolicy::io_default(),
        verify_journal: true,
        matcher: MatcherEngine::Compiled,
    }
}

/// One cell as the journal recorded it.
struct Cell {
    x_index: usize,
    method: usize,
    anytime_f: f64,
    secs: f64,
    processed: u64,
    finished: bool,
    metrics: MetricsSnapshot,
}

impl Cell {
    fn counter(&self, name: &str) -> u64 {
        self.metrics.counters.get(name).copied().unwrap_or(0)
    }

    /// A worker panic or a quarantined cell: the supervisor's typed DNF.
    fn failed(&self) -> bool {
        self.metrics.counters.keys().any(|k| {
            k == "grid.worker_panics"
                || k == "fault.retries.grid.cell"
                || k.starts_with("grid.cell_quarantined")
        })
    }
}

fn run_one(shape: &Shape, data: &[Dataset], seed: u64, dir: Option<&Path>) -> (FigureResult, f64) {
    let cfg = sweep(shape, seed, dir.map(Path::to_path_buf));
    let start = Instant::now();
    let fig = run_grid(
        "Fig12",
        "#events",
        &shape.xs,
        &FIG12_METHODS,
        &cfg,
        |x, _| {
            let i = shape
                .xs
                .iter()
                .position(|&y| y == x)
                .expect("x is one of the grid's xs");
            data[i].clone()
        },
    );
    (fig, start.elapsed().as_secs_f64())
}

fn read_journal(path: &Path, shape: &Shape) -> Result<Vec<Cell>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty journal")?;
    integrity::parse_journal_header(header).map_err(|e| format!("journal header: {e:?}"))?;
    let mut cells = Vec::new();
    for line in lines {
        let payload =
            integrity::verify_record(line).map_err(|e| format!("journal record: {e:?}"))?;
        let v = JsonValue::parse(payload).ok_or("journal record is not JSON")?;
        let x = v
            .get("x")
            .and_then(JsonValue::as_u64)
            .ok_or("record without x")?;
        let x_index = shape
            .xs
            .iter()
            .position(|&y| y as u64 == x)
            .ok_or("record for an unknown x")?;
        let methods = v
            .get("methods")
            .and_then(JsonValue::as_arr)
            .ok_or("no methods")?;
        for (method, r) in methods.iter().enumerate() {
            let bits = |k: &str| {
                r.get(k)
                    .and_then(JsonValue::as_u64)
                    .ok_or("malformed method record")
            };
            cells.push(Cell {
                x_index,
                method,
                anytime_f: f64::from_bits(bits("af")?),
                secs: f64::from_bits(bits("secs")?),
                processed: bits("proc")?,
                finished: r.get("fin") == Some(&JsonValue::Bool(true)),
                metrics: r
                    .get("metrics")
                    .and_then(MetricsSnapshot::from_json_value)
                    .ok_or("malformed metrics")?,
            });
        }
    }
    if cells.len() != shape.xs.len() * FIG12_METHODS.len() {
        return Err(format!("journal holds {} cells", cells.len()));
    }
    Ok(cells)
}

/// The anytime F-measure panel the grid printed agrees with its journal.
fn check_panel(fig: &FigureResult, cells: &[Cell]) -> Result<(), String> {
    for c in cells {
        let shown = fig.anytime_f.cell(c.x_index, c.method + 1);
        if shown != Table::fmt_f64(c.anytime_f) {
            return Err(format!(
                "panel shows {shown} for a journal F of {}",
                c.anytime_f
            ));
        }
    }
    Ok(())
}

/// The pattern set each method scores against, as `Method` builds it.
fn pattern_set(m: Method, complex: &[Pattern]) -> PatternSetBuilder {
    match m {
        Method::Vertex | Method::Iterative | Method::Entropy => PatternSetBuilder::new().vertices(),
        Method::VertexEdge => PatternSetBuilder::new().vertices().edges(),
        _ => PatternSetBuilder::new()
            .vertices()
            .edges()
            .complex_all(complex.iter().cloned()),
    }
}

/// A rerun cell's check: whether its reported score equals the rescoring
/// to the bit, and its score as a share of the ground truth's score.
type Verdict = Result<(bool, f64), String>;

/// Checks one cell's rerun and compares it with the journal.
fn check_cell(m: Method, ds: &Dataset, out: &RunOutcome, cell: &Cell) -> Verdict {
    let (mapping, score) = match out {
        RunOutcome::Finished { mapping, score, .. } => (mapping, *score),
        RunOutcome::DidNotFinish { degraded, .. } => (&degraded.mapping, degraded.score),
    };
    let ctx = MatchContext::new(
        ds.pair.log1.clone(),
        ds.pair.log2.clone(),
        pattern_set(m, &ds.patterns),
    )
    .map_err(|e| e.to_string())?;
    let exact = check_mapping(&ctx, mapping, score)?;
    if out.anytime_f_measure().to_bits() != cell.anytime_f.to_bits()
        || out.finished() != cell.finished
        || out.processed() != cell.processed
    {
        return Err(format!(
            "{} at {} events: the grid's record differs from the rerun",
            m.name(),
            ds.pair.log1.event_count()
        ));
    }
    let truth_score = score::pattern_normal_distance(&ctx, &ds.pair.truth);
    Ok((exact, ratio(score, truth_score)))
}

/// Runs every cell of `cells`' grid one by one, in the grid's order with a
/// fresh shared cache per event count as `run_grid` uses, and checks each.
/// Returns each cell's wall time and check verdict.
fn rerun_cells(
    shape: &Shape,
    data: &[Dataset],
    cells: &[Cell],
    tr: &mut Tracer,
) -> Vec<(f64, Verdict)> {
    let budget = Budget::UNLIMITED.with_processed_cap(shape.cap);
    let mut out = Vec::with_capacity(cells.len());
    for (xi, ds) in data.iter().enumerate() {
        let pool = SupportCachePool::new();
        for (mi, &m) in FIG12_METHODS.iter().enumerate() {
            let cell = cells
                .iter()
                .find(|c| c.x_index == xi && c.method == mi)
                .expect("read_journal returned every cell");
            let run = tr.span("grid.cell", || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    m.run_with(&ds.pair, &ds.patterns, budget, 1, Some(&pool))
                }))
            });
            let verdict = match &run {
                Ok(o) => check_cell(m, ds, o, cell),
                Err(_) => Err(format!("{} panicked", m.name())),
            };
            if let Err(e) = &verdict {
                eprintln!("perfbench: fig12_grid check failed: {e}");
            }
            let secs = run.as_ref().map_or(0.0, |o| o.elapsed().as_secs_f64());
            out.push((secs, verdict));
        }
    }
    out
}

/// Runs the workload for `opts.seconds` and reports its metrics.
pub fn run(opts: &Options, tr: &mut Tracer) -> Result<Report, String> {
    let shape = shape(opts.scale);
    let mut rep = Report::default();

    let mut setup_s = Vec::new();
    let mut data = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        data = shape
            .xs
            .iter()
            .map(|&x| datasets::larger_synthetic(x / 10, shape.traces, opts.seed))
            .collect();
        setup_s.push(start.elapsed().as_secs_f64());
    }

    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    // One sample per grid: its cells' mean time. Cell times span 1 ms to
    // 1 s, with wide gaps near the middle, so a median over single cells
    // jumps between neighbours from run to run.
    let mut mean_cell_s = Vec::new();
    let mut traced_mean_cell_s = Vec::new();
    let mut cells_done = 0u64;
    let mut f = Vec::new();
    let mut finished = 0u64;
    let mut first: Option<(Vec<Cell>, u64)> = None;
    let mut deadline = None;
    let mut grids = 0u32;
    for i in 0u32.. {
        grids += 1;
        // Grid 0 is a warm-up: its cells are checked and counted like any
        // other, but its times are not samples, and the measurement window
        // opens when it ends.
        let warm_up = i == 0;
        let traced = opts.trace && !warm_up && i % 2 == 0;
        tr.start_run(i, traced);
        let dir = opts.work.join(format!("grid-{i}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let (fig, wall) = tr.span("grid.run_grid", || {
            run_one(&shape, &data, opts.seed, Some(&dir))
        });
        let journal = dir.join("Fig12.journal");
        let cells = read_journal(&journal, &shape)?;
        let panel_ok = check_panel(&fig, &cells);
        if let Err(e) = &panel_ok {
            eprintln!("perfbench: fig12_grid panel check failed: {e}");
        }
        rep.attempted += cells.len() as u64;
        let mut cell_s = Vec::new();
        for c in &cells {
            if panel_ok.is_err() || c.failed() {
                rep.failed += 1;
                continue;
            }
            cell_s.push(c.secs);
            f.push(c.anytime_f);
            finished += u64::from(c.finished);
        }
        if traced {
            traced_mean_cell_s.push(mean(&cell_s));
            traced_walls.push(wall);
        } else if !warm_up {
            cells_done += cell_s.len() as u64;
            mean_cell_s.push(mean(&cell_s));
            walls.push(wall);
        }
        if first.is_none() {
            let bytes = std::fs::metadata(&journal).map_or(0, |m| m.len());
            first = Some((cells, bytes));
        }
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let deadline = *deadline
            .get_or_insert_with(|| Instant::now() + std::time::Duration::from_secs(opts.seconds));
        let min_grids = if opts.trace { 2 } else { 1 };
        if i >= min_grids && Instant::now() >= deadline {
            break;
        }
    }
    let (cells, journal_bytes) = first.expect("at least one grid ran");

    let mut nojournal_wall = 0.0;
    if opts.trace {
        tr.start_run(grids, true);
        nojournal_wall = tr.span("grid.run_grid_without_journal", || {
            run_one(&shape, &data, opts.seed, None).1
        });
    }
    tr.start_run(grids + 1, opts.trace);
    // The heap's peak while the cells run one by one: the resident inputs
    // plus the largest cell. Inside the grid, which cells overlap on the
    // two workers varies from run to run, and so would the peak.
    crate::heap::reset_peak();
    let reruns = rerun_cells(&shape, &data, &cells, tr);
    let peak_heap_mb = crate::heap::peak_mb();
    rep.failed += reruns.iter().filter(|(_, v)| v.is_err()).count() as u64;
    let bits_differ = reruns
        .iter()
        .filter(|(_, v)| matches!(v, Ok((false, _))))
        .count();
    let score_ratio: Vec<f64> = reruns
        .iter()
        .filter_map(|(_, v)| v.as_ref().ok().map(|(_, r)| *r))
        .collect();

    let ok = rep.attempted - rep.failed;
    rep.fact(
        "size",
        format!(
            "{} methods x larger_synthetic({:?} events, {} traces/side)",
            FIG12_METHODS.len(),
            shape.xs,
            shape.traces
        ),
    );
    rep.fact("threads", WORKERS);
    rep.fact("processed_cap", shape.cap);
    rep.fact("samples", mean_cell_s.len() + traced_mean_cell_s.len());
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
        rep.set("runs_per_s", ratio(cells_done as f64, walls.iter().sum()));
        rep.set("run_s.p50", median(&mean_cell_s));
        rep.set("score_ratio", mean(&score_ratio));
        rep.set(
            "finished_share",
            ratio(finished as f64, rep.attempted as f64),
        );
        rep.set("ok_share", ratio(ok as f64, rep.attempted as f64));
        rep.set("peak_heap_mb", peak_heap_mb);
        return Ok(rep);
    }

    let grid_wall = median(&traced_walls);
    let cell_s_sum: f64 = reruns.iter().map(|(s, _)| s).sum();
    rep.set("grid.cell_s_sum", cell_s_sum);
    rep.set(
        "grid.utilization",
        ratio(cell_s_sum, grid_wall * WORKERS as f64),
    );
    rep.set(
        "grid.straggler_s",
        cells.iter().map(|c| c.secs).fold(0.0, f64::max),
    );
    rep.set("persist.journal_s", grid_wall - nojournal_wall);
    rep.set("persist.bytes_written", journal_bytes as f64);
    rep.set(
        "trace.overhead_s",
        median(&traced_mean_cell_s) - median(&mean_cell_s),
    );
    let sum = |name: &str| cells.iter().map(|c| c.counter(name)).sum::<u64>() as f64;
    rep.set("evaluator.shared_hits", sum("eval.cache.shared_hits"));
    rep.set("evaluator.cache_hits", sum("eval.cache_hits"));
    rep.set("evaluator.cache_misses", sum("eval.cache_misses"));
    rep.set(
        "evaluator.cache_hit_ratio",
        ratio(
            sum("eval.cache_hits"),
            sum("eval.cache_hits") + sum("eval.cache_misses"),
        ),
    );
    rep.set("evaluator.log_scans", sum("eval.log_scans"));
    rep.set(
        "search.processed",
        cells.iter().map(|c| c.processed).sum::<u64>() as f64,
    );
    rep.set("search.pops", sum("search.pops"));
    rep.set("search.expansions", sum("search.expansions"));
    let pruned: u64 = cells
        .iter()
        .flat_map(|c| c.metrics.counters.iter())
        .filter(|(k, _)| k.starts_with("bounds.pruned"))
        .map(|(_, v)| v)
        .sum();
    rep.set("bounds.pruned", pruned as f64);
    Ok(rep)
}
