//! The `cold_sweep` and `warm_sweep` workloads: the full `run_all` pass
//! (the engine run of `run_all_plan` plus the eleven `from_matrix`
//! renders) at the default 400k ops/point, from an empty or a filled
//! matrix cache.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::Serialize;
use wp_cpu::{SimResult, MAX_LANES};
use wp_experiments::conformance::oracle_simulate_workload;
use wp_experiments::engine::{available_threads, parallel_map};
use wp_experiments::runner::{simulate_workload_shared, simulate_workload_shared_lanes};
use wp_experiments::{
    fig10, fig11, fig4, fig5, fig6, fig7, fig8, fig9, report, run_all_plan, table3, table4, table5,
    CancelToken, MachineConfig, MatrixCache, RunOptions, SimEngine, SimMatrix, SimPlan, SimPoint,
};
use wp_workloads::{SharedStream, StreamKey};

use crate::output::Run;
use crate::stats::{median, tail, SeedRng, Tail};
use crate::trace::Tracer;

/// The eleven artefacts, in `run_all` order.
pub const ARTEFACTS: [&str; 11] = [
    "table3", "table4", "fig4", "fig5", "fig6", "table5", "fig7", "fig8", "fig9", "fig10", "fig11",
];

/// Sweep points re-simulated by the reference oracle after timing.
const ORACLE_SAMPLE: usize = 6;
/// Set-up repetitions for `cold_sweep` (plan, empty cache, engine), timed
/// back to back before each pass so that the samples span the run.
const COLD_SETUP_REPS: usize = 61;
/// Set-up repetitions for `warm_sweep` (each fills a cache cold).
const WARM_SETUP_REPS: usize = 3;

/// The engine counters of one pass. They are exact, so every pass of a
/// run (and every run of a seed) must report the same values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    /// Points simulated.
    pub executed: usize,
    /// Points loaded from the matrix cache.
    pub cache_hits: usize,
    /// Gangs (distinct workload streams among the simulated points).
    pub gangs: usize,
    /// Streams materialized.
    pub streams: usize,
    /// Micro-ops generated.
    pub ops_generated: u64,
    /// Micro-ops consumed by simulations.
    pub ops_consumed: u64,
    /// Lane batches run.
    pub lane_batches: usize,
    /// Points simulated inside lane batches.
    pub lane_points: usize,
    /// Points that fell back to the scalar executor.
    pub lane_scalar_fallback: usize,
}

impl Counts {
    fn of(matrix: &SimMatrix) -> Self {
        Self {
            executed: matrix.executed_points(),
            cache_hits: matrix.cache_hits(),
            gangs: matrix.gangs(),
            streams: matrix.streams_materialized(),
            ops_generated: matrix.ops_generated(),
            ops_consumed: matrix.ops_consumed(),
            lane_batches: matrix.lane_batches(),
            lane_points: matrix.lane_points(),
            lane_scalar_fallback: matrix.lane_scalar_fallback(),
        }
    }
}

/// One render: its name, its host seconds and the artefact JSON.
struct Render {
    name: &'static str,
    secs: f64,
    json: String,
}

/// Runs one `from_matrix` render, timing only the render (not the JSON
/// serialisation that feeds the output check). `span` is
/// `render.<artefact>`.
fn timed<R: Serialize>(
    span: &'static str,
    tracer: Option<(&Tracer, usize)>,
    renders: &mut Vec<Render>,
    f: impl FnOnce() -> R,
) {
    let start = Instant::now();
    let result = f();
    let end = Instant::now();
    if let Some((tracer, parent)) = tracer {
        tracer.record(span, Some(parent), 0, start, end);
    }
    renders.push(Render {
        name: span.trim_start_matches("render."),
        secs: (end - start).as_secs_f64(),
        json: report::to_json(&result),
    });
}

/// The eleven renders of `run_all`, in order.
fn render_all(
    matrix: &SimMatrix,
    options: &RunOptions,
    tracer: Option<(&Tracer, usize)>,
) -> Vec<Render> {
    let mut r = Vec::with_capacity(ARTEFACTS.len());
    let m = matrix;
    let o = options;
    timed("render.table3", tracer, &mut r, || {
        table3::from_matrix(m, o)
    });
    timed("render.table4", tracer, &mut r, || {
        table4::from_matrix(m, o)
    });
    timed("render.fig4", tracer, &mut r, || fig4::from_matrix(m, o));
    timed("render.fig5", tracer, &mut r, || fig5::from_matrix(m, o));
    timed("render.fig6", tracer, &mut r, || fig6::from_matrix(m, o));
    timed("render.table5", tracer, &mut r, || {
        table5::from_matrix(m, o)
    });
    timed("render.fig7", tracer, &mut r, || fig7::from_matrix(m, o));
    timed("render.fig8", tracer, &mut r, || fig8::from_matrix(m, o));
    timed("render.fig9", tracer, &mut r, || fig9::from_matrix(m, o));
    timed("render.fig10", tracer, &mut r, || fig10::from_matrix(m, o));
    timed("render.fig11", tracer, &mut r, || fig11::from_matrix(m, o));
    r
}

/// The artefacts as one JSON document (the shape of `run_all --json`
/// without the optional coverage report).
fn artefact_json(renders: &[Render]) -> String {
    let fields: Vec<String> = renders
        .iter()
        .map(|r| format!("\"{}\":{}", r.name, r.json))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// One timed `run_all` pass.
struct Pass {
    engine_s: f64,
    renders: Vec<Render>,
    /// Milliseconds from the pass start until each point's result landed.
    landed_ms: Vec<f64>,
    counts: Counts,
    matrix: SimMatrix,
}

impl Pass {
    fn sweep_s(&self) -> f64 {
        self.engine_s + self.renders.iter().map(|r| r.secs).sum::<f64>()
    }
}

/// Runs the engine over `plan` (streaming, so each point's landing time is
/// seen) and renders the eleven artefacts.
fn run_pass(engine: &SimEngine, plan: &SimPlan, options: &RunOptions) -> Pass {
    let landed = Mutex::new(Vec::with_capacity(plan.len()));
    let mut matrix = SimMatrix::new();
    let start = Instant::now();
    let observer = |_: &SimPoint, _: &SimResult| {
        let ms = start.elapsed().as_secs_f64() * 1e3;
        landed.lock().expect("landing list poisoned").push(ms);
    };
    let complete = engine.run_streaming(&mut matrix, plan, &CancelToken::never(), &observer);
    let engine_s = start.elapsed().as_secs_f64();
    assert!(complete, "an uncancelled sweep completes every point");
    let renders = render_all(&matrix, options, None);
    Pass {
        engine_s,
        renders,
        landed_ms: landed.into_inner().expect("landing list poisoned"),
        counts: Counts::of(&matrix),
        matrix,
    }
}

/// A cache directory under the run's state directory that no earlier
/// set-up used. It is not created here: the cache creates it on its first
/// store, as it does for a `run_all` pointed at a new directory, so set-up
/// time holds no `mkdir` (a `mkdir` took 8× the rest of set-up in some
/// runs on a busy shared disk).
fn fresh_dir(state: &Path) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    state.join(format!(
        "matrix-cache-{}",
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Everything a sweep workload's set-up produces.
struct Setup {
    plan: SimPlan,
    engine: SimEngine,
    dir: PathBuf,
}

/// Builds the plan and the engine over a new, empty cache directory,
/// timing it.
fn cold_setup(options: &RunOptions, state: &Path, threads: usize) -> (Setup, f64) {
    let start = Instant::now();
    let plan = run_all_plan(options);
    let dir = fresh_dir(state);
    let engine = SimEngine::new(threads).with_matrix_cache(MatrixCache::new(&dir));
    let secs = start.elapsed().as_secs_f64();
    (Setup { plan, engine, dir }, secs)
}

/// What a sweep workload measured.
#[derive(Debug, Default)]
pub struct SweepReport {
    pub setup_s: Vec<f64>,
    pub sweep_s: Vec<f64>,
    pub engine_s: Vec<f64>,
    /// Per pass: (p50, tail) of point landing times.
    pub landed: Vec<(f64, Tail)>,
    pub render_ms: HashMap<&'static str, Vec<f64>>,
    pub counts: Counts,
    pub unique_points: usize,
    pub io_errors: u64,
    /// Process high-water RSS after the timed passes, MiB.
    pub peak_rss_mb: f64,
}

impl SweepReport {
    fn note_pass(&mut self, pass: &Pass) {
        self.sweep_s.push(pass.sweep_s());
        self.engine_s.push(pass.engine_s);
        self.landed
            .push((median(&pass.landed_ms), tail(&pass.landed_ms)));
        for render in &pass.renders {
            self.render_ms
                .entry(render.name)
                .or_default()
                .push(render.secs * 1e3);
        }
    }

    /// Median p50 and median tail of point landing times across passes.
    pub fn point_latency(&self) -> (f64, f64, Tail) {
        let p50: Vec<f64> = self.landed.iter().map(|(p50, _)| *p50).collect();
        let tails: Vec<f64> = self.landed.iter().map(|(_, t)| t.value).collect();
        let shape = self.landed.first().map(|(_, t)| *t).unwrap_or_default();
        (median(&p50), median(&tails), shape)
    }
}

/// Checks a pass's counts repeat the first pass's exactly, and the lane
/// partition invariant.
fn check_counts(run: &mut Run, first: &Counts, pass: &Counts, label: &str) {
    run.check(
        pass == first,
        &format!("{label}: engine counts repeat exactly ({pass:?} vs {first:?})"),
    );
    check_lanes(run, pass);
}

/// Every simulated point ran in exactly one lane batch or scalar fallback.
fn check_lanes(run: &mut Run, pass: &Counts) {
    run.check(
        pass.lane_points + pass.lane_scalar_fallback == pass.executed,
        &format!(
            "lane_points {} + scalar fallbacks {} == executed {}",
            pass.lane_points, pass.lane_scalar_fallback, pass.executed
        ),
    );
}

/// Re-simulates a seeded sample of the plan's points through the reference
/// oracle and compares bit for bit.
fn check_oracle(run: &mut Run, matrix: &SimMatrix, plan: &SimPlan, seed: u64) {
    let points = plan.unique_points();
    let mut rng = SeedRng::new(seed, 0x0AC1E);
    for _ in 0..ORACLE_SAMPLE {
        let point = &points[rng.below(points.len())];
        let oracle = oracle_simulate_workload(&point.workload, &point.machine, &point.options);
        let optimized = matrix.require_workload(&point.workload, &point.machine, &point.options);
        run.check(
            oracle.exact_eq(optimized),
            &format!(
                "oracle equals the sweep on {} / {:?} (differs in {:?})",
                point.workload.label(),
                point.machine.dpolicy,
                oracle.diff(optimized)
            ),
        );
    }
}

/// Whether one more pass of about `last` seconds still fits in the
/// measuring window.
fn another_pass(window: Instant, seconds: f64, last: f64) -> bool {
    window.elapsed().as_secs_f64() + last <= seconds
}

/// `cold_sweep`: every pass starts from a fresh, empty cache directory.
pub fn cold(run: &mut Run, state: &Path, seconds: f64) -> SweepReport {
    let options = RunOptions::default().with_seed(run.seed);
    let threads = available_threads();
    let mut report = SweepReport::default();
    let mut reference: Option<(String, Counts)> = None;
    // Set-up (plan, empty cache directory, engine) is timed back to back
    // several times before every pass, so a set-up figure does not rest on
    // one moment of the host; each pass then gets its own fresh set-up,
    // untimed, and the previous pass's cache is removed.
    let window = Instant::now();
    let mut last: Option<(Setup, SimMatrix)> = None;
    loop {
        if let Some((setup, _)) = last.take() {
            let _ = std::fs::remove_dir_all(&setup.dir);
        }
        for _ in 0..COLD_SETUP_REPS {
            let (spare, secs) = cold_setup(&options, state, threads);
            report.setup_s.push(secs);
            let _ = std::fs::remove_dir_all(&spare.dir);
        }
        let (setup, _) = cold_setup(&options, state, threads);
        let pass = run_pass(&setup.engine, &setup.plan, &options);
        report.note_pass(&pass);
        run.attempt(1);
        let json = artefact_json(&pass.renders);
        match &reference {
            None => {
                check_lanes(run, &pass.counts);
                reference = Some((json, pass.counts));
            }
            Some((first_json, first_counts)) => {
                run.check(
                    &json == first_json,
                    "cold passes render byte-identical artefacts",
                );
                check_counts(run, first_counts, &pass.counts, "cold pass");
            }
        }
        report.counts = pass.counts;
        report.unique_points = setup.plan.unique_points().len();
        report.io_errors = pass.matrix.cache_io_errors();
        let secs = pass.sweep_s();
        last = Some((setup, pass.matrix));
        if !another_pass(window, seconds, secs) {
            break;
        }
    }
    report.peak_rss_mb = crate::output::peak_rss_mb();
    let (setup, matrix) = last.expect("at least one pass");
    let (cold_json, _) = reference.expect("at least one pass");

    // Outside timing: a warm pass over the last cold pass's cache must
    // render the same bytes, and a sample of points must match the oracle.
    let warm = run_pass(&setup.engine, &setup.plan, &options);
    run.check(
        artefact_json(&warm.renders) == cold_json,
        "a warm pass renders the cold pass's artefacts byte for byte",
    );
    run.check(
        warm.counts.executed == 0 && warm.counts.cache_hits == report.unique_points,
        "the warm pass loads every point from the cache",
    );
    run.check(
        report.counts.executed == report.unique_points,
        "the cold pass simulates every unique point",
    );
    check_oracle(run, &matrix, &setup.plan, run.seed);
    run.note_digest("artefacts", &cold_json);
    let _ = std::fs::remove_dir_all(&setup.dir);
    report
}

/// `warm_sweep`: set-up fills a cache cold; every timed pass loads it.
pub fn warm(run: &mut Run, state: &Path, seconds: f64) -> SweepReport {
    let options = RunOptions::default().with_seed(run.seed);
    let threads = available_threads();
    let mut report = SweepReport::default();
    let mut filled = None;
    for _ in 0..WARM_SETUP_REPS {
        let start = Instant::now();
        let (setup, _) = cold_setup(&options, state, threads);
        let matrix = setup.engine.run(&setup.plan);
        report.setup_s.push(start.elapsed().as_secs_f64());
        if let Some((spare, _)) = filled.replace((setup, matrix)) {
            let _ = std::fs::remove_dir_all(&spare.dir);
        }
    }
    let (setup, cold_matrix) = filled.expect("at least one set-up");
    report.unique_points = setup.plan.unique_points().len();
    let cold_json = artefact_json(&render_all(&cold_matrix, &options, None));

    let window = Instant::now();
    let mut first_counts = None;
    loop {
        let pass = run_pass(&setup.engine, &setup.plan, &options);
        report.note_pass(&pass);
        run.attempt(1);
        run.check(
            artefact_json(&pass.renders) == cold_json,
            "warm passes render the cold fill's artefacts byte for byte",
        );
        let first = *first_counts.get_or_insert(pass.counts);
        check_counts(run, &first, &pass.counts, "warm pass");
        run.check(
            pass.counts.executed == 0 && pass.counts.cache_hits == report.unique_points,
            "warm passes load every point from the cache",
        );
        report.counts = pass.counts;
        report.io_errors = pass.matrix.cache_io_errors();
        if !another_pass(window, seconds, pass.sweep_s()) {
            break;
        }
    }
    report.peak_rss_mb = crate::output::peak_rss_mb();
    check_oracle(run, &cold_matrix, &setup.plan, run.seed);
    run.note_digest("artefacts", &cold_json);
    let _ = std::fs::remove_dir_all(&setup.dir);
    report
}

/// What the traced sweep run measured.
#[derive(Debug, Default)]
pub struct TracedSweep {
    /// Untraced passes (engine run + renders), seconds.
    pub untraced_s: Vec<f64>,
    /// Traced passes, seconds.
    pub traced_s: Vec<f64>,
    pub report: SweepReport,
}

/// The engine's work units, rebuilt from outside by the rule
/// `SimEngine` documents: within each gang (stream), points sharing a
/// `(d-policy, d-geometry)` key run as lane batches of up to `MAX_LANES`;
/// singletons and remainders run scalar. The traced pass checks this
/// copy's stream, lane and scalar counts against the engine's counters.
enum Unit {
    Scalar(usize, usize),
    Lane(Vec<usize>, usize),
}

fn work_units(points: &[SimPoint]) -> (Vec<StreamKey>, Vec<Unit>) {
    let mut keys: Vec<StreamKey> = Vec::new();
    let mut members: Vec<Vec<usize>> = Vec::new();
    let mut key_index: HashMap<StreamKey, usize> = HashMap::new();
    for (index, point) in points.iter().enumerate() {
        let key = StreamKey::new(
            point.workload.clone(),
            point.options.ops,
            point.options.seed,
        );
        let stream = *key_index.entry(key.clone()).or_insert_with(|| {
            keys.push(key);
            members.push(Vec::new());
            keys.len() - 1
        });
        members[stream].push(index);
    }
    let mut units = Vec::new();
    for (stream, gang) in members.iter().enumerate() {
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut group_index = HashMap::new();
        for &index in gang {
            let m: &MachineConfig = &points[index].machine;
            let key = (
                m.dpolicy,
                m.l1d.size_bytes,
                m.l1d.block_bytes,
                m.l1d.associativity,
            );
            let g = *group_index.entry(key).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[g].push(index);
        }
        for group in groups {
            for chunk in group.chunks(MAX_LANES) {
                if chunk.len() >= 2 {
                    units.push(Unit::Lane(chunk.to_vec(), stream));
                } else {
                    units.push(Unit::Scalar(chunk[0], stream));
                }
            }
        }
    }
    (keys, units)
}

/// What the traced pass's copy of the engine's schedule ran, to be checked
/// against the engine's own counters so that a change to the engine's
/// partition rule fails the run instead of being measured silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Schedule {
    streams: usize,
    lane_batches: usize,
    lane_points: usize,
    scalar_units: usize,
}

impl Schedule {
    fn of(counts: &Counts) -> Self {
        Self {
            streams: counts.streams,
            lane_batches: counts.lane_batches,
            lane_points: counts.lane_points,
            scalar_units: counts.lane_scalar_fallback,
        }
    }
}

/// One traced pass: cache loads, stream materialization, lane and scalar
/// units on `threads` workers and cache stores — each public call inside a
/// span — then the renders. A `SimMatrix` can only be filled by the
/// engine, so the renders run on `reference`, the untraced pass's matrix,
/// which the caller checks point by point against the results returned
/// here. Returns the pass seconds, every point's result, the renders and
/// the schedule that ran.
fn traced_pass(
    setup: &Setup,
    reference: &SimMatrix,
    options: &RunOptions,
    threads: usize,
    tracer: &Tracer,
    pass_id: u64,
) -> (f64, Vec<(SimPoint, SimResult)>, Vec<Render>, Schedule) {
    let start = Instant::now();
    let root = tracer.open("sweep.pass", None, pass_id);
    let points = setup.plan.unique_points();
    let cache = MatrixCache::new(&setup.dir);
    let mut out = Vec::with_capacity(points.len());
    let mut missing = Vec::new();
    for (index, point) in points.iter().enumerate() {
        let hit = tracer.scope("matrix_cache.load", Some(root), index as u64, || {
            cache.load(point)
        });
        match hit {
            Some(result) => out.push((point.clone(), result)),
            None => missing.push(point.clone()),
        }
    }
    let mut schedule = Schedule::default();
    if !missing.is_empty() {
        let (keys, units) = work_units(&missing);
        schedule.streams = keys.len();
        for unit in &units {
            match unit {
                Unit::Scalar(..) => schedule.scalar_units += 1,
                Unit::Lane(batch, _) => {
                    schedule.lane_batches += 1;
                    schedule.lane_points += batch.len();
                }
            }
        }
        let streams: Vec<SharedStream> = parallel_map(threads, &keys, |key| {
            tracer.scope("workloads.materialize", Some(root), 0, || {
                SharedStream::materialize(key).expect("generated streams always materialize")
            })
        });
        let cursor = AtomicUsize::new(0);
        let results: Mutex<Vec<(usize, SimResult)>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..threads.min(units.len()) {
                scope.spawn(|| loop {
                    let Some(unit) = units.get(cursor.fetch_add(1, Ordering::Relaxed)) else {
                        return;
                    };
                    let produced: Vec<(usize, SimResult)> = match unit {
                        Unit::Scalar(point, stream) => {
                            tracer.scope("cpu.scalar", Some(root), *point as u64, || {
                                vec![(
                                    *point,
                                    simulate_workload_shared(
                                        &streams[*stream],
                                        &missing[*point].machine,
                                    ),
                                )]
                            })
                        }
                        Unit::Lane(batch, stream) => {
                            let machines: Vec<MachineConfig> =
                                batch.iter().map(|&p| missing[p].machine).collect();
                            tracer.scope("cpu.lane_batch", Some(root), batch[0] as u64, || {
                                simulate_workload_shared_lanes(&streams[*stream], &machines)
                                    .into_iter()
                                    .zip(batch.iter().copied())
                                    .map(|(r, p)| (p, r))
                                    .collect()
                            })
                        }
                    };
                    results
                        .lock()
                        .expect("result list poisoned")
                        .extend(produced);
                });
            }
        });
        let mut results = results.into_inner().expect("result list poisoned");
        results.sort_by_key(|(index, _)| *index);
        for (index, result) in results {
            tracer.scope("matrix_cache.store", Some(root), index as u64, || {
                cache.store(&missing[index], &result)
            });
            out.push((missing[index].clone(), result));
        }
    }
    let renders = render_all(reference, options, Some((tracer, root)));
    tracer.close(root);
    (start.elapsed().as_secs_f64(), out, renders, schedule)
}

/// The traced run of a sweep workload: untraced and traced passes
/// alternate (cold: each from an empty cache; warm: over one filled
/// cache), and every traced pass must reproduce the untraced artefacts.
pub fn traced(
    run: &mut Run,
    state: &Path,
    seconds: f64,
    warm: bool,
    tracer: &Tracer,
) -> TracedSweep {
    let options = RunOptions::default().with_seed(run.seed);
    let threads = available_threads();
    let mut out = TracedSweep::default();
    let (mut setup, _) = cold_setup(&options, state, threads);
    if warm {
        // Filled once; every pass of either kind then loads it.
        setup.engine.run(&setup.plan);
    }
    // Cold passes each start from an empty cache.
    let renew = |setup: Setup| {
        if warm {
            return setup;
        }
        let _ = std::fs::remove_dir_all(&setup.dir);
        cold_setup(&options, state, threads).0
    };
    let window = Instant::now();
    let mut pass_id = 0u64;
    loop {
        let pass = run_pass(&setup.engine, &setup.plan, &options);
        out.untraced_s.push(pass.sweep_s());
        out.report.note_pass(&pass);
        out.report.counts = pass.counts;
        out.report.io_errors = pass.matrix.cache_io_errors();
        run.attempt(1);
        let json = artefact_json(&pass.renders);

        setup = renew(setup);
        let (secs, results, renders, schedule) =
            traced_pass(&setup, &pass.matrix, &options, threads, tracer, pass_id);
        pass_id += 1;
        out.traced_s.push(secs);
        run.attempt(1);
        run.check(
            artefact_json(&renders) == json,
            "the traced pass renders the untraced pass's artefacts byte for byte",
        );
        run.check(
            schedule == Schedule::of(&pass.counts),
            &format!(
                "the traced pass ran the engine's schedule ({schedule:?} vs {:?})",
                Schedule::of(&pass.counts)
            ),
        );
        let all_equal = results.len() == setup.plan.unique_points().len()
            && results.iter().all(|(p, result)| {
                result.exact_eq(
                    pass.matrix
                        .require_workload(&p.workload, &p.machine, &p.options),
                )
            });
        run.check(all_equal, "the traced pass's results equal the engine's");
        setup = renew(setup);
        if !another_pass(window, seconds, pass.sweep_s() + secs) {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&setup.dir);
    out
}
