//! The repository benchmark.
//!
//! `wpsdm-benchmark --workload NAME --seed N --seconds S --trace 0|1`
//! runs one workload for about `S` seconds of measurement, checks its
//! outputs, prints every metric by name with its unit, and ends with one
//! JSON result line: `{"correct", "attempted", "failed", "metrics"}`.
//! With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! a separate traced run reports the per-layer ones and writes its spans
//! to `.bench_out/`. Workloads, metrics and their regression bounds are
//! listed in `BENCHMARK.json`; `NOTES.md` says why each exists and which
//! layer metric should move which end-to-end metric.

mod layers;
mod output;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::path::{Path, PathBuf};

use output::{Metrics, Run};
use stats::{median, Tail};
use trace::Tracer;

const USAGE: &str =
    "usage: wpsdm-benchmark --workload cold_sweep|warm_sweep|serve_mixed --seed N --seconds S --trace 0|1";

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("flag `{flag}` requires a value"))?;
        let bad = |what: &str| format!("`{flag}` expects {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("a positive number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("missing `--workload`")?;
    if !["cold_sweep", "warm_sweep", "serve_mixed"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing `--seed`")?,
        seconds: seconds.ok_or("missing `--seconds`")?,
        trace: trace.ok_or("missing `--trace`")?,
    })
}

/// Prints one line per tail with its percentile and sample count.
fn tail_line(name: &str, t: &Tail) -> String {
    format!(
        "{name} = {:.3} ms (p{:.1} of {} samples)",
        t.value, t.percentile, t.samples
    )
}

/// The end-to-end run of a sweep workload.
fn sweep_e2e(args: &Args, run: &mut Run, state: &Path, metrics: &mut Metrics) {
    let report = if args.workload == "cold_sweep" {
        sweep::cold(run, state, args.seconds)
    } else {
        sweep::warm(run, state, args.seconds)
    };
    let (p50, tail_ms, shape) = report.point_latency();
    let mut setups = report.setup_s.clone();
    setups.sort_by(f64::total_cmp);
    println!(
        "set-up samples: {} from {:.6} to {:.6} s",
        setups.len(),
        setups[0],
        setups[setups.len() - 1]
    );
    metrics.add("setup_s", median(&report.setup_s), "s");
    metrics.add("sweep_s", median(&report.sweep_s), "s");
    metrics.add("point_p50_ms", p50, "ms");
    metrics.add("point_tail_ms", tail_ms, "ms");
    metrics.add("peak_rss_mb", report.peak_rss_mb, "MiB");
    let engine_s = median(&report.engine_s);
    println!(
        "passes = {} ({:.4?} s); point landing tail per pass is p{:.1} of {} points, median over passes",
        report.sweep_s.len(),
        report.sweep_s,
        shape.percentile,
        shape.samples
    );
    println!(
        "sim_mops_per_s = {:.3} Mops/s ({} ops consumed / {:.4} s engine run)",
        if engine_s > 0.0 {
            report.counts.ops_consumed as f64 / engine_s / 1e6
        } else {
            0.0
        },
        report.counts.ops_consumed,
        engine_s
    );
    print_counts(&report.counts);
}

fn print_counts(c: &sweep::Counts) {
    println!(
        "counts: executed {} cache_hits {} gangs {} streams {} ops_generated {} ops_consumed {} \
         lane_batches {} lane_points {} scalar_fallbacks {}",
        c.executed,
        c.cache_hits,
        c.gangs,
        c.streams,
        c.ops_generated,
        c.ops_consumed,
        c.lane_batches,
        c.lane_points,
        c.lane_scalar_fallback
    );
}

/// The end-to-end run of `serve_mixed`.
fn serve_e2e(args: &Args, run: &mut Run, state: &Path, metrics: &mut Metrics) {
    let r = serve::serve(run, state, args.seconds, None);
    println!("set-up samples {:.4?} s", r.setup_s);
    metrics.add("setup_s", median(&r.setup_s), "s");
    metrics.add("sweep_s", median(&r.sweep_ms) / 1e3, "s");
    metrics.add("point_p50_ms", r.high.p50_ms, "ms");
    metrics.add("point_tail_ms", r.high.slowest_mean_ms, "ms");
    metrics.add("peak_rss_mb", r.peak_rss_mb, "MiB");
    println!(
        "peak_rss_mb after the first set-up {:.3} MiB, after the fixed-rate phases {:.3} MiB",
        r.peak_rss_mb, r.open_loop_rss_mb
    );
    print_serve(&r);
}

fn print_serve(r: &serve::ServeReport) {
    for (name, rps, phase) in [
        ("low", serve::LOW_RPS, &r.low),
        ("high", serve::HIGH_RPS, &r.high),
    ] {
        println!("point_p50_ms.{name} = {:.3} ms at {rps} rps", phase.p50_ms);
        println!(
            "{} at {rps} rps; mean of the slowest {:.0}%: {:.3} ms",
            tail_line(&format!("point_tail_ms.{name}"), &phase.tail),
            100.0 * serve::SLOWEST_SHARE,
            phase.slowest_mean_ms
        );
    }
    println!(
        "sweep_req_p50_ms = {:.3} ms over {} sweeps",
        median(&r.sweep_ms),
        r.sweep_ms.len()
    );
    for rung in &r.ladder {
        println!(
            "ladder {:>5} rps: p50 {:.3} ms, {}, failed {}, backlog grew {}, {}",
            rung.rps,
            rung.p50_ms,
            tail_line("tail", &rung.tail),
            rung.failed,
            rung.grew,
            if rung.passed {
                "meets the limit"
            } else {
                "misses the limit"
            }
        );
    }
    println!(
        "max_rate_rps = {} 1/s (tail limit {} ms)",
        r.max_rate_rps,
        serve::LIMIT_MS
    );
    println!("{}", tail_line("harness.generator_lag_ms", &r.lag));
    println!(
        "daemon: requested {} executed {} (distinct points {}) cache_hits {} coalesced {} \
         shed {} releads {}; {} point responses checked against the batch renderer",
        r.requested,
        r.executed,
        r.distinct,
        r.cache_hits,
        r.coalesced,
        r.shed,
        r.releads,
        r.checked_responses
    );
}

/// Layers reported as self time, in a fixed order so every workload
/// prints the same metric names.
const SELF_TIME_LAYERS: [&str; 7] = [
    "sweep",
    "workloads",
    "cpu",
    "matrix_cache",
    "render",
    "phase",
    "client",
];

/// The traced run: per-layer metrics.
fn traced(args: &Args, run: &mut Run, state: &Path, metrics: &mut Metrics) -> (Tracer, Tracer) {
    let tracer = Tracer::new();
    let ablation_tracer = Tracer::new();
    let root = ablation_tracer.open("ablation", None, 0);
    let ablation = layers::ablation(args.seed, &ablation_tracer, Some(root));
    let (load_us, store_us) = layers::matrix_cache_costs(
        &state.join("cache-probe"),
        args.seed,
        &ablation_tracer,
        Some(root),
    );
    let (parse_us, render_us) = layers::protocol_costs(args.seed, &ablation_tracer, Some(root));
    ablation_tracer.close(root);
    print!("{}", ablation.to_table());

    metrics.add(
        "workloads.materialize_ns_per_op",
        ablation.materialize_ns,
        "ns",
    );
    metrics.add("workloads.replay_ns_per_op", ablation.replay_ns, "ns");
    metrics.add(
        "cache_core.dprobe_ns_per_op.parallel",
        ablation.dprobe_parallel_ns,
        "ns",
    );
    metrics.add(
        "cache_core.dprobe_ns_per_op.seldm_waypred",
        ablation.dprobe_seldm_ns,
        "ns",
    );
    metrics.add("cpu.scalar_ns_per_op", ablation.scalar_ns, "ns");
    metrics.add("cpu.lane_ns_per_op", ablation.lane_ns, "ns");
    metrics.add("cpu.sched_ns_per_op", ablation.sched_ns(), "ns");

    let mut counts = sweep::Counts::default();
    let mut engine_s = 0.0;
    let mut render_ms = std::collections::HashMap::new();
    let mut overhead_s = 0.0;
    let mut serve_report = serve::ServeReport::default();
    let io_errors;
    if args.workload == "serve_mixed" {
        serve_report = serve::serve(run, state, args.seconds, Some(&tracer));
        print_serve(&serve_report);
        io_errors = serve_report.io_errors;
    } else {
        let out = sweep::traced(
            run,
            state,
            args.seconds,
            args.workload == "warm_sweep",
            &tracer,
        );
        counts = out.report.counts;
        engine_s = median(&out.report.engine_s);
        render_ms = out.report.render_ms;
        overhead_s = median(&out.traced_s) - median(&out.untraced_s);
        io_errors = out.report.io_errors;
        println!(
            "traced pass {:.4} s vs untraced {:.4} s",
            median(&out.traced_s),
            median(&out.untraced_s)
        );
        print_counts(&counts);
    }

    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    metrics.add("engine.gangs", counts.gangs as f64, "count");
    metrics.add(
        "engine.streams_materialized",
        counts.streams as f64,
        "count",
    );
    metrics.add("engine.ops_generated", counts.ops_generated as f64, "count");
    metrics.add("engine.ops_consumed", counts.ops_consumed as f64, "count");
    metrics.add(
        "engine.stream_dedup",
        ratio(counts.ops_consumed as f64, counts.ops_generated as f64),
        "ratio",
    );
    metrics.add("engine.lane_batches", counts.lane_batches as f64, "count");
    metrics.add("engine.lane_points", counts.lane_points as f64, "count");
    metrics.add(
        "engine.lane_scalar_fallback",
        counts.lane_scalar_fallback as f64,
        "count",
    );
    metrics.add(
        "engine.lane_fill_ratio",
        ratio(
            counts.lane_points as f64,
            (counts.lane_points + counts.lane_scalar_fallback) as f64,
        ),
        "ratio",
    );
    metrics.add("engine.run_s", engine_s, "s");
    metrics.add(
        "engine.sim_mops_per_s",
        ratio(counts.ops_consumed as f64, engine_s) / 1e6,
        "Mops/s",
    );
    println!(
        "engine.stream_dedup base: {} consumed / {} generated; engine.lane_fill_ratio base: \
         {} lane points / {} gang points",
        counts.ops_consumed,
        counts.ops_generated,
        counts.lane_points,
        counts.lane_points + counts.lane_scalar_fallback
    );

    metrics.add("matrix_cache.load_us", load_us, "us");
    metrics.add("matrix_cache.store_us", store_us, "us");
    let hits = if args.workload == "serve_mixed" {
        serve_report.cache_hits as f64
    } else {
        counts.cache_hits as f64
    };
    metrics.add("matrix_cache.hits", hits, "count");
    metrics.add("matrix_cache.io_errors", io_errors as f64, "count");
    for name in sweep::ARTEFACTS {
        let value = render_ms.get(name).map_or(0.0, |v: &Vec<f64>| median(v));
        metrics.add(format!("render.{name}_ms"), value, "ms");
    }

    let s = &serve_report;
    metrics.add("service.requested", s.requested as f64, "count");
    metrics.add("service.executed", s.executed as f64, "count");
    metrics.add("service.cache_hits", s.cache_hits as f64, "count");
    metrics.add("service.coalesced", s.coalesced as f64, "count");
    metrics.add(
        "service.coalesce_ratio",
        ratio(s.coalesced as f64, s.requested as f64),
        "ratio",
    );
    metrics.add("protocol.parse_us", parse_us, "us");
    metrics.add("protocol.render_us", render_us, "us");
    metrics.add("server.shed", s.shed as f64, "count");
    metrics.add("server.releads", s.releads as f64, "count");
    metrics.add("server.queue_depth_max", s.queue_depth_max as f64, "count");
    metrics.add("server.point_p50_ms", s.server_point_p50_ms, "ms");
    metrics.add("harness.generator_lag_ms", s.lag.value, "ms");
    metrics.add("harness.tracing_overhead_s", overhead_s, "s");

    let spans = tracer.spans();
    let by_layer = trace::self_time_by(&spans, |s| trace::layer(s.name).to_string());
    for layer in SELF_TIME_LAYERS {
        metrics.add(
            format!("self_s.{layer}"),
            by_layer.get(layer).copied().unwrap_or(0.0),
            "s",
        );
    }
    let mut by_name: Vec<(String, f64)> = trace::self_time_by(&spans, |s| s.name.to_string())
        .into_iter()
        .collect();
    by_name.sort_by(|a, b| b.1.total_cmp(&a.1));
    let total: f64 = by_name.iter().map(|(_, s)| s).sum();
    println!(
        "self time by span ({} spans, {:.4} s total):",
        spans.len(),
        total
    );
    for (name, secs) in &by_name {
        println!(
            "  {name:<24} {secs:>10.4} s  {:>5.1}%",
            100.0 * secs / total.max(f64::MIN_POSITIVE)
        );
    }
    (tracer, ablation_tracer)
}

/// Writes the traced run's spans (workload and ablation) when the run ends.
fn write_trace(args: &Args, tracer: &Tracer, ablation: &Tracer) {
    let dir = PathBuf::from(".bench_out");
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    let body = format!(
        "{{\"workload\":{},\"ablation\":{}}}\n",
        trace::to_json(&tracer.spans()),
        trace::to_json(&ablation.spans())
    );
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("error: {error}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let state =
        PathBuf::from(".bench_state").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&state) {
        eprintln!("error: cannot create {}: {e}", state.display());
        std::process::exit(2);
    }
    let mut run = Run::new(args.seed);
    let mut metrics = Metrics::default();
    println!(
        "workload {} seed {} seconds {} trace {} on {} threads",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        wp_experiments::engine::available_threads()
    );
    if args.trace {
        let (tracer, ablation) = traced(&args, &mut run, &state, &mut metrics);
        write_trace(&args, &tracer, &ablation);
    } else if args.workload == "serve_mixed" {
        serve_e2e(&args, &mut run, &state, &mut metrics);
    } else {
        sweep_e2e(&args, &mut run, &state, &mut metrics);
    }
    let _ = std::fs::remove_dir_all(&state);
    // The parent goes too once no other run is using it.
    let _ = std::fs::remove_dir(".bench_state");

    for m in &metrics.0 {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    for note in run.notes() {
        println!("{note}");
    }
    println!(
        "fail_ratio = {} ({} failed / {} attempted)",
        run.failed() as f64 / run.attempted() as f64,
        run.failed(),
        run.attempted()
    );
    for failure in run.failures() {
        println!("FAILED: {failure}");
    }
    let correct = run.failed() == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        run.attempted(),
        run.failed(),
        metrics.to_json()
    );
    if !correct {
        std::process::exit(1);
    }
}
