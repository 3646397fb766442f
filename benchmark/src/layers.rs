//! Per-layer ablation: ns/op for each stage of the simulator's hot path,
//! plus per-record matrix-cache and per-frame protocol costs.
//!
//! Every figure times a call into one layer's public functions over one
//! fixed, seeded input, outside the program's hot path. The ns/op rows
//! share one stream and one unit (nanoseconds per micro-op of the
//! stream), so they subtract: `cpu.sched_ns_per_op` — the scheduler
//! skeleton and issue window — is the scalar processor run minus its
//! d-cache probes and its stream replay.

use std::time::Instant;

use wp_cache::{DCacheController, DCachePolicy, ICachePolicy, L1Config};
use wp_cpu::{CpuConfig, SimResult};
use wp_experiments::runner::{simulate_workload_shared, simulate_workload_shared_lanes};
use wp_experiments::{MachineConfig, MatrixCache, RunOptions, SimPoint};
use wp_serve::protocol;
use wp_workloads::{
    Benchmark, OpBlockSource, OpBuffer, OpKind, SharedStream, StreamKey, WorkloadSpec,
};

use crate::stats::median;
use crate::trace::Tracer;

/// Micro-ops in the ablation stream: one default-sized sweep point.
pub const ABLATION_OPS: usize = 400_000;
/// Timed repetitions per row; the row reports their median.
const REPS: usize = 5;
/// Records written and read back for the matrix-cache row.
const CACHE_RECORDS: usize = 64;
/// Frames parsed and rendered for the protocol rows.
const FRAMES: usize = 2_000;

/// The ablation table.
#[derive(Debug, Clone, Default)]
pub struct Ablation {
    /// `SharedStream::materialize`, ns per op generated.
    pub materialize_ns: f64,
    /// Draining a `SharedStreamReader`, ns per op replayed.
    pub replay_ns: f64,
    /// `DCacheController` load/store loop, parallel policy, ns per stream op.
    pub dprobe_parallel_ns: f64,
    /// The same loop under selective-DM + way-prediction.
    pub dprobe_seldm_ns: f64,
    /// `simulate_workload_shared` on the baseline machine, ns per op.
    pub scalar_ns: f64,
    /// `simulate_workload_shared_lanes` at width 8, ns per op per lane.
    pub lane_ns: f64,
    /// Memory accesses per stream op (converts the d-probe rows to the
    /// per-access unit of `BENCH_sim_throughput.json`).
    pub accesses_per_op: f64,
}

impl Ablation {
    /// Scheduler skeleton and issue window: scalar − d-probe − replay.
    pub fn sched_ns(&self) -> f64 {
        self.scalar_ns - self.dprobe_parallel_ns - self.replay_ns
    }

    /// The table as text, with each row's `BENCH_sim_throughput.json` v3
    /// section.
    pub fn to_table(&self) -> String {
        let rows = [
            ("workloads.materialize_ns_per_op", self.materialize_ns, "-"),
            ("workloads.replay_ns_per_op", self.replay_ns, "-"),
            (
                "cache_core.dprobe_ns_per_op.parallel",
                self.dprobe_parallel_ns,
                "dcache_access_loop",
            ),
            (
                "cache_core.dprobe_ns_per_op.seldm_waypred",
                self.dprobe_seldm_ns,
                "dcache_access_loop",
            ),
            ("cpu.scalar_ns_per_op", self.scalar_ns, "processor_run"),
            ("cpu.lane_ns_per_op", self.lane_ns, "lane_kernels"),
            ("cpu.sched_ns_per_op", self.sched_ns(), "-"),
        ];
        let mut out = format!(
            "ablation ({ABLATION_OPS} ops, median of {REPS}; d-probe rows are per stream op, \
             {:.3} accesses/op):\n",
            self.accesses_per_op
        );
        for (name, value, section) in rows {
            out.push_str(&format!(
                "  {name:<44} {value:>8.2} ns/op   (v3 section: {section})\n"
            ));
        }
        out
    }
}

/// Times `f` [`REPS`] times after one untimed warm-up and returns the
/// median seconds.
fn median_secs<R>(mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// The eight-machine lane batch: one d-side (the batch key) with every
/// free axis varied.
fn lane_machines() -> Vec<MachineConfig> {
    let base = MachineConfig::baseline();
    vec![
        base,
        base.with_ipolicy(ICachePolicy::WayPredict),
        base.with_l1i(L1Config::paper_icache().with_associativity(2))
            .with_ipolicy(ICachePolicy::WayPredict),
        base.with_l1i(L1Config::paper_icache().with_associativity(1)),
        base.with_l1i(L1Config::paper_icache().with_associativity(8))
            .with_ipolicy(ICachePolicy::WayPredict),
        base.with_l1d(L1Config::paper_dcache().with_base_latency(2)),
        base.with_l1d(L1Config::paper_dcache().with_prediction_table_entries(256)),
        MachineConfig {
            cpu: CpuConfig {
                issue_width: 4,
                ..CpuConfig::default()
            },
            ..base
        },
    ]
}

/// Runs the ablation over a `gcc` stream drawn from `seed`, recording one
/// span per row under `parent`.
pub fn ablation(seed: u64, tracer: &Tracer, parent: Option<usize>) -> Ablation {
    let key = StreamKey::new(WorkloadSpec::Benchmark(Benchmark::Gcc), ABLATION_OPS, seed);
    let ops = ABLATION_OPS as f64;
    let per_op = |secs: f64| secs * 1e9 / ops;

    let materialize_ns = tracer.scope("workloads.materialize", parent, 0, || {
        per_op(median_secs(|| {
            SharedStream::materialize(&key).expect("generated streams always materialize")
        }))
    });
    let stream = SharedStream::materialize(&key).expect("generated streams always materialize");

    let replay_ns = tracer.scope("workloads.replay", parent, 0, || {
        per_op(median_secs(|| {
            let mut reader = stream.reader().expect("in-memory streams re-open");
            let mut buf = OpBuffer::new();
            let mut total = 0usize;
            loop {
                buf.clear();
                let n = reader.fill(&mut buf);
                if n == 0 {
                    break total;
                }
                total += n;
                std::hint::black_box(buf.ops());
            }
        }))
    });

    // The memory ops of the same stream, pre-extracted so the timed loop
    // is nothing but controller accesses.
    let mut mem_ops: Vec<(u64, u64, u64, bool)> = Vec::new();
    {
        let mut reader = stream.reader().expect("in-memory streams re-open");
        let mut buf = OpBuffer::new();
        loop {
            buf.clear();
            if reader.fill(&mut buf) == 0 {
                break;
            }
            for op in buf.ops() {
                match op.kind {
                    OpKind::Load { addr, approx_addr } => {
                        mem_ops.push((op.pc, addr, approx_addr, true))
                    }
                    OpKind::Store { addr } => mem_ops.push((op.pc, addr, 0, false)),
                    _ => {}
                }
            }
        }
    }
    let dprobe = |policy: DCachePolicy| {
        per_op(median_secs(|| {
            let mut cache = DCacheController::new(L1Config::paper_dcache(), policy)
                .expect("the paper d-cache is valid");
            let mut latency = 0u64;
            for &(pc, addr, approx, is_load) in &mem_ops {
                let out = if is_load {
                    cache.load(pc, addr, approx)
                } else {
                    cache.store(pc, addr)
                };
                latency += out.latency;
            }
            latency
        }))
    };
    let dprobe_parallel_ns = tracer.scope("cache_core.dprobe", parent, 0, || {
        dprobe(DCachePolicy::Parallel)
    });
    let dprobe_seldm_ns = tracer.scope("cache_core.dprobe", parent, 1, || {
        dprobe(DCachePolicy::SelDmWayPredict)
    });

    let baseline = MachineConfig::baseline();
    let scalar_ns = tracer.scope("cpu.scalar", parent, 0, || {
        per_op(median_secs(|| simulate_workload_shared(&stream, &baseline)))
    });
    let machines = lane_machines();
    let lane_ns = tracer.scope("cpu.lane_batch", parent, 0, || {
        per_op(median_secs(|| {
            simulate_workload_shared_lanes(&stream, &machines)
        })) / machines.len() as f64
    });

    Ablation {
        materialize_ns,
        replay_ns,
        dprobe_parallel_ns,
        dprobe_seldm_ns,
        scalar_ns,
        lane_ns,
        accesses_per_op: mem_ops.len() as f64 / ops,
    }
}

/// Per-record matrix-cache costs, in microseconds: `(load, store)`.
pub fn matrix_cache_costs(
    dir: &std::path::Path,
    seed: u64,
    tracer: &Tracer,
    parent: Option<usize>,
) -> (f64, f64) {
    let result = sample_result(seed);
    let cache = MatrixCache::new(dir);
    let points: Vec<SimPoint> = (0..CACHE_RECORDS as u64)
        .map(|i| {
            SimPoint::new(
                Benchmark::Gcc,
                MachineConfig::baseline(),
                RunOptions::default().with_seed(seed.wrapping_add(i)),
            )
        })
        .collect();
    let store: Vec<f64> = points
        .iter()
        .map(|point| {
            let start = Instant::now();
            cache.store(point, &result);
            let end = Instant::now();
            tracer.record("matrix_cache.store", parent, 0, start, end);
            (end - start).as_secs_f64() * 1e6
        })
        .collect();
    let load: Vec<f64> = points
        .iter()
        .map(|point| {
            let start = Instant::now();
            let loaded = cache.load(point);
            let end = Instant::now();
            assert!(
                loaded.is_some_and(|r| r.exact_eq(&result)),
                "a stored matrix-cache record must load back bit-identical"
            );
            tracer.record("matrix_cache.load", parent, 0, start, end);
            (end - start).as_secs_f64() * 1e6
        })
        .collect();
    (median(&load), median(&store))
}

/// Per-frame protocol costs, in microseconds: `(parse, render)` — one v1
/// `simulate` request through `parse_request`, one result through
/// `ok_response`.
pub fn protocol_costs(seed: u64, tracer: &Tracer, parent: Option<usize>) -> (f64, f64) {
    let result = sample_result(seed);
    let point = SimPoint::new(
        Benchmark::Gcc,
        MachineConfig::baseline().with_dpolicy(DCachePolicy::SelDmWayPredict),
        RunOptions::default().with_seed(seed),
    );
    let frame = protocol::simulate_request(7, &point, Some(30_000));
    let parse = tracer.scope("protocol.parse", parent, 0, || {
        median_secs(|| {
            for _ in 0..FRAMES {
                std::hint::black_box(protocol::parse_request(std::hint::black_box(
                    frame.as_bytes(),
                )))
                .expect("the benchmark's own request frames parse");
            }
        })
    });
    let render = tracer.scope("protocol.render", parent, 0, || {
        median_secs(|| {
            for id in 0..FRAMES as u64 {
                std::hint::black_box(protocol::ok_response(id, std::hint::black_box(&result)));
            }
        })
    });
    (parse * 1e6 / FRAMES as f64, render * 1e6 / FRAMES as f64)
}

/// A realistic result to store and render: a short simulation.
fn sample_result(seed: u64) -> SimResult {
    let stream = SharedStream::materialize(&StreamKey::new(
        WorkloadSpec::Benchmark(Benchmark::Gcc),
        20_000,
        seed,
    ))
    .expect("generated streams always materialize");
    simulate_workload_shared(&stream, &MachineConfig::baseline())
}
