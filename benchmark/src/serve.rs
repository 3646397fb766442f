//! The `serve_mixed` workload: a `wp-serve` daemon started in-process on
//! its default transport (TCP on loopback), driven open-loop by a
//! single-process generator that frames requests with the repository's own
//! `protocol::write_frame`, as the shipped `Client` does.
//!
//! Requests follow a seeded Poisson schedule and are sent when due whether
//! or not earlier ones were answered (responses are read by a separate
//! thread per connection), so a stall shows as queueing. Every latency is
//! measured from the request's due time. The points are `run_all`'s own:
//! the generator replays the requested points of `run_all_plan` that the
//! v1 protocol can express, duplicates included, at the shipped client's
//! 4,000 ops per point, one benchmark's requests per round in a seeded
//! order, each round at a new workload seed. A point's first request in a
//! round simulates, a repeat while it is in flight coalesces, and a later
//! repeat is a cache hit, in the proportions the plan's cross-artefact
//! reuse gives. The last connection also sends a periodic
//! v2 `sweep`: one benchmark under every machine of that plan, at a fresh
//! seed, so the daemon's engine pass runs a gang with lane batches. Points
//! stay off a connection while a sweep is in flight on it.

use std::collections::{HashMap, HashSet};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use serde::Value;
use wp_cpu::SimResult;
use wp_experiments::engine::available_threads;
use wp_experiments::{
    run_all_plan, simulate_workload, MachineConfig, MatrixCache, PointService, RunOptions, SimPoint,
};
use wp_serve::protocol::{self, FrameReader, Request, SweepPlanSpec};
use wp_serve::{Client, Listen, RunningServer, ServerConfig};
use wp_workloads::Benchmark;

use crate::output::Run;
use crate::stats::{median, slowest_mean, tail, SeedRng, Tail};
use crate::trace::Tracer;

/// Micro-ops per v1 point request: the default of the shipped
/// `serve_client`, the figure `docs/SERVICE.md` queries with and the size
/// the soak test uses. Sweeps keep the default `RunOptions` ops (400k), as
/// `run_all` does. Not 400k for points too: a 400k simulation lasts about
/// as long as the 40 ms delayed-ACK timer on a 2-vCPU host, so whether a
/// request also waits out a delayed ACK would flip with the host's speed,
/// and point latency would move twice as much as the host does.
const POINT_OPS: usize = 4_000;

/// The two fixed offered rates, requests per second. They are assumptions,
/// not measured traffic. A point costs the daemon about a millisecond, but
/// each connection answers one request at a time and most requests wait
/// out a 40 ms delayed ACK first, so one connection carries at most about
/// 20–25 rps while requests arrive one at a time. At `low` the
/// connections are mostly idle; at `high` each is busy about half the
/// time, so requests queue behind each other and behind the sweeps without
/// saturating the daemon. (Once requests queue on a connection, the ACKs
/// ride on the responses and the stall goes: the ladder's faster rungs can
/// read lower latencies than `high`.)
pub const LOW_RPS: f64 = 8.0;
pub const HIGH_RPS: f64 = 20.0;
/// The rate ladder `max_rate_rps` climbs, requests per second.
pub const LADDER_RPS: [f64; 6] = [60.0, 120.0, 240.0, 480.0, 960.0, 1920.0];
/// Shares of `--seconds` spent at the `low` and the `high` rate; `high`,
/// the gated phase, gets most of the run so its median and tail rest on
/// the most requests.
const LOW_SHARE: f64 = 0.2;
const HIGH_SHARE: f64 = 0.56;
/// Share of `--seconds` spent on each ladder rung (the climb stops at the
/// first rung that misses the limit).
const RUNG_SHARE: f64 = 0.04;
/// The latency limit on a rung's point tail (an assumption): several times
/// the slowest request of an unloaded daemon (two delayed ACKs, or a wait
/// behind a sweep for the CPU), so it is met while queueing stays bounded.
pub const LIMIT_MS: f64 = 500.0;
/// Seconds between v2 sweeps on the sweep connection (an assumption: 23
/// sweeps in the fixed-rate phases of a 30-second run for the median
/// `sweep_s` rests on, at about a fifth of two cores).
const SWEEP_PERIOD_S: f64 = 1.0;
/// Daemon start-and-warm repetitions during set-up.
const SETUP_REPS: usize = 7;
/// Distinct points whose every response is checked byte for byte against
/// the batch renderer.
const SAMPLED_POINTS: usize = 12;
/// How long a phase may take to drain after its last send: past the
/// daemon's default deadline (requests carry none), so only a daemon that
/// stopped answering hits it.
const DRAIN_LIMIT: Duration = Duration::from_secs(32);
/// How long set-up and the final metrics request wait for an answer.
const CLOSED_LOOP_TIMEOUT: Duration = Duration::from_secs(30);

/// What a request asks for.
#[derive(Debug, Clone)]
enum Ask {
    Point(Box<SimPoint>),
    Sweep(Vec<SimPoint>),
}

/// One scheduled request.
#[derive(Debug, Clone)]
struct Scheduled {
    /// Offset of its due time from the phase start.
    due: Duration,
    conn: usize,
    id: u64,
    ask: Ask,
}

/// One answered (or abandoned) request.
#[derive(Debug, Clone)]
struct Outcome {
    id: u64,
    is_sweep: bool,
    /// Milliseconds from due time to the final response frame.
    latency_ms: f64,
    /// Milliseconds the generator sent it late.
    lag_ms: f64,
    /// Seconds from the phase start to its due time.
    due_s: f64,
    ok: bool,
    /// The response frames (kept for the byte-for-byte check).
    frames: Vec<String>,
}

/// A pending request on one connection.
struct Pending {
    due: Instant,
    sent: Instant,
    is_sweep: bool,
    frames: Vec<String>,
}

/// The requested points of `run_all_plan` at the default options that the
/// v1 protocol expresses (its request round-trips to the same point),
/// duplicates and plan order kept: 330 of 440 today, 143 of them distinct,
/// over 13 machines.
fn plan_requests() -> Vec<SimPoint> {
    run_all_plan(&RunOptions::default())
        .points()
        .iter()
        .filter(|point| {
            let request = protocol::simulate_request(0, point, None);
            matches!(
                protocol::parse_request(request.as_bytes()),
                Ok(Request::Simulate { point: parsed, .. }) if *parsed == **point
            )
        })
        .cloned()
        .collect()
}

/// The seeded request generator.
struct Mix {
    rng: SeedRng,
    /// The plan's expressible requests, in plan order.
    plan: Vec<SimPoint>,
    /// The plan's distinct machines, first-seen order.
    machines: Vec<MachineConfig>,
    /// The current round, shuffled, consumed from the back.
    round: Vec<SimPoint>,
    rounds: u64,
    sweeps: u64,
    next_id: u64,
    seed: u64,
}

impl Mix {
    fn new(seed: u64) -> Self {
        let plan = plan_requests();
        let mut machines: Vec<MachineConfig> = Vec::new();
        for point in &plan {
            if !machines.contains(&point.machine) {
                machines.push(point.machine);
            }
        }
        Self {
            rng: SeedRng::new(seed, 0x5E4E),
            plan,
            machines,
            round: Vec::new(),
            rounds: 0,
            sweeps: 0,
            next_id: 1,
            seed,
        }
    }

    fn id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// A workload seed no earlier round or sweep used.
    fn workload_seed(&self, salt: u64) -> u64 {
        self.seed.wrapping_mul(1_000_003).wrapping_add(salt)
    }

    /// The next point request: the next entry of the current round. A
    /// round is the plan's requests for one benchmark (30 requests, 13
    /// distinct points), in a seeded order at the round's workload seed;
    /// rounds take the benchmarks in turn.
    fn point(&mut self, conns: usize) -> (Ask, usize) {
        if self.round.is_empty() {
            self.rounds += 1;
            let benchmarks = Benchmark::all();
            let benchmark = benchmarks[self.rounds as usize % benchmarks.len()];
            let options = RunOptions::default()
                .with_ops(POINT_OPS)
                .with_seed(self.workload_seed(self.rounds));
            self.round = self
                .plan
                .iter()
                .filter(|p| p.benchmark() == Some(benchmark))
                .map(|p| SimPoint::new(benchmark, p.machine, options))
                .collect();
            for i in (1..self.round.len()).rev() {
                let j = self.rng.below(i + 1);
                self.round.swap(i, j);
            }
        }
        let point = self.round.pop().expect("refilled above");
        (Ask::Point(Box::new(point)), self.rng.below(conns))
    }

    /// A sweep plan: one benchmark under every machine of the plan, at a
    /// workload seed of its own. Sweeps take the benchmarks round-robin, so
    /// every run sweeps the same sequence of work.
    fn sweep(&mut self) -> Ask {
        self.sweeps += 1;
        let benchmarks = Benchmark::all();
        let benchmark = benchmarks[self.sweeps as usize % benchmarks.len()];
        let options = RunOptions::default().with_seed(self.workload_seed(self.sweeps << 32));
        let points = self
            .machines
            .iter()
            .map(|machine| SimPoint::new(benchmark, *machine, options))
            .collect();
        Ask::Sweep(points)
    }

    /// A Poisson schedule at `rps` for `secs`, plus periodic sweeps on the
    /// last connection.
    fn schedule(&mut self, rps: f64, secs: f64, conns: usize) -> Vec<Scheduled> {
        let mut out = Vec::new();
        let mut t = 0.0;
        loop {
            t += -(1.0 - self.rng.unit()).ln() / rps;
            if t >= secs {
                break;
            }
            let (ask, conn) = self.point(conns);
            let id = self.id();
            out.push(Scheduled {
                due: Duration::from_secs_f64(t),
                conn,
                id,
                ask,
            });
        }
        // The first sweep is due half a period in, or half-way through a
        // phase shorter than a period (a ladder rung), so it never sits in
        // a rung's last third, which the backlog test compares with the
        // first.
        let mut t = SWEEP_PERIOD_S.min(secs) / 2.0;
        while t < secs {
            let ask = self.sweep();
            let id = self.id();
            out.push(Scheduled {
                due: Duration::from_secs_f64(t),
                conn: conns - 1,
                id,
                ask,
            });
            t += SWEEP_PERIOD_S;
        }
        out.sort_by_key(|s| s.due);
        out
    }
}

/// The request payload. Requests carry no deadline, so the daemon applies
/// its default.
fn payload(id: u64, ask: &Ask) -> String {
    match ask {
        Ask::Point(point) => protocol::simulate_request(id, point, None),
        Ask::Sweep(points) => protocol::sweep_request(
            id,
            &SweepPlanSpec::Points(points.clone()),
            RunOptions::default().ops as u64,
            0,
            None,
            None,
        ),
    }
}

/// Sends one frame the way the repository's `Client` does.
fn send(stream: &mut TcpStream, payload: &str) -> std::io::Result<()> {
    protocol::write_frame(stream, payload.as_bytes())
}

/// Reads responses on one connection until every request the generator
/// sent on it is answered (or the drain limit passes).
fn reader(
    mut stream: TcpStream,
    pending: &Mutex<HashMap<u64, Pending>>,
    sending: &AtomicBool,
    done: &Mutex<Vec<(u64, Pending, Instant, bool)>>,
) {
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("sockets accept read timeouts");
    let mut frames = FrameReader::new();
    let mut drain_started: Option<Instant> = None;
    loop {
        if !sending.load(Ordering::SeqCst) {
            if pending.lock().expect("pending table poisoned").is_empty() {
                return;
            }
            let started = *drain_started.get_or_insert_with(Instant::now);
            if started.elapsed() > DRAIN_LIMIT {
                return;
            }
        }
        let frame = match frames.read(&mut stream) {
            Ok(Some(frame)) => frame,
            Ok(None) => return,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => return,
        };
        let now = Instant::now();
        let text = String::from_utf8_lossy(&frame).into_owned();
        let value = serde_json::from_str(&text).unwrap_or(Value::Null);
        let id = value.get("id").and_then(Value::as_u64).unwrap_or(0);
        let ok = value.get("ok").and_then(Value::as_bool) == Some(true);
        let streamed_point = value.get("stream").and_then(Value::as_str) == Some("point");
        let mut table = pending.lock().expect("pending table poisoned");
        let Some(entry) = table.get_mut(&id) else {
            continue;
        };
        entry.frames.push(text);
        if streamed_point && entry.is_sweep {
            continue;
        }
        let entry = table.remove(&id).expect("looked up above");
        drop(table);
        done.lock()
            .expect("done list poisoned")
            .push((id, entry, now, ok));
    }
}

/// The connection a point request goes out on: its seeded connection,
/// unless a sweep is in flight there. The daemon answers one request at a
/// time per connection, so a point sent behind a streaming sweep would wait
/// for the whole sweep; a client keeps its points off that connection, as
/// one with a pool of connections would. With every connection busy with a
/// sweep the seeded one is kept.
fn point_conn(seeded: usize, pending: &[Mutex<HashMap<u64, Pending>>]) -> usize {
    let sweeping = |conn: usize| {
        pending[conn]
            .lock()
            .expect("pending table poisoned")
            .values()
            .any(|p| p.is_sweep)
    };
    if !sweeping(seeded) {
        return seeded;
    }
    (0..pending.len()).find(|&c| !sweeping(c)).unwrap_or(seeded)
}

/// Runs one open-loop phase on `conns` connections and returns every
/// request's outcome (unanswered requests count as failed).
fn phase(
    streams: &[TcpStream],
    schedule: &[Scheduled],
    tracer: Option<(&Tracer, usize)>,
) -> Vec<Outcome> {
    let pending: Vec<Mutex<HashMap<u64, Pending>>> =
        streams.iter().map(|_| Mutex::new(HashMap::new())).collect();
    let done = Mutex::new(Vec::new());
    let sending = AtomicBool::new(true);
    let payloads: Vec<String> = schedule.iter().map(|s| payload(s.id, &s.ask)).collect();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (conn, stream) in streams.iter().enumerate() {
            let stream = stream.try_clone().expect("sockets clone");
            let (pending, sending, done) = (&pending[conn], &sending, &done);
            scope.spawn(move || reader(stream, pending, sending, done));
        }
        let mut writers: Vec<TcpStream> = streams
            .iter()
            .map(|s| s.try_clone().expect("sockets clone"))
            .collect();
        for (s, body) in schedule.iter().zip(&payloads) {
            let due = start + s.due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let is_sweep = matches!(s.ask, Ask::Sweep(_));
            let conn = if is_sweep {
                s.conn
            } else {
                point_conn(s.conn, &pending)
            };
            pending[conn]
                .lock()
                .expect("pending table poisoned")
                .insert(
                    s.id,
                    Pending {
                        due,
                        sent: Instant::now(),
                        is_sweep,
                        frames: Vec::new(),
                    },
                );
            // A failed send leaves the request pending: it is counted
            // below as unanswered.
            let _ = send(&mut writers[conn], body);
        }
        sending.store(false, Ordering::SeqCst);
    });
    let mut outcomes: Vec<Outcome> = done
        .into_inner()
        .expect("done list poisoned")
        .into_iter()
        .map(|(id, p, at, ok)| {
            if let Some((tracer, parent)) = tracer {
                let name = if p.is_sweep {
                    "client.sweep"
                } else {
                    "client.point"
                };
                tracer.record(name, Some(parent), id, p.due, at);
            }
            Outcome {
                id,
                is_sweep: p.is_sweep,
                latency_ms: (at - p.due).as_secs_f64() * 1e3,
                lag_ms: (p.sent.saturating_duration_since(p.due)).as_secs_f64() * 1e3,
                due_s: (p.due - start).as_secs_f64(),
                ok,
                frames: p.frames,
            }
        })
        .collect();
    // Requests never answered (drain limit, broken connection) are
    // failures with an unbounded latency.
    for table in pending {
        for (id, p) in table.into_inner().expect("pending table poisoned") {
            outcomes.push(Outcome {
                id,
                is_sweep: p.is_sweep,
                latency_ms: f64::INFINITY,
                lag_ms: 0.0,
                due_s: (p.due - start).as_secs_f64(),
                ok: false,
                frames: Vec::new(),
            });
        }
    }
    outcomes.sort_by_key(|o| o.id);
    outcomes
}

/// Point latencies in ms, failures counting as misses of any limit.
fn point_ms<'a>(outcomes: impl Iterator<Item = &'a Outcome>) -> Vec<f64> {
    outcomes
        .filter(|o| !o.is_sweep)
        .map(|o| if o.ok { o.latency_ms } else { f64::INFINITY })
        .collect()
}

/// Point latency at one fixed rate.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseLatency {
    /// Median over every point request of the phase.
    pub p50_ms: f64,
    /// The tail of the phase's point requests: the highest percentile with
    /// ten samples beyond it.
    pub tail: Tail,
    /// The mean latency of the slowest [`SLOWEST_SHARE`] of the phase's
    /// point requests, the gated tail.
    pub slowest_mean_ms: f64,
}

/// The share of a phase's point requests, the slowest, whose mean is the
/// gated tail. Point latency comes in steps of the 40 ms delayed ACK (none,
/// one or two per request), so a percentile in the tail jumps a whole step
/// when the share of two-step requests crosses it from one seed to the
/// next; the mean over the slowest tenth moves in proportion to that share
/// and still grows with every slow request.
pub const SLOWEST_SHARE: f64 = 0.1;

fn phase_latency(outcomes: &[Outcome]) -> PhaseLatency {
    let all = point_ms(outcomes.iter());
    PhaseLatency {
        p50_ms: median(&all),
        tail: tail(&all),
        slowest_mean_ms: slowest_mean(&all, SLOWEST_SHARE),
    }
}

/// Whether a rung's backlog grew: the mean point latency of the rung's
/// last third of requests (by due time) exceeds its first third's by more
/// than [`BACKLOG_GROWTH_MS`]. A mean, not a median, because point latency
/// is bimodal (cache hits against simulations) and a median jumps between
/// the modes; a margin, not a ratio, because with a few dozen requests one
/// third can hold mostly hits and another mostly simulations, which
/// doubles the mean with no queueing at all.
fn backlog_grew(outcomes: &[Outcome], secs: f64) -> bool {
    let third = |lo: f64, hi: f64| {
        let ms: Vec<f64> = outcomes
            .iter()
            .filter(|o| !o.is_sweep && o.due_s >= lo && o.due_s < hi)
            .map(|o| o.latency_ms)
            .collect();
        ms.iter().sum::<f64>() / ms.len().max(1) as f64
    };
    let first = third(0.0, secs / 3.0);
    let last = third(2.0 * secs / 3.0, secs);
    last > first + BACKLOG_GROWTH_MS
}

/// Growth in mean latency across one rung that counts as a growing
/// backlog: a fifth of the latency limit, more than the gap between a
/// cache hit and a simulation, and reached within a rung only when
/// requests arrive faster than the daemon answers them.
const BACKLOG_GROWTH_MS: f64 = LIMIT_MS / 5.0;

/// One rung of the ladder.
#[derive(Debug, Clone)]
pub struct Rung {
    pub rps: f64,
    pub p50_ms: f64,
    pub tail: Tail,
    pub failed: usize,
    pub grew: bool,
    pub passed: bool,
}

/// What `serve_mixed` measured.
#[derive(Debug, Default)]
pub struct ServeReport {
    pub setup_s: Vec<f64>,
    pub low: PhaseLatency,
    pub high: PhaseLatency,
    /// Process high-water RSS after the first set-up, MiB.
    pub peak_rss_mb: f64,
    /// Process high-water RSS after the fixed-rate phases, MiB.
    pub open_loop_rss_mb: f64,
    pub sweep_ms: Vec<f64>,
    pub ladder: Vec<Rung>,
    pub max_rate_rps: f64,
    pub lag: Tail,
    pub requested: u64,
    pub executed: u64,
    pub cache_hits: u64,
    pub coalesced: u64,
    pub shed: u64,
    pub releads: u64,
    pub queue_depth_max: u64,
    pub server_point_p50_ms: f64,
    /// Distinct points requested (warm-up, points and sweep points).
    pub distinct: u64,
    /// Point responses compared byte for byte with the batch renderer.
    pub checked_responses: u64,
    pub attempted: usize,
    pub failed: usize,
    pub io_errors: u64,
}

/// Starts a daemon on its default transport (TCP, an ephemeral loopback
/// port) over a fresh cache directory and warms it, closed loop: one sweep
/// over the last connection, then one of that sweep's points over every
/// connection (cache hits). Returns the daemon, its connections, the
/// generator and the points the warm-up requested.
fn start_daemon(
    state: &Path,
    mix_seed: u64,
    conns: usize,
) -> (RunningServer, Vec<TcpStream>, Mix, Vec<SimPoint>) {
    let dir = state.join("serve-cache");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("the state directory is writable");
    let service = PointService::with_cache(MatrixCache::new(&dir));
    let mut config = ServerConfig::new(Listen::Tcp("127.0.0.1:0".to_string()), service);
    config.workers = available_threads();
    config.sweep_threads = available_threads();
    config.max_conn_requests = u64::MAX;
    let server = wp_serve::start(config).expect("the daemon binds a loopback port");
    let streams: Vec<TcpStream> = (0..conns)
        .map(|_| TcpStream::connect(server.addr()).expect("the daemon accepts"))
        .collect();
    let mut mix = Mix::new(mix_seed);
    let mut frames: Vec<FrameReader> = (0..conns).map(|_| FrameReader::new()).collect();
    let mut warm: Vec<TcpStream> = streams
        .iter()
        .map(|s| {
            let s = s.try_clone().expect("sockets clone");
            s.set_read_timeout(Some(CLOSED_LOOP_TIMEOUT))
                .expect("sockets accept read timeouts");
            s
        })
        .collect();
    let sweep = mix.sweep();
    let id = mix.id();
    let terminal = roundtrip(
        &mut warm[conns - 1],
        &mut frames[conns - 1],
        &payload(id, &sweep),
    );
    assert!(
        terminal.contains("\"complete\":true"),
        "warm-up sweep failed: {terminal}"
    );
    let Ask::Sweep(mut requested) = sweep else {
        unreachable!("Mix::sweep builds sweeps")
    };
    for conn in 0..conns {
        let point = requested[conn % requested.len()].clone();
        let id = mix.id();
        let body = payload(id, &Ask::Point(Box::new(point.clone())));
        let response = roundtrip(&mut warm[conn], &mut frames[conn], &body);
        assert!(
            response.contains("\"ok\":true"),
            "warm-up failed: {response}"
        );
        requested.push(point);
    }
    (server, streams, mix, requested)
}

/// Sends one request and reads frames until its final response (a sweep's
/// point frames are skipped), closed loop.
fn roundtrip(stream: &mut TcpStream, frames: &mut FrameReader, body: &str) -> String {
    send(stream, body).expect("the daemon accepts the warm-up request");
    loop {
        let frame = frames
            .read(stream)
            .expect("the daemon answers the warm-up request")
            .expect("the daemon keeps the connection open");
        let text = String::from_utf8_lossy(&frame).into_owned();
        if !text.contains("\"stream\":\"point\"") {
            return text;
        }
    }
}

fn stop_daemon(server: RunningServer, streams: Vec<TcpStream>) {
    drop(streams);
    server.shutdown();
    server.join();
}

/// Byte-for-byte checks of sampled responses against the batch renderer.
fn check_outcomes(
    run: &mut Run,
    outcomes: &[Outcome],
    asks: &HashMap<u64, Ask>,
    rng: &mut SeedRng,
    report: &mut ServeReport,
) {
    // Batch results for a seeded sample of distinct answered points; every
    // response to one of them (first requests, cache hits and coalesced
    // joins alike) is compared byte for byte.
    let answered: Vec<&Outcome> = outcomes.iter().filter(|o| !o.is_sweep && o.ok).collect();
    let point_of = |o: &Outcome| match asks.get(&o.id) {
        Some(Ask::Point(point)) => Some(point.as_ref().clone()),
        _ => None,
    };
    let mut batch: HashMap<SimPoint, SimResult> = HashMap::new();
    for _ in 0..SAMPLED_POINTS.min(answered.len()) {
        if let Some(point) = point_of(answered[rng.below(answered.len())]) {
            batch
                .entry(point)
                .or_insert_with_key(|p| simulate_workload(&p.workload, &p.machine, &p.options));
        }
    }
    let (mut checked, mut wrong) = (0, 0);
    for outcome in &answered {
        if let Some(expected) = point_of(outcome).and_then(|p| batch.get(&p)) {
            checked += 1;
            if outcome.frames.last() != Some(&protocol::ok_response(outcome.id, expected)) {
                wrong += 1;
            }
        }
    }
    report.checked_responses = checked;
    run.attempt(checked);
    run.fail(wrong, "point responses differ from the batch rendering");
    if let Some(sweep) = outcomes.iter().find(|o| o.is_sweep && o.ok) {
        if let Some(Ask::Sweep(points)) = asks.get(&sweep.id) {
            let results: Vec<_> = points
                .iter()
                .map(|p| simulate_workload(&p.workload, &p.machine, &p.options))
                .collect();
            let mut expected: Vec<String> = results
                .iter()
                .enumerate()
                .map(|(i, r)| protocol::stream_point_response(sweep.id, i, r))
                .collect();
            let mut got: Vec<String> = sweep.frames[..sweep.frames.len() - 1].to_vec();
            expected.sort();
            got.sort();
            run.check(
                got == expected,
                &format!("sweep {} streams the batch renderings", sweep.id),
            );
            run.check(
                sweep.frames.last()
                    == Some(&protocol::sweep_summary_response(
                        sweep.id,
                        points.len(),
                        points.len(),
                        points.len(),
                    )),
                &format!("sweep {} ends with its summary", sweep.id),
            );
        }
    }
    for outcome in outcomes {
        report.attempted += 1;
        if !outcome.ok {
            report.failed += 1;
        }
    }
}

/// Runs `serve_mixed` (traced when `tracer` is set: one span per request,
/// under one span per phase).
pub fn serve(run: &mut Run, state: &Path, seconds: f64, tracer: Option<&Tracer>) -> ServeReport {
    let conns = available_threads().clamp(2, 8);
    let mut report = ServeReport::default();
    let mut started = None;
    for _ in 0..SETUP_REPS {
        if let Some((server, streams, _, _)) = started.take() {
            stop_daemon(server, streams);
        }
        let start = Instant::now();
        let daemon = start_daemon(state, run.seed, conns);
        report.setup_s.push(start.elapsed().as_secs_f64());
        if report.setup_s.len() == 1 {
            report.peak_rss_mb = crate::output::peak_rss_mb();
        }
        started = Some(daemon);
    }
    let (server, streams, mut mix, warm) = started.expect("at least one set-up");
    let mut requested = warm.len() as u64;
    let mut distinct: HashSet<SimPoint> = warm.into_iter().collect();
    let mut asks: HashMap<u64, Ask> = HashMap::new();
    let mut all: Vec<Outcome> = Vec::new();
    let mut note = |schedule: &[Scheduled], asks: &mut HashMap<u64, Ask>| {
        for s in schedule {
            match &s.ask {
                Ask::Point(point) => {
                    requested += 1;
                    distinct.insert(point.as_ref().clone());
                }
                Ask::Sweep(points) => {
                    requested += points.len() as u64;
                    distinct.extend(points.iter().cloned());
                }
            }
            asks.insert(s.id, s.ask.clone());
        }
    };
    let span = |name: &'static str| tracer.map(|t| (t, t.open(name, None, 0)));
    let close = |span: Option<(&Tracer, usize)>| {
        if let Some((t, s)) = span {
            t.close(s);
        }
    };

    let mut lags = Vec::new();
    for (rps, slot, share) in [(LOW_RPS, 0usize, LOW_SHARE), (HIGH_RPS, 1, HIGH_SHARE)] {
        let fixed_secs = seconds * share;
        let schedule = mix.schedule(rps, fixed_secs, conns);
        note(&schedule, &mut asks);
        let root = span(if slot == 0 { "phase.low" } else { "phase.high" });
        let outcomes = phase(&streams, &schedule, root);
        close(root);
        let latency = phase_latency(&outcomes);
        if slot == 0 {
            report.low = latency;
        } else {
            report.high = latency;
        }
        report
            .sweep_ms
            .extend(outcomes.iter().filter(|o| o.is_sweep).map(|o| {
                if o.ok {
                    o.latency_ms
                } else {
                    f64::INFINITY
                }
            }));
        lags.extend(outcomes.iter().map(|o| o.lag_ms));
        all.extend(outcomes);
    }

    report.open_loop_rss_mb = crate::output::peak_rss_mb();

    let rung_secs = seconds * RUNG_SHARE;
    for rps in LADDER_RPS {
        let schedule = mix.schedule(rps, rung_secs, conns);
        note(&schedule, &mut asks);
        let root = span("phase.rung");
        let outcomes = phase(&streams, &schedule, root);
        close(root);
        let ms = point_ms(outcomes.iter());
        let (p50, t) = (median(&ms), tail(&ms));
        let failed = outcomes.iter().filter(|o| !o.ok).count();
        let grew = backlog_grew(&outcomes, rung_secs);
        let passed = failed == 0 && !grew && t.value <= LIMIT_MS;
        report.ladder.push(Rung {
            rps,
            p50_ms: p50,
            tail: t,
            failed,
            grew,
            passed,
        });
        all.extend(outcomes);
        if !passed {
            break;
        }
        report.max_rate_rps = rps;
    }
    report.lag = tail(&lags);

    // The daemon's own view, then its counters, then shutdown.
    let mut client = Client::connect(server.addr()).expect("the daemon accepts");
    client
        .set_timeout(CLOSED_LOOP_TIMEOUT)
        .expect("sockets accept read timeouts");
    let metrics = client
        .request(&protocol::metrics_request(mix.id()))
        .expect("the metrics request is answered");
    drop(client);
    let metrics = serde_json::from_str(&metrics).unwrap_or(Value::Null);
    let metrics = metrics.get("metrics").cloned().unwrap_or(Value::Null);
    report.queue_depth_max = metrics
        .get("queue_depth_series")
        .and_then(Value::as_array)
        .map_or(0, |series| {
            series
                .iter()
                .filter_map(|s| s.as_array().and_then(|pair| pair.get(1)?.as_u64()))
                .max()
                .unwrap_or(0)
        });
    report.server_point_p50_ms = metrics
        .get("latency_ms")
        .and_then(|l| l.get("point"))
        .and_then(|p| p.get("buckets"))
        .and_then(Value::as_array)
        .map_or(0.0, |buckets| {
            histogram_p50(&buckets.iter().filter_map(Value::as_u64).collect::<Vec<_>>())
        });
    let service = server.service();
    report.requested = requested;
    report.distinct = distinct.len() as u64;
    report.executed = service.executed();
    report.cache_hits = service.cache_hits();
    report.coalesced = service.coalesced();
    report.io_errors = service.cache_health().io_errors;
    report.shed = server.shed();
    report.releads = server.releads();
    stop_daemon(server, streams);

    let mut rng = SeedRng::new(run.seed, 0xC4EC);
    check_outcomes(run, &all, &asks, &mut rng, &mut report);
    run.attempt(report.attempted as u64);
    run.fail(
        report.failed as u64,
        "requests refused, past their deadline or unanswered",
    );
    if report.shed == 0 && report.releads == 0 {
        run.check(
            report.executed + report.cache_hits + report.coalesced == report.requested,
            &format!(
                "executed {} + cache_hits {} + coalesced {} == requested {}",
                report.executed, report.cache_hits, report.coalesced, report.requested
            ),
        );
        if report.io_errors == 0 {
            run.check(
                report.executed == report.distinct,
                &format!(
                    "executed {} == distinct points requested {} (every point simulated once)",
                    report.executed, report.distinct
                ),
            );
        }
    }
    report
}

/// The median of a log2-millisecond histogram (bucket 0 is `< 1 ms`,
/// bucket `i` is `[2^(i-1), 2^i)` ms), interpolated linearly inside the
/// bucket that holds it.
fn histogram_p50(buckets: &[u64]) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let half = total as f64 / 2.0;
    let mut seen = 0.0;
    for (i, &count) in buckets.iter().enumerate() {
        let count = count as f64;
        if seen + count >= half && count > 0.0 {
            let (lo, hi) = if i == 0 {
                (0.0, 1.0)
            } else {
                (2f64.powi(i as i32 - 1), 2f64.powi(i as i32))
            };
            return lo + (hi - lo) * (half - seen) / count;
        }
        seen += count;
    }
    0.0
}
