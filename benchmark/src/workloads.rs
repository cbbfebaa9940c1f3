//! The four workloads: their fixed shapes, how one set-up unit builds
//! their inputs from the seed, and how one timed batch is run and checked.
//!
//! Every workload follows the same outline — untimed set-up units (input
//! generation, `derive_setup`, bind/connect, a warm-up round), then a
//! timed region of back-to-back *batches* that cycles over the rounds the
//! set-up built. The program under test only ever receives the generated
//! inputs; the seed stays in the benchmark.

use std::sync::Arc;
use std::time::{Duration, Instant};

use atom_core::config::{AtomConfig, Defense};
use atom_core::directory::{derive_setup, RoundSetup};
use atom_core::error::AtomResult;
use atom_net::EvloopOptions;
use atom_runtime::wire::{self, SubmitFrame};
use atom_runtime::{
    Engine, EngineOptions, IngressOptions, IngressServer, IngressSource, IngressStats, RoundJob,
    RoundReport, RoundSubmissions,
};
use atom_workload::{TrafficPattern, WorkloadSource, WorkloadSpec};

use crate::loadgen::{FrameOutcome, Schedule, Swarm};
use crate::spans::{SpanId, Tracer};
use crate::sys;
use crate::tcp_pair::TcpPair;

/// Engine workers of every in-process run; `dial_tcp` splits them one per
/// process. The benchmark never has more than this many runnable threads.
pub const WORKERS: usize = 2;

/// Mixing iterations of every workload (`T`).
const ITERATIONS: usize = 3;

/// Application tag the swarm's submissions carry.
const APP: u16 = 1;

/// Open-loop submission rate of the socket edge, frames per second.
pub const SUBMIT_RATE: f64 = 4000.0;

/// Intake chunk and window of the socket-fed rounds: streaming intake in
/// 64-submission chunks, at most eight resident at once.
const STREAM_CHUNK: usize = 64;
const STREAM_WINDOW: usize = 8;

/// How a workload's batches are executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Pre-built rounds handed to `Engine::run_rounds` over the in-memory
    /// network.
    Bulk,
    /// Sharded-directory rounds over a coordinator/member TCP pair.
    DialTcp,
    /// Client sockets → ingress → streaming intake → engine.
    SubmitSocket,
}

/// The fixed shape of one workload.
#[derive(Clone, Debug)]
pub struct Shape {
    pub name: &'static str,
    /// One line on why the workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    pub kind: Kind,
    pub defense: Defense,
    pub dialing: bool,
    /// Anytrust groups (`G`); `k` = 3 members each.
    pub groups: usize,
    /// Plaintext bytes every message is padded to.
    pub message_len: usize,
    /// Submissions per round.
    pub round_msgs: usize,
    /// Rounds handed to one engine call (all in flight together).
    pub rounds_per_batch: usize,
    /// Rounds one set-up unit builds.
    pub rounds_per_unit: usize,
    /// Submissions of a set-up unit's warm-up round.
    pub warm_msgs: usize,
}

/// The four workloads, in the order they run.
pub fn shapes() -> Vec<Shape> {
    vec![
        Shape {
            name: "bulk_trap",
            why: "Large trap-variant rounds: shuffle and re-encryption dominate, so crypto and group-step work must show here and net/ingress/scheduler work must not.",
            kind: Kind::Bulk,
            defense: Defense::Trap,
            dialing: false,
            groups: 4,
            message_len: 160,
            round_msgs: 2048,
            rounds_per_batch: 2,
            rounds_per_unit: 1,
            warm_msgs: 256,
        },
        Shape {
            name: "bulk_nizk",
            why: "Same rounds in the NIZK variant: shuffle/re-encryption proofs and batched verification are on the path, trap commitments and the CCA2 layer are not.",
            kind: Kind::Bulk,
            defense: Defense::Nizk,
            dialing: false,
            groups: 4,
            message_len: 160,
            round_msgs: 2048,
            rounds_per_batch: 2,
            rounds_per_unit: 1,
            warm_msgs: 256,
        },
        Shape {
            name: "dial_tcp",
            why: "Smallest messages and rounds over real TCP with in-call DKGs: per-envelope wire, framing, setup and scheduler wake-ups dominate, bulk crypto does not.",
            kind: Kind::DialTcp,
            defense: Defense::Trap,
            dialing: true,
            groups: 8,
            message_len: 80,
            round_msgs: 64,
            rounds_per_batch: 2,
            rounds_per_unit: 2,
            warm_msgs: 64,
        },
        Shape {
            name: "submit_socket",
            why: "The only socket-to-plaintext path: 1,024 client connections, open-loop submit frames, admission, streaming intake, then the same per-message work as bulk_trap.",
            kind: Kind::SubmitSocket,
            defense: Defense::Trap,
            dialing: false,
            groups: 4,
            message_len: 160,
            round_msgs: 1024,
            rounds_per_batch: 1,
            rounds_per_unit: 1,
            warm_msgs: 128,
        },
    ]
}

impl Shape {
    /// The shape at roughly a twentieth of the size, for `--smoke`.
    pub fn smoke(mut self) -> Self {
        self.round_msgs = (self.round_msgs / 20).max(8);
        self.warm_msgs = self.warm_msgs.min(self.round_msgs).min(16);
        self
    }

    /// Messages one batch offers.
    pub fn batch_msgs(&self) -> usize {
        self.round_msgs * self.rounds_per_batch
    }

    fn config(&self, seed: u64, round: u64) -> AtomConfig {
        let mut config = AtomConfig::test_default();
        config.defense = self.defense;
        config.num_groups = self.groups;
        config.group_size = 3;
        config.num_servers = self.groups * 3;
        config.iterations = ITERATIONS;
        config.message_len = self.message_len;
        config.round = round;
        config.beacon_seed = seed ^ round.wrapping_mul(0x9E37_79B9);
        config
    }

    fn pattern(&self) -> TrafficPattern {
        if self.dialing {
            TrafficPattern::Dialing { users: 1_000_000 }
        } else {
            TrafficPattern::ZipfMicroblog {
                users: 100_000,
                exponent: 1.1,
            }
        }
    }

    /// Engine options of the workload's in-process runs.
    pub fn engine_options(&self, workers: usize) -> EngineOptions {
        let mut options = EngineOptions::with_workers(workers);
        if self.kind == Kind::SubmitSocket {
            options.intake_chunk = STREAM_CHUNK;
            options.intake_window = STREAM_WINDOW;
        }
        options
    }
}

/// One pre-built round: its directory, its submissions and what must come
/// out of it.
pub struct RoundInput {
    pub config: AtomConfig,
    pub setup: Arc<RoundSetup>,
    pub source: WorkloadSource,
    pub submissions: RoundSubmissions,
    /// The plaintexts the round must deliver, sorted (trailing padding
    /// stripped).
    pub expected: Vec<Vec<u8>>,
    /// Seed of the round's mixing randomness.
    pub job_seed: u64,
    /// Client-framed `submit` frames, one per submission (`submit_socket`).
    pub frames: Vec<Vec<u8>>,
    /// Seconds spent generating the submissions (client-side encryption
    /// and proofs).
    pub gen_seconds: f64,
}

fn strip_padding(mut bytes: Vec<u8>) -> Vec<u8> {
    while bytes.last() == Some(&0) {
        bytes.pop();
    }
    bytes
}

/// A plaintext multiset in canonical form: trailing padding stripped,
/// sorted. The trap variant delivers plaintexts padded to the message
/// length, the NIZK variant delivers them as submitted.
pub fn plaintext_set(texts: impl IntoIterator<Item = Vec<u8>>) -> Vec<Vec<u8>> {
    let mut set: Vec<Vec<u8>> = texts.into_iter().map(strip_padding).collect();
    set.sort();
    set
}

/// The plaintext multiset a round delivered.
pub fn delivered_set(report: &RoundReport) -> Vec<Vec<u8>> {
    plaintext_set(report.output.plaintexts.iter().cloned())
}

/// The plaintext multiset the first `count` submissions of `source` carry.
fn expected_set(source: &WorkloadSource, count: usize) -> Vec<Vec<u8>> {
    plaintext_set((0..count).map(|i| source.text_at(i).into_bytes()))
}

/// Canonical bytes of the deterministic fields of round outputs. Two runs
/// of the same jobs — whatever the transport, directory mode or intake
/// source — must serialize identically.
pub fn output_bytes(reports: &[RoundReport]) -> Vec<u8> {
    let mut out = Vec::new();
    let put = |out: &mut Vec<u8>, bytes: &[u8]| {
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(bytes);
    };
    for report in reports {
        let output = &report.output;
        out.extend_from_slice(&(output.routed_ciphertexts as u32).to_le_bytes());
        for group in &output.per_group {
            out.extend_from_slice(&(group.len() as u32).to_le_bytes());
            for payload in group {
                put(&mut out, payload);
            }
        }
        for payload in &output.plaintexts {
            put(&mut out, payload);
        }
    }
    out
}

impl RoundInput {
    /// Builds round `index` of a workload from the benchmark seed.
    pub fn build(shape: &Shape, seed: u64, index: usize) -> Result<Self, String> {
        let config = shape.config(seed, index as u64);
        let setup = Arc::new(derive_setup(&config).map_err(|e| format!("derive_setup: {e}"))?);
        let source = WorkloadSource::new(
            Arc::clone(&setup),
            WorkloadSpec {
                pattern: shape.pattern(),
                defense: shape.defense,
                submissions: shape.round_msgs,
                seed: seed ^ (index as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F),
            },
        )
        .map_err(|e| format!("workload source: {e}"))?;
        let started = Instant::now();
        let submissions = source
            .materialize()
            .map_err(|e| format!("generate submissions: {e}"))?;
        let gen_seconds = started.elapsed().as_secs_f64();
        let frames = if shape.kind == Kind::SubmitSocket {
            encode_frames(&submissions, config.round as usize)
        } else {
            Vec::new()
        };
        let expected = expected_set(&source, shape.round_msgs);
        Ok(Self {
            config,
            setup,
            source,
            submissions,
            expected,
            job_seed: seed.wrapping_add(0x5EED).wrapping_add(index as u64),
            frames,
            gen_seconds,
        })
    }

    /// The first `count` submissions as their own round (warm-ups, reduced
    /// replays), with the plaintexts that round must deliver.
    pub fn prefix(&self, count: usize) -> (RoundSubmissions, Vec<Vec<u8>>) {
        let submissions = match &self.submissions {
            RoundSubmissions::Trap(subs) => RoundSubmissions::Trap(subs[..count].to_vec()),
            RoundSubmissions::Nizk(subs) => RoundSubmissions::Nizk(subs[..count].to_vec()),
            RoundSubmissions::Stream(_) => unreachable!("inputs are materialized"),
        };
        (submissions, expected_set(&self.source, count))
    }

    /// A job over the prebuilt directory.
    pub fn full_job(&self, submissions: RoundSubmissions) -> RoundJob {
        RoundJob::new(self.setup.as_ref().clone(), submissions, self.job_seed)
    }

    /// A job whose directory is derived inside the engine run.
    pub fn sharded_job(&self, submissions: RoundSubmissions) -> RoundJob {
        RoundJob::sharded(self.config.clone(), submissions, self.job_seed)
    }

    /// The same round with no submissions — what a non-coordinator
    /// process passes.
    pub fn empty_submissions(&self) -> RoundSubmissions {
        match self.config.defense {
            Defense::Trap => RoundSubmissions::Trap(Vec::new()),
            Defense::Nizk => RoundSubmissions::Nizk(Vec::new()),
        }
    }
}

/// Client-framed `submit` frames for every submission: client id = index,
/// so ingress' sort-by-client recovers generation order.
pub fn encode_frames(submissions: &RoundSubmissions, round: usize) -> Vec<Vec<u8>> {
    let frame = |client: usize, submission: wire::ClientSubmission| {
        atom_net::client_frame(&wire::encode_submit(&SubmitFrame {
            round,
            client: client as u64,
            app: APP,
            submission,
        }))
    };
    match submissions {
        RoundSubmissions::Trap(subs) => subs
            .iter()
            .enumerate()
            .map(|(i, s)| frame(i, wire::ClientSubmission::Trap(s.clone())))
            .collect(),
        RoundSubmissions::Nizk(subs) => subs
            .iter()
            .enumerate()
            .map(|(i, s)| frame(i, wire::ClientSubmission::Nizk(s.clone())))
            .collect(),
        RoundSubmissions::Stream(_) => unreachable!("inputs are materialized"),
    }
}

/// What the socket edge did with one round's frames, up to the drained
/// [`IngressSource`].
pub struct SocketIntake {
    pub source: IngressSource,
    pub outcomes: Vec<FrameOutcome>,
    pub stats: IngressStats,
    /// Time spent inside the clients' `connect` calls.
    pub connect: Duration,
    pub drain: Duration,
    /// CPU seconds the load generator (this thread) spent connecting and
    /// driving — excluded from the cost charged to the system under test.
    pub loadgen_cpu: f64,
}

/// Binds an ingress server, opens one connection per frame (all before
/// the first byte), submits the frames open-loop at `rate` per second
/// (`rate` ≤ 0: all due at once) and drains the admitted submissions.
pub fn socket_intake(
    frames: &[Vec<u8>],
    round: usize,
    defense: Defense,
    rate: f64,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<SocketIntake, String> {
    let span_round = round as i64;
    let (server, _, _) = tracer.time("ingress.bind", parent, span_round, || {
        IngressServer::bind(
            "127.0.0.1:0",
            IngressOptions {
                round,
                defense,
                app: APP,
                // One frame per connection: the per-connection bucket
                // never limits; the admission queue holds a whole round.
                rate: 100.0,
                burst: 20.0,
                queue_capacity: frames.len().max(1) * 2,
                retry_after: Duration::from_millis(100),
                evloop: EvloopOptions {
                    max_connections: frames.len() + 64,
                    ..EvloopOptions::default()
                },
            },
        )
    });
    let server = server.map_err(|e| format!("bind ingress: {e}"))?;
    let cpu_before = sys::thread_cpu_seconds();
    let (swarm, _, _) = tracer.time("loadgen.connect", parent, span_round, || {
        Swarm::connect(server.local_addr(), frames.len())
    });
    let (mut swarm, connect) = swarm?;
    let (outcomes, _, _) = tracer.time("loadgen.submit", parent, span_round, || {
        // A short lead so frame 0 is not already late when the loop starts.
        let start = Instant::now() + Duration::from_millis(2);
        let schedule = Schedule::new(start, if rate > 0.0 { rate } else { 1e9 });
        swarm.drive(frames, &schedule, Duration::from_secs(30))
    });
    let loadgen_cpu = sys::thread_cpu_seconds() - cpu_before;
    let admitted = server.stats().admitted as usize;
    let (source, drain, _) = tracer.time("ingress.source", parent, span_round, || {
        server.source(admitted, Duration::from_secs(10))
    });
    let source = source.map_err(|e| format!("drain ingress: {e}"))?;
    let stats = server.stats();
    // The ingress thread stops before the round runs: the round owns both
    // cores, as the engine-only workloads' rounds do.
    server.shutdown();
    drop(swarm);
    Ok(SocketIntake {
        source,
        outcomes,
        stats,
        connect,
        drain,
        loadgen_cpu,
    })
}

/// What the program recorded about itself during a traced batch.
pub struct ProgramTrace {
    pub snapshot: atom_obs::Snapshot,
    pub peak_in_flight: u64,
}

/// One timed batch's outcome.
#[derive(Default)]
pub struct BatchOutcome {
    pub offered: usize,
    /// Messages delivered in rounds whose output matched the generator's
    /// text set exactly.
    pub delivered: usize,
    pub wall: Duration,
    /// Offered → plaintext returned, per delivered message, milliseconds.
    /// Closed-loop batches offer every message at the call; the socket
    /// workload offers each frame at its due time.
    pub deliver_ms: Vec<f64>,
    /// Due → `submit_ack` decoded (socket workload only).
    pub ack_ms: Vec<f64>,
    /// Due → frame actually sent (socket workload only).
    pub late_ms: Vec<f64>,
    pub loadgen_cpu: f64,
    pub reports: Vec<RoundReport>,
    pub program: Option<ProgramTrace>,
    /// Why the batch is wrong, if it is.
    pub error: Option<String>,
}

/// All reports of an engine call, or its first failure.
pub fn collect(results: Vec<AtomResult<RoundReport>>) -> Result<Vec<RoundReport>, String> {
    results
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("round failed: {e}"))
}

/// Runs one engine call as span `engine.run` under `parent`. With
/// `traced`, the program's own `atom_obs` recording is on for exactly the
/// call, and what it recorded is returned (and merged into the trace).
fn engine_call<T>(
    tracer: &Tracer,
    traced: bool,
    parent: Option<SpanId>,
    round: i64,
    work: impl FnOnce() -> T,
) -> (T, Option<ProgramTrace>) {
    if traced {
        atom_obs::reset();
        atom_obs::set_enabled(true);
    }
    let started = Instant::now();
    let (result, _, span) = tracer.time("engine.run", parent, round, work);
    let program = traced.then(|| {
        atom_obs::set_enabled(false);
        let snapshot = atom_obs::local_snapshot(None);
        tracer.merge_program_spans(span, started, &snapshot.spans);
        ProgramTrace {
            peak_in_flight: atom_obs::gauge_peak("engine.intake.peak_in_flight").unwrap_or(0),
            snapshot,
        }
    });
    (result, program)
}

/// A workload with the inputs its set-up units have built so far.
pub struct Workload {
    pub shape: Shape,
    seed: u64,
    pub pool: Vec<RoundInput>,
    pair: Option<TcpPair>,
}

impl Workload {
    pub fn new(shape: Shape, seed: u64) -> Self {
        Self {
            shape,
            seed,
            pool: Vec::new(),
            pair: None,
        }
    }

    /// One set-up unit: generate this unit's rounds (client-side
    /// encryption and proofs), derive their directories, bind and connect
    /// whatever the workload talks over, and run a warm-up round whose
    /// output is checked — against the generator's texts, and against the
    /// reference path the workload claims byte-equivalence with.
    pub fn setup_unit(&mut self, tracer: &Tracer, parent: Option<SpanId>) -> Result<(), String> {
        let first = self.pool.len();
        for index in first..first + self.shape.rounds_per_unit {
            let (round, _, _) = tracer.time("workload.generate", parent, index as i64, || {
                RoundInput::build(&self.shape, self.seed, index)
            });
            self.pool.push(round?);
        }
        let shape = &self.shape;
        let warm = shape.warm_msgs;
        match shape.kind {
            Kind::Bulk => {
                let input = &self.pool[first];
                let (submissions, expected) = input.prefix(warm);
                let report = Engine::new(shape.engine_options(WORKERS))
                    .run_round(input.full_job(submissions))
                    .map_err(|e| format!("warm-up round: {e}"))?;
                if delivered_set(&report) != expected {
                    return Err("warm-up round delivered the wrong plaintexts".into());
                }
            }
            Kind::DialTcp => {
                // A fresh transport per unit; the timed region keeps the
                // last one.
                self.pair = None;
                let mut pair = TcpPair::start(shape.groups)?;
                let rounds = &self.pool[first..];
                let over_tcp = pair.run(
                    rounds
                        .iter()
                        .map(|r| r.sharded_job(r.submissions.clone()))
                        .collect(),
                    rounds
                        .iter()
                        .map(|r| r.sharded_job(r.empty_submissions()))
                        .collect(),
                )?;
                let in_memory = collect(
                    Engine::new(shape.engine_options(WORKERS)).run_rounds(
                        rounds
                            .iter()
                            .map(|r| r.full_job(r.submissions.clone()))
                            .collect(),
                    ),
                )?;
                if output_bytes(&over_tcp) != output_bytes(&in_memory) {
                    return Err("TCP/sharded batch differs from the in-memory/full run".into());
                }
                for (round, report) in rounds.iter().zip(&over_tcp) {
                    if delivered_set(report) != round.expected {
                        return Err("warm-up batch delivered the wrong plaintexts".into());
                    }
                }
                self.pair = Some(pair);
            }
            Kind::SubmitSocket => {
                let input = &self.pool[first];
                let (submissions, expected) = input.prefix(warm);
                let quiet = Tracer::new(false);
                let intake = socket_intake(
                    &input.frames[..warm],
                    input.config.round as usize,
                    shape.defense,
                    SUBMIT_RATE,
                    &quiet,
                    None,
                )?;
                let engine = Engine::new(shape.engine_options(WORKERS));
                let streamed = engine
                    .run_round(input.full_job(RoundSubmissions::Stream(Arc::new(intake.source))))
                    .map_err(|e| format!("socket-fed warm-up round: {e}"))?;
                let materialized = engine
                    .run_round(input.full_job(submissions))
                    .map_err(|e| format!("materialized reference round: {e}"))?;
                if output_bytes(std::slice::from_ref(&streamed))
                    != output_bytes(std::slice::from_ref(&materialized))
                {
                    return Err("socket-fed round differs from the materialized round".into());
                }
                if delivered_set(&streamed) != expected {
                    return Err("warm-up round delivered the wrong plaintexts".into());
                }
                if intake.outcomes.iter().any(|o| o.acked.is_none()) {
                    return Err("warm-up round lost an ack".into());
                }
            }
        }
        Ok(())
    }

    /// The pool indices batch `index` runs: the timed region cycles over
    /// the rounds the set-up units built.
    pub fn batch_rounds(&self, index: usize) -> Vec<usize> {
        let per_batch = self.shape.rounds_per_batch;
        (0..per_batch)
            .map(|j| (index * per_batch + j) % self.pool.len())
            .collect()
    }

    /// Runs batch `index` and checks what it delivered. With `traced`, the
    /// program's own recording of the engine call is returned too;
    /// bench-side spans go to `tracer` either way.
    pub fn run_batch(&mut self, index: usize, tracer: &Tracer, traced: bool) -> BatchOutcome {
        let rounds = self.batch_rounds(index);
        let mut outcome = BatchOutcome {
            offered: self.shape.batch_msgs(),
            ..BatchOutcome::default()
        };
        let span = tracer.open("batch", None, index as i64);
        let started = Instant::now();
        let result = self.execute(&rounds, index, tracer, span, traced, &mut outcome);
        let finished = Instant::now();
        tracer.close(span);
        outcome.wall = finished - started;
        match result {
            Err(error) => outcome.error = Some(error),
            Ok((reports, offered_at)) => {
                for (&r, report) in rounds.iter().zip(&reports) {
                    if delivered_set(report) == self.pool[r].expected {
                        outcome.delivered += report.output.plaintexts.len();
                    } else {
                        outcome.error = Some(format!(
                            "round {r} delivered {} plaintexts that are not the generator's {}",
                            report.output.plaintexts.len(),
                            self.pool[r].expected.len()
                        ));
                    }
                }
                outcome.reports = reports;
                if outcome.error.is_none() {
                    outcome.deliver_ms = offered_at
                        .iter()
                        .map(|at| finished.saturating_duration_since(*at).as_secs_f64() * 1e3)
                        .collect();
                }
            }
        }
        outcome
    }

    /// The batch itself: the engine call (and, for the socket workload, the
    /// client edge in front of it). Returns the round reports and, per
    /// offered message, when it was offered.
    fn execute(
        &mut self,
        rounds: &[usize],
        index: usize,
        tracer: &Tracer,
        span: Option<SpanId>,
        traced: bool,
        outcome: &mut BatchOutcome,
    ) -> Result<(Vec<RoundReport>, Vec<Instant>), String> {
        let shape = &self.shape;
        let pool = &self.pool;
        let round = index as i64;
        let called = Instant::now();
        let (reports, offered_at, program) = match shape.kind {
            Kind::Bulk => {
                let jobs = rounds
                    .iter()
                    .map(|&r| pool[r].full_job(pool[r].submissions.clone()))
                    .collect();
                let engine = Engine::new(shape.engine_options(WORKERS));
                let (reports, program) = engine_call(tracer, traced, span, round, || {
                    collect(engine.run_rounds(jobs))
                });
                (reports, vec![called; outcome.offered], program)
            }
            Kind::DialTcp => {
                let coordinator = rounds
                    .iter()
                    .map(|&r| pool[r].sharded_job(pool[r].submissions.clone()))
                    .collect();
                let member = rounds
                    .iter()
                    .map(|&r| pool[r].sharded_job(pool[r].empty_submissions()))
                    .collect();
                let pair = self.pair.as_mut().expect("set-up connected the pair");
                let (reports, program) = engine_call(tracer, traced, span, round, || {
                    pair.run(coordinator, member)
                });
                (reports, vec![called; outcome.offered], program)
            }
            Kind::SubmitSocket => {
                let input = &pool[rounds[0]];
                let intake = socket_intake(
                    &input.frames,
                    input.config.round as usize,
                    shape.defense,
                    SUBMIT_RATE,
                    tracer,
                    span,
                )?;
                outcome.loadgen_cpu = intake.loadgen_cpu;
                let mut offered_at = Vec::with_capacity(intake.outcomes.len());
                for frame in &intake.outcomes {
                    outcome.late_ms.push(frame.late_ms());
                    match frame.ack_ms() {
                        Some(ms) if !frame.shed => {
                            outcome.ack_ms.push(ms);
                            offered_at.push(frame.due);
                        }
                        _ => {}
                    }
                }
                let refused = intake.outcomes.len() - offered_at.len();
                if refused > 0 {
                    return Err(format!("{refused} frames were shed or lost their ack"));
                }
                let engine = Engine::new(shape.engine_options(WORKERS));
                let job = input.full_job(RoundSubmissions::Stream(Arc::new(intake.source)));
                let (reports, program) = engine_call(tracer, traced, span, round, || {
                    collect(vec![engine.run_round(job)])
                });
                (reports, offered_at, program)
            }
        };
        outcome.program = program;
        Ok((reports?, offered_at))
    }
}
