//! The `BENCH_ingress.json` baseline: a [`ClientSwarm`] of real TCP
//! clients driven through the event-driven ingress tier.
//!
//! The swarm opens every connection *before* sending — thousands of
//! concurrent sockets multiplexed by the one ingress thread — then writes
//! each client's pre-encoded `submit` frame and scans non-blocking reads
//! for the acks, measuring per-client admission latency on the client
//! side (frame fully written → ack decoded). The admitted submissions are
//! drained into an [`IngressSource`](atom_runtime::IngressSource) and run
//! through an engine round, which is byte-compared against the same
//! workload materialized directly into a `RoundJob` — proving the socket
//! path adds admission control, not semantics. A second phase floods a
//! deliberately tiny admission queue and records the shed accounting
//! (`offered == admitted + shed`, observable via `atom-obs`).
//!
//! The `ingress` bin emits the file ([`IngressBaseline::to_json`]); the
//! `fig_ingress` bin reads it back ([`IngressBaseline::parse`]) and
//! renders it. Emitter and parser live together so the round-trip is unit
//! tested, both through [`crate::json`]; [`IngressBaseline::check`] refuses
//! a run that does not hold the tier's claims before it is recorded.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use atom_core::config::{AtomConfig, Defense};
use atom_core::directory::derive_setup;
use atom_net::evloop::{check_header, CLIENT_HEADER_LEN};
use atom_net::EvloopOptions;
use atom_runtime::wire::{self, Frame};
use atom_runtime::{
    Engine, EngineOptions, IngressOptions, IngressServer, RoundJob, RoundSubmissions,
};
use atom_workload::{TrafficPattern, WorkloadSource, WorkloadSpec};

use crate::json::{self, json_record, Json};
use crate::netbench::serialize_reports;

/// Application tag every swarm submission carries.
pub const SWARM_APP: u16 = 1;

/// Parameters of one ingress benchmark run.
#[derive(Clone, Debug)]
pub struct IngressSweepSpec {
    /// Concurrent client connections (the headline runs ≥ 1,000; CI runs
    /// a small smoke).
    pub clients: usize,
    /// Anytrust groups of the round the admitted submissions feed.
    pub groups: usize,
    /// Mixing iterations of that round.
    pub iterations: usize,
    /// User population the workload generator draws authors from.
    pub users: usize,
    /// Engine intake window (chunks in flight at once).
    pub window: usize,
    /// Submissions per intake chunk.
    pub chunk: usize,
    /// Per-connection sustained rate (tokens/second) during the swarm.
    pub rate: f64,
    /// Admission-queue bound during the swarm (must hold every client).
    pub queue_capacity: usize,
    /// Submissions offered during the flood phase.
    pub flood_offers: usize,
    /// Admission-queue bound during the flood phase (deliberately tiny).
    pub flood_queue_capacity: usize,
    /// Master seed; the workload stream derives from it deterministically.
    pub seed: u64,
}

impl Default for IngressSweepSpec {
    fn default() -> Self {
        Self {
            clients: 1_200,
            groups: 3,
            iterations: 2,
            users: 10_000,
            window: 2,
            chunk: 64,
            rate: 10_000.0,
            queue_capacity: 1 << 12,
            flood_offers: 64,
            flood_queue_capacity: 16,
            seed: 0xA70C,
        }
    }
}

/// The swarm phase's measurements.
#[derive(Clone, Debug, PartialEq)]
pub struct SwarmRow {
    /// Clients that connected and sent one submission each.
    pub clients: usize,
    /// Submissions the server admitted.
    pub admitted: usize,
    /// Clients whose frame got no ack before the deadline (must be 0).
    pub lost_frames: usize,
    /// Peak concurrent connections the event loop observed.
    pub peak_connections: u64,
    /// Admitted submissions per wall-clock second of the swarm phase.
    pub accepted_per_sec: f64,
    /// Median client-side admission latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile client-side admission latency, milliseconds.
    pub p99_ms: f64,
    /// Wall-clock of the swarm phase, milliseconds.
    pub elapsed_ms: f64,
    /// Plaintexts the round delivered (must equal `admitted`).
    pub delivered: usize,
    /// Peak in-flight intake submissions during the round (bounded by
    /// `window × chunk`).
    pub peak_in_flight: u64,
    /// 1 when the socket-fed round byte-matched the materialized round.
    pub identical: u64,
}

/// The flood phase's shed accounting.
#[derive(Clone, Debug, PartialEq)]
pub struct FloodRow {
    /// Submissions offered past the tiny queue.
    pub offered: usize,
    /// Submissions the queue admitted (its capacity).
    pub admitted: usize,
    /// Submissions shed with retry hints (`offered − admitted`).
    pub shed: usize,
    /// The queue bound the flood ran against.
    pub queue_capacity: usize,
}

/// Everything `BENCH_ingress.json` records.
#[derive(Clone, Debug, PartialEq)]
pub struct IngressBaseline {
    /// Concurrent clients of the swarm phase.
    pub clients: usize,
    /// Anytrust groups of the verification round.
    pub groups: usize,
    /// Mixing iterations of that round.
    pub iterations: usize,
    /// Master seed of the run.
    pub seed: u64,
    /// Swarm measurements.
    pub swarm: SwarmRow,
    /// Flood shed accounting.
    pub flood: FloodRow,
}

fn ingress_config(spec: &IngressSweepSpec) -> AtomConfig {
    let mut config = AtomConfig::test_default();
    config.defense = Defense::Nizk;
    config.num_groups = spec.groups;
    config.num_servers = (spec.groups * 2).max(config.group_size);
    config.iterations = spec.iterations;
    config.message_len = 32;
    config.beacon_seed = spec.seed ^ 0xD1;
    config
}

/// One swarm client's in-flight state.
struct SwarmClient {
    stream: TcpStream,
    frame: Vec<u8>,
    written: usize,
    ack: Vec<u8>,
    sent_at: Option<Instant>,
    latency: Option<Duration>,
    shed: bool,
    dead: bool,
}

impl SwarmClient {
    fn done(&self) -> bool {
        self.dead || self.latency.is_some()
    }
}

/// A swarm of concurrent real-socket clients: every connection is opened
/// before the first frame is written, all frames then flow through
/// non-blocking scans from one driver thread, acks are decoded and timed
/// client-side.
pub struct ClientSwarm {
    clients: Vec<SwarmClient>,
}

impl ClientSwarm {
    /// Connects `frames.len()` clients to `addr` (blocking connects with
    /// a short retry, so a briefly full accept backlog doesn't fail the
    /// run), each holding one pre-encoded frame to send.
    pub fn connect(addr: std::net::SocketAddr, frames: Vec<Vec<u8>>) -> Result<Self, String> {
        let mut clients = Vec::with_capacity(frames.len());
        for (index, frame) in frames.into_iter().enumerate() {
            let mut attempt = 0;
            let stream = loop {
                match TcpStream::connect(addr) {
                    Ok(stream) => break stream,
                    Err(error) if attempt < 50 => {
                        attempt += 1;
                        std::thread::sleep(Duration::from_millis(2));
                        let _ = error;
                    }
                    Err(error) => return Err(format!("client {index} connect: {error}")),
                }
            };
            stream
                .set_nonblocking(true)
                .map_err(|error| format!("client {index} nonblocking: {error}"))?;
            let _ = stream.set_nodelay(true);
            clients.push(SwarmClient {
                stream,
                frame,
                written: 0,
                ack: Vec::new(),
                sent_at: None,
                latency: None,
                shed: false,
                dead: false,
            });
        }
        Ok(Self { clients })
    }

    /// Connections currently open (all of them, until `drive` completes).
    pub fn connections(&self) -> usize {
        self.clients.len()
    }

    /// Writes every frame and collects every ack (or convicts the client
    /// as lost at the deadline). Returns `(latencies, shed, lost)`.
    pub fn drive(&mut self, deadline: Duration) -> (Vec<Duration>, usize, usize) {
        let until = Instant::now() + deadline;
        loop {
            let mut moved = false;
            let mut pending = 0usize;
            for client in &mut self.clients {
                if client.done() {
                    continue;
                }
                pending += 1;
                moved |= service_client(client);
            }
            if pending == 0 || Instant::now() > until {
                break;
            }
            if !moved {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        let latencies: Vec<Duration> = self.clients.iter().filter_map(|c| c.latency).collect();
        let shed = self.clients.iter().filter(|c| c.shed).count();
        let lost = self.clients.iter().filter(|c| c.latency.is_none()).count();
        (latencies, shed, lost)
    }
}

/// One non-blocking service pass over a client: progress its write, then
/// its ack read. Returns whether any bytes moved.
fn service_client(client: &mut SwarmClient) -> bool {
    let mut moved = false;
    if client.written < client.frame.len() {
        match client.stream.write(&client.frame[client.written..]) {
            Ok(0) => {
                client.dead = true;
                return moved;
            }
            Ok(n) => {
                client.written += n;
                moved = true;
                if client.written == client.frame.len() {
                    client.sent_at = Some(Instant::now());
                }
            }
            Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(_) => {
                client.dead = true;
                return moved;
            }
        }
    }
    let mut buf = [0u8; 1024];
    match client.stream.read(&mut buf) {
        Ok(0) => client.dead = true,
        Ok(n) => {
            client.ack.extend_from_slice(&buf[..n]);
            moved = true;
            try_complete_ack(client);
        }
        Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => {}
        Err(_) => client.dead = true,
    }
    moved
}

/// Parses the client-framed ack once enough bytes arrived and records the
/// client's admission latency and shed verdict.
fn try_complete_ack(client: &mut SwarmClient) {
    let Some(header) = client.ack.first_chunk() else {
        return;
    };
    let Ok(len) = check_header(header, 1 << 20) else {
        client.dead = true;
        return;
    };
    let Some(payload) = client.ack.get(CLIENT_HEADER_LEN..CLIENT_HEADER_LEN + len) else {
        return;
    };
    match wire::decode(payload) {
        Ok(Frame::SubmitAck(ack)) => {
            client.shed = ack.shed;
            client.latency = client.sent_at.map(|at| at.elapsed());
        }
        _ => client.dead = true,
    }
}

/// The `p`-quantile (0‥1) of already-sorted latencies, in milliseconds.
fn percentile_ms(sorted: &[Duration], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize)
        .saturating_sub(1)
        .min(sorted.len() - 1);
    sorted[rank].as_secs_f64() * 1e3
}

/// Runs the full ingress benchmark: the concurrent swarm + equivalence
/// round, then the flood phase.
pub fn run_ingress(spec: &IngressSweepSpec, workers: usize) -> Result<IngressBaseline, String> {
    if spec.queue_capacity < spec.clients {
        return Err("swarm queue_capacity must hold every client".to_string());
    }
    let config = ingress_config(spec);
    let setup = Arc::new(derive_setup(&config).map_err(|error| format!("derive setup: {error}"))?);
    let source = Arc::new(
        WorkloadSource::new(
            Arc::clone(&setup),
            WorkloadSpec {
                pattern: TrafficPattern::ZipfMicroblog {
                    users: spec.users,
                    exponent: 1.1,
                },
                defense: Defense::Nizk,
                submissions: spec.clients,
                seed: spec.seed,
            },
        )
        .map_err(|error| format!("workload source: {error}"))?,
    );

    // Pre-encode every client's frame so the swarm phase measures the
    // transport, not submission building.
    let round = config.round as usize;
    let mut frames = Vec::with_capacity(spec.clients);
    for index in 0..spec.clients {
        let payload = source
            .submit_payload_at(index, round, SWARM_APP)
            .map_err(|error| format!("client {index} payload: {error}"))?;
        frames.push(atom_net::client_frame(&payload));
    }

    let was_enabled = atom_obs::enabled();
    atom_obs::set_enabled(true);
    atom_obs::reset();

    // Phase 1: every connection opens before the first frame is written —
    // the concurrency the event loop must multiplex on its one thread.
    let open_swarm = |frames: Vec<Vec<u8>>| -> Result<(IngressServer, ClientSwarm), String> {
        let evloop = EvloopOptions {
            max_connections: spec.clients + 64,
            ..EvloopOptions::default()
        };
        let options = IngressOptions {
            round,
            defense: Defense::Nizk,
            app: SWARM_APP,
            rate: spec.rate,
            burst: spec.rate.max(1.0),
            queue_capacity: spec.queue_capacity,
            retry_after: Duration::from_millis(100),
            evloop,
        };
        let server = IngressServer::bind("127.0.0.1:0", options)
            .map_err(|error| format!("bind ingress: {error}"))?;
        let swarm = ClientSwarm::connect(server.local_addr(), frames)?;
        Ok((server, swarm))
    };
    // One unmeasured swarm first: the first trip through these paths
    // (first-touch page faults, allocator growth, lazily built statics) is
    // not the steady state the latency columns are meant to record.
    let (warm_server, mut warm_swarm) = open_swarm(frames.clone())?;
    warm_swarm.drive(Duration::from_secs(120));
    drop(warm_swarm);
    warm_server.shutdown();
    atom_obs::reset();

    let (server, mut swarm) = open_swarm(frames)?;
    let swarm_start = Instant::now();
    let (mut latencies, shed, lost) = swarm.drive(Duration::from_secs(120));
    let elapsed = swarm_start.elapsed();
    if lost > 0 {
        atom_obs::set_enabled(was_enabled);
        return Err(format!("{lost} swarm clients got no ack"));
    }
    if shed > 0 {
        atom_obs::set_enabled(was_enabled);
        return Err(format!(
            "{shed} swarm clients were shed by a queue sized to hold all"
        ));
    }
    let admitted = server.stats().admitted as usize;
    let peak_connections = atom_obs::gauge_peak("net.evloop.connections.peak").unwrap_or(0);
    latencies.sort();

    // Phase 2: the admitted submissions become a round, byte-compared
    // against the same workload materialized without sockets.
    let ingress_source = server
        .source(admitted, Duration::from_secs(10))
        .map_err(|error| format!("drain ingress: {error}"))?;
    server.shutdown();

    let mut options = EngineOptions::with_workers(workers);
    options.intake_window = spec.window;
    options.intake_chunk = spec.chunk;
    let streamed = Engine::new(options)
        .run_round(RoundJob::new(
            setup.as_ref().clone(),
            RoundSubmissions::Stream(Arc::new(ingress_source)),
            spec.seed,
        ))
        .map_err(|error| format!("socket-fed round: {error}"))?;
    let peak_in_flight = atom_obs::gauge_peak("engine.intake.peak_in_flight").unwrap_or(0);

    let materialized = Engine::with_workers(workers)
        .run_round(RoundJob::new(
            setup.as_ref().clone(),
            source
                .materialize()
                .map_err(|error| format!("materialize: {error}"))?,
            spec.seed,
        ))
        .map_err(|error| format!("materialized round: {error}"))?;
    let identical = u64::from(
        serialize_reports(std::slice::from_ref(&streamed)) == serialize_reports(&[materialized]),
    );

    let swarm_row = SwarmRow {
        clients: spec.clients,
        admitted,
        lost_frames: lost,
        peak_connections,
        accepted_per_sec: admitted as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_ms: percentile_ms(&latencies, 0.50),
        p99_ms: percentile_ms(&latencies, 0.99),
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        delivered: streamed.output.plaintexts.len(),
        peak_in_flight,
        identical,
    };

    // Phase 3: flood a deliberately tiny queue and record the shed
    // accounting. Sequential submit-and-ack keeps the phase deterministic:
    // nothing drains the queue, so exactly `capacity` offers are admitted.
    let flood_server = IngressServer::bind(
        "127.0.0.1:0",
        IngressOptions {
            round,
            defense: Defense::Nizk,
            app: SWARM_APP,
            rate: spec.rate,
            burst: spec.rate.max(1.0),
            queue_capacity: spec.flood_queue_capacity,
            retry_after: Duration::from_millis(100),
            evloop: EvloopOptions::default(),
        },
    )
    .map_err(|error| format!("bind flood ingress: {error}"))?;
    let payload = source
        .submit_payload_at(0, round, SWARM_APP)
        .map_err(|error| format!("flood payload: {error}"))?;
    let Ok(Frame::Submit(mut flood_frame)) = wire::decode(&payload) else {
        return Err("flood payload is not a submit frame".to_string());
    };
    let mut flood_shed = 0usize;
    for index in 0..spec.flood_offers {
        let mut stream = TcpStream::connect(flood_server.local_addr())
            .map_err(|error| format!("flood client {index}: {error}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|error| format!("flood client {index}: {error}"))?;
        // Re-stamp the client id so dedup can't hide the flood.
        flood_frame.client = index as u64;
        stream
            .write_all(&atom_net::client_frame(&wire::encode_submit(&flood_frame)))
            .map_err(|error| format!("flood client {index} write: {error}"))?;
        let ack = atom_net::read_client_frame(&mut stream, 1 << 20)
            .map_err(|error| format!("flood client {index} ack: {error}"))?;
        match wire::decode(&ack) {
            Ok(Frame::SubmitAck(ack)) if ack.shed => flood_shed += 1,
            Ok(Frame::SubmitAck(_)) => {}
            other => return Err(format!("flood client {index}: unexpected ack {other:?}")),
        }
    }
    let flood_stats = flood_server.stats();
    flood_server.shutdown();
    atom_obs::set_enabled(was_enabled);
    if flood_stats.offered != flood_stats.admitted + flood_stats.shed_queue {
        return Err("flood accounting does not conserve offers".to_string());
    }
    if flood_stats.shed_queue as usize != flood_shed {
        return Err("flood shed acks disagree with the server's counter".to_string());
    }

    let baseline = IngressBaseline {
        clients: spec.clients,
        groups: spec.groups,
        iterations: spec.iterations,
        seed: spec.seed,
        swarm: swarm_row,
        flood: FloodRow {
            offered: flood_stats.offered as usize,
            admitted: flood_stats.admitted as usize,
            shed: flood_stats.shed_queue as usize,
            queue_capacity: spec.flood_queue_capacity,
        },
    };
    baseline.check()?;
    Ok(baseline)
}

json_record! {
    SwarmRow {
        clients, admitted, lost_frames, peak_connections, accepted_per_sec, p50_ms, p99_ms,
        elapsed_ms, delivered, peak_in_flight, identical
    }
}
json_record! { FloodRow { offered, admitted, shed, queue_capacity } }
json_record! { IngressBaseline { clients, groups, iterations, seed, swarm, flood } }

impl IngressBaseline {
    /// The canonical `BENCH_ingress.json` text (stable field order,
    /// readable diffs).
    pub fn to_json(&self) -> String {
        crate::recorded_json(self, &[])
    }

    /// Parses what [`IngressBaseline::to_json`] wrote. Intolerant of
    /// missing fields.
    pub fn parse(json: &str) -> Result<Self, String> {
        Self::from_value(&json::parse(json)?)
    }

    /// Refuses a run whose swarm was not admitted whole, concurrently and
    /// with measured latency, whose round diverged from the materialized
    /// path or lost submissions, or whose flood queue broke its bound.
    pub fn check(&self) -> Result<(), String> {
        let (swarm, flood) = (&self.swarm, &self.flood);
        let broken = if swarm.peak_connections < swarm.clients as u64 {
            "every connection was open at once"
        } else if !(0.0 < swarm.p50_ms && swarm.p50_ms <= swarm.p99_ms) {
            "0 < p50 <= p99"
        } else if swarm.identical != 1 {
            "the socket-fed round matches the materialized round"
        } else if swarm.delivered != swarm.admitted {
            "every admitted submission was delivered"
        } else if flood.admitted != flood.offered.min(flood.queue_capacity) {
            "the flood queue admitted min(offered, queue_capacity)"
        } else {
            return Ok(());
        };
        Err(format!("the run broke the claim that {broken}: {self:?}"))
    }
}

/// Renders the ingress baseline: the swarm line (concurrency, admission
/// throughput, client-side latency, equivalence verdict) and the flood
/// line (shed accounting against the queue bound).
pub fn print_fig_ingress(baseline: &IngressBaseline) {
    println!(
        "fig_ingress: event-driven client ingress — {} concurrent clients, \
         {} groups, {} iterations, seed {:#x}",
        baseline.clients, baseline.groups, baseline.iterations, baseline.seed
    );
    let swarm = &baseline.swarm;
    println!(
        "  swarm: {} clients → {} admitted ({} lost), peak {} connections on one thread",
        swarm.clients, swarm.admitted, swarm.lost_frames, swarm.peak_connections
    );
    println!(
        "         {:.0} accepted/s, admission latency p50 {:.3} ms / p99 {:.3} ms, \
         phase {:.1} ms",
        swarm.accepted_per_sec, swarm.p50_ms, swarm.p99_ms, swarm.elapsed_ms
    );
    println!(
        "  round: {} delivered, peak {} in-flight intake, byte-identical to \
         materialized: {}",
        swarm.delivered,
        swarm.peak_in_flight,
        if swarm.identical == 1 { "yes" } else { "NO" }
    );
    let flood = &baseline.flood;
    println!(
        "  flood: {} offered past a {}-slot queue → {} admitted + {} shed \
         (retry hints, no OOM, no hang)",
        flood.offered, flood.queue_capacity, flood.admitted, flood.shed
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> IngressBaseline {
        IngressBaseline {
            clients: 1_200,
            groups: 3,
            iterations: 2,
            seed: 0xA70C,
            swarm: SwarmRow {
                clients: 1_200,
                admitted: 1_200,
                lost_frames: 0,
                peak_connections: 1_200,
                accepted_per_sec: 15_000.0,
                p50_ms: 1.25,
                p99_ms: 9.5,
                elapsed_ms: 80.0,
                delivered: 1_200,
                peak_in_flight: 128,
                identical: 1,
            },
            flood: FloodRow {
                offered: 64,
                admitted: 16,
                shed: 48,
                queue_capacity: 16,
            },
        }
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let baseline = sample();
        let parsed = IngressBaseline::parse(&baseline.to_json()).unwrap();
        assert_eq!(parsed, baseline);
    }

    #[test]
    fn check_refuses_each_broken_claim() {
        assert_eq!(sample().check(), Ok(()));
        let broken: [fn(&mut IngressBaseline); 6] = [
            |b| b.swarm.peak_connections = 1_199,
            |b| b.swarm.p50_ms = 0.0,
            |b| b.swarm.p99_ms = 1.0,
            |b| b.swarm.identical = 0,
            |b| b.swarm.delivered = 1_199,
            |b| b.flood.admitted = 17,
        ];
        for breaks in broken {
            let mut baseline = sample();
            breaks(&mut baseline);
            assert!(baseline.check().is_err(), "{baseline:?}");
        }
    }

    #[test]
    fn percentiles_read_the_sorted_tail() {
        let sorted: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert!((percentile_ms(&sorted, 0.50) - 50.0).abs() < 1e-9);
        assert!((percentile_ms(&sorted, 0.99) - 99.0).abs() < 1e-9);
        assert_eq!(percentile_ms(&[], 0.99), 0.0);
    }

    #[test]
    fn a_small_swarm_round_trips_and_the_flood_sheds() {
        let spec = IngressSweepSpec {
            clients: 24,
            users: 200,
            window: 2,
            chunk: 8,
            queue_capacity: 64,
            flood_offers: 12,
            flood_queue_capacity: 4,
            ..IngressSweepSpec::default()
        };
        let baseline = run_ingress(&spec, 2).unwrap();
        assert_eq!(baseline.swarm.admitted, 24);
        assert_eq!(baseline.swarm.lost_frames, 0);
        assert_eq!(baseline.swarm.delivered, 24);
        assert_eq!(baseline.swarm.identical, 1);
        assert!(baseline.swarm.peak_connections >= 24);
        assert!(baseline.swarm.accepted_per_sec > 0.0);
        assert!(baseline.swarm.peak_in_flight <= (spec.window * spec.chunk) as u64);
        assert_eq!(baseline.flood.offered, 12);
        assert_eq!(baseline.flood.admitted, 4);
        assert_eq!(baseline.flood.shed, 8);
    }
}
