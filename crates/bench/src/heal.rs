//! Membership churn, eviction and round recovery for multi-process fleets.
//!
//! Every fleet process ([`crate::netbench::run_node`]) runs this module's
//! loop, so a fleet *heals* rather than fails when a peer vanishes. The
//! coordinator runs rounds in batches (by default one batch of every
//! round); before each attempt the fleet passes a two-phase membership
//! handshake, so every process agrees on who is dead and on the rounds and
//! wire-round offset of the attempt — both the coordinator's to decide —
//! before any of its protocol frames is sent. A fault-free run is one
//! handshake and one engine run over an empty eviction log.
//!
//! ## The recovery loop
//!
//! ```text
//!            ┌──────────────────────────────────────────────────────┐
//!            ▼                                                      │
//!   plan ──▶ ack ──▶ drain ──▶ go ──▶ run attempt ──▶ ok? ── yes ──▶ advance,
//!   (evictions,      (purge    (commit,               │              readmit at
//!    round..end,      stale     freeze)               no             a batch start
//!    offset, digest)  frames)                         ▼
//!                      diagnose lowest failed round → FaultVerdict, extend
//!                      the eviction log, re-plan the rounds without a report
//!                      (new epoch) — the plan carries the verdict
//! ```
//!
//! **Detection.** A dead process surfaces as an engine failure (a send
//! error → `TransportLost`, or the stall detector) that
//! [`FaultVerdict::diagnose`] pins on a process, as a plan send that fails
//! (the transport drops a stream its peer closed and dials once), or as a
//! member that never acks a plan. A process that stopped reading is a send
//! error too, within twice [`TcpOptions::connect_timeout`]. Either way the
//! coordinator convicts, appends the verdict to its eviction log, and
//! re-plans: the survivors learn every verdict from the next plan's log.
//!
//! **Control traffic.** The handshake travels through each process's
//! control inbox ([`TcpTransport::send_control`], [`TcpTransport::recv_control`]),
//! which no engine run drains: a frame that overtakes a run waits there.
//!
//! **Telemetry** travels through the control inbox too, never through an
//! engine run: under [`NetSpec::trace`] a member ships its new spans after
//! each round it completes and at the done sentinel, and the coordinator
//! sets them aside wherever it reads its inbox
//! ([`RecoveryOutcome::telemetry`]).
//!
//! **Healing.** The retried detection round keeps the membership its
//! directory was built with (frozen in the `RecoveryLedger`) and instead
//! marks the evicted servers *failed*, so groups heal by Lagrange
//! reweighting where `k − (h−1)` members remain and by buddy-group escrow
//! reconstruction below that — the paper's §4.5 fault path. Rounds after
//! the detection round re-derive their directories with the evicted servers
//! excluded (the beacon remaps each group onto survivors), which is the
//! re-formation path. Both derivations are pure functions of the spec and
//! the eviction log, so every process computes identical directories and
//! round outputs stay byte-deterministic given the log.
//!
//! **Job derivation.** A plan runs `round..end`: the lowest round without a
//! report up to the first round with one or the batch end ([`batch_end`]),
//! so no attempt re-runs a completed round. Every process derives those
//! jobs from the plan — the coordinator after sending it, a member before
//! acking it — so the engine run times no derivation. The membership is
//! frozen only at the go: a superseded plan leaves no round frozen.
//!
//! **Epoch fencing.** Each attempt runs at the plan's `offset`
//! (`EngineOptions::round_offset`), `epoch × batch`: an attempt runs at
//! most `batch` rounds, so its ids end where the next epoch's begin. A
//! frame straggling in from a failed attempt falls below the offset and is
//! dropped as stale, although TCP orders nothing across connections.
//! Members take the offset from the plan and never know the batch size.
//!
//! **Rejoin.** A restarted process binds its old address, sends a `rejoin`
//! request carrying its (empty) log digest, and waits. The coordinator
//! collects requests whenever it reads its control inbox and readmits at the
//! next *successful* batch boundary: the rejoiner's verdicts are pruned
//! from the log, the node→process map re-includes it, and the next plan —
//! which doubles as the catch-up reply, carrying the authoritative eviction
//! log and current round — puts it back to work hosting groups.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use atom_obs::Snapshot;

use rand::rngs::StdRng;
use rand::SeedableRng;

use atom_core::config::AtomConfig;
use atom_core::directory::{derive_setup, RoundSetup};
use atom_core::message::{make_trap_submission, TrapSubmission};
use atom_net::{Dial, FaultyTransport, SendError, TcpOptions, TcpTransport, Transport};
use atom_runtime::fault::slow_groups;
use atom_runtime::wire::{self, Frame, RejoinFrame, TelemetryFrame};
use atom_runtime::{
    Engine, EngineOptions, EngineRole, FaultKind, FaultVerdict, RoundCompleteHook, RoundJob,
    RoundReport, RoundSubmissions,
};

use crate::netbench::{hosted_groups, round_config, NetSpec};

/// Bounded retries of one batch when a failure yields no actionable
/// verdict (e.g. a protocol abort that implicates no process).
const MAX_STUCK_RETRIES: usize = 3;

/// The servers hosted by fleet process `process`: server `s` lives on
/// process `s mod processes`, so the partition is a pure function every
/// process computes identically — and the conversion from a dead process
/// to its lost servers needs no directory lookup.
fn process_servers(num_servers: usize, processes: usize, process: usize) -> Vec<usize> {
    (0..num_servers)
        .filter(|s| s % processes == process)
        .collect()
}

/// The node→process map with `dead` processes excluded: a group keeps its
/// round-robin owner while that owner lives, and is otherwise reassigned
/// round-robin over the survivors. The orchestrator node (always last)
/// stays on the coordinator, which never appears in `dead`.
pub(crate) fn owner_map_excluding(groups: usize, processes: usize, dead: &[usize]) -> Vec<usize> {
    assert!(!dead.contains(&0), "the coordinator cannot be evicted");
    let live: Vec<usize> = (0..processes).filter(|p| !dead.contains(p)).collect();
    assert!(!live.is_empty(), "no live process left");
    let mut owner: Vec<usize> = (0..groups)
        .map(|gid| {
            let preferred = gid % processes;
            if dead.contains(&preferred) {
                live[gid % live.len()]
            } else {
                preferred
            }
        })
        .collect();
    owner.push(0);
    owner
}

/// The exclusive end of the batch containing `round`: batches are aligned
/// to multiples of `batch`, capped at `rounds`. No attempt crosses one, and
/// readmission happens only at them. Members never need it.
pub fn batch_end(round: usize, batch: usize, rounds: usize) -> usize {
    assert!(batch >= 1, "batch must be at least one round");
    (((round / batch) + 1) * batch).min(rounds)
}

/// A 32-byte integrity digest of an eviction log: four independent FNV-64
/// lanes over the wire encoding of each verdict ([`wire::encode_verdict`]),
/// in log order. Good enough to catch divergence between the coordinator's
/// log and a member's mirror (its only job — this is not an adversarial
/// hash).
pub fn eviction_log_digest(log: &[FaultVerdict]) -> [u8; 32] {
    let mut bytes = Vec::new();
    for verdict in log {
        wire::encode_verdict(&mut bytes, verdict);
    }
    let mut digest = [0u8; 32];
    for lane in 0..4u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325 ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for &byte in &bytes {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        digest[lane as usize * 8..][..8].copy_from_slice(&hash.to_le_bytes());
    }
    digest
}

/// Both sides' view of who has been evicted and how each round heals.
/// The coordinator mutates it via [`RecoveryLedger::evict`] /
/// [`RecoveryLedger::readmit`]; members mirror it from plans via
/// [`RecoveryLedger::apply_plan`], the one update path `evict` also takes,
/// so both sides build byte-identical round jobs
/// ([`RecoveryLedger::batch_jobs`], the one round-job derivation).
#[derive(Clone, Debug, Default)]
pub(crate) struct RecoveryLedger {
    /// Standing verdicts: one entry per conviction whose process is still
    /// out. This is the log plans and digests cover.
    active: Vec<FaultVerdict>,
    /// round → evicted-server set its directory was built with. Frozen at
    /// the go of its first batch so a *retried* detection round keeps the
    /// membership its submissions and peers' directories were derived
    /// under — it heals by Lagrange/escrow instead of re-forming.
    frozen: BTreeMap<usize, Vec<usize>>,
    /// round → servers that failed mid-flight for that round (the frozen
    /// detection round's Lagrange/escrow set).
    failed: BTreeMap<usize, Vec<usize>>,
}

impl RecoveryLedger {
    /// The processes currently evicted, ascending.
    fn dead_processes(&self) -> Vec<usize> {
        let set: BTreeSet<usize> = self.active.iter().map(|v| v.process).collect();
        set.into_iter().collect()
    }

    /// The servers currently evicted, ascending and deduplicated.
    fn active_servers(&self) -> Vec<usize> {
        let set: BTreeSet<usize> = self
            .active
            .iter()
            .flat_map(|v| v.servers.iter().copied())
            .collect();
        set.into_iter().collect()
    }

    /// The digest members must echo in their acks.
    fn digest(&self) -> [u8; 32] {
        eviction_log_digest(&self.active)
    }

    /// The evicted-server set round `round`'s directory was (or will be)
    /// built with.
    fn evicted_for(&self, round: usize) -> Vec<usize> {
        self.frozen
            .get(&round)
            .cloned()
            .unwrap_or_else(|| self.active_servers())
    }

    /// The mid-flight failure set of round `round`.
    fn failed_for(&self, round: usize) -> Vec<usize> {
        self.failed.get(&round).cloned().unwrap_or_default()
    }

    fn note_failures(&mut self, round: usize, fresh: &[usize]) {
        // Only a frozen round (one whose directory already exists with the
        // old membership) heals in place; unfrozen rounds re-form instead.
        if fresh.is_empty() || !self.frozen.contains_key(&round) {
            return;
        }
        let failed = self.failed.entry(round).or_default();
        for &server in fresh {
            if !failed.contains(&server) {
                failed.push(server);
            }
        }
        failed.sort_unstable();
    }

    /// Coordinator side: convict `verdict`, retrying from `retry_round` —
    /// the plan of the log plus `verdict`, through the same update members
    /// mirror it with.
    pub(crate) fn evict(&mut self, verdict: FaultVerdict, retry_round: usize) {
        let mut log = self.active.clone();
        log.push(verdict);
        self.apply_plan(&log, retry_round);
    }

    /// Coordinator side: welcome `process` back. Its standing verdicts are
    /// pruned; rounds planned from now on include it again.
    fn readmit(&mut self, process: usize) {
        self.active.retain(|v| v.process != process);
    }

    /// Adopt the eviction log `evictions` for a batch starting at
    /// `plan_round`. Servers new relative to our log become mid-flight
    /// failures of that round (if we had frozen it, so it keeps its
    /// membership and heals in place); every later round is unfrozen so
    /// its directory re-forms over the survivors.
    fn apply_plan(&mut self, evictions: &[FaultVerdict], plan_round: usize) {
        let known = self.active_servers();
        let mut fresh: Vec<usize> = evictions
            .iter()
            .flat_map(|v| v.servers.iter().copied())
            .filter(|s| !known.contains(s))
            .collect();
        fresh.sort_unstable();
        fresh.dedup();
        self.active = evictions.to_vec();
        self.note_failures(plan_round, &fresh);
        self.frozen.retain(|&round, _| round <= plan_round);
        self.failed.retain(|&round, _| round <= plan_round);
    }

    /// The jobs of `rounds` under the current log. Members pass
    /// `with_submissions: false` under a sharded spec (they never derive
    /// non-hosted DKGs); everyone else derives the full healed directory and
    /// the rounds' submissions. Freezes nothing ([`RecoveryLedger::freeze`]
    /// does, at the go). Errors if the log leaves too few survivors to fill
    /// a group.
    pub(crate) fn batch_jobs(
        &self,
        spec: &NetSpec,
        rounds: Range<usize>,
        with_submissions: bool,
    ) -> Result<Vec<RoundJob>, String> {
        rounds
            .map(|round| {
                let mut config = round_config(spec, round);
                config.evicted_servers = self.evicted_for(round);
                config.validate().map_err(|error| {
                    format!("round {round} config invalid under eviction log: {error:?}")
                })?;
                let failed = self.failed_for(round);
                Ok(heal_job(spec, config, round, failed, with_submissions))
            })
            .collect()
    }

    /// Freezes the membership of `rounds` as the go that commits them finds
    /// it; a round already frozen keeps its first membership.
    fn freeze(&mut self, rounds: Range<usize>) {
        for round in rounds {
            let evicted = self.evicted_for(round);
            self.frozen.entry(round).or_insert(evicted);
        }
    }

    /// One encoded `rejoin` frame over this log, naming `rounds` at
    /// `offset`. The coordinator's (process 0) plan, go and done frames are
    /// responses carrying the whole log; a member's ack and rejoin request
    /// carry only its digest.
    fn handshake(&self, rounds: Range<usize>, process: usize, offset: usize, go: bool) -> Vec<u8> {
        let response = process == 0;
        let evictions = if response {
            self.active.clone()
        } else {
            vec![]
        };
        wire::encode_rejoin(&RejoinFrame {
            round: rounds.start,
            end: rounds.end,
            process,
            offset,
            response,
            commit: go,
            digest: self.digest(),
            evictions,
        })
    }
}

/// The spec's submissions for one round, from a stream keyed on
/// `(seed, round)` alone, so the recovery loop can re-derive any single
/// round in isolation. They encrypt to the entry groups' DKG keys, which
/// derive from the beacon and not from membership, so the same submission
/// bytes stay valid under any eviction.
fn heal_submissions(spec: &NetSpec, round: usize, setup: &RoundSetup) -> Vec<TrapSubmission> {
    let mut rng = StdRng::seed_from_u64(
        spec.seed ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x4845_414C,
    );
    (0..spec.messages)
        .map(|i| {
            let gid = i % spec.groups;
            make_trap_submission(
                gid,
                &setup.groups[gid].public_key,
                &setup.trustees.public_key,
                setup.config.round,
                format!("net r{round} m{i}").as_bytes(),
                setup.config.message_len,
                &mut rng,
            )
            .expect("derive submission")
            .0
        })
        .collect()
}

fn heal_job(
    spec: &NetSpec,
    config: AtomConfig,
    round: usize,
    failed: Vec<usize>,
    with_submissions: bool,
) -> RoundJob {
    let seed = spec.seed.wrapping_add(round as u64);
    // A sharded member without submissions derives no directory at all.
    let setup = (!spec.sharded || with_submissions)
        .then(|| derive_setup(&config).expect("derive healed directory"));
    let submissions = match &setup {
        Some(setup) if with_submissions => heal_submissions(spec, round, setup),
        _ => Vec::new(),
    };
    let submissions = RoundSubmissions::Trap(submissions);
    let mut job = match setup {
        Some(setup) if !spec.sharded => RoundJob::new(setup, submissions, seed),
        _ => RoundJob::sharded(config, submissions, seed),
    };
    job.failed_servers = failed;
    job
}

/// The spec's rounds under an empty eviction log, with submissions: what a
/// fault-free fleet runs, and the in-memory reference its outputs are
/// diffed against. A trap-variant deployment with fixed-length messages,
/// its directory prebuilt ([`derive_setup`] of each round's config) or,
/// under [`NetSpec::sharded`], derived inside the engine run.
pub fn fleet_jobs(spec: &NetSpec) -> Vec<RoundJob> {
    (RecoveryLedger::default().batch_jobs(spec, 0..spec.rounds, true))
        .unwrap_or_else(|error| panic!("derive the spec's rounds: {error}"))
}

/// The in-memory reference for a recovered run: every round rebuilt with
/// the membership ([`RecoveryOutcome::round_evicted`]) and mid-flight
/// failure set ([`RecoveryOutcome::round_failed`]) the fleet settled on,
/// run on one in-process engine. `serialize_reports` of this must equal
/// the fleet's — recovery is re-derivation, not improvisation.
pub fn build_healed_reference(
    spec: &NetSpec,
    round_evicted: &[Vec<usize>],
    round_failed: &[Vec<usize>],
) -> Vec<RoundReport> {
    let jobs: Vec<RoundJob> = (0..spec.rounds)
        .map(|round| {
            let mut config = round_config(spec, round);
            config.evicted_servers = round_evicted[round].clone();
            heal_job(spec, config, round, round_failed[round].clone(), true)
        })
        .collect();
    Engine::with_workers(2)
        .run_rounds(jobs)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .expect("healed reference run")
}

/// What a recovered fleet run produced, beyond the round outputs: the full
/// eviction/rejoin history and the latency of the healing path.
pub struct RecoveryOutcome {
    /// One authoritative report per round of the spec.
    pub reports: Vec<RoundReport>,
    /// Every conviction, in order (including convictions of processes that
    /// later rejoined).
    pub evictions: Vec<FaultVerdict>,
    /// `(process, round)` for each readmission: the first round of the
    /// batch the process re-entered at.
    pub rejoins: Vec<(usize, usize)>,
    /// Per round: the evicted-server set its final directory was built
    /// with. Feed to [`build_healed_reference`].
    pub round_evicted: Vec<Vec<usize>>,
    /// Per round: the mid-flight failure set it finally healed around.
    pub round_failed: Vec<Vec<usize>>,
    /// Batch attempts (plan/ack/go handshakes) the run took.
    pub epochs: usize,
    /// Wall clock of the coordinator's engine runs, summed over every batch
    /// attempt: no job derivation, handshake or connect inside.
    pub engine: Duration,
    /// When the first fault was detected, relative to run start.
    pub detected_at: Option<Duration>,
    /// Detection → completion of the first round finished after detection:
    /// the paper-facing recovery latency.
    pub healed_latency: Option<Duration>,
    /// Global rounds completed after the first detection, ascending.
    pub healed_rounds: Vec<usize>,
    /// Wall clock of the whole recovered run.
    pub wall: Duration,
    /// Under [`NetSpec::trace`], one snapshot per process in process order:
    /// the coordinator's whole run, failed attempts included, and what each
    /// member shipped. Empty untraced.
    pub telemetry: Vec<Snapshot>,
}

/// The fleet's telemetry under `trace` (none otherwise), one snapshot per
/// process in process order: this process's whole-run recording, and per
/// member the spans of every frame it shipped and its latest counters.
fn fleet_telemetry(frames: Vec<TelemetryFrame>, trace: bool) -> Vec<Snapshot> {
    if !trace {
        return Vec::new();
    }
    let mut fleet = vec![atom_obs::local_snapshot(None)];
    for frame in frames {
        match fleet
            .iter_mut()
            .find(|snapshot| snapshot.process == frame.process)
        {
            Some(snapshot) => {
                snapshot.spans.extend(frame.spans);
                snapshot.counters = frame.counters;
            }
            None => fleet.push(Snapshot {
                process: frame.process,
                counters: frame.counters,
                spans: frame.spans,
            }),
        }
    }
    fleet.sort_by_key(|snapshot| snapshot.process);
    fleet
}

/// A traced member's shipments to the coordinator: each sends the spans
/// recorded since the previous one, so the recorder, which other fleet
/// roles of the same OS process may share, is never drained.
struct Shipper {
    transport: Arc<TcpTransport>,
    /// Spans already shipped.
    shipped: Mutex<usize>,
}

impl Shipper {
    /// Ships one telemetry frame, `last` in reply to the done sentinel.
    /// Observational: a ship that fails is dropped.
    fn ship(&self, last: bool) {
        let mut shipped = self.shipped.lock().unwrap_or_else(PoisonError::into_inner);
        let spans = atom_obs::spans_since(*shipped);
        *shipped += spans.len();
        let frame = TelemetryFrame {
            process: atom_obs::process(),
            last,
            counters: atom_obs::counter_snapshot(),
            spans,
        };
        let payload = wire::encode_telemetry(&frame);
        let _ = self.transport.send_control(0, &payload, Dial::IfNeeded);
    }
}

/// Binds fleet process `me`'s end of the mesh and connects it to every
/// peer, with the full-membership owner map — the one transport setup of
/// every fleet process. Turns recording on under `NetSpec::trace`.
fn join_fleet(spec: &NetSpec, addrs: Vec<String>, me: usize) -> Result<TcpTransport, String> {
    if spec.trace {
        atom_obs::set_process(me as u32);
        atom_obs::set_enabled(true);
    }
    let owner = owner_map_excluding(spec.groups, addrs.len(), &[]);
    let role = if me == 0 { "coordinator" } else { "member" };
    let transport = TcpTransport::bind(addrs, owner, me, TcpOptions::default())
        .map_err(|error| format!("bind {role} transport: {error}"))?;
    transport
        .connect_peers()
        .map_err(|error| format!("connect to fleet: {error}"))?;
    Ok(transport)
}

/// The handshake frames that reach this process's control inbox until
/// `deadline`, once a frame has: the first, then every one queued behind
/// it. Telemetry frames among them are set aside in `telemetry`. Empty if
/// none did; a deadline already past only sweeps the inbox.
fn control_frames(
    transport: &TcpTransport,
    deadline: Instant,
    telemetry: &mut Vec<TelemetryFrame>,
) -> Vec<RejoinFrame> {
    let first = transport.recv_control(deadline);
    let rest = std::iter::from_fn(|| transport.recv_control(Instant::now()));
    first
        .into_iter()
        .chain(rest)
        .filter_map(|payload| match wire::decode(&payload) {
            Ok(Frame::Rejoin(frame)) => Some(frame),
            Ok(Frame::Telemetry(frame)) => {
                telemetry.push(frame);
                None
            }
            _ => None,
        })
        .collect()
}

/// Feeds each handshake frame, in arrival order, to `pick` until a batch
/// of arrivals yields a pick (its last one wins) or `deadline` passes,
/// parked on the control inbox's wake-up in between.
fn wait<T>(
    transport: &TcpTransport,
    deadline: Instant,
    telemetry: &mut Vec<TelemetryFrame>,
    mut pick: impl FnMut(RejoinFrame) -> Option<T>,
) -> Option<T> {
    loop {
        let frames = control_frames(transport, deadline, telemetry).into_iter();
        let picked = frames.filter_map(&mut pick).last();
        if picked.is_some() || Instant::now() >= deadline {
            return picked;
        }
    }
}

/// Empties every node mailbox of frames from dead epochs. Safe on the
/// coordinator once all acks are in (per-connection ordering puts any
/// member's protocol frames before its ack) and on a member before it acks;
/// the epoch fence backstops whatever arrives later.
fn purge(transport: &TcpTransport) {
    for node in 0..Transport::nodes(transport) {
        let _ = Transport::drain(transport, node);
    }
}

/// The engine options of one attempt on `process`, at the wire-round
/// `offset` its plan names.
fn engine_options(spec: &NetSpec, workers: usize, offset: usize, process: usize) -> EngineOptions {
    let mut options = EngineOptions::with_workers(workers);
    options.stall_timeout = spec.stall_timeout;
    if process == 0 {
        // The round clock is the coordinator's alone: it owns the diagnosis,
        // and a member that also deadlined would race its abort against the
        // coordinator's verdict (turning `Slow` into `Blamed`).
        options.round_deadline = spec.round_deadline;
    }
    options.round_offset = offset;
    options
}

/// How long the coordinator waits for plan acks before convicting the
/// silent members as dead.
fn ack_deadline(spec: &NetSpec) -> Duration {
    spec.stall_timeout.max(Duration::from_millis(500)) * 2
}

/// How long a member waits for the next plan (or go) before concluding the
/// coordinator itself is gone. Generous: it must outlast a full batch run
/// plus the coordinator's own ack timeout.
fn plan_deadline(spec: &NetSpec) -> Duration {
    spec.stall_timeout.max(Duration::from_secs(1)) * 8 + Duration::from_secs(10)
}

/// Records `frame` if it is a rejoin request from an evicted process.
fn note_request(pending: &mut BTreeSet<usize>, live: &[bool], frame: &RejoinFrame) {
    let request = !frame.response && !frame.commit && frame.process < live.len();
    if request && !live[frame.process] && pending.insert(frame.process) {
        atom_obs::count("fleet.rejoin.requests", 1);
        println!(
            "recovery: process {} requests rejoin (last plan from round {})",
            frame.process, frame.round
        );
    }
}

/// A plan on the wire: the members whose acks to await, and the attempt's
/// jobs.
type SentPlan = (BTreeSet<usize>, Vec<RoundJob>);

/// The coordinator's side of the recovery loop. Each epoch runs four
/// phases — [`Coordinator::plan`], [`Coordinator::acks`],
/// [`Coordinator::commit`] and [`Coordinator::run_batch`] — and any of
/// them may end it early by convicting a process, after which the loop
/// re-plans from `next` under a fresh epoch.
struct Coordinator<'a> {
    spec: &'a NetSpec,
    batch: usize,
    workers: usize,
    on_round: Option<RoundCompleteHook>,
    transport: &'a TcpTransport,
    num_servers: usize,
    group_size: usize,
    ledger: RecoveryLedger,
    /// Per process: admitted, not evicted. The coordinator always is.
    live: Vec<bool>,
    /// Evicted processes that asked back in, readmitted at the next
    /// successful batch boundary.
    pending_rejoin: BTreeSet<usize>,
    evictions: Vec<FaultVerdict>,
    rejoins: Vec<(usize, usize)>,
    completions: Arc<Mutex<Vec<(usize, Instant)>>>,
    detected: Option<Instant>,
    epoch: usize,
    /// The lowest round without an authoritative report.
    next: usize,
    /// The rounds the last plan's attempt runs.
    attempt: Range<usize>,
    /// Consecutive failures of the batch that yielded no actionable verdict.
    stuck: usize,
    /// Summed wall clock of the engine runs.
    engine: Duration,
    reports: Vec<Option<RoundReport>>,
    round_evicted: Vec<Vec<usize>>,
    round_failed: Vec<Vec<usize>>,
    /// Telemetry frames set aside from the control inbox.
    telemetry: Vec<TelemetryFrame>,
}

impl<'a> Coordinator<'a> {
    /// A coordinator of `processes` processes over `transport`, before its
    /// first epoch.
    fn new(
        spec: &'a NetSpec,
        batch: usize,
        transport: &'a TcpTransport,
        processes: usize,
        workers: usize,
        on_round: Option<RoundCompleteHook>,
    ) -> Self {
        let config = round_config(spec, 0);
        Self {
            spec,
            batch,
            workers,
            on_round,
            transport,
            num_servers: config.num_servers,
            group_size: config.group_size,
            ledger: RecoveryLedger::default(),
            live: vec![true; processes],
            pending_rejoin: BTreeSet::new(),
            evictions: Vec::new(),
            rejoins: Vec::new(),
            completions: Arc::default(),
            detected: None,
            epoch: 0,
            next: 0,
            attempt: 0..0,
            stuck: 0,
            engine: Duration::ZERO,
            reports: (0..spec.rounds).map(|_| None).collect(),
            round_evicted: vec![Vec::new(); spec.rounds],
            round_failed: vec![Vec::new(); spec.rounds],
            telemetry: Vec::new(),
        }
    }

    fn run(&mut self) -> Result<(), String> {
        let max_epochs = self.spec.rounds * 3 + 24;
        while self.next < self.spec.rounds {
            self.epoch += 1;
            if self.epoch > max_epochs {
                return Err(format!(
                    "recovery made no progress within {max_epochs} epochs"
                ));
            }
            let Some((awaiting, jobs)) = self.plan()? else {
                continue;
            };
            if self.acks(&awaiting)? && self.commit(&awaiting)? {
                self.run_batch(jobs)?;
            }
        }
        Ok(())
    }

    /// Convicts `verdict.process`, retrying from `next`: capacity check,
    /// extend the eviction log, mark dead. The next plan carries the
    /// verdict to the survivors.
    fn convict(&mut self, verdict: FaultVerdict) -> Result<(), String> {
        let mut lost: BTreeSet<usize> = self.ledger.active_servers().into_iter().collect();
        lost.extend(verdict.servers.iter().copied());
        let left = self.num_servers - lost.len();
        if left < self.group_size {
            return Err(format!(
                "evicting process {} would leave {left} servers, fewer than one group ({})",
                verdict.process, self.group_size
            ));
        }
        self.detected.get_or_insert_with(Instant::now);
        atom_obs::count("fleet.evictions", 1);
        println!(
            "recovery: evicting process {} ({}) at round {}: {}",
            verdict.process, verdict.kind, self.next, verdict.reason
        );
        self.live[verdict.process] = false;
        self.ledger.evict(verdict.clone(), self.next);
        self.evictions.push(verdict);
        self.stuck = 0;
        Ok(())
    }

    /// [`Coordinator::convict`] of a process that went silent or
    /// unreachable.
    fn convict_dead(&mut self, process: usize, reason: String) -> Result<(), String> {
        let servers = process_servers(self.num_servers, self.live.len(), process);
        self.convict(FaultVerdict {
            round: self.next,
            process,
            kind: FaultKind::Dead,
            servers,
            reason,
        })
    }

    /// The wire-round offset of this epoch's attempt.
    fn offset(&self) -> usize {
        self.epoch * self.batch
    }

    /// Phase 1: sends the plan — rounds, eviction log, offset, digest —
    /// then derives the attempt's jobs while the members derive theirs, and
    /// returns the members whose acks to await with those jobs, or `None`
    /// after convicting one that could not be reached.
    fn plan(&mut self) -> Result<Option<SentPlan>, String> {
        atom_obs::count("fleet.handshake.plans", 1);
        let end = batch_end(self.next, self.batch, self.spec.rounds);
        let end = (self.next..end)
            .find(|&round| self.reports[round].is_some())
            .unwrap_or(end);
        self.attempt = self.next..end;
        let plan = (self.ledger).handshake(self.attempt.clone(), 0, self.offset(), false);
        let mut awaiting = BTreeSet::new();
        for process in 1..self.live.len() {
            if !self.live[process] {
                // A convicted process may be gone — or merely slow and still
                // listening (a slow-loris eviction). Courtesy-copy it the
                // plan over any still-open stream, without awaiting an ack:
                // seeing itself on the dead list is what prompts its rejoin
                // request. Best-effort by design — a crashed peer must not
                // cost a connect-timeout stall per epoch.
                let _ = self.transport.send_control(process, &plan, Dial::Never);
            } else if let Err(error) = self.transport.send_control(process, &plan, Dial::IfNeeded) {
                let reason = format!("unreachable during handshake: {}", error.error);
                self.convict_dead(process, reason)?;
                return Ok(None);
            } else {
                awaiting.insert(process);
            }
        }
        let jobs = (self.ledger).batch_jobs(self.spec, self.attempt.clone(), true)?;
        Ok(Some((awaiting, jobs)))
    }

    /// Phase 2: collects the acks until the ack deadline, noting any rejoin
    /// request on the way. `false` after convicting the silent members.
    fn acks(&mut self, awaiting: &BTreeSet<usize>) -> Result<bool, String> {
        let (offset, digest) = (self.offset(), self.ledger.digest());
        let (live, pending) = (&self.live, &mut self.pending_rejoin);
        let mut acked = BTreeSet::new();
        let mut diverged = None;
        if !awaiting.is_empty() {
            let deadline = Instant::now() + ack_deadline(self.spec);
            wait(self.transport, deadline, &mut self.telemetry, |frame| {
                let ack = !frame.response && !frame.commit && frame.offset == offset;
                if !ack || !awaiting.contains(&frame.process) {
                    note_request(pending, live, &frame);
                } else if frame.digest == digest {
                    acked.insert(frame.process);
                } else {
                    diverged = Some(frame.process);
                }
                (diverged.is_some() || acked.len() == awaiting.len()).then_some(())
            });
        }
        if let Some(process) = diverged {
            return Err(format!(
                "process {process} acked with a divergent eviction-log digest"
            ));
        }
        let silent: Vec<usize> = awaiting.difference(&acked).copied().collect();
        for &process in &silent {
            self.convict_dead(process, "no handshake ack".into())?;
        }
        Ok(silent.is_empty())
    }

    /// Phase 3: with all acks in, every member frame of dead epochs has been
    /// delivered (per-connection ordering) — purge, freeze the attempt's
    /// membership, then send the go. `false` after convicting the members
    /// the go could not reach.
    fn commit(&mut self, awaiting: &BTreeSet<usize>) -> Result<bool, String> {
        for frame in control_frames(self.transport, Instant::now(), &mut self.telemetry) {
            note_request(&mut self.pending_rejoin, &self.live, &frame);
        }
        purge(self.transport);
        // Members freeze on receiving the go, so freezing is part of the
        // committed protocol on this side too — an epoch abandoned before
        // its commit leaves no membership frozen anywhere.
        self.ledger.freeze(self.attempt.clone());
        // Attempt the commit to *every* member before reacting to failures:
        // members freeze the batch's membership on receiving the go, so all
        // live members must see it — aborting at the first dead peer would
        // leave the survivors frozen on an epoch the coordinator abandoned.
        let go = (self.ledger).handshake(self.attempt.clone(), 0, self.offset(), true);
        let unreachable: Vec<SendError> = awaiting
            .iter()
            .filter_map(|&process| {
                self.transport
                    .send_control(process, &go, Dial::IfNeeded)
                    .err()
            })
            .collect();
        // The epoch committed for everyone reachable (they and we have
        // frozen these rounds); convict the dead and retry the attempt with
        // their shares marked failed under the frozen membership.
        for SendError { process, error } in &unreachable {
            self.convict_dead(*process, format!("unreachable at commit: {error}"))?;
        }
        Ok(unreachable.is_empty())
    }

    /// Phase 4: runs the committed attempt under the agreed membership and
    /// epoch fence, and moves `next` to the lowest round still without a
    /// report. Success readmits the pending rejoiners if that round starts
    /// a batch; failure convicts whoever the diagnosis of the lowest failed
    /// round names. The attempt holds no completed round, so each round's
    /// report and completion are its only ones.
    fn run_batch(&mut self, jobs: Vec<RoundJob>) -> Result<(), String> {
        let (transport, processes) = (self.transport, self.live.len());
        let owner = owner_map_excluding(self.spec.groups, processes, &self.ledger.dead_processes());
        for (node, &process) in owner.iter().enumerate() {
            transport.set_owner(node, process);
        }
        let mut options = engine_options(self.spec, self.workers, self.offset(), 0);
        let base = self.attempt.start;
        let (tap, user_hook) = (self.completions.clone(), self.on_round.clone());
        options.on_round_complete = Some(Arc::new(move |index: usize| {
            let round = base + index;
            let mut completions = tap.lock().unwrap_or_else(|poison| poison.into_inner());
            completions.push((round, Instant::now()));
            if let Some(hook) = &user_hook {
                hook(round);
            }
        }));
        let role = EngineRole::coordinator(hosted_groups(&owner, 0));
        let mut failed = None;
        let start = Instant::now();
        let results = Engine::new(options).run_rounds_on(jobs, transport, &role);
        self.engine += start.elapsed();
        for (round, result) in (base..).zip(results) {
            match result {
                Ok(report) => {
                    // The membership the report was made under.
                    self.round_evicted[round] = self.ledger.evicted_for(round);
                    self.round_failed[round] = self.ledger.failed_for(round);
                    self.reports[round] = Some(report);
                }
                Err(error) => {
                    failed.get_or_insert((round, error));
                }
            }
        }
        let unreported = self.reports.iter().position(Option::is_none);
        self.next = unreported.unwrap_or(self.spec.rounds);
        let Some((round, error)) = failed else {
            self.stuck = 0;
            let next = self.next;
            if next < self.spec.rounds && next.is_multiple_of(self.batch) {
                for process in std::mem::take(&mut self.pending_rejoin) {
                    self.ledger.readmit(process);
                    self.live[process] = true;
                    self.rejoins.push((process, next));
                    atom_obs::count("fleet.rejoin.readmissions", 1);
                    println!("recovery: process {process} readmitted from round {next}");
                }
            }
            return Ok(());
        };
        let num_servers = self.num_servers;
        let verdict = FaultVerdict::diagnose(round, &error, &owner, 0, |process| {
            process_servers(num_servers, processes, process)
        });
        match verdict {
            Some(verdict) if verdict.process != 0 && self.live[verdict.process] => {
                self.convict(verdict)
            }
            _ => {
                self.stuck += 1;
                let stuck = self.stuck;
                if stuck >= MAX_STUCK_RETRIES {
                    return Err(format!(
                        "round {round} failed {stuck} times with no actionable verdict: {error:?}"
                    ));
                }
                println!(
                    "recovery: round {round} failed without a verdict (attempt {stuck}), \
                     retrying: {error:?}"
                );
                Ok(())
            }
        }
    }

    fn outcome(mut self, start: Instant) -> RecoveryOutcome {
        let telemetry = fleet_telemetry(std::mem::take(&mut self.telemetry), self.spec.trace);
        let completions = self
            .completions
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        let healed: Vec<(usize, Duration)> = match self.detected {
            Some(detected) => completions
                .iter()
                .filter(|(_, at)| *at > detected)
                .map(|&(round, at)| (round, at - detected))
                .collect(),
            None => Vec::new(),
        };
        let healed_rounds: BTreeSet<usize> = healed.iter().map(|&(round, _)| round).collect();
        RecoveryOutcome {
            reports: self
                .reports
                .into_iter()
                .map(|report| report.expect("every round resolved"))
                .collect(),
            evictions: self.evictions,
            rejoins: self.rejoins,
            round_evicted: self.round_evicted,
            round_failed: self.round_failed,
            epochs: self.epoch,
            engine: self.engine,
            detected_at: self.detected.map(|instant| instant - start),
            healed_latency: healed.iter().map(|&(_, latency)| latency).min(),
            healed_rounds: healed_rounds.into_iter().collect(),
            wall: start.elapsed(),
            telemetry,
        }
    }
}

/// Runs the coordinator (process 0) of a fleet: rounds in batches of
/// `batch`, the eviction → re-formation → rejoin loop from the module docs,
/// until every round of the spec has an authoritative report. A fleet of
/// one (`addrs` holds only the coordinator) runs every group here.
/// `on_ready` fires once the transport is connected — the node binary
/// prints its readiness line there; `on_round` fires with each global
/// round as it completes — the chaos tests use it to schedule kills and
/// restarts mid-run. A run that fails still hands back the fleet's
/// telemetry ([`RecoveryOutcome::telemetry`]) beside its reason.
pub fn run_recovery_coordinator(
    spec: &NetSpec,
    batch: usize,
    addrs: Vec<String>,
    workers: usize,
    on_round: Option<RoundCompleteHook>,
    on_ready: impl FnOnce(),
) -> Result<RecoveryOutcome, (String, Vec<Snapshot>)> {
    let processes = addrs.len();
    let start = Instant::now();
    let transport = join_fleet(spec, addrs, 0).map_err(|error| (error, Vec::new()))?;
    on_ready();
    let mut fleet = Coordinator::new(spec, batch, &transport, processes, workers, on_round);
    let run = fleet.run();
    if let Err(error) = &run {
        // Beside the last attempt's spans, labelled with its first wire
        // round: a run can fail before any engine ran.
        atom_obs::note("failed", fleet.offset() as u32, error);
    }

    // Tell everyone — members, and any rejoiner still waiting — that the
    // run is over (a plan starting at spec.rounds is the done sentinel),
    // whether we succeeded or gave up. A traced run then awaits, until the
    // ack deadline, the final telemetry of every live member the sentinel
    // reached.
    let sentinel = spec.rounds..spec.rounds + 1;
    let done = (fleet.ledger).handshake(sentinel, 0, (fleet.epoch + 1) * batch, false);
    let mut awaiting = Vec::new();
    for process in 1..processes {
        let reached = transport.send_control(process, &done, Dial::IfNeeded);
        if reached.is_ok() && spec.trace && fleet.live[process] {
            awaiting.push(process as u32);
        }
    }
    let deadline = Instant::now() + ack_deadline(spec);
    let finished = |frames: &[TelemetryFrame], process| {
        (frames.iter()).any(|frame| frame.last && frame.process == process)
    };
    while !awaiting.iter().all(|&p| finished(&fleet.telemetry, p)) && Instant::now() < deadline {
        control_frames(&transport, deadline, &mut fleet.telemetry);
    }
    transport.shutdown();
    match run {
        Ok(()) => Ok(fleet.outcome(start)),
        Err(error) => Err((error, fleet_telemetry(fleet.telemetry, spec.trace))),
    }
}

/// Runs a member (process `index > 0`) of a fleet: waits for each plan,
/// mirrors the eviction log, derives the jobs of the rounds the plan names,
/// acks, waits for the commit and runs its share of them at the plan's
/// offset — until the coordinator's done sentinel. It takes no batch size:
/// the coordinator alone decides what each attempt runs.
/// With `rejoin: true` the member announces itself as a restarted process
/// (the catch-up handshake): it sends a rejoin request and idles until a
/// plan readmits it. `on_ready` fires once the transport is connected —
/// the node binary prints its readiness line there.
pub(crate) fn run_healing_member(
    spec: &NetSpec,
    addrs: Vec<String>,
    index: usize,
    workers: usize,
    rejoin: bool,
    on_ready: impl FnOnce(),
) -> Result<(), String> {
    let processes = addrs.len();
    assert!(index > 0 && index < processes, "member index out of range");
    let transport = Arc::new(join_fleet(spec, addrs, index)?);
    on_ready();
    let result = member_loop(spec, &transport, (index, processes), workers, rejoin);
    transport.shutdown();
    result
}

/// The member's side of the recovery loop, one control frame at a time:
/// a plan is mirrored, derived and acked, the go of the acked plan runs
/// its rounds. A traced member ships its telemetry after each round it
/// completes and once more at the done sentinel.
fn member_loop(
    spec: &NetSpec,
    transport: &Arc<TcpTransport>,
    (index, processes): (usize, usize),
    workers: usize,
    rejoin: bool,
) -> Result<(), String> {
    let shipper = spec.trace.then(|| {
        Arc::new(Shipper {
            transport: Arc::clone(transport),
            shipped: Mutex::new(0),
        })
    });
    let transport: &TcpTransport = transport;
    let mut ledger = RecoveryLedger::default();
    // The rounds and offset of the last plan: none before the first.
    let (mut rounds, mut offset) = (0..0, 0);
    // `outside`: not admitted (a restart, or on the last plan's dead list).
    let (mut outside, mut requested) = (rejoin, false);
    // The hosted groups and jobs of the plan acked but not yet committed.
    let mut acked: Option<(Vec<usize>, Vec<RoundJob>)> = None;
    loop {
        if outside && !requested {
            // Ask back in, once per eviction, and wait for a plan that
            // readmits us.
            atom_obs::count("fleet.rejoin.handshakes", 1);
            let request = ledger.handshake(rounds.clone(), index, 0, false);
            transport
                .send_control(0, &request, Dial::IfNeeded)
                .map_err(|error| format!("rejoin request failed: {error}"))?;
            requested = true;
        }
        // The next plan, or the go of the acked one. A newer plan supersedes
        // an acked one: the coordinator re-planned underneath us (another
        // member died between our ack and its commit).
        let deadline = Instant::now() + plan_deadline(spec);
        let mut newest = offset;
        let frame = wait(transport, deadline, &mut Vec::new(), |frame| {
            let go = frame.commit && frame.offset == offset && acked.is_some();
            let plan = !frame.commit && frame.offset > newest;
            if frame.response && plan {
                newest = frame.offset;
            }
            (frame.response && (go || plan)).then_some(frame)
        });
        let frame = frame.ok_or_else(|| match acked {
            Some(_) => format!("no commit for offset {offset} before the deadline"),
            None => "no plan from the coordinator before the deadline".into(),
        })?;
        if let (true, Some((hosted, jobs))) = (frame.commit, acked.take()) {
            // Freeze the rounds only now that the attempt committed: a plan
            // abandoned before its go must leave nothing frozen, or a later
            // retry of the same rounds would heal them under a membership
            // the coordinator never agreed to.
            ledger.freeze(rounds.clone());
            let mut options = engine_options(spec, workers, offset, index);
            options.on_round_complete = shipper
                .clone()
                .map(|shipper| Arc::new(move |_| shipper.ship(false)) as RoundCompleteHook);
            let total = jobs.len();
            let role = EngineRole::member(hosted);
            // Chaos knob: member process 1 plays the slow loris, dripping
            // its hosted groups' steps slowly enough to defeat the stall
            // detector but not the round clock.
            let loris = index == 1 && !spec.loris.is_zero();
            let slow = slow_groups(move |_| loris, spec.groups, spec.loris);
            let transport = FaultyTransport::new(transport, slow);
            let results = Engine::new(options).run_rounds_on(jobs, &transport, &role);
            let resolved = results.iter().filter(|result| result.is_ok()).count();
            // Failures here are expected during churn — the coordinator owns
            // the diagnosis; we just report in and wait for the next plan.
            println!(
                "fleet member {index}: offset {offset} rounds {rounds:?} → {resolved}/{total} resolved"
            );
            continue;
        }
        if frame.round >= spec.rounds {
            if let Some(shipper) = &shipper {
                shipper.ship(true);
            }
            return Ok(());
        }
        (rounds, offset) = (frame.round..frame.end, frame.offset);
        ledger.apply_plan(&frame.evictions, rounds.start);
        if ledger.digest() != frame.digest {
            return Err("eviction-log digest diverged from the coordinator".into());
        }
        let dead = ledger.dead_processes();
        outside = dead.contains(&index);
        if outside {
            continue;
        }
        requested = false;

        // Mirror the agreed membership and derive the planned rounds' jobs,
        // so the go finds them ready; purge dead-epoch residue *before* acking
        // (new-epoch frames can only be sent after the coordinator has our
        // ack), then ack.
        let owner = owner_map_excluding(spec.groups, processes, &dead);
        for (node, &process) in owner.iter().enumerate() {
            transport.set_owner(node, process);
        }
        let jobs = ledger.batch_jobs(spec, rounds.clone(), !spec.sharded)?;
        purge(transport);
        atom_obs::count("fleet.handshake.acks", 1);
        let ack = ledger.handshake(rounds.clone(), index, offset, false);
        transport
            .send_control(0, &ack, Dial::IfNeeded)
            .map_err(|error| format!("coordinator unreachable at ack: {error}"))?;
        acked = Some((hosted_groups(&owner, index), jobs));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netbench::serialize_reports;
    use atom_runtime::RoundDirectory;
    use std::sync::mpsc;

    /// A fleet member on its own thread. Its result comes back over a
    /// channel, so the test awaits it with a deadline: a member that hangs
    /// fails the test by name instead of parking a `join` forever.
    struct Member {
        name: &'static str,
        result: mpsc::Receiver<Result<(), String>>,
        /// Twice the member's plan deadline: a member gives up on a silent
        /// coordinator after one.
        deadline: Duration,
    }

    impl Member {
        /// Process `index`; with `rejoin`, a restarted one asking back in.
        fn spawn(
            name: &'static str,
            spec: &NetSpec,
            addrs: &[String],
            index: usize,
            rejoin: bool,
        ) -> Self {
            let (spec, addrs) = (spec.clone(), addrs.to_vec());
            let deadline = plan_deadline(&spec) * 2;
            let (sender, result) = mpsc::channel();
            std::thread::spawn(move || {
                let _ = sender.send(run_healing_member(&spec, addrs, index, 2, rejoin, || {}));
            });
            Self {
                name,
                result,
                deadline,
            }
        }

        /// The member's result; panics, naming the member, if none arrives
        /// before the deadline or the thread died without one.
        fn result(self) -> Result<(), String> {
            let (name, deadline) = (self.name, self.deadline);
            (self.result.recv_timeout(deadline))
                .unwrap_or_else(|error| panic!("{name}: no result within {deadline:?}: {error}"))
        }
    }

    impl RecoveryLedger {
        /// One round derived and then frozen: what a plan and its go do
        /// to a batch of one.
        fn job_for_round(
            &mut self,
            spec: &NetSpec,
            round: usize,
            with_submissions: bool,
        ) -> Result<RoundJob, String> {
            let mut jobs = self.batch_jobs(spec, round..round + 1, with_submissions)?;
            self.freeze(round..round + 1);
            Ok(jobs.remove(0))
        }
    }

    fn verdict(process: usize, servers: Vec<usize>, round: usize) -> FaultVerdict {
        FaultVerdict {
            round,
            process,
            kind: FaultKind::Dead,
            servers,
            reason: "test".into(),
        }
    }

    #[test]
    fn batch_end_aligns_and_caps() {
        assert_eq!(batch_end(0, 2, 7), 2);
        assert_eq!(batch_end(1, 2, 7), 2);
        assert_eq!(batch_end(2, 2, 7), 4);
        assert_eq!(batch_end(6, 2, 7), 7);
        assert_eq!(batch_end(0, 10, 3), 3);
    }

    #[test]
    fn process_servers_partition_the_server_set() {
        let (num_servers, processes) = (11, 3);
        let mut seen = Vec::new();
        for process in 0..processes {
            seen.extend(process_servers(num_servers, processes, process));
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..num_servers).collect::<Vec<_>>());
    }

    #[test]
    fn owner_map_excluding_reassigns_dead_owners_to_survivors() {
        let owner = owner_map_excluding(5, 3, &[1]);
        // gid % 3 == 1 groups move to a survivor; everyone else stays.
        assert_eq!(owner[0], 0);
        assert_ne!(owner[1], 1);
        assert_eq!(owner[2], 2);
        assert_eq!(owner[3], 0);
        assert_ne!(owner[4], 1);
        // Orchestrator pinned to the coordinator.
        assert_eq!(owner[5], 0);
        // No evictions reproduces the historical round-robin map.
        assert_eq!(owner_map_excluding(5, 3, &[]), vec![0, 1, 2, 0, 1, 0]);
    }

    #[test]
    fn eviction_log_digest_tracks_content() {
        let empty = eviction_log_digest(&[]);
        let one = eviction_log_digest(&[verdict(1, vec![1, 4], 0)]);
        let other = eviction_log_digest(&[verdict(2, vec![2, 5], 0)]);
        assert_ne!(empty, one);
        assert_ne!(one, other);
        assert_eq!(one, eviction_log_digest(&[verdict(1, vec![1, 4], 0)]));
    }

    fn job_fingerprint(job: &RoundJob) -> (Vec<usize>, Vec<usize>, Vec<[u8; 32]>) {
        let RoundDirectory::Full(setup) = &job.directory else {
            panic!("prebuilt directory expected");
        };
        (
            setup.config.evicted_servers.clone(),
            job.failed_servers.clone(),
            setup
                .groups
                .iter()
                .map(|group| group.public_key.0.compress().to_bytes())
                .collect(),
        )
    }

    #[test]
    fn member_mirror_matches_coordinator_ledger() {
        let spec = NetSpec {
            groups: 3,
            rounds: 3,
            messages: 6,
            honest: 2,
            ..NetSpec::default()
        };
        let victims = process_servers(9, 3, 2);

        // Coordinator: build round 0, observe the failure, retry round 0
        // and move on to round 1.
        let mut coordinator = RecoveryLedger::default();
        let before = coordinator.job_for_round(&spec, 0, true).unwrap();
        coordinator.evict(verdict(2, victims.clone(), 0), 0);
        let retried = coordinator.job_for_round(&spec, 0, true).unwrap();
        let reformed = coordinator.job_for_round(&spec, 1, true).unwrap();

        // Member: built round 0 too, then mirrors the plan.
        let mut member = RecoveryLedger::default();
        let _ = member.job_for_round(&spec, 0, true).unwrap();
        member.apply_plan(&coordinator.active, 0);
        assert_eq!(member.digest(), coordinator.digest());
        assert_eq!(member.dead_processes(), vec![2]);
        let member_retried = member.job_for_round(&spec, 0, true).unwrap();
        let member_reformed = member.job_for_round(&spec, 1, true).unwrap();

        // The retried detection round keeps its membership (same DKG keys
        // as the pre-failure build) and heals the victims mid-flight; the
        // next round re-forms without them. Coordinator and member agree
        // byte-for-byte on both.
        let original = job_fingerprint(&before);
        let retried = job_fingerprint(&retried);
        assert_eq!(retried.0, original.0);
        assert_eq!(retried.2, original.2);
        assert_eq!(retried.1, victims);
        assert_eq!(retried, job_fingerprint(&member_retried));
        let reformed = job_fingerprint(&reformed);
        assert_eq!(reformed.0, victims);
        assert!(reformed.1.is_empty());
        assert_eq!(reformed, job_fingerprint(&member_reformed));
    }

    /// A batch derived from a plan that a newer eviction supersedes before
    /// its go freezes nothing: the retried rounds re-form without the
    /// evicted servers instead of healing them under the old membership.
    #[test]
    fn superseded_plan_leaves_no_round_frozen() {
        let spec = NetSpec {
            groups: 3,
            rounds: 4,
            messages: 6,
            honest: 2,
            ..NetSpec::default()
        };
        let victims = process_servers(9, 3, 2);
        let mut ledger = RecoveryLedger::default();
        let planned = ledger.batch_jobs(&spec, 0..2, true).unwrap();
        ledger.evict(verdict(2, victims.clone(), 0), 0);
        let retried = ledger.batch_jobs(&spec, 0..2, true).unwrap();
        for (round, (planned, retried)) in planned.iter().zip(&retried).enumerate() {
            assert!(job_fingerprint(planned).0.is_empty(), "round {round}");
            assert_eq!(ledger.evicted_for(round), victims, "round {round}");
            let (evicted, failed, _) = job_fingerprint(retried);
            assert_eq!(evicted, victims, "round {round} re-forms");
            assert!(failed.is_empty(), "round {round} heals nothing in place");
        }
    }

    /// A fleet of one — the coordinator hosting every group over its own
    /// TCP transport — delivers the bytes of its empty-log reference.
    #[test]
    fn coordinator_only_fleet_matches_its_reference() {
        let spec = NetSpec {
            groups: 3,
            rounds: 2,
            messages: 6,
            ..NetSpec::default()
        };
        let addrs = crate::netbench::free_addrs(1);
        let outcome = run_recovery_coordinator(&spec, spec.rounds, addrs, 2, None, || {})
            .expect("a coordinator-only fleet completes every round");
        assert!(outcome.evictions.is_empty());
        assert_eq!(outcome.epochs, 1, "one handshake, one batch");
        let reference: Vec<RoundReport> = Engine::with_workers(2)
            .run_rounds(fleet_jobs(&spec))
            .into_iter()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(
            serialize_reports(&outcome.reports),
            serialize_reports(&reference)
        );
    }

    #[test]
    fn rejoined_member_rebuilds_identical_fresh_rounds() {
        let spec = NetSpec {
            groups: 3,
            rounds: 4,
            messages: 6,
            honest: 2,
            ..NetSpec::default()
        };
        let mut coordinator = RecoveryLedger::default();
        let _ = coordinator.job_for_round(&spec, 1, true).unwrap();
        coordinator.evict(verdict(2, process_servers(9, 3, 2), 1), 1);
        let _ = coordinator.job_for_round(&spec, 1, true).unwrap();
        let _ = coordinator.job_for_round(&spec, 2, true).unwrap();
        coordinator.readmit(2);
        assert!(coordinator.active.is_empty());
        let fresh = coordinator.job_for_round(&spec, 3, true).unwrap();

        // The restarted process starts from an empty ledger plus the plan.
        let mut rejoiner = RecoveryLedger::default();
        rejoiner.apply_plan(&coordinator.active, 3);
        let mirrored = rejoiner.job_for_round(&spec, 3, true).unwrap();
        assert_eq!(job_fingerprint(&fresh), job_fingerprint(&mirrored));
        assert!(job_fingerprint(&fresh).0.is_empty());
    }

    /// The whole tentpole in one process: a three-"process" fleet (threads
    /// with real TCP transports) loses member 2 between batches, the
    /// coordinator convicts it on the handshake timeout and re-plans with the
    /// verdict, the survivors re-form its groups and keep delivering, a
    /// restarted member 2 rejoins on the same address mid-run — and the
    /// final outputs are byte-identical to an in-memory rebuild from the
    /// eviction log.
    #[test]
    fn fleet_evicts_dead_member_heals_and_readmits_rejoiner() {
        let spec = NetSpec {
            groups: 3,
            rounds: 6,
            messages: 6,
            iterations: 2,
            seed: 0x4EA1,
            stall_timeout: Duration::from_secs(1),
            honest: 2,
            ..NetSpec::default()
        };
        let addrs = crate::netbench::free_addrs(3);
        let batch = 1;

        let m1 = Member::spawn("member 1", &spec, &addrs, 1, false);
        // Process 2's first incarnation believes the workload is one round
        // long: it completes round 0, then exits and shuts its transport
        // down when the round-1 plan arrives — an abrupt disappearance as
        // far as the rest of the fleet is concerned.
        let one_round = NetSpec {
            rounds: 1,
            ..spec.clone()
        };
        let m2a = Member::spawn("member 2, first incarnation", &one_round, &addrs, 2, false);
        // Its second incarnation restarts on the same address once the
        // fleet has demonstrably healed (first post-eviction round done)
        // and asks to rejoin.
        let restarted: Arc<Mutex<Option<Member>>> = Arc::new(Mutex::new(None));
        let hook: RoundCompleteHook = {
            let restarted = restarted.clone();
            let (spec, addrs) = (spec.clone(), addrs.clone());
            Arc::new(move |round| {
                if round == 1 {
                    let member = Member::spawn("member 2, rejoiner", &spec, &addrs, 2, true);
                    restarted
                        .lock()
                        .unwrap_or_else(|poison| poison.into_inner())
                        .replace(member);
                }
            })
        };

        let outcome = run_recovery_coordinator(&spec, batch, addrs, 2, Some(hook), || {})
            .expect("recovery completes every round");

        assert!(m2a.result().is_ok(), "first incarnation exits cleanly");
        assert!(m1.result().is_ok(), "surviving member exits cleanly");
        let m2b = restarted
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .take()
            .expect("restart scheduled at the first healed round");
        assert!(m2b.result().is_ok(), "rejoiner exits cleanly");

        // Exactly process 2 was convicted, as dead, and later readmitted.
        let convicted: Vec<usize> = outcome.evictions.iter().map(|v| v.process).collect();
        assert_eq!(convicted, vec![2]);
        assert!(matches!(outcome.evictions[0].kind, FaultKind::Dead));
        assert_eq!(outcome.rejoins.len(), 1);
        let (process, round) = outcome.rejoins[0];
        assert_eq!(process, 2);
        assert!(
            round > 1 && round < spec.rounds,
            "readmitted mid-run, not at the end (round {round})"
        );
        // The rejoined process hosts groups again from that round on.
        assert!(!hosted_groups(&owner_map_excluding(spec.groups, 3, &[]), 2).is_empty());

        // Every round delivered despite the churn, and the healing
        // latency was measured.
        let delivered: usize = outcome
            .reports
            .iter()
            .map(|r| r.output.plaintexts.len())
            .sum();
        assert_eq!(delivered, spec.rounds * spec.messages);
        assert!(outcome.detected_at.is_some());
        assert!(outcome.healed_latency.is_some());
        assert!(!outcome.healed_rounds.is_empty());

        // Byte-determinism given the eviction log: an in-memory rebuild
        // from the recorded per-round membership matches the fleet.
        let reference =
            build_healed_reference(&spec, &outcome.round_evicted, &outcome.round_failed);
        assert_eq!(
            serialize_reports(&outcome.reports),
            serialize_reports(&reference)
        );
        // Round 0 ran with full membership, the rounds after the death
        // re-formed without process 2's servers, and the rounds after
        // readmission include them again.
        assert!(outcome.round_evicted[0].is_empty());
        assert_eq!(outcome.round_evicted[1], process_servers(9, 3, 2));
        assert!(outcome.round_evicted[round].is_empty());
    }

    /// Slow-loris chaos drill: process 1 drips frames slowly enough to keep
    /// the stall detector happy forever, so only the coordinator's round
    /// clock can catch it. The drill asserts the full arc — `Slow`
    /// conviction, the courtesy plan reaching the evicted-but-alive member,
    /// its rejoin and readmission, a fresh conviction after every
    /// readmission — and that the healed rounds are byte-identical to an
    /// in-memory rebuild from the recorded per-round membership.
    #[test]
    fn fleet_convicts_slow_loris_member_and_heals() {
        let loris = Duration::from_secs(5);
        let spec = NetSpec {
            groups: 3,
            rounds: 3,
            messages: 6,
            iterations: 2,
            seed: 0x510E,
            // The drip (one 5 s straggle per step, at the transport) never
            // leaves a 20 s progress gap; the 5 s round clock fires long
            // before the member's ~10 s round could finish.
            stall_timeout: Duration::from_secs(20),
            round_deadline: Duration::from_secs(5),
            loris,
            honest: 2,
            ..NetSpec::default()
        };
        let addrs = crate::netbench::free_addrs(3);
        let batch = 1;

        let m1 = Member::spawn("loris member 1", &spec, &addrs, 1, false);
        let m2 = Member::spawn("honest member 2", &spec, &addrs, 2, false);
        // Gate: hold the coordinator at the first healed round until the
        // convicted member has certainly woken from its drip and sent its
        // rejoin request (bounded by one residual drip plus slack), so at
        // least one readmission happens before the final batch boundary.
        // One residual drip holds because `slow_groups` delays one frame
        // per step (the group's frame to itself, or its exit frame), not
        // one per neighbour, and the group's next step waits on that frame.
        // WHICH boundary collects the request still races the member's
        // wake-up, so the assertions below are boundary-agnostic.
        let hook: RoundCompleteHook = Arc::new(move |round| {
            if round == 0 {
                std::thread::sleep(loris + Duration::from_secs(2));
            }
        });

        let outcome = run_recovery_coordinator(&spec, batch, addrs, 2, Some(hook), || {})
            .expect("recovery completes every round");
        assert!(
            m1.result().is_ok(),
            "loris member exits cleanly on the done sentinel"
        );
        assert!(m2.result().is_ok(), "honest member exits cleanly");

        // Convicted as slow (not dead, not blamed) every time it was
        // admitted: once in the original membership, once more after every
        // readmission — the drip always outlives the round clock.
        assert_eq!(
            outcome.evictions.len(),
            outcome.rejoins.len() + 1,
            "one conviction per admission: {:?} vs {:?}",
            outcome.evictions,
            outcome.rejoins
        );
        for verdict in &outcome.evictions {
            assert_eq!(verdict.process, 1);
            assert!(
                matches!(verdict.kind, FaultKind::Slow),
                "expected a Slow verdict: {verdict:?}"
            );
        }
        // The courtesy plan told the evicted-but-alive member about its
        // eviction; it asked back in and was readmitted at a later batch
        // boundary (which one depends on when its wake-up races the epoch
        // purge — any admitted round except the first qualifies).
        assert!(!outcome.rejoins.is_empty(), "never readmitted");
        for &(process, round) in &outcome.rejoins {
            assert_eq!(process, 1);
            assert!((1..spec.rounds).contains(&round), "rejoin at {round}");
        }

        // Liveness floor: every round delivered despite repeated evictions.
        let delivered: usize = outcome
            .reports
            .iter()
            .map(|r| r.output.plaintexts.len())
            .sum();
        assert_eq!(delivered, spec.rounds * spec.messages);
        assert!(outcome.detected_at.is_some());

        // Byte-determinism given the eviction log: an in-memory rebuild
        // from the recorded per-round membership matches the fleet.
        let reference =
            build_healed_reference(&spec, &outcome.round_evicted, &outcome.round_failed);
        assert_eq!(
            serialize_reports(&outcome.reports),
            serialize_reports(&reference)
        );
    }

    #[test]
    fn healed_reference_is_deterministic() {
        let spec = NetSpec {
            groups: 3,
            rounds: 2,
            messages: 6,
            iterations: 2,
            honest: 2,
            ..NetSpec::default()
        };
        let evicted = vec![Vec::new(), process_servers(9, 3, 2)];
        let failed = vec![Vec::new(), Vec::new()];
        let once = serialize_reports(&build_healed_reference(&spec, &evicted, &failed));
        let twice = serialize_reports(&build_healed_reference(&spec, &evicted, &failed));
        assert_eq!(once, twice);
        // And the eviction actually changes the mixed bytes' routing
        // history relative to the intact fleet: same plaintext count,
        // independently derivable either way.
        let intact = build_healed_reference(&spec, &[Vec::new(), Vec::new()], &failed);
        assert_eq!(
            intact
                .iter()
                .map(|r| r.output.plaintexts.len())
                .sum::<usize>(),
            spec.rounds * spec.messages
        );
    }

    /// A batch whose middle round alone fails while the later rounds
    /// succeed: round 1's job carries a hostile client submission (one
    /// rebound to another entry group without a fresh proof), so its intake
    /// check fails. Rounds 2 and 3 have their reports, so the retry plans
    /// round 1 alone: its engine run holds that one job, each round's
    /// report is its first success and each completion hook fires once.
    #[test]
    fn a_retried_batch_keeps_each_completed_rounds_first_success() {
        let spec = NetSpec {
            groups: 3,
            rounds: 4,
            messages: 6,
            ..NetSpec::default()
        };
        let fired = Arc::new(Mutex::new(vec![0usize; spec.rounds]));
        let hook: RoundCompleteHook = {
            let fired = Arc::clone(&fired);
            Arc::new(move |round| fired.lock().unwrap()[round] += 1)
        };
        let transport = join_fleet(&spec, crate::netbench::free_addrs(1), 0).unwrap();
        let mut coordinator = Coordinator::new(&spec, spec.rounds, &transport, 1, 2, Some(hook));
        coordinator.epoch = 1;
        let (awaiting, mut jobs) = coordinator.plan().unwrap().expect("no member to reach");
        assert!(coordinator.acks(&awaiting).unwrap() && coordinator.commit(&awaiting).unwrap());
        let RoundSubmissions::Trap(submissions) = &mut jobs[1].submissions else {
            panic!("fleet rounds are trap rounds");
        };
        submissions[2].entry_group = (submissions[2].entry_group + 1) % spec.groups;
        coordinator.run_batch(jobs).unwrap();
        assert_eq!(coordinator.next, 1, "round 1 alone failed");
        let first: Vec<Option<Duration>> = coordinator
            .reports
            .iter()
            .map(|report| report.as_ref().map(|report| report.wall_clock))
            .collect();
        assert!(first[1].is_none() && first[2].is_some() && first[3].is_some());

        coordinator.epoch = 2;
        let (awaiting, retry) = coordinator.plan().unwrap().expect("no member to reach");
        assert_eq!(coordinator.attempt, 1..2, "the retry plans round 1 alone");
        assert_eq!(retry.len(), 1, "the retry's engine run holds one job");
        assert!(coordinator.acks(&awaiting).unwrap() && coordinator.commit(&awaiting).unwrap());
        coordinator.run_batch(retry).unwrap();
        assert_eq!(coordinator.next, spec.rounds, "the retry completes round 1");
        let outcome = coordinator.outcome(Instant::now());
        transport.shutdown();
        assert_eq!(
            *fired.lock().unwrap(),
            vec![1; spec.rounds],
            "each round's hook fires once"
        );
        for round in [0, 2, 3] {
            assert_eq!(
                Some(outcome.reports[round].wall_clock),
                first[round],
                "round {round}'s report is its first success"
            );
        }
        let reference =
            build_healed_reference(&spec, &outcome.round_evicted, &outcome.round_failed);
        assert_eq!(
            serialize_reports(&outcome.reports),
            serialize_reports(&reference)
        );
    }

    /// Recording is process-global, so the traced tests here hold this.
    static OBS_LOCK: Mutex<()> = Mutex::new(());

    /// A failed attempt leaves its reason in the fleet's telemetry although
    /// its retry succeeds: round 1's intake rejects a rebound submission in
    /// epoch 1, so the coordinator's `RecoveryOutcome::telemetry` notes the
    /// rejection at that attempt's wire round, `epoch × batch + 1`.
    #[test]
    fn a_failed_attempt_leaves_its_reason_in_the_fleet_telemetry() {
        let _guard = OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let spec = NetSpec {
            groups: 3,
            rounds: 4,
            messages: 6,
            trace: true,
            ..NetSpec::default()
        };
        let transport = join_fleet(&spec, crate::netbench::free_addrs(1), 0).unwrap();
        let mut coordinator = Coordinator::new(&spec, spec.rounds, &transport, 1, 2, None);
        coordinator.epoch = 1;
        let (awaiting, mut jobs) = coordinator.plan().unwrap().expect("no member to reach");
        assert!(coordinator.acks(&awaiting).unwrap() && coordinator.commit(&awaiting).unwrap());
        let RoundSubmissions::Trap(submissions) = &mut jobs[1].submissions else {
            panic!("fleet rounds are trap rounds");
        };
        submissions[2].entry_group = (submissions[2].entry_group + 1) % spec.groups;
        coordinator.run_batch(jobs).unwrap();
        assert_eq!(coordinator.next, 1, "round 1 alone failed");
        coordinator.run().expect("the retry completes round 1");
        let outcome = coordinator.outcome(Instant::now());
        transport.shutdown();
        atom_obs::set_enabled(false);

        let failed_attempt = (spec.rounds + 1) as u32;
        let notes: Vec<&atom_obs::SpanRecord> = (outcome.telemetry.iter())
            .filter(|snapshot| snapshot.process == 0)
            .flat_map(|snapshot| snapshot.spans.iter())
            .filter(|span| span.phase == "failed" && span.round == failed_attempt)
            .collect();
        assert!(
            notes
                .iter()
                .any(|span| span.note.contains("submission rejected")),
            "no note of the intake rejection at wire round {failed_attempt}: {notes:?}"
        );
    }

    /// A batch-1 run opens an epoch per round, so a long run reaches epoch
    /// 4,096 near round 4k: the fence `heal` builds for it must still fit
    /// the frames' u32 round field and deliver.
    #[test]
    fn epoch_fence_fits_the_wire_past_epoch_4096() {
        let spec = NetSpec {
            groups: 3,
            rounds: 1,
            messages: 6,
            honest: 2,
            ..NetSpec::default()
        };
        let job = RecoveryLedger::default()
            .job_for_round(&spec, 0, true)
            .unwrap();
        // Epoch 4,096 of batch-1 attempts: offset 4,096 × 1.
        let options = engine_options(&spec, 2, 4_096, 0);
        let report = Engine::new(options).run_rounds(vec![job]).pop().unwrap();
        let report = report.expect("epoch 4,096 delivers");
        assert_eq!(report.output.plaintexts.len(), spec.messages);
    }

    /// A seeded walk over the coordinator's ledger calls — batch builds,
    /// convictions at the retry round, readmissions at a healed boundary —
    /// with a member mirroring every plan through `apply_plan`: both sides
    /// build the same job for every committed round.
    #[test]
    fn ledger_mirror_agrees_over_a_seeded_walk() {
        use rand::Rng;
        let spec = NetSpec {
            groups: 3,
            rounds: 10_000,
            messages: 6,
            honest: 2,
            ..NetSpec::default()
        };
        let mut rng = StdRng::seed_from_u64(0x1ED6E4);
        let mut coordinator = RecoveryLedger::default();
        let mut member = RecoveryLedger::default();
        // `next` is the round the next plan starts at; `healed` whether a
        // batch just succeeded there — the only place readmission happens.
        let (mut next, mut healed) = (0, true);
        let (mut commits, mut evictions, mut readmissions) = (0, 0, 0);
        for step in 0..200 {
            match rng.gen_range(0..4) {
                0 => {
                    let process = rng.gen_range(1..3);
                    if !coordinator.dead_processes().contains(&process) {
                        let servers = process_servers(9, 3, process);
                        coordinator.evict(verdict(process, servers, next), next);
                        (healed, evictions) = (false, evictions + 1);
                    }
                }
                1 if healed => {
                    if let Some(&process) = coordinator.dead_processes().first() {
                        coordinator.readmit(process);
                        readmissions += 1;
                    }
                }
                _ => {
                    member.apply_plan(&coordinator.active, next);
                    assert_eq!(member.digest(), coordinator.digest(), "step {step}");
                    let end = batch_end(next, 3, spec.rounds);
                    for round in next..end {
                        let ours = coordinator.job_for_round(&spec, round, false);
                        let theirs = member.job_for_round(&spec, round, false);
                        assert_eq!(
                            ours.map(|job| job_fingerprint(&job)),
                            theirs.map(|job| job_fingerprint(&job)),
                            "step {step}, round {round}"
                        );
                    }
                    // The batch completes, or fails from some round on.
                    (next, healed) = if rng.gen_bool(0.5) {
                        (end, true)
                    } else {
                        (rng.gen_range(next..end), false)
                    };
                    commits += 1;
                }
            }
        }
        assert!(commits > 50 && evictions > 10 && readmissions > 3);
    }
}
