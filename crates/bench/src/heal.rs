//! Membership churn, eviction and round recovery for multi-process fleets.
//!
//! The plain multi-process harness ([`crate::netbench`]) treats a vanished
//! peer as fatal: rounds fail with per-round errors and the sweep ends. This
//! module makes the fleet *heal* instead. The coordinator runs rounds in
//! batches; between batches the fleet passes a two-phase membership
//! handshake, so every process agrees — before any protocol frame of the
//! next batch is sent — on who is dead, which rounds are being retried, and
//! which wire-round namespace (epoch) the batch runs in.
//!
//! ## The recovery loop
//!
//! ```text
//!            ┌────────────────────────────────────────────────────┐
//!            ▼                                                    │
//!   plan ──▶ ack ──▶ drain ──▶ go ──▶ run batch ──▶ ok? ── yes ──▶ advance,
//!   (evictions,      (purge    (commit)             │              readmit
//!    retry round,     stale                         no             rejoiners
//!    epoch, digest)   frames)                       │
//!                                                   ▼
//!                      diagnose lowest failed round → FaultVerdict
//!                      gossip `evict` frame, extend the eviction log,
//!                      re-plan from that round (new epoch)
//! ```
//!
//! **Detection.** A dead process surfaces either as an engine failure
//! (a send error → `TransportLost`, or the stall detector) that
//! [`FaultVerdict::diagnose`] pins on a process, or as a handshake timeout
//! (a member that never acks a plan). Either way the coordinator convicts,
//! gossips the structured verdict to the survivors in a kind-tagged `evict`
//! frame, and re-plans.
//!
//! **Healing.** The retried detection round keeps the membership its
//! directory was built with (frozen in the [`RecoveryLedger`]) and instead
//! marks the evicted servers *failed*, so groups heal by Lagrange
//! reweighting where `k − (h−1)` members remain and by buddy-group escrow
//! reconstruction below that — the paper's §4.5 fault path. Rounds after
//! the detection round re-derive their directories with the evicted servers
//! excluded (the beacon remaps each group onto survivors), which is the
//! re-formation path. Both derivations are pure functions of the spec and
//! the eviction log, so every process computes identical directories and
//! round outputs stay byte-deterministic given the log.
//!
//! **Epoch fencing.** Each batch attempt runs with a disjoint wire-round
//! range (`EngineOptions::round_offset = epoch × EPOCH_STRIDE`). A frame
//! straggling in from a failed attempt therefore cannot alias a retried
//! round — the engine drops it as stale — which makes the retry loop safe
//! even though TCP ordering guarantees nothing across connections.
//!
//! **Rejoin.** A restarted process binds its old address, sends a `rejoin`
//! request carrying its (empty) log digest, and waits. The coordinator
//! collects requests whenever it reads control traffic and readmits at the
//! next *successful* batch boundary: the rejoiner's verdicts are pruned
//! from the log, the node→process map re-includes it, and the next plan —
//! which doubles as the catch-up reply, carrying the authoritative eviction
//! log and current round — puts it back to work hosting groups.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use atom_core::config::AtomConfig;
use atom_core::directory::{derive_setup, RoundSetup};
use atom_core::message::TrapSubmission;
use atom_net::{Dial, SendError, TcpOptions, TcpTransport, Transport};
use atom_runtime::wire::{self, EvictFrame, Frame, RejoinFrame};
use atom_runtime::{
    new_control_sink, ControlSink, Engine, EngineOptions, EngineRole, FaultKind, FaultVerdict,
    RoundCompleteHook, RoundJob, RoundReport, RoundSubmissions, EVICT_LABEL, REJOIN_LABEL,
};

use crate::netbench::{hosted_groups, round_config, round_submissions, NetSpec};

/// Wire-round ids per epoch: batch attempt `e` runs rounds
/// `e × EPOCH_STRIDE ..`, so a straggler frame from attempt `e − 1` can
/// never decode to a round of attempt `e`. A u32 wire round holds 4,096
/// epochs of this stride. At batch 1 every round opens at least one epoch
/// (a run may use up to `rounds × 3 + 24`), so a run of more than 4,096
/// rounds — fewer, with retries — reaches it: the engine then fails the
/// batch with an `AtomError::Config` naming `round_offset`.
pub const EPOCH_STRIDE: usize = 1 << 20;

/// How long either side polls between control-frame reads.
const CONTROL_POLL: Duration = Duration::from_millis(2);

/// Bounded retries of one batch when a failure yields no actionable
/// verdict (e.g. a protocol abort that implicates no process).
const MAX_STUCK_RETRIES: usize = 3;

/// The servers hosted by fleet process `process`: server `s` lives on
/// process `s mod processes`, so the partition is a pure function every
/// process computes identically — and the conversion from a dead process
/// to its lost servers needs no directory lookup.
pub fn process_servers(num_servers: usize, processes: usize, process: usize) -> Vec<usize> {
    (0..num_servers)
        .filter(|s| s % processes == process)
        .collect()
}

/// The node→process map with `dead` processes excluded: a group keeps its
/// round-robin owner while that owner lives, and is otherwise reassigned
/// round-robin over the survivors. The orchestrator node (always last)
/// stays on the coordinator, which never appears in `dead`.
pub fn owner_map_excluding(groups: usize, processes: usize, dead: &[usize]) -> Vec<usize> {
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
/// to multiples of `batch`, capped at `rounds`. Re-formation and
/// readmission happen only at these boundaries.
pub fn batch_end(round: usize, batch: usize, rounds: usize) -> usize {
    assert!(batch >= 1, "batch must be at least one round");
    (((round / batch) + 1) * batch).min(rounds)
}

/// A 32-byte integrity digest of an eviction log: four independent FNV-64
/// lanes over the canonical `evict`-frame encoding of each verdict, in log
/// order. Good enough to catch divergence between the coordinator's log
/// and a member's mirror (its only job — this is not an adversarial hash).
pub fn eviction_log_digest(log: &[FaultVerdict]) -> [u8; 32] {
    let mut bytes = Vec::new();
    for verdict in log {
        bytes.extend_from_slice(&wire::encode_evict(&EvictFrame {
            verdict: verdict.clone(),
        }));
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
/// [`RecoveryLedger::apply_plan`]. Given the same eviction history both
/// paths produce byte-identical round jobs — asserted by unit test.
#[derive(Clone, Debug, Default)]
pub struct RecoveryLedger {
    /// Standing verdicts: one entry per conviction whose process is still
    /// out. This is the log plans and digests cover.
    active: Vec<FaultVerdict>,
    /// round → evicted-server set its directory was built with. Frozen at
    /// first build so a *retried* detection round keeps the membership its
    /// submissions and peers' directories were derived under — it heals by
    /// Lagrange/escrow instead of re-forming.
    frozen: BTreeMap<usize, Vec<usize>>,
    /// round → servers that failed mid-flight for that round (the frozen
    /// detection round's Lagrange/escrow set).
    failed: BTreeMap<usize, Vec<usize>>,
}

impl RecoveryLedger {
    /// The standing eviction log, in conviction order.
    pub fn active(&self) -> &[FaultVerdict] {
        &self.active
    }

    /// The processes currently evicted, ascending.
    pub fn dead_processes(&self) -> Vec<usize> {
        let set: BTreeSet<usize> = self.active.iter().map(|v| v.process).collect();
        set.into_iter().collect()
    }

    /// The servers currently evicted, ascending and deduplicated.
    pub fn active_servers(&self) -> Vec<usize> {
        let set: BTreeSet<usize> = self
            .active
            .iter()
            .flat_map(|v| v.servers.iter().copied())
            .collect();
        set.into_iter().collect()
    }

    /// The digest members must echo in their acks.
    pub fn digest(&self) -> [u8; 32] {
        eviction_log_digest(&self.active)
    }

    /// The evicted-server set round `round`'s directory was (or will be)
    /// built with.
    pub fn evicted_for(&self, round: usize) -> Vec<usize> {
        self.frozen
            .get(&round)
            .cloned()
            .unwrap_or_else(|| self.active_servers())
    }

    /// The mid-flight failure set of round `round`.
    pub fn failed_for(&self, round: usize) -> Vec<usize> {
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

    /// Coordinator side: convict `verdict`, retrying from `retry_round`.
    /// The retried round keeps its frozen membership and gains the newly
    /// lost servers as mid-flight failures; every later round is unfrozen
    /// so its directory re-forms over the survivors.
    pub fn evict(&mut self, verdict: FaultVerdict, retry_round: usize) {
        let known = self.active_servers();
        let fresh: Vec<usize> = verdict
            .servers
            .iter()
            .copied()
            .filter(|s| !known.contains(s))
            .collect();
        self.active.push(verdict);
        self.note_failures(retry_round, &fresh);
        self.frozen.retain(|&round, _| round <= retry_round);
        self.failed.retain(|&round, _| round <= retry_round);
    }

    /// Coordinator side: welcome `process` back. Its standing verdicts are
    /// pruned; rounds planned from now on include it again.
    pub fn readmit(&mut self, process: usize) {
        self.active.retain(|v| v.process != process);
    }

    /// Member side: adopt the coordinator's authoritative plan for a batch
    /// starting at `plan_round`. Mirrors [`RecoveryLedger::evict`] exactly
    /// — new servers relative to our log become mid-flight failures of the
    /// retried round (if we had frozen it), later rounds unfreeze.
    pub fn apply_plan(&mut self, evictions: &[FaultVerdict], plan_round: usize) {
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

    /// The job for `round` under the current log, freezing the round's
    /// membership on first build. Members pass `with_submissions: false`
    /// under a sharded spec (they never derive non-hosted DKGs); everyone
    /// else derives the full healed directory and the round's submissions.
    /// Errors if the log leaves too few survivors to fill a group.
    pub fn job_for_round(
        &mut self,
        spec: &NetSpec,
        round: usize,
        with_submissions: bool,
    ) -> Result<RoundJob, String> {
        let fallback = self.active_servers();
        let evicted = self.frozen.entry(round).or_insert(fallback).clone();
        let mut config = round_config(spec, round);
        config.evicted_servers = evicted;
        config.validate().map_err(|error| {
            format!("round {round} config invalid under eviction log: {error:?}")
        })?;
        Ok(heal_job(
            spec,
            config,
            round,
            self.failed_for(round),
            with_submissions,
        ))
    }
}

/// Submissions for one healed round, from a stream keyed on `(seed, round)`
/// alone — unlike `build_jobs`' rng, which threads across rounds — so the
/// recovery loop can re-derive any single round in isolation. They encrypt
/// to the entry groups' DKG keys, which derive from the beacon and not from
/// membership, so the same submission bytes stay valid under any eviction.
fn heal_submissions(spec: &NetSpec, round: usize, setup: &RoundSetup) -> Vec<TrapSubmission> {
    let mut rng = StdRng::seed_from_u64(
        spec.seed ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x4845_414C,
    );
    round_submissions(spec, round, setup, &mut rng)
}

fn heal_job(
    spec: &NetSpec,
    config: AtomConfig,
    round: usize,
    failed: Vec<usize>,
    with_submissions: bool,
) -> RoundJob {
    let seed = spec.seed.wrapping_add(round as u64);
    let mut job = if spec.sharded {
        let submissions = if with_submissions {
            let setup = derive_setup(&config).expect("derive healed directory");
            heal_submissions(spec, round, &setup)
        } else {
            Vec::new()
        };
        RoundJob::sharded(config, RoundSubmissions::Trap(submissions), seed)
    } else {
        let setup = derive_setup(&config).expect("derive healed directory");
        let submissions = if with_submissions {
            heal_submissions(spec, round, &setup)
        } else {
            Vec::new()
        };
        RoundJob::new(setup, RoundSubmissions::Trap(submissions), seed)
    };
    job.failed_servers = failed;
    job
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
    /// When the first fault was detected, relative to run start.
    pub detected_at: Option<Duration>,
    /// Detection → completion of the first round finished after detection:
    /// the paper-facing recovery latency.
    pub healed_latency: Option<Duration>,
    /// Global rounds completed after the first detection, ascending.
    pub healed_rounds: Vec<usize>,
    /// Wall clock of the whole recovered run.
    pub wall: Duration,
}

/// Sends one handshake frame straight to `process`. An error (after the
/// transport's one reconnect attempt) means the peer vanished; at a
/// handshake site that error *is* the detection signal.
fn send_control(
    transport: &TcpTransport,
    process: usize,
    orch: usize,
    label: &'static str,
    payload: Vec<u8>,
) -> Result<(), SendError> {
    let label = Cow::Borrowed(label);
    transport.send_to_process(process, orch, orch, label, payload, Dial::IfNeeded)
}

/// Pulls every control frame available right now: the engine's control
/// sink (frames that arrived mid-run) plus the orchestrator mailbox
/// (frames that arrived between runs). Non-control traffic in the mailbox
/// is dropped — it is by definition stale protocol residue.
fn collect_control(
    transport: &TcpTransport,
    sink: &ControlSink,
    orch: usize,
    inbox: &mut Vec<Frame>,
) {
    inbox.extend(std::mem::take(&mut *sink.lock()));
    for envelope in Transport::drain(transport, orch) {
        if let Ok(frame) = wire::decode(&envelope.payload) {
            if matches!(frame, Frame::Evict(_) | Frame::Rejoin(_)) {
                inbox.push(frame);
            }
        }
    }
}

/// Purges every mailbox of frames from dead epochs. Safe on the
/// coordinator once all acks are in (per-connection ordering puts any
/// member's protocol frames before its ack) and on a member before it
/// acks; the epoch fence backstops whatever arrives later.
fn purge_mailboxes(
    transport: &TcpTransport,
    sink: &ControlSink,
    orch: usize,
    inbox: &mut Vec<Frame>,
) {
    collect_control(transport, sink, orch, inbox);
    for node in 0..Transport::nodes(transport) {
        if node != orch {
            let _ = Transport::drain(transport, node);
        }
    }
}

fn engine_options(
    spec: &NetSpec,
    workers: usize,
    sink: &ControlSink,
    epoch: usize,
    process: usize,
) -> EngineOptions {
    let mut options = EngineOptions::with_workers(workers);
    options.stall_timeout = spec.stall_timeout;
    if !spec.delay.is_zero() {
        options.stragglers = (0..spec.groups).map(|gid| (gid, spec.delay)).collect();
    }
    if process == 0 {
        // The round clock is the coordinator's alone: it owns the diagnosis,
        // and a member that also deadlined would race its abort against the
        // coordinator's verdict (turning `Slow` into `Blamed`).
        options.round_deadline = spec.round_deadline;
    } else if process == 1 && !spec.loris.is_zero() {
        // Chaos knob: member process 1 plays the slow loris, dripping its
        // hosted groups' iterations slowly enough to defeat the stall
        // detector but not the round clock.
        options.stragglers = (0..spec.groups).map(|gid| (gid, spec.loris)).collect();
    }
    options.control_sink = Some(sink.clone());
    options.round_offset = epoch * EPOCH_STRIDE;
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

/// Runs the coordinator (process 0) of a self-healing deployment: rounds
/// in batches of `batch`, the eviction → re-formation → rejoin loop from
/// the module docs, until every round of the spec has an authoritative
/// report. `on_round` fires with each global round as it completes — the
/// chaos tests use it to schedule kills and restarts mid-run.
pub fn run_recovery_coordinator(
    spec: &NetSpec,
    batch: usize,
    addrs: Vec<String>,
    workers: usize,
    on_round: Option<RoundCompleteHook>,
) -> Result<RecoveryOutcome, String> {
    let processes = addrs.len();
    assert!(processes >= 2, "a fleet needs at least one member");
    if spec.trace {
        atom_obs::set_process(0);
        atom_obs::set_enabled(true);
    }
    let start = Instant::now();
    let orch = spec.groups;
    let config = round_config(spec, 0);
    let (num_servers, group_size) = (config.num_servers, config.group_size);

    let transport = TcpTransport::bind(
        addrs,
        owner_map_excluding(spec.groups, processes, &[]),
        0,
        TcpOptions::default(),
    )
    .map_err(|error| format!("bind coordinator transport: {error}"))?;
    transport
        .connect_peers()
        .map_err(|error| format!("connect to fleet: {error}"))?;

    let sink = new_control_sink();
    let completions: Arc<Mutex<Vec<(usize, Instant)>>> = Arc::new(Mutex::new(Vec::new()));
    let mut inbox: Vec<Frame> = Vec::new();
    let mut ledger = RecoveryLedger::default();
    let mut live = vec![true; processes];
    let mut pending_rejoin: BTreeSet<usize> = BTreeSet::new();
    let mut reports: Vec<Option<RoundReport>> = (0..spec.rounds).map(|_| None).collect();
    let mut round_evicted = vec![Vec::new(); spec.rounds];
    let mut round_failed = vec![Vec::new(); spec.rounds];
    let mut evictions: Vec<FaultVerdict> = Vec::new();
    let mut rejoins: Vec<(usize, usize)> = Vec::new();
    let mut detected_instant: Option<Instant> = None;
    let mut next = 0usize;
    let mut epoch = 0usize;
    let mut stuck = 0usize;
    let max_epochs = spec.rounds * 3 + 24;

    // Convicts a process: capacity check, gossip the verdict to survivors
    // in an `evict` frame, extend the log, mark dead.
    let convict = |verdict: FaultVerdict,
                   retry_round: usize,
                   transport: &TcpTransport,
                   ledger: &mut RecoveryLedger,
                   live: &mut [bool],
                   evictions: &mut Vec<FaultVerdict>,
                   detected_instant: &mut Option<Instant>|
     -> Result<(), String> {
        let mut lost: BTreeSet<usize> = ledger.active_servers().into_iter().collect();
        lost.extend(verdict.servers.iter().copied());
        if num_servers - lost.len() < group_size {
            return Err(format!(
                "evicting process {} would leave {} servers, fewer than one group ({group_size})",
                verdict.process,
                num_servers - lost.len()
            ));
        }
        detected_instant.get_or_insert_with(Instant::now);
        atom_obs::count("fleet.evictions", 1);
        println!(
            "recovery: evicting process {} ({}) at round {}: {}",
            verdict.process, verdict.kind, retry_round, verdict.reason
        );
        let frame = wire::encode_evict(&EvictFrame {
            verdict: verdict.clone(),
        });
        live[verdict.process] = false;
        for (process, alive) in live.iter().enumerate().skip(1) {
            if *alive {
                let _ = send_control(transport, process, orch, EVICT_LABEL, frame.clone());
            }
        }
        ledger.evict(verdict.clone(), retry_round);
        evictions.push(verdict);
        Ok(())
    };

    let run: Result<(), String> = 'epochs: loop {
        if next >= spec.rounds {
            break Ok(());
        }
        epoch += 1;
        if epoch > max_epochs {
            break Err(format!(
                "recovery made no progress within {max_epochs} epochs"
            ));
        }
        let end = batch_end(next, batch, spec.rounds);

        // Phase 1: the plan — retry round, eviction log, epoch, digest.
        let plan = RejoinFrame {
            round: next,
            process: 0,
            epoch,
            response: true,
            commit: false,
            digest: ledger.digest(),
            evictions: ledger.active().to_vec(),
        };
        atom_obs::count("fleet.handshake.plans", 1);
        let mut awaiting: BTreeSet<usize> = BTreeSet::new();
        for process in 1..processes {
            if !live[process] {
                // A convicted process may be gone — or merely slow and still
                // listening (a slow-loris eviction). Courtesy-copy it the
                // plan over any still-open stream, without awaiting an ack:
                // seeing itself on the dead list is what prompts its rejoin
                // request. Best-effort by design — a crashed peer must not
                // cost a connect-timeout stall per epoch.
                let _ = transport.send_to_process(
                    process,
                    orch,
                    orch,
                    Cow::Borrowed(REJOIN_LABEL),
                    wire::encode_rejoin(&plan),
                    Dial::Never,
                );
                continue;
            }
            match send_control(
                &transport,
                process,
                orch,
                REJOIN_LABEL,
                wire::encode_rejoin(&plan),
            ) {
                Ok(()) => {
                    awaiting.insert(process);
                }
                Err(SendError { process, error }) => {
                    let verdict = FaultVerdict {
                        round: next,
                        process,
                        kind: FaultKind::Dead,
                        servers: process_servers(num_servers, processes, process),
                        reason: format!("unreachable during handshake: {error}"),
                    };
                    if let Err(error) = convict(
                        verdict,
                        next,
                        &transport,
                        &mut ledger,
                        &mut live,
                        &mut evictions,
                        &mut detected_instant,
                    ) {
                        break 'epochs Err(error);
                    }
                    stuck = 0;
                    continue 'epochs;
                }
            }
        }

        // Collect acks; anything else that shows up is a rejoin request.
        let deadline = Instant::now() + ack_deadline(spec);
        let mut acked: BTreeSet<usize> = BTreeSet::new();
        while acked.len() < awaiting.len() {
            collect_control(&transport, &sink, orch, &mut inbox);
            for frame in inbox.drain(..) {
                let Frame::Rejoin(frame) = frame else {
                    continue;
                };
                if frame.response || frame.commit || frame.process >= processes {
                    continue;
                }
                if awaiting.contains(&frame.process) && frame.epoch == epoch {
                    if frame.digest != plan.digest {
                        break 'epochs Err(format!(
                            "process {} acked with a divergent eviction-log digest",
                            frame.process
                        ));
                    }
                    acked.insert(frame.process);
                } else if !live[frame.process] && pending_rejoin.insert(frame.process) {
                    atom_obs::count("fleet.rejoin.requests", 1);
                    println!(
                        "recovery: process {} requests rejoin (last round {})",
                        frame.process, frame.round
                    );
                }
            }
            if Instant::now() > deadline {
                break;
            }
            std::thread::sleep(CONTROL_POLL);
        }
        let silent: Vec<usize> = awaiting.difference(&acked).copied().collect();
        if !silent.is_empty() {
            for process in silent {
                let verdict = FaultVerdict {
                    round: next,
                    process,
                    kind: FaultKind::Dead,
                    servers: process_servers(num_servers, processes, process),
                    reason: "no handshake ack".into(),
                };
                if let Err(error) = convict(
                    verdict,
                    next,
                    &transport,
                    &mut ledger,
                    &mut live,
                    &mut evictions,
                    &mut detected_instant,
                ) {
                    break 'epochs Err(error);
                }
            }
            stuck = 0;
            continue 'epochs;
        }

        // Barrier: with all acks in, every member frame of dead epochs has
        // been delivered (per-connection ordering) — purge, then commit.
        purge_mailboxes(&transport, &sink, orch, &mut inbox);
        inbox.retain(|frame| matches!(frame, Frame::Rejoin(f) if !f.response && !f.commit));
        for frame in inbox.drain(..) {
            if let Frame::Rejoin(frame) = frame {
                if frame.process < processes
                    && !live[frame.process]
                    && pending_rejoin.insert(frame.process)
                {
                    atom_obs::count("fleet.rejoin.requests", 1);
                }
            }
        }
        // Build (and thereby freeze) the batch's jobs *before* committing:
        // members freeze on receiving the go, so freezing must be part of
        // the committed protocol on this side too — an epoch abandoned
        // before its commit must leave no membership frozen anywhere.
        let dead = ledger.dead_processes();
        let owner = owner_map_excluding(spec.groups, processes, &dead);
        let mut jobs = Vec::new();
        for round in next..end {
            match ledger.job_for_round(spec, round, true) {
                Ok(job) => {
                    round_evicted[round] = ledger.evicted_for(round);
                    round_failed[round] = ledger.failed_for(round);
                    jobs.push(job);
                }
                Err(error) => break 'epochs Err(error),
            }
        }
        let go = RejoinFrame {
            commit: true,
            ..plan.clone()
        };
        // Attempt the commit to *every* member before reacting to failures:
        // members freeze the batch's membership on receiving the go, so all
        // live members must see it — aborting at the first dead peer would
        // leave the survivors frozen on an epoch the coordinator abandoned.
        let unreachable: Vec<SendError> = awaiting
            .iter()
            .filter_map(|&process| {
                let go = wire::encode_rejoin(&go);
                send_control(&transport, process, orch, REJOIN_LABEL, go).err()
            })
            .collect();
        if !unreachable.is_empty() {
            // The epoch committed for everyone reachable (they and we have
            // frozen these rounds); convict the dead and retry the batch
            // with their shares marked failed under the frozen membership.
            for SendError { process, error } in unreachable {
                let verdict = FaultVerdict {
                    round: next,
                    process,
                    kind: FaultKind::Dead,
                    servers: process_servers(num_servers, processes, process),
                    reason: format!("unreachable at commit: {error}"),
                };
                if let Err(error) = convict(
                    verdict,
                    next,
                    &transport,
                    &mut ledger,
                    &mut live,
                    &mut evictions,
                    &mut detected_instant,
                ) {
                    break 'epochs Err(error);
                }
            }
            stuck = 0;
            continue 'epochs;
        }

        // Run the batch under the agreed membership and epoch fence.
        for (node, &process) in owner.iter().enumerate() {
            transport.set_owner(node, process);
        }
        let role = EngineRole::coordinator(hosted_groups(&owner, 0));
        let mut options = engine_options(spec, workers, &sink, epoch, 0);
        let base = next;
        let completion_tap = completions.clone();
        let user_hook = on_round.clone();
        options.on_round_complete = Some(Arc::new(move |index: usize| {
            let global = base + index;
            completion_tap
                .lock()
                .unwrap_or_else(|poison| poison.into_inner())
                .push((global, Instant::now()));
            if let Some(hook) = &user_hook {
                hook(global);
            }
        }));
        let results = Engine::new(options).run_rounds_on(jobs, &transport, &role);

        let mut failed: Option<(usize, atom_core::error::AtomError)> = None;
        for (index, result) in results.into_iter().enumerate() {
            let global = next + index;
            match result {
                Ok(report) => reports[global] = Some(report),
                Err(error) => {
                    if failed.as_ref().map(|(r, _)| global < *r).unwrap_or(true) {
                        failed = Some((global, error));
                    }
                }
            }
        }
        let Some((failed_round, error)) = failed else {
            // Batch done: advance, and readmit at this healed boundary.
            stuck = 0;
            next = end;
            if next < spec.rounds {
                for process in std::mem::take(&mut pending_rejoin) {
                    // The restarted peer listens on its old address but our
                    // outbound stream still points at the dead incarnation;
                    // drop it so the readmission plan reconnects fresh.
                    transport.reset_peer(process);
                    ledger.readmit(process);
                    live[process] = true;
                    rejoins.push((process, next));
                    atom_obs::count("fleet.rejoin.readmissions", 1);
                    println!("recovery: process {process} readmitted from round {next}");
                }
            }
            continue 'epochs;
        };

        // Failure: everything below `failed_round` completed; diagnose it
        // and retry from there.
        next = failed_round;
        let verdict = FaultVerdict::diagnose(failed_round, &error, &owner, 0, |process| {
            process_servers(num_servers, processes, process)
        });
        match verdict {
            Some(verdict) if verdict.process != 0 && live[verdict.process] => {
                if let Err(error) = convict(
                    verdict,
                    failed_round,
                    &transport,
                    &mut ledger,
                    &mut live,
                    &mut evictions,
                    &mut detected_instant,
                ) {
                    break 'epochs Err(error);
                }
                stuck = 0;
            }
            _ => {
                stuck += 1;
                if stuck >= MAX_STUCK_RETRIES {
                    break 'epochs Err(format!(
                        "round {failed_round} failed {stuck} times with no actionable verdict: \
                         {error:?}"
                    ));
                }
                println!(
                    "recovery: round {failed_round} failed without a verdict (attempt {stuck}), \
                     retrying: {error:?}"
                );
            }
        }
    };

    // Tell everyone — members, and any rejoiner still waiting — that the
    // run is over (round == spec.rounds is the done sentinel), whether we
    // succeeded or gave up.
    let done = RejoinFrame {
        round: spec.rounds,
        process: 0,
        epoch: epoch + 1,
        response: true,
        commit: false,
        digest: ledger.digest(),
        evictions: ledger.active().to_vec(),
    };
    for process in 1..processes {
        let _ = send_control(
            &transport,
            process,
            orch,
            REJOIN_LABEL,
            wire::encode_rejoin(&done),
        );
    }
    transport.shutdown();
    run?;

    let reports: Vec<RoundReport> = reports
        .into_iter()
        .map(|report| report.expect("every round resolved"))
        .collect();
    let completions = completions
        .lock()
        .unwrap_or_else(|poison| poison.into_inner());
    let detected_at = detected_instant.map(|instant| instant - start);
    let healed_latency = detected_instant.and_then(|detected| {
        completions
            .iter()
            .filter(|(_, at)| *at > detected)
            .map(|(_, at)| *at - detected)
            .min()
    });
    let mut healed_rounds: Vec<usize> = detected_instant
        .map(|detected| {
            completions
                .iter()
                .filter(|(_, at)| *at > detected)
                .map(|(round, _)| *round)
                .collect::<BTreeSet<usize>>()
                .into_iter()
                .collect()
        })
        .unwrap_or_default();
    healed_rounds.dedup();
    Ok(RecoveryOutcome {
        reports,
        evictions,
        rejoins,
        round_evicted,
        round_failed,
        epochs: epoch,
        detected_at,
        healed_latency,
        healed_rounds,
        wall: start.elapsed(),
    })
}

enum GoOrPlan {
    Go,
    Plan(RejoinFrame),
}

fn wait_for_plan(
    transport: &TcpTransport,
    sink: &ControlSink,
    orch: usize,
    after_epoch: usize,
    deadline: Instant,
    inbox: &mut Vec<Frame>,
) -> Result<RejoinFrame, String> {
    loop {
        let mut best: Option<RejoinFrame> = None;
        inbox.retain(|frame| match frame {
            Frame::Evict(_) => {
                atom_obs::count("fleet.evict.gossip_received", 1);
                false
            }
            Frame::Rejoin(frame) if frame.response && !frame.commit => {
                if frame.epoch > after_epoch
                    && best.as_ref().map(|b| frame.epoch > b.epoch).unwrap_or(true)
                {
                    best = Some(frame.clone());
                }
                false
            }
            Frame::Rejoin(_) => false,
            _ => false,
        });
        if let Some(plan) = best {
            return Ok(plan);
        }
        if Instant::now() > deadline {
            return Err("no plan from the coordinator before the deadline".into());
        }
        collect_control(transport, sink, orch, inbox);
        if inbox.is_empty() {
            std::thread::sleep(CONTROL_POLL);
        }
    }
}

fn wait_for_go(
    transport: &TcpTransport,
    sink: &ControlSink,
    orch: usize,
    epoch: usize,
    deadline: Instant,
    inbox: &mut Vec<Frame>,
) -> Result<GoOrPlan, String> {
    loop {
        let mut outcome: Option<GoOrPlan> = None;
        inbox.retain(|frame| match frame {
            Frame::Evict(_) => {
                atom_obs::count("fleet.evict.gossip_received", 1);
                false
            }
            Frame::Rejoin(frame) if frame.response && frame.commit && frame.epoch == epoch => {
                if outcome.is_none() {
                    outcome = Some(GoOrPlan::Go);
                }
                false
            }
            Frame::Rejoin(frame) if frame.response && !frame.commit && frame.epoch > epoch => {
                // The coordinator re-planned underneath us (another member
                // died between our ack and its commit).
                outcome = Some(GoOrPlan::Plan(frame.clone()));
                false
            }
            Frame::Rejoin(_) => false,
            _ => false,
        });
        if let Some(outcome) = outcome {
            return Ok(outcome);
        }
        if Instant::now() > deadline {
            return Err(format!("no commit for epoch {epoch} before the deadline"));
        }
        collect_control(transport, sink, orch, inbox);
        if inbox.is_empty() {
            std::thread::sleep(CONTROL_POLL);
        }
    }
}

/// Runs a member (process `index > 0`) of a self-healing deployment: waits
/// for each plan, mirrors the eviction log, acks, waits for the commit and
/// runs its share of the batch — until the coordinator's done sentinel.
/// With `rejoin: true` the member announces itself as a restarted process
/// (the catch-up handshake): it sends a rejoin request and idles until a
/// plan readmits it. `on_ready` fires once the transport is connected —
/// the node binary prints its readiness line there.
pub fn run_healing_member(
    spec: &NetSpec,
    batch: usize,
    addrs: Vec<String>,
    index: usize,
    workers: usize,
    rejoin: bool,
    on_ready: impl FnOnce(),
) -> Result<(), String> {
    let processes = addrs.len();
    assert!(index > 0 && index < processes, "member index out of range");
    if spec.trace {
        atom_obs::set_process(index as u32);
        atom_obs::set_enabled(true);
    }
    let orch = spec.groups;
    let transport = TcpTransport::bind(
        addrs,
        owner_map_excluding(spec.groups, processes, &[]),
        index,
        TcpOptions::default(),
    )
    .map_err(|error| format!("bind member transport: {error}"))?;
    transport
        .connect_peers()
        .map_err(|error| format!("connect to fleet: {error}"))?;
    on_ready();

    let sink = new_control_sink();
    let mut inbox: Vec<Frame> = Vec::new();
    let mut ledger = RecoveryLedger::default();
    let mut epoch = 0usize;
    let mut requested_rejoin = false;
    if rejoin {
        atom_obs::count("fleet.rejoin.handshakes", 1);
        let request = RejoinFrame {
            round: 0,
            process: index,
            epoch: 0,
            response: false,
            commit: false,
            digest: ledger.digest(),
            evictions: Vec::new(),
        };
        send_control(
            &transport,
            0,
            orch,
            REJOIN_LABEL,
            wire::encode_rejoin(&request),
        )
        .map_err(|error| format!("rejoin request failed: {error}"))?;
        requested_rejoin = true;
    }

    let mut carried: Option<RejoinFrame> = None;
    let mut known_dead: Vec<usize> = Vec::new();
    let result: Result<(), String> = loop {
        let plan = match carried.take() {
            Some(plan) => plan,
            None => {
                let deadline = Instant::now() + plan_deadline(spec);
                match wait_for_plan(&transport, &sink, orch, epoch, deadline, &mut inbox) {
                    Ok(plan) => plan,
                    Err(error) => break Err(error),
                }
            }
        };
        if plan.round >= spec.rounds {
            break Ok(());
        }
        epoch = plan.epoch;
        ledger.apply_plan(&plan.evictions, plan.round);
        if ledger.digest() != plan.digest {
            break Err("eviction-log digest diverged from the coordinator".into());
        }
        // A process that left the dead list was readmitted after a restart:
        // our outbound stream still points at its dead incarnation, so drop
        // it before this epoch's mixing frames are lost into it.
        let now_dead = ledger.dead_processes();
        for &process in &known_dead {
            if !now_dead.contains(&process) && process != index {
                transport.reset_peer(process);
            }
        }
        known_dead = now_dead;
        if ledger.dead_processes().contains(&index) {
            // We are on the plan's dead list (evicted while alive, e.g.
            // convicted as slow). Ask back in once and wait for a plan
            // that readmits us.
            if !requested_rejoin {
                atom_obs::count("fleet.rejoin.handshakes", 1);
                let request = RejoinFrame {
                    round: plan.round,
                    process: index,
                    epoch: 0,
                    response: false,
                    commit: false,
                    digest: ledger.digest(),
                    evictions: Vec::new(),
                };
                if let Err(error) = send_control(
                    &transport,
                    0,
                    orch,
                    REJOIN_LABEL,
                    wire::encode_rejoin(&request),
                ) {
                    break Err(format!("rejoin request failed: {error}"));
                }
                requested_rejoin = true;
            }
            continue;
        }
        requested_rejoin = false;

        // Mirror the agreed membership.
        let dead = ledger.dead_processes();
        let owner = owner_map_excluding(spec.groups, processes, &dead);
        for (node, &process) in owner.iter().enumerate() {
            transport.set_owner(node, process);
        }
        let hosted = hosted_groups(&owner, index);
        let end = batch_end(plan.round, batch, spec.rounds);

        // Purge dead-epoch residue *before* acking: new-epoch frames can
        // only be sent after the coordinator has our ack.
        purge_mailboxes(&transport, &sink, orch, &mut inbox);
        inbox.clear();
        let ack = RejoinFrame {
            round: plan.round,
            process: index,
            epoch,
            response: false,
            commit: false,
            digest: ledger.digest(),
            evictions: Vec::new(),
        };
        atom_obs::count("fleet.handshake.acks", 1);
        if let Err(error) =
            send_control(&transport, 0, orch, REJOIN_LABEL, wire::encode_rejoin(&ack))
        {
            break Err(format!("coordinator unreachable at ack: {error}"));
        }
        let deadline = Instant::now() + plan_deadline(spec);
        match wait_for_go(&transport, &sink, orch, epoch, deadline, &mut inbox) {
            Ok(GoOrPlan::Plan(newer)) => {
                carried = Some(newer);
                continue;
            }
            Ok(GoOrPlan::Go) => {}
            Err(error) => break Err(error),
        }

        // Build (and freeze) the batch only now that the epoch committed:
        // a plan abandoned before its go must leave nothing frozen, or a
        // later retry of the same rounds would heal them under a membership
        // the coordinator never agreed to.
        let mut jobs = Vec::new();
        let mut build_error = None;
        for round in plan.round..end {
            match ledger.job_for_round(spec, round, !spec.sharded) {
                Ok(job) => jobs.push(job),
                Err(error) => {
                    build_error = Some(error);
                    break;
                }
            }
        }
        if let Some(error) = build_error {
            break Err(error);
        }

        let options = engine_options(spec, workers, &sink, epoch, index);
        let role = EngineRole::member(hosted);
        let total = jobs.len();
        let results = Engine::new(options).run_rounds_on(jobs, &transport, &role);
        let resolved = results.iter().filter(|result| result.is_ok()).count();
        // Failures here are expected during churn — the coordinator owns
        // the diagnosis; we just report in and wait for the next plan.
        println!(
            "healing member {index}: epoch {epoch} rounds {}..{end} → {resolved}/{total} resolved",
            plan.round
        );
    };
    transport.shutdown();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netbench::serialize_reports;
    use atom_runtime::RoundDirectory;

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
        assert_eq!(
            owner_map_excluding(5, 3, &[]),
            crate::netbench::owner_map(5, 3)
        );
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
        member.apply_plan(coordinator.active(), 0);
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
        assert!(coordinator.active().is_empty());
        let fresh = coordinator.job_for_round(&spec, 3, true).unwrap();

        // The restarted process starts from an empty ledger plus the plan.
        let mut rejoiner = RecoveryLedger::default();
        rejoiner.apply_plan(coordinator.active(), 3);
        let mirrored = rejoiner.job_for_round(&spec, 3, true).unwrap();
        assert_eq!(job_fingerprint(&fresh), job_fingerprint(&mirrored));
        assert!(job_fingerprint(&fresh).0.is_empty());
    }

    /// The whole tentpole in one process: a three-"process" fleet (threads
    /// with real TCP transports) loses member 2 between batches, the
    /// coordinator convicts it on the handshake timeout and gossips the
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
            delay: Duration::from_millis(25),
            stall_timeout: Duration::from_secs(1),
            honest: 2,
            ..NetSpec::default()
        };
        let addrs = crate::netbench::free_addrs(3);
        let batch = 1;

        let m1 = {
            let (spec, addrs) = (spec.clone(), addrs.clone());
            std::thread::spawn(move || run_healing_member(&spec, batch, addrs, 1, 2, false, || {}))
        };
        // Process 2's first incarnation believes the workload is one round
        // long: it completes round 0, then exits and shuts its transport
        // down when the round-1 plan arrives — an abrupt disappearance as
        // far as the rest of the fleet is concerned.
        let m2a = {
            let (mut spec, addrs) = (spec.clone(), addrs.clone());
            spec.rounds = 1;
            std::thread::spawn(move || run_healing_member(&spec, batch, addrs, 2, 2, false, || {}))
        };
        // Its second incarnation restarts on the same address once the
        // fleet has demonstrably healed (first post-eviction round done)
        // and asks to rejoin.
        type MemberHandle = std::thread::JoinHandle<Result<(), String>>;
        let restarted: Arc<Mutex<Option<MemberHandle>>> = Arc::new(Mutex::new(None));
        let hook: RoundCompleteHook = {
            let restarted = restarted.clone();
            let (spec, addrs) = (spec.clone(), addrs.clone());
            Arc::new(move |round| {
                if round == 1 {
                    let (spec, addrs) = (spec.clone(), addrs.clone());
                    let handle = std::thread::spawn(move || {
                        run_healing_member(&spec, batch, addrs, 2, 2, true, || {})
                    });
                    restarted
                        .lock()
                        .unwrap_or_else(|poison| poison.into_inner())
                        .replace(handle);
                }
            })
        };

        let outcome = run_recovery_coordinator(&spec, batch, addrs, 2, Some(hook))
            .expect("recovery completes every round");

        assert!(
            m2a.join().unwrap().is_ok(),
            "first incarnation exits cleanly"
        );
        assert!(m1.join().unwrap().is_ok(), "surviving member exits cleanly");
        let m2b = restarted
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .take()
            .expect("restart scheduled at the first healed round");
        assert!(m2b.join().unwrap().is_ok(), "rejoiner exits cleanly");

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
            // The drip (one 5 s straggle per iteration) never leaves a 20 s
            // progress gap; the 5 s round clock fires long before the
            // member's ~10 s round could finish.
            stall_timeout: Duration::from_secs(20),
            round_deadline: Duration::from_secs(5),
            loris,
            honest: 2,
            ..NetSpec::default()
        };
        let addrs = crate::netbench::free_addrs(3);
        let batch = 1;

        let m1 = {
            let (spec, addrs) = (spec.clone(), addrs.clone());
            std::thread::spawn(move || run_healing_member(&spec, batch, addrs, 1, 2, false, || {}))
        };
        let m2 = {
            let (spec, addrs) = (spec.clone(), addrs.clone());
            std::thread::spawn(move || run_healing_member(&spec, batch, addrs, 2, 2, false, || {}))
        };
        // Gate: hold the coordinator at the first healed round until the
        // convicted member has certainly woken from its drip sleep and sent
        // its rejoin request (bounded by one residual drip plus slack), so
        // at least one readmission happens before the final batch boundary.
        // WHICH boundary collects the request still races the member's
        // wake-up, so the assertions below are boundary-agnostic.
        let hook: RoundCompleteHook = Arc::new(move |round| {
            if round == 0 {
                std::thread::sleep(loris + Duration::from_secs(2));
            }
        });

        let outcome = run_recovery_coordinator(&spec, batch, addrs, 2, Some(hook))
            .expect("recovery completes every round");
        assert!(
            m1.join().unwrap().is_ok(),
            "loris member exits cleanly on the done sentinel"
        );
        assert!(m2.join().unwrap().is_ok(), "honest member exits cleanly");

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
}
