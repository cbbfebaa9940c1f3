//! The parallel group-actor execution engine.
//!
//! [`Engine::run_rounds`] executes one or more Atom rounds over a scoped
//! worker pool. Each anytrust group of each round is a
//! [`GroupActor`] behind a mutex; workers pull
//! tasks from a shared queue and exchange serialized sub-batches through a
//! [`Transport`] mailbox per group — an [`InMemoryNetwork`] by default, or
//! any other backend (e.g. [`atom_net::TcpTransport`]) via
//! [`Engine::run_rounds_on`], which also lets one engine instance host only
//! a *subset* of the groups so a round spans several OS processes (see
//! [`EngineRole`]). There is no barrier anywhere:
//!
//! * **Within a round**, a group steps mixing iteration `i + 1` as soon as
//!   all of its inbound sub-batches for `i + 1` have arrived, so fast groups
//!   pipeline ahead of stragglers.
//! * **Across rounds**, every round's submission intake is a set of queue
//!   tasks like any other, so round `r + 1`'s proof verification and entry
//!   mixing overlap round `r`'s tail.
//! * **Within an intake**, a round's submissions split into
//!   [`IntakeChunk`](EngineOptions::intake_chunk)-sized verification tasks,
//!   so proof checking parallelizes across workers inside a single round;
//!   chunk results merge deterministically (in submission order, first
//!   failure wins) before the iteration-0 batches are released.
//! * **Before a round**, a [`RoundDirectory::Sharded`] job's directory —
//!   group formation and the per-group DKGs — is itself a set of queue
//!   tasks: each process derives only the DKGs of its hosted groups and
//!   ships the public results to its peers as `setup` wire frames, so round
//!   `r + 1`'s directory work overlaps round `r`'s mixing tail, and adding
//!   processes divides the DKG work instead of replicating it.
//!
//! Determinism: all randomness of round `r` derives from
//! `RoundJob::seed` — the master draw mirrors the sequential
//! [`RoundDriver`](atom_core::round::RoundDriver) consuming the first
//! `next_u64` of `StdRng::seed_from_u64(seed)`, and each group actor owns the
//! stream `group_stream_seed(master, round, gid)`. Scheduling therefore
//! cannot influence any byte produced; for equal seeds the engine's
//! [`RoundOutput`] is identical to the sequential driver's.
//!
//! Each phase of a round owns its state in one module: `setup` (a sharded
//! round's DKG tasks and `setup` frames, and the one `install` path every
//! directory takes into its round), `intake` (chunked proof verification
//! and the iteration-0 release), `mix` (the hosted group actors) and `exit`
//! (exit collection, finalization and member stubs). This module holds the
//! public types, the task queue, frame routing and the one place a round's
//! result is written.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use atom_core::actor::GroupActor;
use atom_core::adversary::AdversaryPlan;
use atom_core::config::{AtomConfig, Defense};
use atom_core::directory::RoundSetup;
use atom_core::error::{AtomError, AtomResult, EngineErrorKind};
use atom_core::message::{NizkSubmission, TrapSubmission};
use atom_core::round::RoundOutput;

use atom_net::{InMemoryNetwork, Transport};

use crate::wire::{self, Frame};

mod exit;
mod intake;
mod mix;
mod setup;

use exit::ExitState;
use intake::Intake;
use setup::SetupPhase;

/// Envelope label of serialized mixing sub-batches (static: no per-message
/// allocation on the hot path).
pub const MIX_LABEL: &str = "atom/mix";

/// Envelope label of exit frames (group → orchestrator).
pub(crate) const EXIT_LABEL: &str = "atom/exit";

/// Envelope label of abort notifications.
const ABORT_LABEL: &str = "atom/abort";

/// Envelope label of sharded-setup directory frames (group → peers).
pub const SETUP_LABEL: &str = "atom/setup";

/// Callback invoked with a round index each time that round resolves
/// *successfully* in this process (see
/// [`EngineOptions::on_round_complete`]).
pub type RoundCompleteHook = Arc<dyn Fn(usize) + Send + Sync>;

/// Engine-wide execution options.
#[derive(Clone)]
pub struct EngineOptions {
    /// Worker threads driving group actors.
    pub workers: usize,
    /// Submissions per intake-verification chunk. A round's intake splits
    /// into `⌈n / intake_chunk⌉` independent queue tasks so proof
    /// verification parallelizes across workers *within* a round; chunk
    /// results merge deterministically before batch release, so the
    /// produced `RoundOutput` is byte-identical for any chunking. `0`
    /// (default) auto-sizes to spread one round's intake evenly across the
    /// worker pool.
    pub intake_chunk: usize,
    /// Stall detector: with rounds pending, no task executing and none
    /// *finished* for this long, every unresolved round fails. It is how a
    /// peer process dying without a word (crash, OOM-kill) surfaces — TCP
    /// gives the survivor only silence. Default 120 s.
    pub stall_timeout: Duration,
    /// Invoked each time a round resolves successfully in this process
    /// (coordinator: the full report is finalized; member: the local stub
    /// resolved). Recovery orchestration uses it for round-indexed fault
    /// scheduling and detection-to-healed-round latency without polling.
    /// Called from worker threads; must not call back into the engine.
    pub on_round_complete: Option<RoundCompleteHook>,
    /// Epoch fence: the wire round id of this run's first job. Protocol
    /// frames go out as `round_offset + job_index` and inbound frames below
    /// the offset are dropped as stale. Recovery orchestration gives each
    /// engine run (epoch) a disjoint id range, so a straggler frame from a
    /// failed epoch can never alias the retry of the same round. A job
    /// whose id would not fit the frames' `u32` round field fails with
    /// [`AtomError::Config`]. `0` (default) reproduces the historical wire
    /// bytes exactly.
    pub round_offset: usize,
    /// Streaming-intake window: at most this many intake chunks are
    /// scheduled (and therefore materialized) at once per round, so a
    /// 10M-submission round holds only `intake_window × intake_chunk`
    /// submissions in memory. Each finishing chunk releases the next, and
    /// chunk results still merge in chunk order, so the produced
    /// `RoundOutput` is byte-identical for any window. `0` (default)
    /// schedules every chunk up front (the historical behaviour).
    pub intake_window: usize,
    /// Hard cap on a round's offered submissions. A round offering more
    /// fails closed at admission — before a single submission is
    /// materialized or verified — with a `ProtocolAbort` diagnosis naming
    /// the flood. `0` (default) disables the cap.
    pub intake_cap: usize,
    /// Wall-clock deadline per round, from the coordinator's first intake
    /// work for it: the one defence against a slow-loris peer dripping one
    /// frame per stall window. An overdue round fails with
    /// [`EngineErrorKind::Deadline`] and the named stall diagnosis.
    /// `Duration::ZERO` (default) disables it.
    pub round_deadline: Duration,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            intake_chunk: 0,
            stall_timeout: Duration::from_secs(120),
            on_round_complete: None,
            round_offset: 0,
            intake_window: 0,
            intake_cap: 0,
            round_deadline: Duration::ZERO,
        }
    }
}

impl EngineOptions {
    /// Options with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            ..Self::default()
        }
    }
}

/// What part a process plays in a (possibly multi-process) engine run.
///
/// Node-id convention on the transport: group `g` owns mailbox `g`, and the
/// round orchestrator owns the transport's **last** node
/// (`transport.nodes() - 1`). The orchestrator's process — the
/// *coordinator* — verifies submission intake, injects the iteration-0
/// batches, collects every group's exit frame and produces the round's
/// [`RoundReport`]. Every process hosts the actors of its `hosted` group
/// ids; a group's mailbox must be local to the process hosting its actor.
#[derive(Clone, Debug)]
pub struct EngineRole {
    /// Group ids whose actors run in this process.
    pub hosted: Vec<usize>,
    /// Whether this process is the coordinator (runs intake, collects
    /// exits, reports results).
    pub coordinator: bool,
}

impl EngineRole {
    /// The classic single-process role: coordinator hosting every group.
    fn standalone(num_groups: usize) -> Self {
        Self {
            hosted: (0..num_groups).collect(),
            coordinator: true,
        }
    }

    /// A coordinator hosting `hosted` groups (possibly none).
    pub fn coordinator(hosted: Vec<usize>) -> Self {
        Self {
            hosted,
            coordinator: true,
        }
    }

    /// A non-coordinator member hosting `hosted` groups.
    pub fn member(hosted: Vec<usize>) -> Self {
        Self {
            hosted,
            coordinator: false,
        }
    }

    fn hosts(&self, gid: usize) -> bool {
        self.hosted.contains(&gid)
    }

    /// How many of this role's groups participate in a round of
    /// `num_groups` groups.
    fn hosted_in_round(&self, num_groups: usize) -> usize {
        self.hosted.iter().filter(|&&g| g < num_groups).count()
    }
}

/// A materialized block of submissions, as produced by a
/// [`SubmissionSource`] for one intake chunk.
#[derive(Clone, Debug)]
pub enum SubmissionBlock {
    /// NIZK-variant submissions (§4.3).
    Nizk(Vec<NizkSubmission>),
    /// Trap-variant submissions (§4.4).
    Trap(Vec<TrapSubmission>),
}

impl SubmissionBlock {
    /// Number of submissions in the block.
    pub fn len(&self) -> usize {
        match self {
            SubmissionBlock::Nizk(subs) => subs.len(),
            SubmissionBlock::Trap(subs) => subs.len(),
        }
    }

    /// Whether the block is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A deterministic, range-addressable stream of round submissions.
///
/// The engine never materializes the whole stream: intake pulls one
/// [`SubmissionBlock`] per chunk via [`generate`](Self::generate), bounded
/// by [`EngineOptions::intake_window`], so a 10M-submission round holds
/// only a window in memory. Implementations must be **pure in the range**:
/// `generate(a..b)` followed by `generate(b..c)` yields exactly the
/// submissions `generate(a..c)` would — typically by seeding a per-index
/// RNG from a hash of `(seed, index)` — so the round output is
/// byte-identical to materializing the stream up front, whatever the
/// window or chunking.
pub trait SubmissionSource: Send + Sync {
    /// Total submissions the stream offers this round.
    fn total(&self) -> usize;
    /// Which protocol variant the submissions belong to.
    fn defense(&self) -> Defense;
    /// Materialize the half-open index range `range.0 .. range.1`. The
    /// returned block must match [`defense`](Self::defense) and hold
    /// exactly `range.1 - range.0` submissions.
    fn generate(&self, range: (usize, usize)) -> AtomResult<SubmissionBlock>;
}

/// The submissions of one round.
#[derive(Clone)]
pub enum RoundSubmissions {
    /// NIZK-variant submissions (§4.3), materialized up front.
    Nizk(Vec<NizkSubmission>),
    /// Trap-variant submissions (§4.4), materialized up front.
    Trap(Vec<TrapSubmission>),
    /// A deterministic stream materialized chunk-by-chunk during intake
    /// (see [`SubmissionSource`]).
    Stream(Arc<dyn SubmissionSource>),
}

impl std::fmt::Debug for RoundSubmissions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoundSubmissions::Nizk(subs) => f.debug_tuple("Nizk").field(&subs.len()).finish(),
            RoundSubmissions::Trap(subs) => f.debug_tuple("Trap").field(&subs.len()).finish(),
            RoundSubmissions::Stream(source) => f
                .debug_struct("Stream")
                .field("total", &source.total())
                .field("defense", &source.defense())
                .finish(),
        }
    }
}

impl RoundSubmissions {
    /// Number of submissions the round offers (streams report their total
    /// without materializing anything).
    pub fn len(&self) -> usize {
        match self {
            RoundSubmissions::Nizk(subs) => subs.len(),
            RoundSubmissions::Trap(subs) => subs.len(),
            RoundSubmissions::Stream(source) => source.total(),
        }
    }

    /// Whether the round offers no submissions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The protocol variant of the submissions.
    pub fn defense(&self) -> Defense {
        match self {
            RoundSubmissions::Nizk(_) => Defense::Nizk,
            RoundSubmissions::Trap(_) => Defense::Trap,
            RoundSubmissions::Stream(source) => source.defense(),
        }
    }
}

/// How a round's directory ([`RoundSetup`]) comes to exist in this process.
#[derive(Clone, Debug)]
pub enum RoundDirectory {
    /// The full directory — every group's DKG — was derived (or loaded)
    /// ahead of time via [`atom_core::directory::derive_setup`].
    Full(RoundSetup),
    /// Sharded: this process derives **only the DKGs of the groups it
    /// hosts** ([`atom_core::directory::derive_group`], one queue task per
    /// hosted group), ships the public half of each result to its peers as
    /// `setup` wire frames, and assembles the round's directory from its
    /// peers' frames before any of its actors mix. The coordinator
    /// additionally derives the trustee DKG. Because each group's DKG draws
    /// from its own beacon-derived stream, the assembled directory — and
    /// therefore the round's [`RoundOutput`] — is byte-identical to the
    /// monolithic [`derive_setup`](atom_core::directory::derive_setup) of
    /// the same config, whatever the process layout.
    Sharded(AtomConfig),
}

impl RoundDirectory {
    /// The deployment configuration of either variant.
    pub fn config(&self) -> &AtomConfig {
        match self {
            RoundDirectory::Full(setup) => &setup.config,
            RoundDirectory::Sharded(config) => config,
        }
    }
}

/// One round to execute.
#[derive(Clone)]
pub struct RoundJob {
    /// Where the round's directory comes from (prebuilt or sharded).
    pub directory: RoundDirectory,
    /// User submissions.
    pub submissions: RoundSubmissions,
    /// Seed of all round randomness (equal seeds ⇒ byte-identical output to
    /// `RoundDriver` with `StdRng::seed_from_u64(seed)`).
    pub seed: u64,
    /// Optional active adversary.
    pub adversary: Option<AdversaryPlan>,
    /// Servers failed before the round starts.
    pub failed_servers: Vec<usize>,
    /// Mid-round churn: `(iteration, server)` failures applied as groups
    /// reach `iteration`.
    pub churn: Vec<(usize, usize)>,
}

impl RoundJob {
    /// A job with a prebuilt directory and no adversary, failures or churn.
    pub fn new(setup: RoundSetup, submissions: RoundSubmissions, seed: u64) -> Self {
        Self::with_directory(RoundDirectory::Full(setup), submissions, seed)
    }

    /// A job whose directory is derived *inside* the engine run, sharded
    /// across the participating processes (see [`RoundDirectory::Sharded`]).
    /// Only the coordinator's `submissions` are consulted; members may pass
    /// an empty vector of the matching variant.
    pub fn sharded(config: AtomConfig, submissions: RoundSubmissions, seed: u64) -> Self {
        Self::with_directory(RoundDirectory::Sharded(config), submissions, seed)
    }

    fn with_directory(directory: RoundDirectory, submissions: RoundSubmissions, seed: u64) -> Self {
        Self {
            directory,
            submissions,
            seed,
            adversary: None,
            failed_servers: Vec::new(),
            churn: Vec::new(),
        }
    }

    /// The deployment configuration of the round.
    pub fn config(&self) -> &AtomConfig {
        self.directory.config()
    }

    /// The prebuilt directory, if this job carries one.
    pub fn full_setup(&self) -> Option<&RoundSetup> {
        match &self.directory {
            RoundDirectory::Full(setup) => Some(setup),
            RoundDirectory::Sharded(_) => None,
        }
    }
}

/// The result of one engine-executed round.
///
/// The coordinator's report is authoritative: its `output` is the round's
/// protocol output and its traffic counters cover the whole round (intake
/// injections plus every group's forwards, reported in the groups' exit
/// frames). A non-coordinator member resolves each round with a *stub*
/// report — empty `output`, traffic counters covering only its local groups
/// — since the protocol result lives with the coordinator.
#[derive(Clone, Debug)]
pub struct RoundReport {
    /// The protocol output, byte-identical to the sequential driver's.
    pub output: RoundOutput,
    /// Pipelined end-to-end latency: the latest group exit on the virtual
    /// clock (arrival-gated, no per-iteration barrier). Compare with
    /// `output.timings.end_to_end()`, the barrier model.
    pub pipelined_latency: Duration,
    /// Wall-clock time from intake to the last exit.
    pub wall_clock: Duration,
    /// Wall-clock time from engine start until this round's directory was
    /// ready in this process — local DKGs run, every peer's setup frame
    /// received, actors constructed. Always zero for
    /// [`RoundDirectory::Full`] jobs, whose directory predates the engine.
    /// Because setup runs as ordinary queue tasks, later rounds' directory
    /// work overlaps earlier rounds' mixing, so per-round setup latencies
    /// of one run are *not* additive.
    pub setup_latency: Duration,
    /// Mixing messages this round pushed through the transport.
    pub mix_messages: u64,
    /// Mixing bytes this round pushed through the transport.
    pub mix_bytes: u64,
}

enum Task {
    IntakeChunk {
        round: usize,
        chunk: usize,
    },
    Deliver {
        node: usize,
    },
    /// Derive the DKG of one locally hosted group of a sharded round and
    /// broadcast its public half to every remote mailbox.
    SetupGroup {
        round: usize,
        gid: usize,
    },
    /// Derive the trustee DKG of a sharded round (coordinator only).
    SetupTrustees {
        round: usize,
    },
}

/// What actor construction needs from a [`RoundJob`], retained per round so
/// sharded rounds can build their actors once the directory is assembled.
struct ActorSpec {
    master_seed: u64,
    defense: Defense,
    adversary: Option<AdversaryPlan>,
    failed_servers: Vec<usize>,
    churn: Vec<(usize, usize)>,
}

/// How a job starts once the run's shared state exists.
enum Start {
    /// Install the prebuilt directory before any worker runs.
    Install(RoundSetup),
    /// Derive the sharded directory on the task queue.
    Derive,
    /// A member hosting none of the round's groups: nothing to run.
    Idle,
    /// The job cannot run at all.
    Fail(AtomError),
}

struct JobState {
    config: AtomConfig,
    /// The round's directory, set by `setup::install`; reads outside the
    /// setup phase go through [`JobState::round_setup`].
    setup: OnceLock<RoundSetup>,
    /// Sharded-setup progress (`None` for prebuilt directories).
    phase: Option<Mutex<SetupPhase>>,
    actor_spec: ActorSpec,
    submissions: RoundSubmissions,
    /// One lazily initialized slot per group id; never set for groups
    /// hosted by another process.
    actors: Vec<OnceLock<Mutex<GroupActor>>>,
    intake: Intake,
    /// The round clock: the coordinator starts it at its first intake work,
    /// a member at its first local delivery.
    started: OnceLock<Instant>,
    /// Exit collection. The exit frame that completes the round takes it
    /// for finalization, so finalization runs once.
    exit: Mutex<Option<ExitState>>,
    result: Mutex<Option<AtomResult<RoundReport>>>,
    /// Iteration-0 injections by the local intake (coordinator only).
    intake_mix_messages: AtomicU64,
    intake_mix_bytes: AtomicU64,
    /// Forward traffic per locally hosted group, shipped to the
    /// coordinator in the group's exit frame.
    group_mix: Vec<(AtomicU64, AtomicU64)>,
}

impl JobState {
    /// The state of job `round` and how it starts.
    fn new(
        round: usize,
        job: RoundJob,
        role: &EngineRole,
        options: &EngineOptions,
        workers: usize,
    ) -> (Self, Start) {
        let config = job.config().clone();
        let num_groups = config.num_groups;
        let offered = job.submissions.len();
        let mut phase = None;
        let directory = match job.directory {
            RoundDirectory::Full(setup) => Ok(Start::Install(setup)),
            // Derivation happens on the task queue; here we only validate
            // the config and set up the phase bookkeeping.
            RoundDirectory::Sharded(config) => config.validate().map(|()| {
                phase = Some(Mutex::new(SetupPhase::new(&config, role)));
                Start::Derive
            }),
        };
        let start = match directory {
            // Every frame carries its round as a `u32`: a job past that
            // range would go out wrapped and be fenced as stale by its own
            // run. Every process fails it alike.
            _ if wire_round_id(round, options.round_offset).is_none() => {
                Start::Fail(AtomError::Config(format!(
                    "round_offset {} puts job {round} past the u32 wire round range",
                    options.round_offset
                )))
            }
            Err(error) => Start::Fail(error),
            // The intake cap fails a flood closed here, at admission: not
            // one of the flood's submissions gets materialized or verified,
            // so an attacker can spend our memory only up to the cap, never
            // up to their offer.
            Ok(_) if role.coordinator && options.intake_cap > 0 && offered > options.intake_cap => {
                Start::Fail(AtomError::Engine {
                    kind: EngineErrorKind::ProtocolAbort,
                    reason: format!(
                        "submission flood: round {round} offers {offered} submissions, over the \
                         intake cap of {}; failing closed without buffering the flood",
                        options.intake_cap
                    ),
                    nodes: Vec::new(),
                })
            }
            Ok(_) if !role.coordinator && role.hosted_in_round(num_groups) == 0 => Start::Idle,
            Ok(start) => start,
        };
        let state = JobState {
            setup: OnceLock::new(),
            phase,
            // The master draw mirrors RoundDriver::run_mixing's first use of
            // the caller RNG, keeping seed semantics identical across
            // drivers.
            actor_spec: ActorSpec {
                master_seed: StdRng::seed_from_u64(job.seed).next_u64(),
                defense: job.submissions.defense(),
                adversary: job.adversary,
                failed_servers: job.failed_servers,
                churn: job.churn,
            },
            submissions: job.submissions,
            actors: (0..num_groups).map(|_| OnceLock::new()).collect(),
            intake: Intake::new(offered, options, workers),
            started: OnceLock::new(),
            exit: Mutex::new(Some(ExitState::new(num_groups))),
            result: Mutex::new(None),
            intake_mix_messages: AtomicU64::new(0),
            intake_mix_bytes: AtomicU64::new(0),
            group_mix: (0..num_groups)
                .map(|_| (AtomicU64::new(0), AtomicU64::new(0)))
                .collect(),
            config,
        };
        (state, start)
    }

    fn num_groups(&self) -> usize {
        self.config.num_groups
    }

    /// The assembled directory. Panics if called before the setup phase
    /// completed — callers are only reachable once the round is installed.
    fn round_setup(&self) -> &RoundSetup {
        self.setup.get().expect("round directory not assembled yet")
    }

    fn failed(&self) -> bool {
        matches!(*self.result.lock(), Some(Err(_)))
    }

    fn finalized(&self) -> bool {
        self.result.lock().is_some()
    }

    /// Starts the round clock unless it already runs.
    fn start_clock(&self) {
        self.started.get_or_init(Instant::now);
    }

    /// Wall-clock time since the round clock started (zero before).
    fn wall_clock(&self) -> Duration {
        self.started.get().map(Instant::elapsed).unwrap_or_default()
    }

    /// See [`RoundReport::setup_latency`]: zero for prebuilt directories.
    fn setup_latency(&self) -> Duration {
        self.phase
            .as_ref()
            .map_or(Duration::ZERO, |phase| phase.lock().latency())
    }
}

/// The wire round id of job `round` under `offset`, or `None` when it does
/// not fit the frames' `u32` round field (see
/// [`EngineOptions::round_offset`]).
fn wire_round_id(round: usize, offset: usize) -> Option<usize> {
    round
        .checked_add(offset)
        .filter(|&wire| u32::try_from(wire).is_ok())
}

/// The queue/condvar trio workers and the transport delivery hook share.
/// `Arc`ed (not borrowed) because the hook handed to the transport must be
/// `'static`. Uses `std::sync` directly: parking_lot's `Condvar::wait` has
/// a different signature, and keeping the vendored stand-in
/// drop-in-replaceable by the real crate matters more than the fairness
/// benefits here.
struct Scheduler {
    queue: std::sync::Mutex<VecDeque<Task>>,
    ready: std::sync::Condvar,
    pending_jobs: AtomicUsize,
    /// Workers between a task's start and their next empty queue: a
    /// long-running healthy task must not look like a stall.
    executing: AtomicUsize,
    /// When a worker last found the queue empty after tasks.
    last_progress: Mutex<Instant>,
}

impl Scheduler {
    fn queue_lock(&self) -> std::sync::MutexGuard<'_, VecDeque<Task>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push_task(&self, task: Task) {
        self.queue_lock().push_back(task);
        self.ready.notify_one();
    }
}

struct Shared<'a> {
    jobs: &'a [JobState],
    sched: Arc<Scheduler>,
    transport: &'a dyn Transport,
    orchestrator: usize,
    role: &'a EngineRole,
    options: &'a EngineOptions,
}

impl Shared<'_> {
    /// The wire round id of local job index `round` (see
    /// [`EngineOptions::round_offset`]).
    fn wire_round(&self, round: usize) -> usize {
        round + self.options.round_offset
    }

    /// The label of local job `round`'s spans, notes and snapshots: its
    /// wire round, so runs with disjoint `round_offset` ranges (a healing
    /// fleet's epochs) never label two rounds alike on one recorder.
    fn trace_round(&self, round: usize) -> u32 {
        self.wire_round(round) as u32
    }

    /// Maps an inbound wire round id back to a local job index. `None`
    /// means the frame predates this run's id range — a stale frame from an
    /// earlier recovery epoch, to be fenced off rather than misdelivered to
    /// whatever round currently reuses the low indices.
    fn job_index(&self, wire_round: usize) -> Option<usize> {
        wire_round.checked_sub(self.options.round_offset)
    }

    /// The one place a round's result is written. The first result wins
    /// and later ones are dropped. A failure goes into the trace timeline
    /// as a note, whatever its kind, and is broadcast to the peers (a
    /// member still mixing must not be left waiting); a success fires
    /// [`EngineOptions::on_round_complete`].
    fn resolve(&self, round: usize, result: AtomResult<RoundReport>) {
        let failure = result.as_ref().err().cloned();
        {
            let mut slot = self.jobs[round].result.lock();
            if slot.is_some() {
                return;
            }
            *slot = Some(result);
        }
        if let Some(error) = failure {
            atom_obs::note("failed", self.trace_round(round), &error.to_string());
            self.broadcast_abort(round, &format!("{error:?}"));
        } else if let Some(hook) = &self.options.on_round_complete {
            hook(round);
        }
        if self.sched.pending_jobs.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Hold the queue lock while notifying: a worker that observed
            // the old pending count cannot slip into its wait between the
            // decrement and this notification.
            let _guard = self.sched.queue_lock();
            self.sched.ready.notify_all();
        }
    }

    fn fail_job(&self, round: usize, error: AtomError) {
        self.resolve(round, Err(error));
    }

    /// Tells the other processes of a multi-process run that `round` died,
    /// so none of them waits forever on batches that will never come. The
    /// coordinator fans out to every remote group; a member informs the
    /// coordinator (which then fans out). Single-process runs have no
    /// remote nodes and send nothing, and neither does a job whose wire
    /// round does not fit a frame: it has no id to abort with. Best-effort:
    /// a peer that already vanished must not take down our remaining
    /// rounds.
    fn broadcast_abort(&self, round: usize, reason: &str) {
        let Some(wire_round) = wire_round_id(round, self.options.round_offset) else {
            return;
        };
        let targets: Vec<usize> = if self.role.coordinator {
            (0..self.orchestrator)
                .filter(|&node| !self.transport.is_local(node))
                .collect()
        } else if !self.transport.is_local(self.orchestrator) {
            vec![self.orchestrator]
        } else {
            Vec::new()
        };
        if targets.is_empty() {
            return;
        }
        let from = if self.role.coordinator {
            self.orchestrator
        } else {
            self.role.hosted.first().copied().unwrap_or(0)
        };
        let payload = wire::encode_abort(wire_round, reason);
        for node in targets {
            let payload = payload.clone();
            if let Err(error) = self.transport.send(from, node, ABORT_LABEL.into(), payload) {
                eprintln!("atom-runtime: abort notification to node {node} failed: {error}");
            }
        }
    }

    /// Fails every unresolved round. Used when a worker task unwinds or a
    /// frame cannot even name its round: continuing would leave waiters
    /// blocked forever, so convert the hang into per-round errors.
    fn fail_all(&self, reason: &str) {
        for round in 0..self.jobs.len() {
            self.fail_job(round, AtomError::Malformed(reason.to_string()));
        }
    }

    /// Sends a protocol frame on behalf of `round`. A send error — an
    /// unreachable or vanished peer process: connect failure, reset stream —
    /// fails that round and only that round: with several remote peers, one
    /// dead process must surface as per-round errors on the survivors.
    /// Returns whether the send succeeded.
    fn send_for_round(
        &self,
        round: usize,
        from: usize,
        to: usize,
        label: &'static str,
        payload: Vec<u8>,
    ) -> bool {
        let Err(error) = self.transport.send(from, to, label.into(), payload) else {
            return true;
        };
        self.fail_job(
            round,
            AtomError::Engine {
                kind: EngineErrorKind::TransportLost,
                reason: format!("send {from} -> {to} ({label}) failed: {error}"),
                nodes: vec![to],
            },
        );
        false
    }

    /// Fails each unresolved round `cause` names, with a diagnosis that
    /// `cause` opens and that names what the round still waits for: which
    /// groups never reported maps a silent stall back to the dead process.
    fn fail_unresolved(&self, kind: EngineErrorKind, cause: impl Fn(usize) -> Option<String>) {
        for (round, job) in self.jobs.iter().enumerate() {
            if job.finalized() {
                continue;
            }
            let Some(cause) = cause(round) else {
                continue;
            };
            let (detail, nodes) = self.stall_detail(job);
            let reason = format!("{cause}{detail}");
            self.fail_job(
                round,
                AtomError::Engine {
                    kind,
                    reason,
                    nodes,
                },
            );
        }
    }

    /// What an unresolved round waits for, asked of the phase it is stuck
    /// in: the diagnosis, with each outstanding group tagged local/remote,
    /// and the remote group nodes, which a
    /// [`FaultVerdict`](crate::fault::FaultVerdict) maps to a process.
    fn stall_detail(&self, job: &JobState) -> (String, Vec<usize>) {
        if let Some(waiting) = job.phase.as_ref().and_then(|p| p.lock().waiting_on(self)) {
            return waiting;
        }
        if self.role.coordinator {
            if let Some(waiting) = job.intake.waiting_on() {
                return waiting;
            }
        }
        exit::waiting_on(self, job)
    }

    /// Names `gids` as `"g (local), h (remote)"` — a remote tag names a
    /// peer process as the likely casualty — and returns the remote ones.
    fn locate(&self, gids: Vec<usize>) -> (String, Vec<usize>) {
        let remote = |gid: &usize| !self.transport.is_local(*gid);
        let named: Vec<String> = (gids.iter())
            .map(|gid| format!("{gid} ({})", if remote(gid) { "remote" } else { "local" }))
            .collect();
        (named.join(", "), gids.into_iter().filter(remote).collect())
    }
}

/// The parallel execution engine. See the module docs.
pub struct Engine {
    options: EngineOptions,
}

impl Engine {
    /// An engine with the given options.
    pub fn new(options: EngineOptions) -> Self {
        Self { options }
    }

    /// An engine with default options and `workers` threads.
    pub fn with_workers(workers: usize) -> Self {
        Self::new(EngineOptions::with_workers(workers))
    }

    /// Runs a single round.
    pub fn run_round(&self, job: RoundJob) -> AtomResult<RoundReport> {
        self.run_rounds(vec![job])
            .pop()
            .expect("one result per job")
    }

    /// Runs `jobs` with all rounds in flight at once, returning one result
    /// per job in order. Single-process convenience: builds an
    /// [`InMemoryNetwork`] and runs as the standalone coordinator.
    pub fn run_rounds(&self, jobs: Vec<RoundJob>) -> Vec<AtomResult<RoundReport>> {
        if jobs.is_empty() {
            return Vec::new();
        }
        let max_groups = max_groups(&jobs);
        // One mailbox per group id plus the orchestrator; rounds share
        // mailboxes and are distinguished by the wire header.
        let network = InMemoryNetwork::local(max_groups + 1);
        self.run_rounds_on(jobs, &network, &EngineRole::standalone(max_groups))
    }

    /// Runs `jobs` over an explicit [`Transport`], playing `role`.
    ///
    /// The transport must expose one node per group id (of the widest
    /// round) plus the orchestrator as its **last** node, and `role` must
    /// agree with the transport's locality: this process must host exactly
    /// the mailboxes of its `hosted` groups (plus the orchestrator's iff
    /// coordinator); otherwise every job fails with [`AtomError::Config`]
    /// and no frame is sent. Every participating process derives the same
    /// `jobs` (identical directories, submissions and seeds — except that
    /// under [`RoundDirectory::Sharded`] only the coordinator needs
    /// submissions, and each process derives only its hosted groups' DKGs)
    /// and calls this concurrently; the coordinator's returned reports
    /// carry the round outputs, byte-identical to a single-process run of
    /// the same jobs.
    pub fn run_rounds_on(
        &self,
        jobs: Vec<RoundJob>,
        transport: &dyn Transport,
        role: &EngineRole,
    ) -> Vec<AtomResult<RoundReport>> {
        if jobs.is_empty() {
            return Vec::new();
        }
        let orchestrator = match check_layout(max_groups(&jobs), transport, role) {
            Ok(orchestrator) => orchestrator,
            Err(reason) => return vec![Err(AtomError::Config(reason)); jobs.len()],
        };
        let workers = self.options.workers.max(1);
        let (states, starts): (Vec<JobState>, Vec<Start>) = (jobs.into_iter().enumerate())
            .map(|(round, job)| JobState::new(round, job, role, &self.options, workers))
            .unzip();
        let sched = Arc::new(Scheduler {
            queue: std::sync::Mutex::new(VecDeque::new()),
            ready: std::sync::Condvar::new(),
            pending_jobs: AtomicUsize::new(states.len()),
            executing: AtomicUsize::new(0),
            last_progress: Mutex::new(Instant::now()),
        });
        let shared = Shared {
            jobs: &states,
            sched: Arc::clone(&sched),
            transport,
            orchestrator,
            role,
            options: &self.options,
        };

        // Prebuilt rounds are installed (and their intake released) before
        // any worker runs; sharded rounds start at their directory
        // derivation. All rounds' tasks coexist on the one queue, which is
        // what overlaps round `r + 1`'s directory work with round `r`'s
        // mixing tail. A round this process cannot even set up resolves
        // here, which also tells the other processes not to wait on it.
        for (round, start) in starts.into_iter().enumerate() {
            match start {
                Start::Install(setup) => setup::install(&shared, round, setup),
                Start::Derive => setup::derive(&shared, round),
                Start::Idle => shared.resolve(round, Ok(exit::member_stub(&states[round]))),
                Start::Fail(error) => shared.fail_job(round, error),
            }
        }

        // Arrivals wake the pool through the delivery hook; a sweep over
        // already-queued mailboxes covers envelopes that raced in between
        // transport setup and this point.
        let hook_sched = Arc::clone(&sched);
        transport.set_delivery_hook(Some(Arc::new(move |node| {
            hook_sched.push_task(Task::Deliver { node });
        })));
        for node in 0..transport.nodes() {
            if transport.is_local(node) && transport.pending(node) > 0 {
                sched.push_task(Task::Deliver { node });
            }
        }

        if sched.pending_jobs.load(Ordering::SeqCst) > 0 {
            let stall_timeout = self.options.stall_timeout.max(Duration::from_millis(10));
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| worker_loop(&shared, stall_timeout));
                }
            });
        }
        // Detach the hook: late arrivals (e.g. duplicate aborts) still land
        // in mailboxes but no longer reach this run's queue.
        transport.set_delivery_hook(None);

        let never = || Err(AtomError::Malformed("round never completed".into()));
        (states.into_iter())
            .map(|state| state.result.into_inner().unwrap_or_else(never))
            .collect()
    }
}

/// The group count of the widest round.
fn max_groups(jobs: &[RoundJob]) -> usize {
    jobs.iter()
        .map(|job| job.config().num_groups)
        .max()
        .unwrap_or(1)
}

/// Checks that `transport` and `role` can run rounds of up to `max_groups`
/// groups (see [`Engine::run_rounds_on`]), returning the orchestrator node.
fn check_layout(
    max_groups: usize,
    transport: &dyn Transport,
    role: &EngineRole,
) -> Result<usize, String> {
    let nodes = transport.nodes();
    if nodes <= max_groups {
        return Err(format!(
            "transport exposes {nodes} nodes; the deployment needs {max_groups} groups + \
             orchestrator"
        ));
    }
    let orchestrator = nodes - 1;
    if transport.is_local(orchestrator) != role.coordinator {
        return Err("the orchestrator mailbox must be local exactly on the coordinator".into());
    }
    match (role.hosted.iter()).find(|&&gid| gid >= nodes || !transport.is_local(gid)) {
        Some(gid) => Err(format!(
            "hosted group {gid}'s mailbox is not local to this process"
        )),
        None => Ok(orchestrator),
    }
}

/// What an idle worker does next ([`watchdog`]): fail every unresolved
/// round after this long a silence, fail these rounds (each with how long
/// its clock ran), or wait at most this long for a task.
#[derive(Debug, PartialEq)]
enum Watch {
    Stall(Duration),
    Expired(Vec<(usize, Duration)>),
    Wait(Duration),
}

/// The stall detector and the round clock, at `now`, for a worker that
/// found the queue empty. `progress` is when a task last finished (`None`
/// while one executes), `clocks` when each unresolved round's clock
/// started; a zero `deadline` disarms the round clock. A silent dead peer
/// stalls the engine; a peer dripping one frame per stall window defeats
/// that detector, but not a round's clock.
fn watchdog(
    now: Instant,
    progress: Option<Instant>,
    clocks: impl IntoIterator<Item = Option<Instant>>,
    (stall, deadline): (Duration, Duration),
) -> Watch {
    let silence = progress.map_or(Duration::ZERO, |last| now.saturating_duration_since(last));
    if progress.is_some() && silence >= stall {
        return Watch::Stall(silence);
    }
    let (mut wait, mut expired) = (stall - silence, Vec::new());
    let armed = clocks
        .into_iter()
        .enumerate()
        .filter(|_| !deadline.is_zero());
    for (round, ran) in armed.filter_map(|(r, c)| Some((r, now.saturating_duration_since(c?)))) {
        match deadline.checked_sub(ran).filter(|left| !left.is_zero()) {
            Some(left) => wait = wait.min(left),
            None => expired.push((round, ran)),
        }
    }
    match expired.is_empty() {
        true => Watch::Wait(wait),
        false => Watch::Expired(expired),
    }
}

fn worker_loop(shared: &Shared<'_>, stall_timeout: Duration) {
    let clocks = (stall_timeout, shared.options.round_deadline);
    // Held from a task's start until this worker finds the queue empty.
    let mut busy: Option<Executing> = None;
    loop {
        let task = {
            let mut queue = shared.sched.queue_lock();
            loop {
                if let Some(task) = queue.pop_front() {
                    break task;
                }
                if shared.sched.pending_jobs.load(Ordering::SeqCst) == 0 {
                    return;
                }
                // One clock read stamps the progress and feeds the watchdog.
                let now = Instant::now();
                if let Some(done) = busy.take() {
                    *shared.sched.last_progress.lock() = now;
                    drop(done);
                }
                let idle = shared.sched.executing.load(Ordering::SeqCst) == 0;
                let progress = idle.then(|| *shared.sched.last_progress.lock());
                let rounds = (shared.jobs.iter())
                    .map(|job| job.started.get().copied().filter(|_| !job.finalized()));
                // Failing rounds re-acquires the queue lock (`resolve`
                // notifies under it), so the lock is dropped first.
                match watchdog(now, progress, rounds, clocks) {
                    Watch::Stall(silence) => {
                        drop(queue);
                        shared.fail_unresolved(EngineErrorKind::Stall, |round| {
                            Some(format!(
                                "engine stalled: no task progress for {silence:?} (remote peer \
                                 lost?); round {round} "
                            ))
                        });
                        return;
                    }
                    Watch::Expired(expired) => {
                        drop(queue);
                        shared.fail_unresolved(EngineErrorKind::Deadline, |round| {
                            let &(_, ran) = expired.iter().find(|(r, _)| *r == round)?;
                            Some(format!(
                                "round {round} outlived its {:?} deadline ({ran:?} elapsed): \
                                 progress kept trickling in — slow-loris peer? — but the round \
                                 never finished; ",
                                clocks.1
                            ))
                        });
                        queue = shared.sched.queue_lock();
                    }
                    Watch::Wait(wait) => {
                        let waited = shared.sched.ready.wait_timeout(queue, wait);
                        queue = waited.unwrap_or_else(PoisonError::into_inner).0;
                    }
                }
            }
        };
        busy.get_or_insert_with(|| Executing::enter(shared));
        match task {
            Task::IntakeChunk { round, chunk } => intake::run_intake_chunk(shared, round, chunk),
            Task::Deliver { node } => run_deliver(shared, node),
            Task::SetupGroup { round, gid } => setup::run_setup_group(shared, round, gid),
            Task::SetupTrustees { round } => setup::run_setup_trustees(shared, round),
        }
    }
}

/// Marks a worker as executing until dropped. A task that unwinds must not
/// strand the other workers in their wait: the drop fails every open round.
struct Executing<'a, 'b>(&'a Shared<'b>);

impl<'a, 'b> Executing<'a, 'b> {
    fn enter(shared: &'a Shared<'b>) -> Self {
        shared.sched.executing.fetch_add(1, Ordering::SeqCst);
        Self(shared)
    }
}

impl Drop for Executing<'_, '_> {
    fn drop(&mut self) {
        let shared = self.0;
        shared.sched.executing.fetch_sub(1, Ordering::SeqCst);
        if std::thread::panicking() {
            shared.fail_all("engine worker panicked; round abandoned");
        }
    }
}

/// Drains a local mailbox and routes each frame to its round's phase: mix
/// batches feed the node's group actor, exit frames accumulate at the
/// orchestrator, setup frames build a sharded directory
/// and abort frames fail their round. This is the one place a frame's
/// round is checked against the run's job list.
fn run_deliver(shared: &Shared<'_>, node: usize) {
    for envelope in shared.transport.drain(node) {
        let decoded = match wire::decode(&envelope.payload) {
            // Client traffic terminates at the ingress tier, and membership
            // control and telemetry travel beside the mesh's mailboxes: a
            // submit, ack, rejoin or telemetry frame here is misdirected and
            // ignored.
            Ok(Frame::Submit(_) | Frame::SubmitAck(_) | Frame::Rejoin(_) | Frame::Telemetry(_)) => {
                atom_obs::count("engine.misdirected.frames", 1);
                continue;
            }
            decoded => decoded,
        };
        // Every other frame stores its wire round right after the kind byte
        // (an undecodable one usually still does): translate it into this
        // run's job index. A frame below the epoch fence is a straggler
        // from an earlier epoch and must never be misdelivered to the
        // round reusing its index.
        let wire_round = wire::decode_round(&envelope.payload);
        let Some(round) = wire_round.and_then(|wire_round| shared.job_index(wire_round)) else {
            atom_obs::count("engine.stale.frames", 1);
            continue;
        };
        if round >= shared.jobs.len() {
            // A frame naming no round of this run cannot be attributed, so
            // every round fails rather than wait on what it displaced.
            shared.fail_all("frame names an unknown round");
            continue;
        }
        match decoded {
            // Within one process every envelope is engine-generated, so a
            // decode failure means format skew; over TCP it means a corrupt
            // or hostile peer. Either way, dropping it would strand the
            // receiving actor forever: fail the round its header names.
            Err(error) => shared.fail_job(round, error),
            Ok(Frame::Mix(mix)) => mix::on_mix_frame(shared, round, node, mix),
            Ok(Frame::Exit(exit)) => exit::on_exit_frame(shared, round, node, exit),
            Ok(Frame::Setup(setup)) => setup::on_setup_frame(shared, round, setup),
            Ok(Frame::Abort(abort)) => shared.fail_job(
                round,
                AtomError::Engine {
                    kind: EngineErrorKind::ProtocolAbort,
                    reason: format!("round aborted by a peer: {}", abort.reason),
                    nodes: Vec::new(),
                },
            ),
            Ok(Frame::Rejoin(_) | Frame::Submit(_) | Frame::SubmitAck(_) | Frame::Telemetry(_)) => {
                unreachable!("misdirected frames name no job")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::intake::chunk_ranges;
    use super::*;
    use atom_core::config::AtomConfig;
    use atom_core::directory::derive_setup;
    use atom_core::message::make_trap_submission;
    use atom_core::round::RoundDriver;
    use atom_net::{FaultyTransport, SendFault};

    use crate::fault::slow_groups;

    fn trap_jobs(rounds: usize, seed: u64) -> (Vec<RoundJob>, Vec<Vec<String>>) {
        let mut rng = StdRng::seed_from_u64(77);
        let mut jobs = Vec::new();
        let mut expected = Vec::new();
        for round in 0..rounds {
            let mut config = AtomConfig::test_default();
            config.num_groups = 3;
            config.iterations = 2;
            config.message_len = 24;
            config.round = round as u64;
            let setup = derive_setup(&config).unwrap();
            let messages: Vec<String> = (0..4).map(|i| format!("round {round} msg {i}")).collect();
            let submissions: Vec<TrapSubmission> = messages
                .iter()
                .enumerate()
                .map(|(i, message)| {
                    let gid = i % config.num_groups;
                    make_trap_submission(
                        gid,
                        &setup.groups[gid].public_key,
                        &setup.trustees.public_key,
                        config.round,
                        message.as_bytes(),
                        config.message_len,
                        &mut rng,
                    )
                    .unwrap()
                    .0
                })
                .collect();
            jobs.push(RoundJob::new(
                setup,
                RoundSubmissions::Trap(submissions),
                seed + round as u64,
            ));
            expected.push(messages);
        }
        (jobs, expected)
    }

    fn recovered(output: &RoundOutput) -> Vec<String> {
        let mut messages: Vec<String> = output
            .plaintexts
            .iter()
            .map(|p| {
                String::from_utf8(p.iter().copied().take_while(|&b| b != 0).collect()).unwrap()
            })
            .collect();
        messages.sort();
        messages
    }

    /// The watchdog's decisions at synthetic instants: `at(ms)` is `ms`
    /// after one base instant, and the stall window is 10 s.
    #[test]
    fn the_watchdog_is_a_function_of_now() {
        let base = Instant::now();
        let at = |ms: u64| base + Duration::from_millis(ms);
        let ms = Duration::from_millis;
        let (stall, armed, disarmed) = (ms(10_000), ms(5_000), Duration::ZERO);
        let none = || std::iter::empty();

        // The stall fires iff nothing executes and the silence reaches it.
        let table = [
            (Some(at(0)), at(9_999), Watch::Wait(ms(1))),
            (Some(at(0)), at(10_000), Watch::Stall(ms(10_000))),
            (Some(at(0)), at(12_000), Watch::Stall(ms(12_000))),
            (None, at(50_000), Watch::Wait(stall)),
        ];
        for (progress, now, expected) in table {
            let watch = watchdog(now, progress, none(), (stall, armed));
            assert_eq!(watch, expected, "progress {progress:?} now {now:?}");
        }

        // The round clock fails exactly the started, unresolved rounds past
        // it: round 0 never started (or resolved), 2 has 1 ms left.
        let clocks = [None, Some(at(0)), Some(at(1)), Some(at(0)), Some(at(3_000))];
        let watch = watchdog(at(5_000), None, clocks, (stall, armed));
        assert_eq!(watch, Watch::Expired(vec![(1, ms(5_000)), (3, ms(5_000))]));
        let watch = watchdog(at(5_000), None, clocks, (stall, disarmed));
        assert_eq!(watch, Watch::Wait(stall), "a zero deadline disarms it");

        // Otherwise the wait is the nearer of the two.
        let nearer = [
            (at(4_000), [Some(at(1_000))], armed, ms(2_000)),
            (at(4_000), [Some(at(3_000))], armed, ms(4_000)),
            (at(4_000), [None], armed, ms(6_000)),
            (at(4_000), [Some(at(1_000))], disarmed, ms(6_000)),
        ];
        for (now, clocks, deadline, wait) in nearer {
            let watch = watchdog(now, Some(at(0)), clocks, (stall, deadline));
            assert_eq!(
                watch,
                Watch::Wait(wait),
                "clocks {clocks:?} deadline {deadline:?}"
            );
        }

        // A stall takes precedence over an expired round.
        let watch = watchdog(at(10_000), Some(at(0)), [Some(at(0))], (stall, armed));
        assert_eq!(watch, Watch::Stall(stall));
    }

    #[test]
    fn single_round_delivers_and_matches_sequential_driver() {
        let (jobs, expected) = trap_jobs(1, 1000);
        let sequential = RoundDriver::new(jobs[0].full_setup().unwrap().clone());
        let submissions = match &jobs[0].submissions {
            RoundSubmissions::Trap(s) => s.clone(),
            _ => unreachable!(),
        };
        let mut driver_rng = StdRng::seed_from_u64(jobs[0].seed);
        let sequential_output = sequential
            .run_trap_round(&submissions, &mut driver_rng)
            .unwrap();

        let engine = Engine::with_workers(3);
        let report = engine.run_round(jobs.into_iter().next().unwrap()).unwrap();

        let mut want = expected[0].clone();
        want.sort();
        assert_eq!(recovered(&report.output), want);
        // Byte equivalence, not just set equivalence.
        assert_eq!(report.output.plaintexts, sequential_output.plaintexts);
        assert_eq!(report.output.per_group, sequential_output.per_group);
        assert_eq!(
            report.output.routed_ciphertexts,
            sequential_output.routed_ciphertexts
        );
        assert!(report.mix_messages > 0);
        assert!(report.mix_bytes > 0);
    }

    #[test]
    fn multiple_rounds_pipeline_in_one_run() {
        let (jobs, expected) = trap_jobs(3, 2000);
        let engine = Engine::with_workers(4);
        let reports = engine.run_rounds(jobs);
        assert_eq!(reports.len(), 3);
        for (report, want) in reports.into_iter().zip(expected) {
            let report = report.unwrap();
            let mut want = want;
            want.sort();
            assert_eq!(recovered(&report.output), want);
        }
    }

    #[test]
    fn engine_reports_per_round_failures_without_poisoning_others() {
        let (mut jobs, expected) = trap_jobs(2, 3000);
        jobs[0].adversary = Some(AdversaryPlan {
            group: 1,
            member: 1,
            iteration: 0,
            action: atom_core::adversary::Misbehavior::DropMessage { slot: 0 },
        });
        let engine = Engine::with_workers(2);
        let reports = engine.run_rounds(jobs);
        assert!(matches!(reports[0], Err(AtomError::TrapCheckFailed(_))));
        let ok = reports[1].as_ref().unwrap();
        let mut want = expected[1].clone();
        want.sort();
        assert_eq!(recovered(&ok.output), want);
    }

    #[test]
    fn escrow_reconstruction_heals_a_group_past_its_tolerance() {
        // h = 2: Lagrange reweighting covers one failure per group. Killing
        // TWO members of group 0 exceeds that, so building its actor must
        // take the buddy-escrow fallback (§4.5) — and the round still
        // delivers every message, because the reconstructed shares belong
        // to the same group key the submissions were encrypted under.
        let mut rng = StdRng::seed_from_u64(44);
        let mut config = AtomConfig::test_default();
        config.num_servers = 16;
        config.required_honest = 2;
        config.message_len = 24;
        let setup = derive_setup(&config).unwrap();
        let victims = vec![setup.groups[0].members[0], setup.groups[0].members[1]];
        assert!(
            setup.groups[0].participating(&victims).is_err(),
            "two failures must exceed the Lagrange path's tolerance"
        );
        let messages: Vec<String> = (0..4).map(|i| format!("escrow msg {i}")).collect();
        let submissions: Vec<TrapSubmission> = messages
            .iter()
            .enumerate()
            .map(|(i, message)| {
                let gid = i % config.num_groups;
                make_trap_submission(
                    gid,
                    &setup.groups[gid].public_key,
                    &setup.trustees.public_key,
                    config.round,
                    message.as_bytes(),
                    config.message_len,
                    &mut rng,
                )
                .unwrap()
                .0
            })
            .collect();
        let mut job = RoundJob::new(setup, RoundSubmissions::Trap(submissions), 4100);
        job.failed_servers = victims;
        let report = Engine::with_workers(3).run_round(job).unwrap();
        let mut want = messages;
        want.sort();
        assert_eq!(recovered(&report.output), want);
    }

    #[test]
    fn epoch_fence_drops_stale_frames_but_maps_current_ones() {
        // A stale abort from an earlier epoch (wire round id below the
        // fence) must be dropped, not misdelivered to the retried round
        // that reuses job index 0.
        let (jobs, expected) = trap_jobs(1, 9100);
        let groups = jobs[0].config().num_groups;
        let network = InMemoryNetwork::local(groups + 1);
        network.send(0, groups, ABORT_LABEL, wire::encode_abort(2, "stale"));
        let mut options = EngineOptions::with_workers(2);
        options.round_offset = 7;
        let report = Engine::new(options.clone())
            .run_rounds_on(jobs, &network, &EngineRole::standalone(groups))
            .pop()
            .unwrap()
            .unwrap();
        let mut want = expected[0].clone();
        want.sort();
        assert_eq!(recovered(&report.output), want);

        // An abort in the current epoch's id range still maps back onto
        // the job it names and fails it, exactly as without the fence.
        let (jobs, _) = trap_jobs(1, 9100);
        let network = InMemoryNetwork::local(groups + 1);
        network.send(0, groups, ABORT_LABEL, wire::encode_abort(7, "current"));
        let result = Engine::new(options)
            .run_rounds_on(jobs, &network, &EngineRole::standalone(groups))
            .pop()
            .unwrap();
        match result {
            Err(AtomError::Engine {
                kind: EngineErrorKind::ProtocolAbort,
                ..
            }) => {}
            other => panic!("want a ProtocolAbort failure, got {other:?}"),
        }
    }

    #[test]
    fn wire_rounds_past_u32_fail_as_config_errors_instead_of_wrapping() {
        // Job 0 sits on the last u32 wire round; job 1 would wrap to 0,
        // which its own run fences as stale, and stall.
        let (jobs, expected) = trap_jobs(2, 9200);
        let mut options = EngineOptions::with_workers(2);
        options.round_offset = u32::MAX as usize;
        options.stall_timeout = Duration::from_secs(5);
        let mut reports = Engine::new(options).run_rounds(jobs).into_iter();
        let report = reports.next().unwrap().unwrap();
        let mut want = expected[0].clone();
        want.sort();
        assert_eq!(recovered(&report.output), want);
        match reports.next().unwrap() {
            Err(AtomError::Config(reason)) => assert!(reason.contains("round_offset"), "{reason}"),
            other => panic!("want a round_offset Config error, got {other:?}"),
        }
    }

    #[test]
    fn chunk_ranges_cover_contiguously() {
        assert_eq!(chunk_ranges(0, 0, 4), vec![(0, 0)]);
        assert_eq!(chunk_ranges(7, 2, 4), vec![(0, 2), (2, 4), (4, 6), (6, 7)]);
        assert_eq!(chunk_ranges(7, usize::MAX, 4), vec![(0, 7)]);
        // Auto sizing spreads across the worker pool.
        assert_eq!(chunk_ranges(8, 0, 4), vec![(0, 2), (2, 4), (4, 6), (6, 8)]);
        assert_eq!(chunk_ranges(3, 0, 8), vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn chunked_intake_output_is_byte_identical_across_chunkings() {
        let (jobs, _) = trap_jobs(1, 6000);
        let job = jobs.into_iter().next().unwrap();
        let mut reference: Option<RoundOutput> = None;
        for chunk in [1usize, 2, 3, usize::MAX] {
            let mut options = EngineOptions::with_workers(3);
            options.intake_chunk = chunk;
            let report = Engine::new(options).run_round(job.clone()).unwrap();
            match &reference {
                None => reference = Some(report.output),
                Some(want) => {
                    assert_eq!(report.output.plaintexts, want.plaintexts, "chunk={chunk}");
                    assert_eq!(report.output.per_group, want.per_group, "chunk={chunk}");
                    assert_eq!(
                        report.output.routed_ciphertexts, want.routed_ciphertexts,
                        "chunk={chunk}"
                    );
                }
            }
        }
    }

    /// A [`SubmissionSource`] over a prebuilt vector that counts how many
    /// submissions it actually materialized — the streaming tests' probe
    /// for "the flood was never buffered" and "only a window was resident".
    struct SlicedSource {
        submissions: Vec<TrapSubmission>,
        generated: AtomicUsize,
    }

    impl SlicedSource {
        fn new(submissions: Vec<TrapSubmission>) -> Self {
            Self {
                submissions,
                generated: AtomicUsize::new(0),
            }
        }
    }

    impl SubmissionSource for SlicedSource {
        fn total(&self) -> usize {
            self.submissions.len()
        }

        fn defense(&self) -> Defense {
            Defense::Trap
        }

        fn generate(&self, (start, end): (usize, usize)) -> AtomResult<SubmissionBlock> {
            self.generated.fetch_add(end - start, Ordering::SeqCst);
            Ok(SubmissionBlock::Trap(self.submissions[start..end].to_vec()))
        }
    }

    fn trap_submissions_of(job: &RoundJob) -> Vec<TrapSubmission> {
        match &job.submissions {
            RoundSubmissions::Trap(s) => s.clone(),
            _ => unreachable!(),
        }
    }

    #[test]
    fn streaming_intake_is_byte_identical_across_windows() {
        let (jobs, _) = trap_jobs(1, 8200);
        let job = jobs.into_iter().next().unwrap();
        let submissions = trap_submissions_of(&job);
        let reference = Engine::with_workers(3).run_round(job.clone()).unwrap();

        for (window, chunk) in [(1usize, 1usize), (1, 2), (2, 1), (3, 3), (0, 1)] {
            let source = Arc::new(SlicedSource::new(submissions.clone()));
            let mut streamed = job.clone();
            streamed.submissions = RoundSubmissions::Stream(Arc::clone(&source) as _);
            let mut options = EngineOptions::with_workers(3);
            options.intake_chunk = chunk;
            options.intake_window = window;
            let report = Engine::new(options).run_round(streamed).unwrap();
            assert_eq!(
                report.output.plaintexts, reference.output.plaintexts,
                "window={window} chunk={chunk}"
            );
            assert_eq!(report.output.per_group, reference.output.per_group);
            assert_eq!(
                report.output.routed_ciphertexts,
                reference.output.routed_ciphertexts
            );
            assert_eq!(
                source.generated.load(Ordering::SeqCst),
                submissions.len(),
                "every submission must stream through exactly once"
            );
        }
    }

    #[test]
    fn bounded_window_keeps_only_a_window_resident() {
        let (jobs, _) = trap_jobs(1, 8300);
        let job = jobs.into_iter().next().unwrap();
        let submissions = trap_submissions_of(&job);
        let total = submissions.len();
        let mut streamed = job;
        streamed.submissions = RoundSubmissions::Stream(Arc::new(SlicedSource::new(submissions)));
        let mut options = EngineOptions::with_workers(3);
        options.intake_chunk = 1;
        options.intake_window = 1;

        let _guard = crate::OBS_LOCK
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        atom_obs::reset();
        atom_obs::set_enabled(true);
        let report = Engine::new(options).run_round(streamed);
        let peak = atom_obs::gauge_peak("engine.intake.peak_in_flight");
        atom_obs::set_enabled(false);
        atom_obs::reset();

        report.unwrap();
        let peak = peak.expect("streaming intake records its peak");
        assert!(
            peak >= 1 && peak < total as u64,
            "window of 1 chunk x 1 submission must keep fewer than all \
             {total} submissions resident, saw peak {peak}"
        );
    }

    #[test]
    fn intake_cap_rejects_a_flood_without_materializing_it() {
        let (jobs, _) = trap_jobs(1, 8400);
        let job = jobs.into_iter().next().unwrap();
        let submissions = trap_submissions_of(&job);
        let total = submissions.len();
        let source = Arc::new(SlicedSource::new(submissions));
        let mut flooded = job;
        flooded.submissions = RoundSubmissions::Stream(Arc::clone(&source) as _);
        let mut options = EngineOptions::with_workers(2);
        options.intake_cap = total - 1;

        let err = Engine::new(options).run_round(flooded).unwrap_err();
        match &err {
            AtomError::Engine { kind, reason, .. } => {
                assert_eq!(*kind, EngineErrorKind::ProtocolAbort);
                assert!(
                    reason.contains("submission flood") && reason.contains("intake cap"),
                    "diagnosis must name the flood: {reason}"
                );
            }
            other => panic!("expected an engine abort, got {other:?}"),
        }
        assert_eq!(
            source.generated.load(Ordering::SeqCst),
            0,
            "a capped flood must fail closed before materializing anything"
        );
    }

    #[test]
    fn chunked_intake_reports_the_same_rejection_as_the_sequential_driver() {
        let (mut jobs, _) = trap_jobs(1, 7000);
        // Rebind submission 2 to another entry group without re-proving: the
        // batch check must fail, fall back, and name submission 2.
        if let RoundSubmissions::Trap(subs) = &mut jobs[0].submissions {
            subs[2].entry_group = (subs[2].entry_group + 1) % 3;
        }
        let submissions = match &jobs[0].submissions {
            RoundSubmissions::Trap(s) => s.clone(),
            _ => unreachable!(),
        };
        let driver = RoundDriver::new(jobs[0].full_setup().unwrap().clone());
        let mut driver_rng = StdRng::seed_from_u64(jobs[0].seed);
        let sequential_err = driver
            .run_trap_round(&submissions, &mut driver_rng)
            .unwrap_err();

        for chunk in [1usize, 2, usize::MAX] {
            let mut options = EngineOptions::with_workers(3);
            options.intake_chunk = chunk;
            let err = Engine::new(options).run_round(jobs[0].clone()).unwrap_err();
            assert_eq!(
                format!("{err:?}"),
                format!("{sequential_err:?}"),
                "chunk={chunk}"
            );
        }
    }

    #[test]
    fn nizk_adversary_verdict_matches_sequential_driver() {
        use atom_core::message::make_nizk_submission;

        let mut rng = StdRng::seed_from_u64(88);
        let mut config = AtomConfig::test_default();
        config.defense = atom_core::config::Defense::Nizk;
        config.num_groups = 3;
        config.iterations = 2;
        config.message_len = 24;
        let setup = derive_setup(&config).unwrap();
        let submissions: Vec<_> = (0..6)
            .map(|i| {
                let gid = i % config.num_groups;
                make_nizk_submission(
                    gid,
                    &setup.groups[gid].public_key,
                    format!("msg {i}").as_bytes(),
                    config.message_len,
                    &mut rng,
                )
                .unwrap()
                .0
            })
            .collect();
        let plan = AdversaryPlan {
            group: 2,
            member: 3,
            iteration: 1,
            action: atom_core::adversary::Misbehavior::ReplaceMessage { slot: 0 },
        };

        let driver = RoundDriver::new(setup.clone()).with_adversary(plan);
        let mut driver_rng = StdRng::seed_from_u64(4321);
        let sequential_err = driver
            .run_nizk_round(&submissions, &mut driver_rng)
            .unwrap_err();

        let mut job = RoundJob::new(setup, RoundSubmissions::Nizk(submissions), 4321);
        job.adversary = Some(plan);
        let mut options = EngineOptions::with_workers(3);
        options.intake_chunk = 2;
        let engine_err = Engine::new(options).run_round(job).unwrap_err();

        // Batched re-encryption verification must fall back and blame the
        // exact same server for the exact same reason.
        match (&engine_err, &sequential_err) {
            (
                AtomError::ProtocolViolation {
                    group: g1,
                    member: m1,
                    reason: r1,
                },
                AtomError::ProtocolViolation {
                    group: g2,
                    member: m2,
                    reason: r2,
                },
            ) => {
                assert_eq!((g1, m1), (g2, m2));
                assert_eq!(r1, r2);
                assert_eq!(*g1, 2);
                assert_eq!(*m1, Some(3));
            }
            other => panic!("expected matching protocol violations, got {other:?}"),
        }
    }

    fn sharded_pair(rounds: usize, seed: u64) -> (Vec<RoundJob>, Vec<RoundJob>) {
        use atom_core::directory::derive_setup;
        let mut rng = StdRng::seed_from_u64(91);
        let mut full = Vec::new();
        let mut sharded = Vec::new();
        for round in 0..rounds {
            let mut config = AtomConfig::test_default();
            config.num_groups = 3;
            config.iterations = 2;
            config.message_len = 24;
            config.round = round as u64;
            config.beacon_seed = 0xD1CE ^ round as u64;
            let setup = derive_setup(&config).unwrap();
            let submissions: Vec<TrapSubmission> = (0..4)
                .map(|i| {
                    let gid = i % config.num_groups;
                    make_trap_submission(
                        gid,
                        &setup.groups[gid].public_key,
                        &setup.trustees.public_key,
                        config.round,
                        format!("sharded r{round} m{i}").as_bytes(),
                        config.message_len,
                        &mut rng,
                    )
                    .unwrap()
                    .0
                })
                .collect();
            full.push(RoundJob::new(
                setup,
                RoundSubmissions::Trap(submissions.clone()),
                seed + round as u64,
            ));
            sharded.push(RoundJob::sharded(
                config,
                RoundSubmissions::Trap(submissions),
                seed + round as u64,
            ));
        }
        (full, sharded)
    }

    #[test]
    fn sharded_setup_matches_prebuilt_derivation_byte_for_byte() {
        let (full, sharded) = sharded_pair(2, 42_000);
        let engine = Engine::with_workers(3);
        let reference = engine.run_rounds(full);
        let derived = engine.run_rounds(sharded);
        assert_eq!(reference.len(), derived.len());
        for (round, (want, got)) in reference.iter().zip(&derived).enumerate() {
            let want = want.as_ref().unwrap();
            let got = got.as_ref().unwrap();
            assert_eq!(
                got.output.plaintexts, want.output.plaintexts,
                "round {round} plaintexts diverge"
            );
            assert_eq!(got.output.per_group, want.output.per_group);
            assert_eq!(
                got.output.routed_ciphertexts,
                want.output.routed_ciphertexts
            );
            assert_eq!(got.mix_messages, want.mix_messages);
            assert_eq!(got.mix_bytes, want.mix_bytes);
            // The prebuilt directory predates the engine; the sharded one
            // was derived inside the run and must report its cost.
            assert_eq!(want.setup_latency, Duration::ZERO);
            assert!(got.setup_latency > Duration::ZERO);
        }
    }

    #[test]
    fn sharded_round_reports_failures_like_a_prebuilt_one() {
        let (_, mut sharded) = sharded_pair(2, 43_000);
        sharded[0].adversary = Some(AdversaryPlan {
            group: 1,
            member: 1,
            iteration: 0,
            action: atom_core::adversary::Misbehavior::DropMessage { slot: 0 },
        });
        let reports = Engine::with_workers(2).run_rounds(sharded);
        assert!(matches!(reports[0], Err(AtomError::TrapCheckFailed(_))));
        assert!(reports[1].is_ok(), "round 1 must survive round 0's failure");
    }

    #[test]
    fn sharded_round_rejects_invalid_config_up_front() {
        let mut config = AtomConfig::test_default();
        config.group_size = 0;
        let job = RoundJob::sharded(config, RoundSubmissions::Trap(Vec::new()), 1);
        let report = Engine::with_workers(1).run_round(job);
        assert!(matches!(report, Err(AtomError::Config(_))));
    }

    #[test]
    fn send_error_fails_its_round_as_transport_lost_and_spares_the_other() {
        let (jobs, expected) = trap_jobs(2, 9200);
        let groups = jobs[0].config().num_groups;
        let network = InMemoryNetwork::local(groups + 1);
        // Round 0's frames for group 2 meet a dead peer process.
        let lossy = FaultyTransport::new(&network, |_, to, payload: &[u8]| {
            if to == 2 && wire::decode_round(payload) == Some(0) {
                SendFault::Unreachable { process: 1 }
            } else {
                SendFault::Deliver
            }
        });
        // Completing at all means no worker unwound: the scope would
        // re-raise a worker panic here.
        let reports =
            Engine::with_workers(2).run_rounds_on(jobs, &lossy, &EngineRole::standalone(groups));
        match &reports[0] {
            Err(AtomError::Engine {
                kind: EngineErrorKind::TransportLost,
                reason,
                nodes,
            }) => {
                assert_eq!(nodes, &[2]);
                assert!(reason.contains("peer process 1 unreachable"), "{reason}");
            }
            other => panic!("expected a TransportLost failure, got {other:?}"),
        }
        let mut want = expected[1].clone();
        want.sort();
        assert_eq!(recovered(&reports[1].as_ref().unwrap().output), want);
    }

    struct PanickingSource;

    impl SubmissionSource for PanickingSource {
        fn total(&self) -> usize {
            4
        }

        fn defense(&self) -> Defense {
            Defense::Trap
        }

        fn generate(&self, _range: (usize, usize)) -> AtomResult<SubmissionBlock> {
            panic!("submission source exploded")
        }
    }

    #[test]
    fn unwinding_task_fails_open_rounds_instead_of_stranding_workers() {
        let (mut jobs, _) = trap_jobs(2, 9300);
        jobs[0].submissions = RoundSubmissions::Stream(Arc::new(PanickingSource));
        let mut options = EngineOptions::with_workers(2);
        options.stall_timeout = Duration::from_secs(60);
        let start = Instant::now();
        let run = std::thread::spawn(move || Engine::new(options).run_rounds(jobs)).join();
        assert!(run.is_err(), "the scope must surface the task's panic");
        // The surviving worker left because every round was resolved, not
        // because the stall detector eventually fired.
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "workers stranded"
        );
    }

    #[test]
    fn straggler_group_does_not_block_others() {
        let (jobs, expected) = trap_jobs(1, 4000);
        let groups = jobs[0].config().num_groups;
        let network = InMemoryNetwork::local(groups + 1);
        let drip = Duration::from_millis(30);
        let slow = FaultyTransport::new(&network, slow_groups(|gid| gid == 0, groups, drip));
        let reports =
            Engine::with_workers(3).run_rounds_on(jobs, &slow, &EngineRole::standalone(groups));
        let report = reports.into_iter().next().unwrap().unwrap();
        let mut want = expected[0].clone();
        want.sort();
        assert_eq!(recovered(&report.output), want);
        // The straggler's drips are wall time, one per step; at least two
        // of its steps sit on the round's critical path.
        assert!(report.wall_clock >= 2 * drip);
    }

    /// The engine's trust boundary, one hostile or misrouted frame kind per
    /// row. Each row's frames are queued in a mailbox before the run starts,
    /// so they are drained ahead of any engine traffic to that node; one
    /// worker fixes the queue order.
    #[test]
    fn hostile_frames_end_in_their_named_verdict() {
        use crate::fault::{FaultKind, FaultVerdict};
        use crate::wire::{
            ClientSubmission, ExitFrame, RejoinFrame, SetupFrame, SubmitFrame, TelemetryFrame,
        };
        use atom_core::error::AtomError;
        use atom_net::InMemoryNetwork;
        use std::time::Duration;

        enum Want {
            /// Round 0 fails as `Malformed`, naming this.
            Fails(&'static str),
            /// Every round fails as `Malformed`, naming this.
            AllFail(&'static str),
            /// Every round delivers, and the named counter rose.
            Delivers(&'static str),
        }
        struct Case {
            name: &'static str,
            rounds: usize,
            sharded: bool,
            hosted: Vec<usize>,
            frames: Vec<(usize, &'static str, Vec<u8>)>,
            want: Want,
        }

        let (probe, _) = trap_jobs(1, 9400);
        let setup = probe[0].full_setup().unwrap().clone();
        let submission = trap_submissions_of(&probe[0]).remove(0);
        let groups = setup.config.num_groups;
        let orchestrator = groups;
        let all: Vec<usize> = (0..groups).collect();
        let mix = |round| wire::encode_mix(round, 0, atom_core::actor::SOURCE, Duration::ZERO, &[]);
        let exit = wire::encode_exit(&ExitFrame {
            round: 0,
            gid: 0,
            finished_virtual: Duration::ZERO,
            mix_messages: 0,
            mix_bytes: 0,
            compute: Vec::new(),
            payloads: Vec::new(),
        });
        let cases = vec![
            Case {
                name: "setup frame for a prebuilt round",
                rounds: 1,
                sharded: false,
                hosted: all.clone(),
                frames: vec![(
                    0,
                    SETUP_LABEL,
                    wire::encode_setup(&SetupFrame {
                        round: 0,
                        gid: 1,
                        members: setup.groups[1].members.clone(),
                        threshold: setup.groups[1].threshold,
                        public_key: setup.groups[1].public_key,
                    }),
                )],
                want: Want::Fails("setup frame for a round with a prebuilt directory"),
            },
            Case {
                name: "exit frame before the sharded directory exists",
                rounds: 1,
                sharded: true,
                hosted: Vec::new(),
                frames: vec![(orchestrator, EXIT_LABEL, exit.clone())],
                want: Want::Fails("before the round directory was assembled"),
            },
            Case {
                name: "duplicate exit frame",
                rounds: 1,
                sharded: false,
                hosted: all.clone(),
                frames: vec![
                    (orchestrator, EXIT_LABEL, exit.clone()),
                    (orchestrator, EXIT_LABEL, exit),
                ],
                want: Want::Fails("duplicate exit frame from group 0"),
            },
            Case {
                name: "mix envelope for a group hosted elsewhere",
                rounds: 1,
                sharded: false,
                hosted: vec![1, 2],
                frames: vec![(0, MIX_LABEL, mix(0))],
                want: Want::Fails("mix envelope for group 0, which this process does not host"),
            },
            Case {
                name: "mix envelope past the job list",
                rounds: 2,
                sharded: false,
                hosted: all.clone(),
                frames: vec![(0, MIX_LABEL, mix(2))],
                want: Want::AllFail("unknown round"),
            },
            Case {
                name: "abort frame past the job list",
                rounds: 2,
                sharded: false,
                hosted: all.clone(),
                frames: vec![(0, ABORT_LABEL, wire::encode_abort(2, "ghost"))],
                want: Want::AllFail("unknown round"),
            },
            Case {
                name: "pre-directory mix buffer past its cap",
                rounds: 1,
                sharded: true,
                hosted: Vec::new(),
                // 3 groups x 2 iterations: the cap is 3 * (1 + 3 * 2) = 21.
                frames: (0..22).map(|_| (0, MIX_LABEL, mix(0))).collect(),
                want: Want::Fails("mix envelopes buffered before the round's directory"),
            },
            Case {
                name: "client submit frame on the mesh",
                rounds: 1,
                sharded: false,
                hosted: all.clone(),
                frames: vec![(
                    0,
                    MIX_LABEL,
                    wire::encode_submit(&SubmitFrame {
                        round: 0,
                        client: 0,
                        app: 0,
                        submission: ClientSubmission::Trap(submission),
                    }),
                )],
                want: Want::Delivers("engine.misdirected.frames"),
            },
            Case {
                name: "membership control frames mid-run",
                rounds: 1,
                sharded: false,
                hosted: all.clone(),
                frames: vec![(
                    orchestrator,
                    MIX_LABEL,
                    wire::encode_rejoin(&RejoinFrame {
                        round: 0,
                        end: 1,
                        process: 1,
                        offset: 1,
                        response: true,
                        commit: false,
                        digest: [0; 32],
                        evictions: vec![FaultVerdict {
                            round: 0,
                            process: 1,
                            kind: FaultKind::Dead,
                            servers: vec![1],
                            reason: "gone".into(),
                        }],
                    }),
                )],
                want: Want::Delivers("engine.misdirected.frames"),
            },
            Case {
                name: "telemetry frame on the mesh",
                rounds: 1,
                sharded: false,
                hosted: all,
                frames: vec![(
                    orchestrator,
                    EXIT_LABEL,
                    wire::encode_telemetry(&TelemetryFrame {
                        process: 1,
                        last: false,
                        counters: Vec::new(),
                        spans: Vec::new(),
                    }),
                )],
                want: Want::Delivers("engine.misdirected.frames"),
            },
        ];

        let counter = |name: &str| {
            atom_obs::counter_snapshot()
                .into_iter()
                .find(|(counter, _)| counter == name)
                .map_or(0, |(_, value)| value)
        };
        for case in cases {
            let name = case.name;
            let run = || {
                let jobs = if case.sharded {
                    sharded_pair(case.rounds, 9400).1
                } else {
                    trap_jobs(case.rounds, 9400).0
                };
                let network = InMemoryNetwork::local(groups + 1);
                for (node, label, payload) in &case.frames {
                    network.send(0, *node, *label, payload.clone());
                }
                let mut options = EngineOptions::with_workers(1);
                options.stall_timeout = Duration::from_secs(30);
                let role = EngineRole::coordinator(case.hosted.clone());
                Engine::new(options).run_rounds_on(jobs, &network, &role)
            };
            let malformed = |report: &AtomResult<RoundReport>, want: &str| match report {
                Err(AtomError::Malformed(reason)) => {
                    assert!(reason.contains(want), "{name}: got {reason}")
                }
                other => panic!("{name}: want a Malformed failure naming {want:?}, got {other:?}"),
            };
            match case.want {
                Want::Fails(want) => malformed(&run()[0], want),
                Want::AllFail(want) => {
                    let reports = run();
                    assert_eq!(reports.len(), case.rounds, "{name}");
                    for report in &reports {
                        malformed(report, want);
                    }
                }
                Want::Delivers(bumped) => {
                    // Another test in this binary resets recording and
                    // switches it off, which can swallow a reading: retry,
                    // and leave recording on so this test never cuts short
                    // another one's.
                    let mut attempts = 0;
                    loop {
                        atom_obs::set_enabled(true);
                        let before = counter(bumped);
                        for report in &run() {
                            assert!(report.is_ok(), "{name}: {report:?}");
                        }
                        if counter(bumped) > before {
                            break;
                        }
                        attempts += 1;
                        assert!(attempts < 5, "{name}: {bumped} never counted the frame");
                    }
                }
            }
        }
    }

    #[test]
    fn completion_hook_fires_once_per_successful_round() {
        let (mut jobs, _) = trap_jobs(3, 9700);
        // Rebind a submission of the middle round to another entry group
        // without re-proving it: that round fails at intake.
        if let RoundSubmissions::Trap(subs) = &mut jobs[1].submissions {
            subs[2].entry_group = (subs[2].entry_group + 1) % 3;
        }
        let seen = Arc::new(Mutex::new(Vec::new()));
        let tap = Arc::clone(&seen);
        let mut options = EngineOptions::with_workers(2);
        options.on_round_complete = Some(Arc::new(move |round| tap.lock().push(round)));
        let reports = Engine::new(options).run_rounds(jobs);
        assert!(reports[0].is_ok() && reports[1].is_err() && reports[2].is_ok());
        let mut seen = seen.lock().clone();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 2]);
    }

    /// Runs two rounds on a layout that cannot carry them: each fails as a
    /// `Config` error naming `want`, and no frame reaches a local mailbox.
    fn assert_layout_rejected(transport: &dyn Transport, role: &EngineRole, want: &str) {
        let (jobs, _) = trap_jobs(2, 9600);
        let reports = Engine::with_workers(2).run_rounds_on(jobs, transport, role);
        assert_eq!(reports.len(), 2);
        for report in reports {
            match report {
                Err(AtomError::Config(reason)) => assert!(reason.contains(want), "{reason}"),
                other => panic!("want a Config error naming {want:?}, got {other:?}"),
            }
        }
        for node in (0..transport.nodes()).filter(|&node| transport.is_local(node)) {
            assert_eq!(transport.pending(node), 0, "a frame reached node {node}");
        }
    }

    #[test]
    fn transport_with_too_few_nodes_fails_every_job_as_a_config_error() {
        let network = InMemoryNetwork::local(3);
        let role = EngineRole::standalone(3);
        assert_layout_rejected(&network, &role, "transport exposes 3 nodes");
    }

    #[test]
    fn orchestrator_mailbox_local_on_a_member_fails_every_job_as_a_config_error() {
        let network = InMemoryNetwork::local(4);
        let role = EngineRole::member(vec![0, 1, 2]);
        assert_layout_rejected(&network, &role, "orchestrator mailbox");
    }

    #[test]
    fn hosted_group_with_a_remote_mailbox_fails_every_job_as_a_config_error() {
        // Groups 1 and 2 belong to process 1; this process is process 0.
        let owner = vec![0, 1, 1, 0];
        let tcp = atom_net::TcpTransport::bind_any(2, owner, 0, Default::default()).unwrap();
        let role = EngineRole::coordinator(vec![0, 1]);
        assert_layout_rejected(&tcp, &role, "hosted group 1's mailbox is not local");
        tcp.shutdown();
    }
}
