//! The fleet's recovery protocol — membership churn, eviction and round
//! recovery — as two sans-I/O state machines: process 0 runs a
//! [`CoordinatorState`], every other process a [`MemberState`]. A machine
//! owns no socket, thread, engine, clock, counter or log line; its driver
//! (the fleet's one driver step, [`crate::fleet::step`], whose
//! [`crate::fleet::Carrier`] trait states the contract) feeds it [`Input`]s
//! through [`Machine::step`] and carries out the [`Action`]s each step
//! returns.
//! Before each attempt of a batch the fleet passes a two-phase handshake,
//! so every process runs the attempt's rounds, wire-round offset and
//! membership — the coordinator's to decide — that its plan names:
//!
//! ```text
//!            ┌──────────────────────────────────────────────────────┐
//!            ▼                                                      │
//!   plan ──▶ ack ──▶ drain ──▶ go ──▶ run attempt ──▶ ok? ── yes ──▶ advance
//!   (readmit at an    (purge    (commit;               │
//!    open batch start, stale    the coordinator       no
//!    round..end,       frames)  freezes)               ▼
//!    offset, dead,     diagnose lowest failed round → FaultVerdict, extend
//!    per-round         the eviction log, re-plan the rounds without a report
//!    membership)
//! ```
//!
//! **Detection.** A dead process surfaces as an engine failure that
//! [`FaultVerdict::diagnose`] pins on it, as a plan send that fails, or as
//! a member that never acks. The coordinator convicts, extends its
//! eviction log and re-plans; the next plan names the process dead.
//!
//! **Healing.** A retried detection round keeps the membership frozen at
//! its go and marks the evicted servers *failed*, so its groups heal by
//! Lagrange reweighting or buddy escrow (§4.5); later rounds re-form over
//! the survivors. Both live in the coordinator's ledger, the only one:
//! members keep none.
//!
//! **Job derivation.** A plan runs `round..end`: the lowest round without a
//! report up to the first round with one or the batch end. It carries the
//! evicted processes and, per round, the servers the directory excludes
//! and those it heals around. Every process builds its [`Action::Prepare`]
//! from those bytes through one function — the coordinator after sending
//! the plan, a member before acking it — so all derive the same jobs. A
//! plan a member's check refuses ends the member with a named error.
//!
//! **Epoch fencing.** An attempt runs at the plan's offset, `epoch × batch`,
//! so a straggling frame of a failed attempt is dropped as stale. Members
//! take the offset from the plan and never know the batch size.
//!
//! **Rejoin.** A restarted process sends a `rejoin` request; the plan that
//! readmits it tells it the membership. The coordinator
//! readmits in one place: planning a batch start none of whose rounds is
//! frozen (an *open* plan). A request read while an open plan awaits its
//! acks supersedes it with one that readmits the requester, so a request
//! read during any batch start's handshake, the last one's included, is
//! readmitted there.

mod ledger;

use std::collections::{BTreeMap, BTreeSet};
use std::mem;
use std::ops::Range;
use std::time::Duration;

use atom_core::config::AtomConfig;
use atom_core::error::AtomError;
use atom_net::{SendError, TcpOptions};

use crate::fault::{FaultKind, FaultVerdict};
use crate::{fill_vec::FillVec, wire::RejoinFrame};
use ledger::{batch_end, process_servers, RecoveryLedger};

/// A fleet's group count and process count.
type Fleet = (usize, usize);

/// Bounded retries of one batch when a failure yields no actionable
/// verdict (e.g. a protocol abort that implicates no process).
const MAX_STUCK_RETRIES: usize = 3;

/// The clocks of a fleet process, all set by [`fleet_clocks`].
#[derive(Clone, Debug)]
pub(crate) struct FleetClocks {
    /// The engine's stall window.
    pub(crate) stall: Duration,
    /// The coordinator's wait for plan acks before it convicts the silent.
    pub(crate) ack: Duration,
    /// A member's wait for the next plan or go: a batch run plus `ack`.
    pub(crate) plan: Duration,
    /// The mesh's connect and frame-write budgets.
    pub(crate) mesh: TcpOptions,
}

/// A fleet's clocks, derived from its `stall` window in this one place
/// (tabulated in `docs/operations.md`). The round clock is not among them:
/// no function of the stall window catches a peer dripping just under it.
pub(crate) fn fleet_clocks(stall: Duration) -> FleetClocks {
    FleetClocks {
        stall,
        ack: stall.max(Duration::from_millis(500)) * 2,
        plan: stall.max(Duration::from_secs(1)) * 8 + Duration::from_secs(10),
        mesh: TcpOptions::default(),
    }
}

/// The node→process map with `dead` processes excluded: a group keeps its
/// round-robin owner while that owner lives, and is otherwise reassigned
/// round-robin over the survivors. The orchestrator node (always last)
/// stays on the coordinator, which never appears in `dead`.
pub(crate) fn owner_map_excluding(groups: usize, processes: usize, dead: &[usize]) -> Vec<usize> {
    assert!(!dead.contains(&0), "the coordinator cannot be evicted");
    let live: Vec<usize> = (0..processes).filter(|p| !dead.contains(p)).collect();
    let owner = (0..groups).map(|gid| match gid % processes {
        preferred if dead.contains(&preferred) => live[gid % live.len()],
        preferred => preferred,
    });
    owner.chain([0]).collect()
}

/// The [`Action::Prepare`] of the attempt `plan` names: its rounds at its
/// offset, the owner map without its dead processes, and per round the
/// servers excluded and failed. The coordinator and every member prepare an
/// attempt through this alone.
fn prepare(plan: &RejoinFrame, (groups, processes): Fleet) -> Action {
    let owner = owner_map_excluding(groups, processes, &plan.dead);
    let (evicted, failed) = (plan.evicted.clone(), plan.failed.clone());
    Action::Prepare((plan.round..plan.end, plan.offset, owner, [evicted, failed]))
}

/// An attempt to prepare: its rounds, wire offset, owner map, and per round
/// the servers excluded and those failed.
pub(crate) type Attempt = (Range<usize>, usize, Vec<usize>, [Vec<Vec<usize>>; 2]);

/// What a driver tells a machine.
#[derive(Debug)]
pub(crate) enum Input {
    /// A `rejoin` frame read from the control inbox.
    Frame(RejoinFrame),
    /// The failed sends of one [`Action::Send`].
    Unreachable(Vec<SendError>),
    /// The prepared attempt ran: one result per round of it, in order.
    Ran(Vec<Result<(), AtomError>>),
    /// The armed time passed with the control inbox empty.
    Timer,
}

/// What a machine asks of its driver, in order.
#[derive(Debug)]
pub(crate) enum Action {
    /// Send the frame to each listed process's control inbox.
    Send(Vec<usize>, RejoinFrame),
    /// Copy a plan to a convicted process over an open stream, ignoring
    /// failure: it prompts a slow but alive process to ask back in.
    Courtesy(usize, RejoinFrame),
    /// Empty every node mailbox of frames from dead epochs.
    Purge,
    /// Install an attempt's owner map and derive its jobs.
    Prepare(Attempt),
    /// Run the prepared attempt.
    Run,
    /// Arm the timer at this time since the start (replacing any armed).
    Arm(Duration),
    /// The coordinator planned an attempt.
    Planned,
    /// A member acked a plan.
    Acked,
    /// A member outside the fleet asked back in.
    Requested,
    /// The coordinator read an evicted process's request, sent from the
    /// plan starting at the given round.
    RequestRead(usize, usize),
    /// The coordinator convicted a process.
    Convicted(FaultVerdict),
    /// The coordinator readmitted a process from the given round.
    Readmitted(usize, usize),
    /// A round failed, the given time in a row, with no verdict: retried.
    Retrying(usize, usize, String),
    /// The run is over.
    Finish(Result<(), String>),
}

/// A recovery state machine: the one entry point of either role.
pub(crate) trait Machine {
    /// Feeds `input`, read at `now` (since the machine started), and returns
    /// what the driver is to do, in order.
    fn step(&mut self, now: Duration, input: Input) -> Vec<Action>;
}

/// Where the coordinator is in its loop.
#[derive(Debug, Default)]
enum Phase {
    #[default]
    Start,
    /// The plan is out: the members awaited and those acked, the ack
    /// deadline (unset until the driver is back at its inbox), and whether
    /// the plan is open — a batch start none of whose rounds is frozen.
    Acks(BTreeSet<usize>, BTreeSet<usize>, Option<Duration>, bool),
    /// The go is out and the attempt runs.
    Running,
    /// The done sentinel is out.
    Closing(Result<(), String>),
}

/// The coordinator's (process 0's) side of the recovery loop: it plans
/// every attempt, convicts and readmits. Its crate-visible fields are what
/// the run settled.
#[derive(Debug, Default)]
pub(crate) struct CoordinatorState {
    processes: usize,
    groups: usize,
    servers: usize,
    group_size: usize,
    rounds: usize,
    batch: usize,
    ack_deadline: Duration,
    ledger: RecoveryLedger,
    /// Evicted processes that asked back in.
    pending: BTreeSet<usize>,
    /// Per `Slow`-convicted process: its `Slow` convictions, the open batch
    /// starts it is still to be passed over at, and the last it was.
    slow: BTreeMap<usize, (u32, usize, Option<usize>)>,
    /// The lowest round without a report, and the last plan's rounds.
    next: usize,
    attempt: Range<usize>,
    /// Consecutive failures of the batch that yielded no actionable verdict.
    stuck: usize,
    /// Per reported round: the evicted and the mid-flight failed servers.
    reports: FillVec<(Vec<usize>, Vec<usize>)>,
    phase: Phase,
    /// Attempts planned (plan/ack/go handshakes begun).
    pub(crate) epoch: usize,
    /// Every conviction, in order.
    pub(crate) evictions: Vec<FaultVerdict>,
    /// `(process, round)` of each readmission.
    pub(crate) rejoins: Vec<(usize, usize)>,
    /// Per round once every round reported: `reports`, unzipped.
    pub(crate) round_evicted: Vec<Vec<usize>>,
    pub(crate) round_failed: Vec<Vec<usize>>,
    /// The admitted members the done sentinel reached.
    pub(crate) reached: Vec<usize>,
}

impl CoordinatorState {
    /// The coordinator of `processes` processes over `config`'s groups, for
    /// `rounds` rounds in batches of `batch`, with an `ack_deadline`.
    pub(crate) fn new(
        config: &AtomConfig,
        (processes, rounds, batch): (usize, usize, usize),
        ack_deadline: Duration,
    ) -> Self {
        assert!(batch >= 1, "batch must be at least one round");
        Self {
            processes,
            groups: config.num_groups,
            servers: config.num_servers,
            group_size: config.group_size,
            rounds,
            batch,
            ack_deadline,
            reports: FillVec::new(rounds),
            ..Self::default()
        }
    }

    /// The admitted members.
    fn members(&self) -> impl Iterator<Item = usize> + '_ {
        (1..self.processes).filter(|&p| self.ledger.admits(p))
    }

    /// Readmits the pending rejoiners at an open batch start, sends the plan
    /// of the rounds from `next` and derives it while the members do.
    fn plan(&mut self, out: &mut Vec<Action>) {
        if self.next >= self.rounds {
            return self.close(Ok(()), out);
        }
        self.epoch += 1;
        let max_epochs = self.rounds * 3 + 24;
        if self.epoch > max_epochs {
            let reason = format!("recovery made no progress within {max_epochs} epochs");
            return self.close(Err(reason), out);
        }
        let end = batch_end(self.next, self.batch, self.rounds);
        let open = self.next.is_multiple_of(self.batch) && !self.ledger.any_frozen(self.next..end);
        for process in mem::take(&mut self.pending) {
            if !open || self.passed_over(process) {
                self.pending.insert(process);
                continue;
            }
            self.ledger.readmit(process);
            self.rejoins.push((process, self.next));
            out.push(Action::Readmitted(process, self.next));
        }
        out.push(Action::Planned);
        let reported = (self.next..end).find(|&r| self.reports.get(r).is_some());
        self.attempt = self.next..reported.unwrap_or(end);
        let offset = self.epoch * self.batch;
        let plan = self.ledger.plan(self.attempt.clone(), offset, false);
        for process in 1..self.processes {
            out.push(match self.ledger.admits(process) {
                true => Action::Send(vec![process], plan.clone()),
                false => Action::Courtesy(process, plan.clone()),
            });
        }
        out.push(prepare(&plan, (self.groups, self.processes)));
        out.push(Action::Arm(Duration::ZERO));
        let awaiting = self.members().collect();
        self.phase = Phase::Acks(awaiting, BTreeSet::new(), None, open);
    }

    /// Whether pending `process` is passed over at this open batch start:
    /// its n-th `Slow` conviction costs it 2^(n−1) − 1 of them.
    fn passed_over(&mut self, process: usize) -> bool {
        let (_, owed, last) = self.slow.entry(process).or_default();
        if *last != Some(self.next) && *owed > 0 {
            (*owed, *last) = (*owed - 1, Some(self.next));
        }
        *last == Some(self.next)
    }

    /// Convicts `verdicts`, retrying from `next`, and re-plans with them.
    fn convict(&mut self, verdicts: Vec<FaultVerdict>, out: &mut Vec<Action>) {
        for verdict in verdicts {
            let mut lost = self.ledger.active_servers();
            lost.extend(verdict.servers.iter().copied());
            let (process, left, size) =
                (verdict.process, self.servers - lost.len(), self.group_size);
            if left < size {
                let reason = format!(
                    "evicting process {process} would leave {left} servers, fewer than one group ({size})"
                );
                return self.close(Err(reason), out);
            }
            out.push(Action::Convicted(verdict.clone()));
            if let FaultKind::Slow = verdict.kind {
                let (convictions, owed, last) = self.slow.entry(process).or_default();
                *convictions += 1;
                (*owed, *last) = ((1 << (*convictions - 1).min(16)) - 1, None);
            }
            self.ledger.evict(verdict.clone(), self.next);
            self.evictions.push(verdict);
        }
        self.stuck = 0;
        self.plan(out);
    }

    /// The verdict on a process that went silent or unreachable.
    fn dead(&self, process: usize, reason: String) -> FaultVerdict {
        let (round, kind) = (self.next, FaultKind::Dead);
        let servers = process_servers(self.servers, self.processes, process);
        FaultVerdict {
            round,
            process,
            kind,
            servers,
            reason,
        }
    }

    /// Records the attempt's reports, moves `next` to the lowest round without
    /// one, and convicts whoever the lowest failed round's diagnosis names.
    fn ran(&mut self, results: Vec<Result<(), AtomError>>, out: &mut Vec<Action>) {
        let mut failed = None;
        for (round, result) in (self.attempt.start..).zip(results) {
            let Err(error) = result else {
                // The membership the report was made under.
                let ledger = &self.ledger;
                let membership = (ledger.evicted_for(round), ledger.failed_for(round));
                if self.reports.set(round, membership).is_err() {
                    return self.close(Err(format!("round {round} reported twice")), out);
                }
                continue;
            };
            failed.get_or_insert((round, error));
        }
        self.next = self.reports.missing().next().unwrap_or(self.rounds);
        let Some((round, error)) = failed else {
            self.stuck = 0;
            return self.plan(out);
        };
        let (servers, processes) = (self.servers, self.processes);
        let owner = owner_map_excluding(self.groups, processes, &self.ledger.dead_processes());
        let servers_of = |process| process_servers(servers, processes, process);
        match FaultVerdict::diagnose(round, &error, &owner, 0, servers_of) {
            Some(verdict) if verdict.process != 0 && self.ledger.admits(verdict.process) => {
                self.convict(vec![verdict], out)
            }
            _ => {
                self.stuck += 1;
                let (stuck, error) = (self.stuck, format!("{error:?}"));
                if stuck < MAX_STUCK_RETRIES {
                    out.push(Action::Retrying(round, stuck, error));
                    return self.plan(out);
                }
                let reason = format!(
                    "round {round} failed {stuck} times with no actionable verdict: {error}"
                );
                self.close(Err(reason), out);
            }
        }
    }

    /// An ack of the current plan, or a rejoin request from an evicted
    /// process, which supersedes an open plan awaiting acks.
    fn frame(&mut self, frame: RejoinFrame, out: &mut Vec<Action>) {
        let (member, process) = (!frame.response && !frame.commit, frame.process);
        let ack = member && frame.offset == self.epoch * self.batch;
        match &mut self.phase {
            Phase::Acks(awaiting, acked, ..) if ack && awaiting.contains(&process) => {
                acked.insert(process);
                if acked.len() == awaiting.len() {
                    // Commit once the inbox behind the last ack is read.
                    out.push(Action::Arm(Duration::ZERO));
                }
            }
            _ if !member || process >= self.processes || self.ledger.admits(process) => {}
            phase => {
                let open = matches!(phase, Phase::Acks(.., true));
                if self.pending.insert(process) {
                    out.push(Action::RequestRead(process, frame.round));
                    if open {
                        self.plan(out);
                    }
                }
            }
        }
    }

    /// With every ack in and the inbox behind them read, every member frame
    /// of dead epochs has arrived: purge, freeze, send the go to every member
    /// before reacting to a failure, and run. Else
    /// convict the members silent past the ack deadline, or start it.
    fn timer(&mut self, now: Duration, out: &mut Vec<Action>) {
        let Phase::Acks(awaiting, acked, wait, _) = &mut self.phase else {
            if let Phase::Start = self.phase {
                self.plan(out);
            }
            return;
        };
        if acked.len() == awaiting.len() {
            let to: Vec<usize> = mem::take(awaiting).into_iter().collect();
            self.ledger.freeze(self.attempt.clone());
            let offset = self.epoch * self.batch;
            let go = self.ledger.plan(self.attempt.clone(), offset, true);
            out.push(Action::Purge);
            out.extend((!to.is_empty()).then_some(Action::Send(to, go)));
            out.push(Action::Run);
            self.phase = Phase::Running;
        } else if wait.is_some_and(|at| now >= at) {
            let silent: Vec<usize> = awaiting.difference(acked).copied().collect();
            let verdicts = silent
                .into_iter()
                .map(|p| self.dead(p, "no handshake ack".into()));
            self.convict(verdicts.collect(), out);
        } else {
            out.push(Action::Arm(*wait.get_or_insert(now + self.ack_deadline)));
        }
    }

    /// Convicts the processes a plan or go could not reach; a done sentinel
    /// that could not reach one only finishes.
    fn unreachable(&mut self, failures: Vec<SendError>, out: &mut Vec<Action>) {
        let stage = match &self.phase {
            Phase::Acks(..) => "unreachable during handshake",
            Phase::Running => "unreachable at commit",
            Phase::Closing(result) => {
                (self.reached).retain(|&p| failures.iter().all(|f| f.process != p));
                return out.push(Action::Finish(result.clone()));
            }
            Phase::Start => return,
        };
        let dead = failures.into_iter();
        let verdicts = dead.map(|f| self.dead(f.process, format!("{stage}: {}", f.error)));
        self.convict(verdicts.collect(), out);
    }

    /// Tells every member and waiting rejoiner that the run is over: a plan
    /// starting at `rounds` is the done sentinel.
    fn close(&mut self, result: Result<(), String>, out: &mut Vec<Action>) {
        if let Some(settled) = mem::take(&mut self.reports).into_full() {
            (self.round_evicted, self.round_failed) = settled.into_iter().unzip();
        }
        self.reached = self.members().collect();
        let (done, offset) = (self.rounds..self.rounds + 1, (self.epoch + 1) * self.batch);
        let sentinel = self.ledger.plan(done, offset, false);
        let to: Vec<usize> = (1..self.processes).collect();
        out.extend((!to.is_empty()).then_some(Action::Send(to, sentinel)));
        self.phase = Phase::Closing(result.clone());
        out.push(Action::Finish(result));
    }
}

impl Machine for CoordinatorState {
    fn step(&mut self, now: Duration, input: Input) -> Vec<Action> {
        let mut out = Vec::new();
        match input {
            Input::Frame(frame) => self.frame(frame, &mut out),
            Input::Unreachable(failures) => self.unreachable(failures, &mut out),
            Input::Ran(results) => self.ran(results, &mut out),
            Input::Timer => self.timer(now, &mut out),
        }
        out
    }
}

/// A member's (process `index > 0`'s) side of the recovery loop: a plan is
/// checked, prepared and acked, and its go runs its rounds, until the done
/// sentinel. A restarted member starts outside the fleet and asks back in.
/// It keeps no ledger: each plan names the membership it runs under.
#[derive(Debug, Default)]
pub(crate) struct MemberState {
    index: usize,
    fleet: Fleet,
    rounds: usize,
    /// The deployment's server count and group size, which a plan must
    /// respect.
    servers: usize,
    group_size: usize,
    plan_deadline: Duration,
    /// The rounds and offset of the last plan: none before the first.
    planned: Range<usize>,
    offset: usize,
    /// Not admitted (a restart, or on the last plan's dead list); asked
    /// back in since; the last plan derived and acked, awaiting its go.
    outside: bool,
    requested: bool,
    acked: bool,
    /// The newest plan offset this wait has seen, and what this read of the
    /// inbox acts on once it is empty: the newest plan, or the acked go.
    newest: usize,
    pick: Option<RejoinFrame>,
    /// When this wait gives up; unset until the driver is back at its inbox.
    wait: Option<Duration>,
}

impl MemberState {
    /// Process `index` of `processes` over `config`'s groups and servers,
    /// for `rounds` rounds, with a `plan_deadline`; with `rejoin`, a
    /// restarted process.
    pub(crate) fn new(
        config: &AtomConfig,
        (index, processes, rounds): (usize, usize, usize),
        plan_deadline: Duration,
        rejoin: bool,
    ) -> Self {
        assert!(index > 0 && index < processes, "member index out of range");
        Self {
            index,
            fleet: (config.num_groups, processes),
            rounds,
            servers: config.num_servers,
            group_size: config.group_size,
            plan_deadline,
            outside: rejoin,
            ..Self::default()
        }
    }

    /// This member's request (at `offset` 0) or ack (at the plan's offset)
    /// of the last plan it saw: it carries no membership.
    fn answer(&self, offset: usize) -> RejoinFrame {
        let (round, end, process) = (self.planned.start, self.planned.end, self.index);
        RejoinFrame {
            round,
            end,
            process,
            offset,
            ..RejoinFrame::default()
        }
    }

    /// Asks back in, once per eviction, if not admitted.
    fn ask_back_in(&mut self, out: &mut Vec<Action>) {
        if self.outside && !self.requested {
            out.extend([Action::Requested, Action::Send(vec![0], self.answer(0))]);
            self.requested = true;
        }
    }

    /// Why `plan` cannot run here, if it cannot: it may evict only
    /// processes of `1..processes`, end by the spec's last round, and name
    /// only the deployment's servers, leaving each round a group's worth.
    fn check(&self, plan: &RejoinFrame) -> Result<(), String> {
        let (processes, rounds, servers) = (self.fleet.1, self.rounds, self.servers);
        let (round, end) = (plan.round, plan.end);
        if let Some(p) = plan.dead.iter().find(|&&p| p == 0 || p >= processes) {
            return Err(format!("plan evicts process {p} of {processes}"));
        }
        if end > rounds {
            return Err(format!("plan runs rounds {round}..{end} of {rounds}"));
        }
        for (round, (evicted, failed)) in (round..).zip(plan.evicted.iter().zip(&plan.failed)) {
            let lost: BTreeSet<usize> = evicted.iter().chain(failed).copied().collect();
            if let Some(s) = lost.iter().find(|&&s| s >= servers) {
                return Err(format!("plan names server {s} outside 0..{servers}"));
            }
            let left = servers - lost.len();
            if left < self.group_size {
                return Err(format!(
                    "plan leaves round {round} {left} servers, under a group"
                ));
            }
        }
        Ok(())
    }

    /// Runs an acked plan on its go, or takes up a new plan: check it and,
    /// if admitted, prepare its attempt, purge dead-epoch residue before
    /// acking (new-epoch frames follow the ack), and ack.
    fn act(&mut self, frame: RejoinFrame, out: &mut Vec<Action>) {
        if frame.commit {
            self.acked = false;
            return out.push(Action::Run);
        }
        if frame.round >= self.rounds {
            return out.push(Action::Finish(Ok(())));
        }
        if let Err(reason) = self.check(&frame) {
            return out.push(Action::Finish(Err(reason)));
        }
        (self.planned, self.offset, self.acked) = (frame.round..frame.end, frame.offset, false);
        self.outside = frame.dead.contains(&self.index);
        if !self.outside {
            out.push(prepare(&frame, self.fleet));
            let ack = self.answer(self.offset);
            out.extend([Action::Purge, Action::Acked, Action::Send(vec![0], ack)]);
            (self.requested, self.acked) = (false, true);
        }
        self.await_next(out);
    }

    /// Starts the wait for the next plan, or the go of the acked one.
    fn await_next(&mut self, out: &mut Vec<Action>) {
        self.ask_back_in(out);
        (self.wait, self.newest) = (None, self.offset);
        out.push(Action::Arm(Duration::ZERO));
    }
}

impl Machine for MemberState {
    fn step(&mut self, now: Duration, input: Input) -> Vec<Action> {
        let mut out = Vec::new();
        match (input, self.pick.take(), self.wait) {
            // A newer plan supersedes an acked one: the coordinator
            // re-planned underneath us (another member died between our ack
            // and its commit). Of the frames read in a row, the last that
            // qualifies wins.
            (Input::Frame(frame), pick, _) => {
                let go = frame.commit && frame.offset == self.offset && self.acked;
                let plan = !frame.commit && frame.offset > self.newest;
                self.pick = pick;
                if frame.response && (go || plan) {
                    self.newest = self.newest.max(frame.offset);
                    self.pick = Some(frame);
                    out.push(Action::Arm(Duration::ZERO));
                }
            }
            (Input::Timer, Some(frame), _) => self.act(frame, &mut out),
            (Input::Timer, None, Some(at)) if now >= at => {
                let offset = self.offset;
                let awaited = match self.acked {
                    true => format!("commit for offset {offset}"),
                    false => "plan from the coordinator".into(),
                };
                out.push(Action::Finish(Err(format!(
                    "no {awaited} before the deadline"
                ))));
            }
            (Input::Timer, None, wait) => {
                self.ask_back_in(&mut out);
                let at = wait.unwrap_or(now + self.plan_deadline);
                out.push(Action::Arm(*self.wait.insert(at)));
            }
            (Input::Ran(_), ..) => self.await_next(&mut out),
            (Input::Unreachable(failures), ..) => {
                let failure = &failures[0];
                let reason = match self.outside {
                    true => format!("rejoin request failed: {failure}"),
                    false => format!("coordinator unreachable at ack: {failure}"),
                };
                out.push(Action::Finish(Err(reason)));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::io;
    use std::ops::{Deref, DerefMut};

    use atom_core::error::EngineErrorKind;

    use crate::fleet::{step, Carrier};
    use crate::wire::{self, Frame};

    const ACK_DEADLINE: Duration = Duration::from_secs(1);
    const PLAN_DEADLINE: Duration = Duration::from_secs(20);
    const GROUPS: usize = 3;

    /// Three groups of three over nine servers.
    fn config() -> AtomConfig {
        let mut config = AtomConfig::test_default();
        (config.num_groups, config.num_servers, config.group_size) = (GROUPS, 9, 3);
        config
    }

    /// The coordinator of `processes` processes hosting [`config`].
    fn coordinator(processes: usize, rounds: usize, batch: usize) -> CoordinatorState {
        CoordinatorState::new(&config(), (processes, rounds, batch), ACK_DEADLINE)
    }

    /// Member `index` of `processes` processes hosting [`config`]; with
    /// `rejoin`, a restarted one.
    fn member(index: usize, processes: usize, rounds: usize, rejoin: bool) -> MemberState {
        MemberState::new(&config(), (index, processes, rounds), PLAN_DEADLINE, rejoin)
    }

    fn refused(process: usize) -> SendError {
        let error = io::Error::from(io::ErrorKind::ConnectionRefused);
        SendError { process, error }
    }

    /// The plan an answer sends or copies.
    fn plan_in(answer: &[Action]) -> RejoinFrame {
        (answer.iter())
            .find_map(|action| match action {
                Action::Send(_, frame) | Action::Courtesy(_, frame) if !frame.commit => {
                    Some(frame.clone())
                }
                _ => None,
            })
            .unwrap_or_else(|| panic!("no plan in {answer:?}"))
    }

    /// Member `process`'s ack of `plan`.
    fn ack(process: usize, plan: &RejoinFrame) -> Input {
        Input::Frame(RejoinFrame {
            process,
            response: false,
            dead: Vec::new(),
            evicted: Vec::new(),
            failed: Vec::new(),
            ..plan.clone()
        })
    }

    /// Scripts the rest of a run: every plan sent in `answer` and after is
    /// acked by every process it reaches, the inbox is then empty, and every
    /// attempt succeeds.
    fn settle(machine: &mut CoordinatorState, mut answer: Vec<Action>) -> Result<(), String> {
        for _ in 0..1_000 {
            let input = match answer.last() {
                Some(Action::Finish(result)) => return result.clone(),
                Some(Action::Run) => Input::Ran(machine.attempt.clone().map(|_| Ok(())).collect()),
                _ => {
                    for action in &answer {
                        if let Action::Send(to, frame) = action {
                            for &process in to {
                                machine.step(Duration::ZERO, ack(process, frame));
                            }
                        }
                    }
                    Input::Timer
                }
            };
            answer = machine.step(Duration::ZERO, input);
        }
        panic!("the run did not finish");
    }

    /// At `--rounds 8 --batch 2`, member 2 is convicted in batch 0..2 and
    /// restarts; its rejoin request is read while the last batch start
    /// (6..8) waits for its acks. It is readmitted at round 6 — or the run
    /// ends with a named reason, never with the request silently dropped.
    #[test]
    fn a_rejoin_request_read_during_the_last_batch_handshake_is_readmitted() {
        let mut machine = coordinator(3, 8, 2);
        let now = Duration::ZERO;
        machine.step(now, Input::Timer);
        let mut answer = machine.step(now, Input::Unreachable(vec![refused(2)]));
        assert!(matches!(&answer[0], Action::Convicted(verdict) if verdict.process == 2));
        for start in [0, 2, 4] {
            let plan = plan_in(&answer);
            assert_eq!((plan.round, plan.end), (start, start + 2));
            assert!(machine
                .step(now, ack(1, &plan))
                .iter()
                .all(|a| matches!(a, Action::Arm(_))));
            let go = machine.step(now, Input::Timer);
            assert!(matches!(go.last(), Some(Action::Run)), "{go:?}");
            answer = machine.step(now, Input::Ran(vec![Ok(()), Ok(())]));
        }
        let plan = plan_in(&answer);
        assert_eq!((plan.round, plan.end), (6, 8));
        let request = RejoinFrame {
            round: 0,
            end: 2,
            process: 2,
            offset: 0,
            response: false,
            commit: false,
            dead: Vec::new(),
            evicted: Vec::new(),
            failed: Vec::new(),
        };
        let read = machine.step(now, Input::Frame(request));
        assert!(matches!(read[0], Action::RequestRead(2, _)));
        // The script acks every plan still on the wire, the 6..8 one too.
        answer.extend(read);
        match settle(&mut machine, answer) {
            Ok(()) => assert_eq!(machine.rejoins, vec![(2, 6)], "readmitted at round 6"),
            Err(reason) => assert!(!reason.is_empty(), "the run ends with a named reason"),
        }
    }

    /// Rejoin requests read while no open plan waits wait for the next
    /// open one; a retry of frozen rounds readmits nobody.
    #[test]
    fn a_retry_of_frozen_rounds_readmits_nobody() {
        let mut machine = coordinator(3, 4, 2);
        let now = Duration::ZERO;
        let plan = plan_in(&machine.step(now, Input::Timer));
        machine.step(now, ack(1, &plan));
        machine.step(now, ack(2, &plan));
        machine.step(now, Input::Timer);
        let lost = AtomError::Engine {
            kind: EngineErrorKind::TransportLost,
            reason: "peer closed".into(),
            nodes: vec![2],
        };
        let retry = machine.step(now, Input::Ran(vec![Ok(()), Err(lost)]));
        assert!(matches!(&retry[0], Action::Convicted(verdict) if verdict.process == 2));
        let plan = plan_in(&retry);
        assert_eq!(
            (plan.round, plan.end),
            (1, 2),
            "the retry runs round 1 alone"
        );
        let request = RejoinFrame {
            process: 2,
            response: false,
            offset: 0,
            dead: Vec::new(),
            evicted: Vec::new(),
            failed: Vec::new(),
            ..plan.clone()
        };
        let answer = machine.step(now, Input::Frame(request));
        assert!(matches!(answer[..], [Action::RequestRead(2, 1)]));
        let answer = machine.step(now, ack(1, &plan));
        assert_eq!(settle(&mut machine, answer), Ok(()));
        assert_eq!(
            machine.rejoins,
            vec![(2, 2)],
            "readmitted at the next batch start"
        );
    }

    /// A stall naming live process 1 and dead process 2 alike names no
    /// culprit: the attempt is retried with no conviction, and the retry's
    /// plan, refused by process 2, convicts it alone.
    #[test]
    fn a_stall_tie_convicts_nobody_and_the_retry_convicts_the_dead() {
        let mut machine = coordinator(3, 4, 2);
        let now = Duration::ZERO;
        let plan = plan_in(&machine.step(now, Input::Timer));
        machine.step(now, ack(1, &plan));
        machine.step(now, ack(2, &plan));
        machine.step(now, Input::Timer);
        let stall = AtomError::Engine {
            kind: EngineErrorKind::Stall,
            reason: "no progress".into(),
            nodes: vec![1, 2],
        };
        let retry = machine.step(now, Input::Ran(vec![Ok(()), Err(stall)]));
        assert!(matches!(retry[0], Action::Retrying(1, 1, _)), "{retry:?}");
        let convictions = |answer: &[Action]| -> Vec<FaultVerdict> {
            (answer.iter())
                .filter_map(|action| match action {
                    Action::Convicted(verdict) => Some(verdict.clone()),
                    _ => None,
                })
                .collect()
        };
        assert!(convictions(&retry).is_empty(), "{retry:?}");
        let refused = machine.step(now, Input::Unreachable(vec![refused(2)]));
        let verdicts = convictions(&refused);
        assert_eq!(verdicts.len(), 1, "{refused:?}");
        assert_eq!(
            (verdicts[0].process, verdicts[0].kind),
            (2, FaultKind::Dead)
        );
    }

    /// The fleet's clocks at the 120 s default stall window and at the
    /// drills' 2 s.
    #[test]
    fn fleet_clocks_derive_from_the_stall_window() {
        let secs = Duration::from_secs;
        for (stall, ack, plan, mesh) in [(120, 240, 970, 10), (2, 4, 26, 10)] {
            let clocks = fleet_clocks(secs(stall));
            assert_eq!(clocks.stall, secs(stall));
            assert_eq!(
                (clocks.ack, clocks.plan),
                (secs(ack), secs(plan)),
                "stall {stall} s"
            );
            assert_eq!(clocks.mesh.connect_timeout, secs(mesh), "stall {stall} s");
        }
    }

    /// Acks the plan in `answer` from every process it was sent to, sends
    /// the go and runs the attempt's one round with `result`.
    fn attempt(
        machine: &mut CoordinatorState,
        answer: &[Action],
        result: Result<(), AtomError>,
    ) -> Vec<Action> {
        let now = Duration::ZERO;
        for action in answer {
            if let Action::Send(to, plan) = action {
                to.iter()
                    .for_each(|&p| drop(machine.step(now, ack(p, plan))));
            }
        }
        let go = machine.step(now, Input::Timer);
        assert!(matches!(go.last(), Some(Action::Run)), "{go:?}");
        machine.step(now, Input::Ran(vec![result]))
    }

    /// At `--batch 1`, member 1 fails rounds 0 and 1 with a `kind` error
    /// naming its group and asks back in after each conviction: the rounds
    /// it is readmitted from by the plan of round 3.
    fn readmissions_after_two_convictions(kind: EngineErrorKind) -> Vec<(usize, usize)> {
        let mut machine = coordinator(3, 6, 1);
        let mut answer = machine.step(Duration::ZERO, Input::Timer);
        let fault = || AtomError::Engine {
            kind,
            reason: "member 1".into(),
            nodes: vec![1],
        };
        for round in 0..2 {
            answer = attempt(&mut machine, &answer, Err(fault()));
            assert!(
                matches!(&answer[0], Action::Convicted(v) if v.process == 1 && v.round == round)
            );
            let request = RejoinFrame {
                process: 1,
                response: false,
                offset: 0,
                ..plan_in(&answer)
            };
            machine.step(Duration::ZERO, Input::Frame(request));
            answer = attempt(&mut machine, &answer, Ok(()));
        }
        attempt(&mut machine, &answer, Ok(()));
        machine.rejoins
    }

    /// A first conviction readmits at the next open batch start whatever
    /// its kind; after a second `Slow` one the process is passed over once,
    /// after a second `Dead` one it is not.
    #[test]
    fn a_twice_slow_member_waits_out_one_more_batch_start() {
        let slow = readmissions_after_two_convictions(EngineErrorKind::Deadline);
        assert_eq!(slow, vec![(1, 1), (1, 3)], "passed over at round 2");
        let dead = readmissions_after_two_convictions(EngineErrorKind::TransportLost);
        assert_eq!(dead, vec![(1, 1), (1, 2)], "readmitted at the next start");
    }

    /// One [`Action::Prepare`]'s rounds, owner map, and per round the
    /// servers excluded and failed.
    type Prepared = (Range<usize>, Vec<usize>, Vec<Vec<usize>>, Vec<Vec<usize>>);

    /// One coordinator and its members in one thread, each stepped through
    /// the fleet's own driver step over its [`Port`] of one [`Net`]: FIFOs
    /// of encoded control frames, one timer per process, and a fake engine
    /// under which an attempt's round succeeds iff every process of its
    /// owner map is alive. Frames are delivered before any timer fires; the
    /// earliest timer fires next (of equal times, the one armed first),
    /// moving the clock. At every go it asserts that each member that acked
    /// the plan prepared exactly the coordinator's attempt.
    struct Lockstep {
        coordinator: CoordinatorState,
        /// Index 0 unused; a killed member's machine waits for its restart.
        members: Vec<Option<MemberState>>,
        net: Net,
    }

    /// Everything of a [`Lockstep`] fleet but its machines, so that a
    /// machine and the net it is carried over borrow apart.
    #[derive(Default)]
    struct Net {
        now: Duration,
        rounds: usize,
        inbox: Vec<VecDeque<Vec<u8>>>,
        /// Per process: when its timer fires, and when it was armed.
        timer: Vec<Option<(Duration, usize)>>,
        armed: usize,
        /// Per process: killed and not restarted; the purges it carried out.
        down: Vec<bool>,
        purged: Vec<usize>,
        prepared: Vec<Option<(Range<usize>, Vec<usize>)>>,
        /// Per process: every attempt it prepared, by offset.
        preparations: Vec<BTreeMap<usize, Prepared>>,
        /// `(member, offset)` of each ack checked against the coordinator's
        /// attempt at its go.
        checked: Vec<(usize, usize)>,
        finished: Vec<Option<Result<(), String>>>,
        /// Every frame delivered: sender, receiver, frame.
        sent: Vec<(usize, usize, RejoinFrame)>,
        /// Every event the coordinator reported.
        events: Vec<Action>,
        /// The rounds of each attempt the coordinator ran.
        attempts: Vec<Range<usize>>,
        /// `(round, process)`: the attempt running `round` loses `process`
        /// there.
        kill: Option<(usize, usize)>,
        /// `(round, process)`: `process` restarts once an attempt ran past
        /// `round` with it dead; the restart whose machine is still due.
        restart: Option<(usize, usize)>,
        restarted: Option<usize>,
        /// A member that goes down right after its first ack.
        vanish: Option<usize>,
        /// Whether every ack and every go reaches its inbox twice, and how
        /// many frames did.
        duplicate: bool,
        duplicated: usize,
    }

    /// A [`Lockstep`] reads as its net.
    impl Deref for Lockstep {
        type Target = Net;
        fn deref(&self) -> &Net {
            &self.net
        }
    }

    impl DerefMut for Lockstep {
        fn deref_mut(&mut self) -> &mut Net {
            &mut self.net
        }
    }

    impl Lockstep {
        fn new(processes: usize, rounds: usize, batch: usize) -> Self {
            let member = |index| member(index, processes, rounds, false);
            let net = Net {
                rounds,
                inbox: vec![VecDeque::new(); processes],
                timer: (0..processes).map(|p| Some((Duration::ZERO, p))).collect(),
                armed: processes,
                down: vec![false; processes],
                purged: vec![0; processes],
                prepared: vec![None; processes],
                preparations: vec![BTreeMap::new(); processes],
                finished: vec![None; processes],
                ..Net::default()
            };
            Self {
                coordinator: coordinator(processes, rounds, batch),
                members: (0..processes).map(|p| (p > 0).then(|| member(p))).collect(),
                net,
            }
        }

        /// Runs the fleet until every live process finished.
        fn run_to_end(&mut self) {
            let processes = self.members.len();
            for _ in 0..100_000 {
                let Self {
                    coordinator,
                    members,
                    net,
                } = self;
                let alive: Vec<usize> = (0..processes).filter(|&p| net.alive(p)).collect();
                let ready = alive.iter().find(|&&p| !net.inbox[p].is_empty());
                let armed = alive.iter().filter_map(|&p| Some((net.timer[p]?, p))).min();
                let Some(&process) = ready.or(armed.as_ref().map(|(_, p)| p)) else {
                    assert!(alive.is_empty(), "a waiting process has a timer");
                    return;
                };
                let machine: &mut dyn Machine = match process {
                    0 => coordinator,
                    _ => members[process].as_mut().expect("a live member"),
                };
                let mut port = Port(process, net);
                let input = port.recv().expect("a frame or the timer");
                if let Some(result) = step(machine, &mut port, input) {
                    net.finished[process] = Some(result);
                }
                if let Some(p) = net.restarted.take() {
                    members[p] = Some(member(p, processes, net.rounds, true));
                }
            }
            panic!("the fleet did not finish within 100,000 steps");
        }

        fn convicted(&self) -> Vec<usize> {
            (self.events.iter())
                .filter_map(|event| match event {
                    Action::Convicted(verdict) => Some(verdict.process),
                    _ => None,
                })
                .collect()
        }
    }

    impl Net {
        fn alive(&self, process: usize) -> bool {
            !self.down[process] && self.finished[process].is_none()
        }

        /// Takes `process` down with its inbox and timer.
        fn take_down(&mut self, process: usize) {
            self.down[process] = true;
            self.inbox[process].clear();
            self.timer[process] = None;
        }

        /// If member `to` acked the plan of the go `go`, it prepared exactly
        /// the coordinator's attempt at its offset.
        fn check_go(&mut self, to: usize, go: &RejoinFrame) {
            let offset = go.offset;
            let ours = self.preparations[0].get(&offset).cloned();
            assert!(ours.is_some(), "the coordinator prepared offset {offset}");
            let ack = |(from, at, frame): &(usize, usize, RejoinFrame)| {
                *from == to && *at == 0 && !frame.response && frame.offset == offset
            };
            if self.sent.iter().any(ack) {
                let theirs = self.preparations[to].get(&offset).cloned();
                assert_eq!(theirs, ours, "member {to} at offset {offset}");
                self.checked.push((to, offset));
            }
        }

        fn deliver(
            &mut self,
            from: usize,
            to: usize,
            frame: &RejoinFrame,
        ) -> Result<(), SendError> {
            if !self.alive(to) {
                return Err(refused(to));
            }
            self.sent.push((from, to, frame.clone()));
            self.inbox[to].push_back(wire::encode_rejoin(frame));
            // An ack echoes a plan's offset; a request carries none.
            let ack = !frame.response && frame.offset > 0;
            if self.duplicate && (ack || frame.commit) {
                self.duplicated += 1;
                self.inbox[to].push_back(wire::encode_rejoin(frame));
            }
            if ack && self.vanish == Some(from) {
                self.vanish = None;
                self.take_down(from);
            }
            Ok(())
        }

        /// The fake engine. A member's run always succeeds: the coordinator
        /// owns the diagnosis.
        fn run(&mut self, process: usize) -> Vec<Result<(), AtomError>> {
            let (rounds, owner) = self.prepared[process].take().expect("a go runs a plan");
            if process > 0 {
                return rounds.map(|_| Ok(())).collect();
            }
            self.attempts.push(rounds.clone());
            let results = (rounds.clone())
                .map(|round| {
                    if let Some((_, victim)) = self.kill.filter(|&(at, _)| round >= at) {
                        self.kill = None;
                        self.take_down(victim);
                    }
                    let lost: Vec<usize> = (0..owner.len())
                        .filter(|&node| !self.alive(owner[node]))
                        .collect();
                    match lost.is_empty() {
                        true => Ok(()),
                        false => Err(AtomError::Engine {
                            kind: EngineErrorKind::TransportLost,
                            reason: "peer closed its stream".into(),
                            nodes: lost,
                        }),
                    }
                })
                .collect();
            let due = |&(after, p): &(usize, usize)| rounds.end > after && self.down[p];
            if let Some((_, process)) = self.restart.filter(due) {
                (self.restart, self.restarted) = (None, Some(process));
                self.down[process] = false;
                self.armed += 1;
                self.finished[process] = None;
                self.timer[process] = Some((self.now, self.armed));
            }
            results
        }

        /// The frames `from` sent, with their receivers.
        fn frames_from(&self, from: impl Fn(usize) -> bool) -> Vec<(usize, &RejoinFrame)> {
            (self.sent.iter())
                .filter(|(sender, _, _)| from(*sender))
                .map(|(_, to, frame)| (*to, frame))
                .collect()
        }
    }

    /// Process `.0`'s end of a [`Net`]: the carrier of its machine.
    struct Port<'a>(usize, &'a mut Net);

    impl Carrier for Port<'_> {
        fn now(&mut self) -> Duration {
            self.1.now
        }

        fn send(&mut self, to: usize, frame: &RejoinFrame) -> Result<(), SendError> {
            if self.0 == 0 && frame.commit {
                self.1.check_go(to, frame);
            }
            self.1.deliver(self.0, to, frame)
        }

        fn courtesy(&mut self, to: usize, frame: &RejoinFrame) -> Result<(), SendError> {
            self.1.deliver(self.0, to, frame)
        }

        fn purge(&mut self) {
            self.1.purged[self.0] += 1;
        }

        fn prepare(&mut self, (rounds, offset, owner, [evicted, failed]): Attempt) {
            let Self(process, net) = self;
            net.prepared[*process] = Some((rounds.clone(), owner.clone()));
            let prepared = (rounds, owner, evicted, failed);
            net.preparations[*process].insert(offset, prepared);
        }

        fn run(&mut self) -> Vec<Result<(), AtomError>> {
            self.1.run(self.0)
        }

        fn arm(&mut self, at: Duration) {
            let Self(process, net) = self;
            net.armed += 1;
            net.timer[*process] = Some((at.max(net.now), net.armed));
        }

        /// The next frame of the inbox, or else the timer, moving the clock.
        fn recv(&mut self) -> Option<Input> {
            let Self(process, net) = self;
            let Some(payload) = net.inbox[*process].pop_front() else {
                let (at, _) = net.timer[*process].take()?;
                net.now = net.now.max(at);
                return Some(Input::Timer);
            };
            let Ok(Frame::Rejoin(frame)) = wire::decode(&payload) else {
                panic!("a control frame decodes");
            };
            Some(Input::Frame(frame))
        }

        fn event(&mut self, event: Action) {
            if self.0 == 0 {
                self.1.events.push(event);
            }
        }
    }

    /// A fault-free run of four rounds in batches of two: per batch one
    /// plan, two acks and one go, every ack echoing its plan's offset.
    #[test]
    fn lockstep_fault_free_run_takes_one_handshake_per_batch() {
        let mut fleet = Lockstep::new(3, 4, 2);
        fleet.run_to_end();
        assert_eq!(fleet.finished, vec![Some(Ok(())); 3]);
        assert_eq!(fleet.attempts, vec![0..2, 2..4]);
        assert!(fleet.convicted().is_empty() && fleet.coordinator.rejoins.is_empty());
        let coordinator = fleet.frames_from(|p| p == 0);
        let acks = fleet.frames_from(|p| p > 0);
        for start in [0, 2] {
            let batch = |frame: &&RejoinFrame| frame.round == start && frame.end == start + 2;
            let plans: Vec<&RejoinFrame> = (coordinator.iter())
                .map(|(_, frame)| *frame)
                .filter(|frame| !frame.commit)
                .filter(batch)
                .collect();
            let offsets: BTreeSet<usize> = plans.iter().map(|plan| plan.offset).collect();
            assert_eq!(
                (plans.len(), offsets.len()),
                (2, 1),
                "one plan of batch {start}"
            );
            let offset = plans[0].offset;
            let gos = (coordinator.iter()).filter(|(_, f)| f.commit && batch(f));
            assert_eq!(gos.count(), 2, "one go of batch {start}, to each member");
            let acked: Vec<&RejoinFrame> = (acks.iter())
                .map(|(_, frame)| *frame)
                .filter(batch)
                .collect();
            assert_eq!(acked.len(), 2, "two acks of batch {start}");
            assert!(acked.iter().all(|ack| ack.offset == offset));
        }
    }

    /// Member 2 dies inside the first attempt, at round 1: exactly one
    /// verdict, naming it, and the retry plans round 1 alone — round 0 has
    /// its report.
    #[test]
    fn lockstep_kill_mid_attempt_yields_one_verdict_and_a_retry_of_the_unreported() {
        let mut fleet = Lockstep::new(3, 4, 2);
        fleet.kill = Some((1, 2));
        fleet.run_to_end();
        assert_eq!(fleet.convicted(), vec![2]);
        let verdict = &fleet.coordinator.evictions[0];
        assert_eq!((verdict.round, verdict.kind), (1, FaultKind::Dead));
        assert_eq!(fleet.attempts, vec![0..2, 1..2, 2..4]);
        assert_eq!(fleet.finished[0], Some(Ok(())));
        assert_eq!(fleet.finished[1], Some(Ok(())));
        assert_eq!(fleet.coordinator.round_evicted[1], Vec::<usize>::new());
        assert_eq!(fleet.coordinator.round_failed[1], process_servers(9, 3, 2));
        assert_eq!(fleet.coordinator.round_evicted[2], process_servers(9, 3, 2));
    }

    /// The member killed mid-attempt restarts once round 3 has run and
    /// asks back in: it is readmitted at a batch start and runs to the
    /// done sentinel with the rest.
    #[test]
    fn lockstep_restarted_member_is_readmitted() {
        let mut fleet = Lockstep::new(3, 8, 2);
        (fleet.kill, fleet.restart) = (Some((1, 2)), Some((3, 2)));
        fleet.run_to_end();
        assert_eq!(
            fleet.convicted(),
            vec![2],
            "one verdict: {:?}",
            fleet.events
        );
        let rejoins = &fleet.coordinator.rejoins;
        assert!(matches!(rejoins[..], [(2, round)] if round % 2 == 0 && round > 3 && round < 8));
        assert_eq!(fleet.finished, vec![Some(Ok(())); 3]);
        let (_, readmitted_at) = rejoins[0];
        assert!(fleet.coordinator.round_evicted[readmitted_at].is_empty());
        assert_eq!(fleet.coordinator.reached, vec![1, 2]);
    }

    /// Every ack and every go delivered twice changes nothing: fault-free,
    /// with a kill, and with a kill and a restart, the fleet finishes alike
    /// with the same attempts, go offsets, verdicts and readmissions as when
    /// each is delivered once.
    #[test]
    fn lockstep_duplicated_acks_and_gos_change_nothing() {
        let run = |duplicate, kill, restart| {
            let mut fleet = Lockstep::new(3, 8, 2);
            (fleet.duplicate, fleet.kill, fleet.restart) = (duplicate, kill, restart);
            fleet.run_to_end();
            assert_eq!(fleet.duplicated > 0, duplicate, "duplicates delivered");
            let gos = fleet.frames_from(|p| p == 0).into_iter();
            let offsets: Vec<usize> = gos
                .filter(|(_, f)| f.commit)
                .map(|(_, f)| f.offset)
                .collect();
            let Lockstep {
                coordinator, net, ..
            } = fleet;
            let settled = (
                coordinator.evictions,
                coordinator.rejoins,
                coordinator.round_evicted,
            );
            (net.finished, net.attempts, offsets, settled)
        };
        let kill = Some((1, 2));
        for (kill, restart) in [(None, None), (kill, None), (kill, Some((3, 2)))] {
            let (once, twice) = (run(false, kill, restart), run(true, kill, restart));
            assert_eq!(twice, once, "kill {kill:?}, restart {restart:?}");
        }
    }

    /// Every member that acked a plan prepared, at its go, exactly the
    /// coordinator's attempt (the harness asserts it at every go):
    /// fault-free, with a kill, with a kill and a restart, and with every
    /// ack and go delivered twice. The restarted member is checked again
    /// once readmitted.
    #[test]
    fn lockstep_every_acked_member_prepares_the_coordinators_attempt() {
        let (kill, restart) = (Some((1, 2)), Some((3, 2)));
        let runs = [
            (false, None, None),
            (false, kill, None),
            (false, kill, restart),
            (true, kill, restart),
        ];
        for (duplicate, kill, restart) in runs {
            let mut fleet = Lockstep::new(3, 8, 2);
            (fleet.duplicate, fleet.kill, fleet.restart) = (duplicate, kill, restart);
            fleet.run_to_end();
            let case = format!("duplicate {duplicate}, kill {kill:?}, restart {restart:?}");
            assert_eq!(fleet.finished[0], Some(Ok(())), "{case}");
            let last = fleet.checked.last().map(|&(_, offset)| offset);
            let at_last: Vec<usize> = (fleet.checked.iter())
                .filter(|&&(_, offset)| Some(offset) == last)
                .map(|&(member, _)| member)
                .collect();
            let members = match (kill, restart) {
                (Some(_), None) => vec![1],
                _ => vec![1, 2],
            };
            assert_eq!(
                at_last, members,
                "the last go checks each admitted member: {case}"
            );
            assert!(fleet.checked.len() >= 4 * members.len(), "{case}");
        }
    }

    /// Member 2 goes down right after acking the first plan, so the go
    /// cannot reach it. The refused send ends the coordinator's list before
    /// its `Run`: process 2 is convicted at commit, and the batch runs once,
    /// on the retry without it.
    #[test]
    fn lockstep_a_go_refused_after_its_ack_runs_nothing() {
        let mut fleet = Lockstep::new(3, 4, 2);
        fleet.vanish = Some(2);
        fleet.run_to_end();
        assert_eq!(fleet.convicted(), vec![2]);
        let verdict = &fleet.coordinator.evictions[0];
        assert!(
            verdict.reason.starts_with("unreachable at commit"),
            "{verdict:?}"
        );
        assert_eq!(fleet.attempts, vec![0..2, 2..4]);
        assert_eq!(fleet.finished[..2], [Some(Ok(())), Some(Ok(()))]);
    }

    /// `Purge` reaches the carrier: a member purges before it acks a plan,
    /// and the coordinator before its go; two batches, two purges each.
    #[test]
    fn lockstep_each_prepared_attempt_purges_its_carrier() {
        let mut fleet = Lockstep::new(3, 4, 2);
        fleet.run_to_end();
        assert_eq!(fleet.purged, vec![2; 3]);
    }

    /// A plan of rounds `0..end` at offset 2 without processes `dead`,
    /// every round excluding `evicted`.
    fn plan_of(end: usize, dead: Vec<usize>, evicted: Vec<usize>) -> RejoinFrame {
        RejoinFrame {
            round: 0,
            end,
            process: 0,
            offset: 2,
            response: true,
            commit: false,
            dead,
            evicted: vec![evicted; end],
            failed: vec![Vec::new(); end],
        }
    }

    /// What member 1 of three, over four rounds, answers `plan` with when
    /// it is the first frame it reads.
    fn member_takes(plan: RejoinFrame) -> Vec<Action> {
        let (mut machine, now) = (member(1, 3, 4, false), Duration::ZERO);
        machine.step(now, Input::Timer);
        machine.step(now, Input::Frame(plan));
        machine.step(now, Input::Timer)
    }

    /// Asserts that `answer` ends the member with an error naming `what`,
    /// having prepared nothing.
    fn assert_refused(answer: &[Action], what: &str) {
        assert!(
            !answer.iter().any(|a| matches!(a, Action::Prepare(..))),
            "{answer:?}"
        );
        assert!(
            matches!(answer.last(), Some(Action::Finish(Err(reason))) if reason.contains(what)),
            "want an error naming {what:?}: {answer:?}"
        );
    }

    /// A plan that evicts the coordinator ends the member by name; the
    /// same plan evicting process 2 prepares.
    #[test]
    fn a_plan_evicting_the_coordinator_ends_the_member_by_name() {
        let answer = member_takes(plan_of(2, vec![2], process_servers(9, 3, 2)));
        assert!(answer.iter().any(|a| matches!(a, Action::Prepare(..))));
        let answer = member_takes(plan_of(2, vec![0], Vec::new()));
        assert_refused(&answer, "evicts process 0 of 3");
    }

    /// A plan naming a server outside the deployment, or leaving a round
    /// fewer servers than a group, ends the member by name.
    #[test]
    fn a_plan_outside_the_deployment_ends_the_member_by_name() {
        let answer = member_takes(plan_of(2, vec![2], vec![2, 9]));
        assert_refused(&answer, "server 9 outside");
        let answer = member_takes(plan_of(2, vec![2], (0..7).collect()));
        assert_refused(&answer, "under a group");
    }

    /// A plan that runs past the spec's rounds ends the member by name.
    #[test]
    fn a_plan_past_the_specs_rounds_ends_the_member_by_name() {
        let answer = member_takes(plan_of(5, Vec::new(), Vec::new()));
        assert_refused(&answer, "rounds 0..5 of 4");
    }

    /// A second report for a round ends the run by name. Round 0 fails with
    /// no verdict and round 1 succeeds; the retry plans round 0 alone, and a
    /// driver that answers it with two results reports round 1 again.
    #[test]
    fn a_second_report_for_a_round_ends_the_run_by_name() {
        let (mut machine, now) = (coordinator(1, 2, 2), Duration::ZERO);
        machine.step(now, Input::Timer);
        let go = machine.step(now, Input::Timer);
        assert!(matches!(go.last(), Some(Action::Run)), "{go:?}");
        let unattributed = AtomError::Config("no node named".into());
        let retry = machine.step(now, Input::Ran(vec![Err(unattributed), Ok(())]));
        assert!(matches!(retry[0], Action::Retrying(0, 1, _)), "{retry:?}");
        assert_eq!(machine.attempt, 0..1, "the retry plans round 0 alone");
        let go = machine.step(now, Input::Timer);
        assert!(matches!(go.last(), Some(Action::Run)), "{go:?}");
        let answer = machine.step(now, Input::Ran(vec![Ok(()), Ok(())]));
        let reason = "round 1 reported twice".to_string();
        assert!(
            matches!(answer.last(), Some(Action::Finish(Err(r))) if *r == reason),
            "{answer:?}"
        );
    }
}
