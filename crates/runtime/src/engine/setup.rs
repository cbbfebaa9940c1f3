//! Directory setup: a sharded round's per-group DKG tasks and the `setup`
//! frames that carry their public halves between processes, and the one
//! [`install`] path every directory — prebuilt or assembled — takes into
//! its round.

use std::time::{Duration, Instant};

use parking_lot::Mutex;

use atom_core::actor::{ActorConfig, GroupActor};
use atom_core::config::AtomConfig;
use atom_core::directory::{
    derive_buddies, derive_group, derive_members, derive_trustees, GroupContext, RoundSetup,
    TrusteeContext,
};
use atom_core::error::{AtomError, AtomResult};
use atom_core::group::GroupStepOptions;
use atom_crypto::elgamal::PublicKey;
use atom_crypto::RistrettoPoint;
use curve25519_dalek::traits::Identity;

use super::{mix, ActorSpec, EngineRole, Shared, Task, SETUP_LABEL};
use crate::fill_vec::FillVec;
use crate::wire::{self, MixEnvelope, SetupFrame};

/// In-flight state of a sharded round's distributed directory derivation.
/// Absent for [`RoundDirectory::Full`](super::RoundDirectory::Full) jobs.
pub(super) struct SetupPhase {
    /// When this process started working toward the round's directory
    /// (engine start; feeds [`RoundReport::setup_latency`](super::RoundReport::setup_latency)).
    started: Instant,
    /// Collected contexts: full (with shares) for hosted groups, public-only
    /// for remote ones. The directory is complete once every slot and the
    /// trustee slot are filled.
    groups: FillVec<GroupContext>,
    /// The trustee context: derived locally on the coordinator, a
    /// placeholder from the start on members.
    trustees: Option<TrusteeContext>,
    /// Mix envelopes that arrived before the directory was ready, replayed
    /// in arrival order by [`install`]. `(destination gid, envelope)`.
    buffered: Vec<(usize, MixEnvelope)>,
    /// Hard cap on `buffered`: a legitimate round delivers at most
    /// `groups × (1 + groups × iterations)` mix frames in total, so growth
    /// past that is a hostile or broken peer streaming frames while
    /// withholding its setup frames — fail the round instead of buffering
    /// without bound.
    buffer_cap: usize,
    /// Set once `finish_setup` assembled the directory from `groups`, after
    /// which no frame may mutate this state. Late setup frames are still
    /// cross-checked against the keys it was assembled with: an
    /// equivocating peer that lands its forged frame first must still be
    /// caught — and the round killed with the conflict named — when its
    /// genuine frame (or a second forged story) arrives after sealing.
    sealed: bool,
    /// Set once actors exist and mixing may proceed, to how long the
    /// directory took.
    ready: Option<Duration>,
}

impl SetupPhase {
    pub(super) fn new(config: &AtomConfig, role: &EngineRole) -> Self {
        let num_groups = config.num_groups;
        let iterations = config.topology().iterations();
        Self {
            started: Instant::now(),
            groups: FillVec::new(num_groups),
            trustees: (!role.coordinator).then(member_trustee_placeholder),
            buffered: Vec::new(),
            buffer_cap: num_groups.saturating_mul(1 + num_groups.saturating_mul(iterations)),
            sealed: false,
            ready: None,
        }
    }

    pub(super) fn latency(&self) -> Duration {
        self.ready.unwrap_or_default()
    }

    fn complete(&self) -> bool {
        self.trustees.is_some() && self.groups.is_full()
    }

    /// Checks a setup frame against the stored context of its group. `None`
    /// means this phase holds nothing for the group yet; otherwise the frame
    /// is a benign copy (`Ok`) or an equivocation. Once sealed, only the key
    /// the round mixes under is compared, and a disagreeing frame is named
    /// even though the first (possibly forged) story already won the slot.
    fn check_copy(&self, frame: &SetupFrame) -> Option<AtomResult<()>> {
        let existing = self.groups.get(frame.gid)?;
        let benign = existing.public_key == frame.public_key
            && (self.sealed
                || (existing.threshold == frame.threshold && existing.members == frame.members));
        Some(if benign {
            Ok(())
        } else {
            Err(AtomError::Malformed(format!(
                "conflicting setup frames for group {}",
                frame.gid
            )))
        })
    }

    /// What the round waits on while its directory is not ready: the
    /// missing group directories and, on the coordinator, the trustee DKG.
    pub(super) fn waiting_on(&self, shared: &Shared<'_>) -> Option<(String, Vec<usize>)> {
        if self.ready.is_some() {
            return None;
        }
        let trustees = self.trustees.is_none().then_some(" and the trustee DKG");
        let (named, remote) = shared.locate(self.groups.missing().collect());
        let detail = format!("stuck in sharded setup, waiting on group directories [{named}]");
        Some((detail + trustees.unwrap_or_default(), remote))
    }
}

/// Queues a sharded round's directory derivation: one task per hosted
/// group, plus the trustee DKG on the coordinator.
pub(super) fn derive(shared: &Shared<'_>, round: usize) {
    let num_groups = shared.jobs[round].num_groups();
    for &gid in shared.role.hosted.iter().filter(|&&gid| gid < num_groups) {
        shared.sched.push_task(Task::SetupGroup { round, gid });
    }
    if shared.role.coordinator {
        shared.sched.push_task(Task::SetupTrustees { round });
    }
}

/// Derives the DKG of locally hosted group `gid` of a sharded round from
/// its beacon stream, broadcasts the public half to every remote mailbox
/// (each peer process needs every group's public key before its actors can
/// mix; the coordinator additionally needs it for intake verification), and
/// records the full context locally.
pub(super) fn run_setup_group(shared: &Shared<'_>, round: usize, gid: usize) {
    let _span = atom_obs::span("setup", shared.trace_round(round), gid as u32);
    let job = &shared.jobs[round];
    if job.failed() {
        return;
    }
    let context = match derive_group(&job.config, gid) {
        Ok(context) => context,
        Err(error) => return shared.fail_job(round, error),
    };
    // Ship the public half to every remote mailbox. A peer process hosting
    // several groups receives one copy per mailbox; `on_setup_frame` treats
    // the duplicates idempotently. `public_only` is the contract for what
    // may leave this process: secret shares stay behind.
    let public = context.public_only();
    let frame = SetupFrame {
        round: shared.wire_round(round),
        gid,
        members: public.members,
        threshold: public.threshold,
        public_key: public.public_key,
    };
    let payload = wire::encode_setup(&frame);
    for node in 0..shared.transport.nodes() {
        if !shared.transport.is_local(node)
            && !shared.send_for_round(round, gid, node, SETUP_LABEL, payload.clone())
        {
            return;
        }
    }
    record_local(shared, round, |phase| drop(phase.groups.set(gid, context)));
}

/// Derives the trustee DKG of a sharded round (coordinator only; members
/// record a placeholder — see [`member_trustee_placeholder`]).
pub(super) fn run_setup_trustees(shared: &Shared<'_>, round: usize) {
    let _span = atom_obs::span("setup", shared.trace_round(round), atom_obs::GID_NONE);
    let job = &shared.jobs[round];
    if job.failed() {
        return;
    }
    match derive_trustees(&job.config) {
        Ok(trustees) => record_local(shared, round, |phase| phase.trustees = Some(trustees)),
        Err(error) => shared.fail_job(round, error),
    }
}

/// Records a locally derived piece of the directory unless it was sealed
/// meanwhile; the worker recording the last missing piece assembles it.
fn record_local(shared: &Shared<'_>, round: usize, record: impl FnOnce(&mut SetupPhase)) {
    let phase_lock = shared.jobs[round].phase.as_ref().expect("sharded round");
    let complete = {
        let mut phase = phase_lock.lock();
        !phase.sealed && {
            record(&mut phase);
            phase.complete()
        }
    };
    if complete {
        finish_setup(shared, round);
    }
}

/// Records one remote group's public directory entry. Duplicate frames for
/// the same group are expected — a peer broadcasts once per remote mailbox,
/// and this process may own several — and must agree with the first copy;
/// a conflicting frame is a hostile or broken peer and fails the round.
pub(super) fn on_setup_frame(shared: &Shared<'_>, round: usize, frame: SetupFrame) {
    let job = &shared.jobs[round];
    if job.failed() {
        return;
    }
    let Some(phase_lock) = &job.phase else {
        let error =
            AtomError::Malformed("setup frame for a round with a prebuilt directory".into());
        return shared.fail_job(round, error);
    };
    let gid = frame.gid;
    if gid >= job.num_groups() {
        let error = AtomError::Malformed(format!("setup frame for unknown group {gid}"));
        return shared.fail_job(round, error);
    }
    if shared.role.hosts(gid) {
        let error = AtomError::Malformed(format!(
            "setup frame for group {gid}, which this process derives itself"
        ));
        return shared.fail_job(round, error);
    }
    // Duplicate broadcast copies (the sender fans one frame out to every
    // local mailbox) take a fast path: compare against the already-stored,
    // already-validated context instead of re-deriving the membership —
    // O(members) instead of replaying the beacon stream per copy. A frame
    // sealed or stored meanwhile meets the same check after validation.
    let copy = phase_lock.lock().check_copy(&frame);
    let verdict = match copy {
        Some(verdict) => verdict.map(|()| false),
        None => validate(&job.config, &frame).and_then(|()| {
            let mut phase = phase_lock.lock();
            if let Some(verdict) = phase.check_copy(&frame) {
                return verdict.map(|()| false);
            }
            let context = GroupContext {
                id: gid,
                members: frame.members,
                shares: Vec::new(),
                public_key: frame.public_key,
                threshold: frame.threshold,
            };
            Ok(phase.groups.set(gid, context).is_ok() && phase.complete())
        }),
    };
    match verdict {
        Ok(true) => finish_setup(shared, round),
        Ok(false) => {}
        Err(error) => shared.fail_job(round, error),
    }
}

/// Everything in a setup frame except the DKG public key is a pure function
/// of the shared configuration — recompute and reject rather than trust. A
/// hostile peer can therefore only influence the public keys of the groups
/// it hosts, which it controls anyway by running their DKGs.
fn validate(config: &AtomConfig, frame: &SetupFrame) -> AtomResult<()> {
    let gid = frame.gid;
    if frame.threshold != config.group_threshold() {
        return Err(AtomError::Malformed(format!(
            "setup frame for group {gid} claims threshold {} (expected {})",
            frame.threshold,
            config.group_threshold()
        )));
    }
    if derive_members(config, gid)? != frame.members {
        return Err(AtomError::Malformed(format!(
            "setup frame for group {gid} claims a membership that does not match the beacon \
             derivation"
        )));
    }
    Ok(())
}

/// Assembles the round's directory once every piece exists — hosted DKGs
/// run, every remote frame received, trustees derived (coordinator) — and
/// installs it.
fn finish_setup(shared: &Shared<'_>, round: usize) {
    let job = &shared.jobs[round];
    let (groups, trustees) = {
        let mut phase = job.phase.as_ref().expect("sharded round").lock();
        debug_assert!(phase.complete() && !phase.sealed);
        phase.sealed = true;
        let (groups, trustees) = (phase.groups.clone().into_full(), phase.trustees.take());
        groups.zip(trustees).expect("setup phase complete")
    };
    let setup = RoundSetup {
        config: job.config.clone(),
        groups,
        trustees,
        buddies: derive_buddies(&job.config),
    };
    install(shared, round, setup);
}

/// The one path a directory takes into its round, whether it was prebuilt
/// (installed before any worker runs) or assembled from setup frames:
/// builds the hosted actors, publishes the directory, releases the
/// coordinator's intake — which could not run before, since submission
/// proofs verify against the group and trustee keys — and replays the mix
/// envelopes that raced ahead of the directory.
pub(super) fn install(shared: &Shared<'_>, round: usize, setup: RoundSetup) {
    let job = &shared.jobs[round];
    for gid in (0..job.num_groups()).filter(|&gid| shared.role.hosts(gid)) {
        match build_actor(&setup, gid, &job.actor_spec) {
            Ok(actor) => {
                let _ = job.actors[gid].set(Mutex::new(actor));
            }
            Err(error) => return shared.fail_job(round, error),
        }
    }
    let _ = job.setup.set(setup);
    let buffered = (job.phase.as_ref())
        .map(|phase_lock| {
            let mut phase = phase_lock.lock();
            phase.ready = Some(phase.started.elapsed());
            std::mem::take(&mut phase.buffered)
        })
        .unwrap_or_default();
    if shared.role.coordinator && !job.finalized() {
        for chunk in 0..job.intake.window() {
            shared.sched.push_task(Task::IntakeChunk { round, chunk });
        }
    }
    for (gid, mix) in buffered {
        mix::on_mix_frame(shared, round, gid, mix);
    }
}

/// Parks a mix envelope that reached a sharded round before its actors
/// exist (a fast peer may start mixing while we are still collecting setup
/// frames) for [`install`] to replay, and hands it back once the round is
/// ready. Bounded: a peer streaming mix frames while withholding its setup
/// frames fails the round instead of exhausting memory.
pub(super) fn park(
    shared: &Shared<'_>,
    round: usize,
    gid: usize,
    mix: MixEnvelope,
) -> Option<MixEnvelope> {
    let Some(phase_lock) = &shared.jobs[round].phase else {
        return Some(mix);
    };
    let mut phase = phase_lock.lock();
    if phase.ready.is_some() {
        return Some(mix);
    }
    if phase.buffered.len() >= phase.buffer_cap {
        let cap = phase.buffer_cap;
        drop(phase);
        shared.fail_job(
            round,
            AtomError::Malformed(format!(
                "more than {cap} mix envelopes buffered before the round's directory was \
                 assembled"
            )),
        );
        return None;
    }
    phase.buffered.push((gid, mix));
    None
}

/// Builds the actor of group `gid` from the directory and the job's
/// retained [`ActorSpec`].
fn build_actor(setup: &RoundSetup, gid: usize, spec: &ActorSpec) -> AtomResult<GroupActor> {
    let mut config = ActorConfig::new(GroupStepOptions::new(spec.defense));
    config.adversary = spec.adversary;
    config.failed_servers = spec.failed_servers.clone();
    config.churn = spec.churn.clone();
    // A group that lost more members than its DKG threshold tolerates
    // cannot run threshold decryption with Lagrange reweighting alone; fall
    // back to the buddy-group escrow (§4.5), which deterministically
    // reconstructs the missing shares onto replacement servers drawn from
    // the buddy group. The group public key is unchanged, so already
    // collected submissions stay decryptable.
    let healed;
    let setup = if !spec.failed_servers.is_empty()
        && setup.groups[gid]
            .participating(&spec.failed_servers)
            .is_err()
    {
        let group = atom_core::faults::heal_group_via_escrow(setup, gid, &spec.failed_servers)?;
        atom_obs::count("engine.escrow.reconstructions", 1);
        let mut patched = setup.clone();
        patched.groups[gid] = group;
        healed = patched;
        &healed
    } else {
        setup
    };
    GroupActor::new(setup, gid, spec.master_seed, config)
}

/// The trustee context a non-coordinator member records in its assembled
/// directory. Members never consult the trustees — group actors only read
/// `setup.groups` and `setup.config`, and the trap-variant exit phase runs
/// on the coordinator — so an empty placeholder keeps the trustee DKG off
/// every member's setup path.
fn member_trustee_placeholder() -> TrusteeContext {
    TrusteeContext {
        members: Vec::new(),
        shares: Vec::new(),
        public_key: PublicKey(RistrettoPoint::identity()),
    }
}
