//! Directory setup: the driver of a round's [`SetupPhase`]. Every round
//! derives its directory in the run: one DKG task per hosted group (plus
//! the trustee DKG on the coordinator), whose public halves travel to the
//! peers as `setup` frames; the machine collects them, and [`step`] carries
//! out what it returns.

use parking_lot::Mutex;

use atom_core::actor::{ActorConfig, GroupActor};
use atom_core::directory::{derive_group, derive_trustees, RoundSetup};
use atom_core::error::AtomResult;
use atom_core::group::GroupStepOptions;

use super::{mix, ActorSpec, Shared, Task, SETUP_LABEL};
use crate::wire::{self, SetupFrame};

mod machine;

pub(super) use machine::{Action, Input, SetupPhase};

/// Queues a round's directory derivation: one task per hosted group, plus
/// the trustee DKG on the coordinator.
pub(super) fn derive(shared: &Shared<'_>, round: usize) {
    let num_groups = shared.jobs[round].num_groups();
    for &gid in shared.role.hosted.iter().filter(|&&gid| gid < num_groups) {
        shared.sched.push_task(Task::SetupGroup { round, gid });
    }
    if shared.role.coordinator {
        shared.sched.push_task(Task::SetupTrustees { round });
    }
}

/// Derives the DKG of locally hosted group `gid` from its beacon stream,
/// sends the public half to the remote mailboxes of the round's groups and
/// the orchestrator (each process hosting a group of the round needs every
/// group's public key before its actors can mix; the coordinator also needs
/// it for intake verification; a process hosting none resolved the round at
/// once and may have ended its run), and records the full context locally.
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
    // A peer process hosting several groups receives one copy per mailbox;
    // its machine treats the duplicates idempotently. `public_only` is the
    // contract for what may leave this process: secret shares stay behind.
    let public = context.public_only();
    let frame = SetupFrame {
        round: shared.wire_round(round),
        gid,
        members: public.members,
        threshold: public.threshold,
        public_key: public.public_key,
    };
    let payload = wire::encode_setup(&frame);
    let readers = (0..job.num_groups()).chain([shared.orchestrator]);
    for node in readers.filter(|&node| !shared.transport.is_local(node)) {
        if !shared.send_for_round(round, gid, node, SETUP_LABEL, payload.clone()) {
            return;
        }
    }
    step(shared, round, Input::Group(context));
}

/// Derives the trustee DKG (coordinator only; members record a
/// placeholder).
pub(super) fn run_setup_trustees(shared: &Shared<'_>, round: usize) {
    let _span = atom_obs::span("setup", shared.trace_round(round), atom_obs::GID_NONE);
    let job = &shared.jobs[round];
    if job.failed() {
        return;
    }
    match derive_trustees(&job.config) {
        Ok(trustees) => step(shared, round, Input::Trustees(trustees)),
        Err(error) => shared.fail_job(round, error),
    }
}

/// Steps round `round`'s setup machine with `input`, at the time since the
/// run started, and carries out what it returns. The machine stays held
/// while [`install`] builds the actors, so an envelope it hands another
/// worker never finds its actor missing; envelopes reach their actors, and
/// a failure its round, once it is released.
pub(super) fn step(shared: &Shared<'_>, round: usize, input: Input) {
    let job = &shared.jobs[round];
    if job.failed() {
        return;
    }
    shared.progressed(round);
    let (mut deliver, mut failure) = (Vec::new(), None);
    let mut machine = job.phase.lock();
    for action in machine.step(shared.started.elapsed(), input) {
        match action {
            Action::Install(setup, replay) => {
                if !install(shared, round, *setup) {
                    return;
                }
                deliver.extend(replay);
            }
            Action::Deliver(gid, mix) => deliver.push((gid, mix)),
            Action::Fail(error) => failure = Some(error),
        }
    }
    drop(machine);
    if let Some(error) = failure {
        return shared.fail_job(round, error);
    }
    for (gid, mix) in deliver {
        mix::feed(shared, round, gid, mix);
    }
}

/// Builds the hosted actors, publishes the directory and releases the
/// coordinator's intake, which could not run before: submission proofs
/// verify against the group and trustee keys. An actor that cannot be
/// built fails the round while the machine is held; returns whether the
/// round still runs.
fn install(shared: &Shared<'_>, round: usize, setup: RoundSetup) -> bool {
    let job = &shared.jobs[round];
    for gid in (0..job.num_groups()).filter(|&gid| shared.role.hosts(gid)) {
        match build_actor(&setup, gid, &job.actor_spec) {
            Ok(actor) => {
                let _ = job.actors[gid].set(Mutex::new(actor));
            }
            Err(error) => {
                shared.fail_job(round, error);
                return false;
            }
        }
    }
    let _ = job.setup.set(setup);
    if shared.role.coordinator && !job.finalized() {
        for chunk in 0..job.intake.window() {
            shared.sched.push_task(Task::IntakeChunk { round, chunk });
        }
    }
    true
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
