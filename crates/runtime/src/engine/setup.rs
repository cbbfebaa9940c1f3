//! Directory setup: every round derives its directory in the run, one DKG
//! task per hosted group (plus the trustee DKG on the coordinator), whose
//! public halves travel to the peers as `setup` frames. The round's
//! machine collects them; [`install`] builds the actors from what it
//! assembles.

use parking_lot::Mutex;

use atom_core::actor::{ActorConfig, GroupActor};
use atom_core::directory::{derive_group, derive_trustees, RoundSetup};
use atom_core::error::AtomResult;
use atom_core::group::GroupStepOptions;

use super::phase::{self, Input};
use super::{ActorSpec, Shared, Task, SETUP_LABEL};
use crate::wire::{self, SetupFrame};

mod machine;

pub(super) use machine::member_trustee_placeholder;

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
    phase::step(shared, round, Input::Group(context));
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
        Ok(trustees) => phase::step(shared, round, Input::Trustees(trustees)),
        Err(error) => shared.fail_job(round, error),
    }
}

/// Builds the hosted actors and publishes the directory, which releases
/// the coordinator's intake: submission proofs verify against the group
/// and trustee keys. An actor that cannot be built fails the round while
/// the machine is held; the actions that follow the install find the
/// round failed.
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
