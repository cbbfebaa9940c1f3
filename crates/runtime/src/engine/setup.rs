//! Directory setup: every round derives its directory in the run, one DKG
//! task per hosted group (plus the trustee DKG on the coordinator), whose
//! public halves travel to the peers as `setup` frames. The round's
//! machine collects them and installs what it assembles.

use atom_core::directory::{derive_group, derive_trustees};

use super::phase::{self, Input};
use super::{Shared, Task, SETUP_LABEL};
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
