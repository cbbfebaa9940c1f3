//! Mixing: each inbound sub-batch feeds its hosted group actor, and what
//! the actor emits is routed on — forwards to the next iteration's groups,
//! the exit frame to the orchestrator.

use std::sync::atomic::Ordering;
use std::sync::OnceLock;
use std::time::Duration;

use atom_core::actor::ActorOutput;
use atom_core::error::AtomError;

use super::{exit, setup, Shared, EXIT_LABEL, MIX_LABEL};
use crate::wire::{self, ExitFrame, MixEnvelope};

/// Feeds one mixing sub-batch to the local actor of group `gid` and routes
/// whatever the actor emits.
pub(super) fn on_mix_frame(shared: &Shared<'_>, round: usize, gid: usize, mix: MixEnvelope) {
    let job = &shared.jobs[round];
    if job.failed() {
        return;
    }
    let Some(mix) = setup::park(shared, round, gid, mix) else {
        return;
    };
    // Members start their round clock at the first local delivery (the
    // coordinator starts it at intake).
    job.start_clock();
    let Some(actor_slot) = job.actors.get(gid).and_then(OnceLock::get) else {
        shared.fail_job(
            round,
            AtomError::Malformed(format!(
                "mix envelope for group {gid}, which this process does not host"
            )),
        );
        return;
    };

    // Frames are encoded and traffic counters updated while the actor lock
    // is held: the lock serializes the group's iterations, so by the time
    // the exit frame snapshots the group's counters every earlier forward
    // of this group has been counted — another worker draining a later
    // batch cannot observe a partial count. Only the sends happen outside
    // the lock.
    let mut sends: Vec<(usize, Vec<u8>)> = Vec::new();
    let mut exit_send: Option<(Vec<u8>, Duration)> = None;
    {
        // One span per hop. Scoped to the actor section (not the sends), so
        // a member's final hop is recorded before `exit::on_local_exit`
        // builds the round's telemetry snapshot.
        let _span = atom_obs::span("mix", shared.trace_round(round), gid as u32);
        let mut actor = actor_slot.lock();
        actor.note_arrival(mix.iteration, mix.sent_virtual);
        let outputs = match actor.on_batch(mix.iteration, mix.from, mix.batch) {
            Ok(outputs) => outputs,
            Err(error) => {
                drop(actor);
                shared.fail_job(round, error);
                return;
            }
        };
        for output in outputs {
            match output {
                ActorOutput::Forward {
                    iteration,
                    to,
                    batch,
                    sent_virtual,
                } => {
                    let payload = wire::encode_mix(
                        shared.wire_round(round),
                        iteration,
                        gid,
                        sent_virtual,
                        &batch,
                    );
                    let (messages, bytes) = &job.group_mix[gid];
                    messages.fetch_add(1, Ordering::Relaxed);
                    bytes.fetch_add(payload.len() as u64, Ordering::Relaxed);
                    sends.push((to, payload));
                }
                ActorOutput::Exit {
                    plaintexts,
                    finished_virtual,
                } => {
                    // The group's final products travel to the orchestrator
                    // as an exit frame — across the loopback in a
                    // single-process run, across TCP when the coordinator
                    // is remote.
                    let (messages, bytes) = &job.group_mix[gid];
                    let frame = ExitFrame {
                        round: shared.wire_round(round),
                        gid,
                        finished_virtual,
                        mix_messages: messages.load(Ordering::Relaxed),
                        mix_bytes: bytes.load(Ordering::Relaxed),
                        compute: actor.compute_times().to_vec(),
                        payloads: plaintexts,
                    };
                    exit_send = Some((wire::encode_exit(&frame), finished_virtual));
                }
            }
        }
    }

    for (to, payload) in sends {
        if !shared.send_for_round(round, gid, to, MIX_LABEL, payload) {
            return;
        }
    }
    if let Some((payload, finished_virtual)) = exit_send {
        if !shared.send_for_round(round, gid, shared.orchestrator, EXIT_LABEL, payload) {
            return;
        }
        exit::on_local_exit(shared, round, finished_virtual);
    }
}
