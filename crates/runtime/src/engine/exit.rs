//! Exit: the orchestrator collects every group's exit frame and finalizes
//! the round through its variant's exit phase; a member resolves a stub
//! report once its own groups have exited.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use atom_core::config::Defense;
use atom_core::error::AtomError;
use atom_core::round::{collect_round_timings, finish_nizk_round, finish_trap_round, RoundOutput};
use atom_crypto::commit::Commitment;

use super::{JobState, RoundReport, Shared};
use crate::{fill_vec::FillVec, wire::ExitFrame};

/// What a round's finalization collects: intake's release and every exit
/// frame.
pub(super) struct ExitState {
    /// The coordinator's exit frames, one slot per group of the round,
    /// local and remote.
    frames: FillVec<ExitFrame>,
    /// Local actors that reached their exit layer (what a member resolves
    /// its rounds on).
    local_exits: usize,
    routed: usize,
    commitments: Vec<Vec<Commitment>>,
    /// The latest virtual exit time of a member's local actors.
    pipelined: Duration,
}

impl ExitState {
    pub(super) fn new(num_groups: usize) -> Self {
        Self {
            frames: FillVec::new(num_groups),
            local_exits: 0,
            routed: 0,
            commitments: Vec::new(),
            pipelined: Duration::ZERO,
        }
    }

    /// Records what intake released: the routed ciphertext count and (trap
    /// variant) the per-group commitments the exit phase checks.
    pub(super) fn released(&mut self, routed: usize, commitments: Vec<Vec<Commitment>>) {
        self.routed = routed;
        self.commitments = commitments;
    }
}

/// Collects one group's exit frame at the orchestrator; the frame that
/// completes the round triggers finalization.
pub(super) fn on_exit_frame(shared: &Shared<'_>, round: usize, node: usize, frame: ExitFrame) {
    if node != shared.orchestrator || !shared.role.coordinator {
        return shared.fail_all("exit frame delivered to a non-orchestrator node");
    }
    let job = &shared.jobs[round];
    if job.failed() {
        return;
    }
    let gid = frame.gid;
    if gid >= job.num_groups() {
        let error = AtomError::Malformed(format!("exit frame from unknown group {gid}"));
        return shared.fail_job(round, error);
    }
    // No group can legitimately exit before the coordinator's directory is
    // assembled: every mix batch descends from the local intake, which only
    // runs post-assembly. An early exit frame is therefore forged or
    // broken — fail the round rather than let finalization read an
    // unassembled directory (a panic that would take down the whole scope).
    if job.setup.get().is_none() {
        let error = AtomError::Malformed(format!(
            "exit frame from group {gid} before the round directory was assembled"
        ));
        return shared.fail_job(round, error);
    }
    let claimed = {
        let mut slot = job.exit.lock();
        let Some(exit) = slot.as_mut() else {
            return; // finalization already claimed the round
        };
        if exit.frames.set(gid, frame).is_err() {
            drop(slot);
            let error = AtomError::Malformed(format!("duplicate exit frame from group {gid}"));
            return shared.fail_job(round, error);
        }
        shared.progressed(round);
        // Taking the state is the claim: the frame that completes the
        // round takes it, once, under the exit lock.
        if exit.frames.is_full() {
            slot.take()
        } else {
            None
        }
    };
    if let Some(exit) = claimed {
        finalize_round(shared, round, exit);
    }
}

/// Member-side bookkeeping of a local group reaching its exit layer: once
/// every locally hosted group of the round is done, a non-coordinator has
/// nothing left to compute and resolves the round with a stub report. (The
/// coordinator learns of its own groups' exits from their exit frames.)
pub(super) fn on_local_exit(shared: &Shared<'_>, round: usize, finished_virtual: Duration) {
    if shared.role.coordinator {
        return;
    }
    let job = &shared.jobs[round];
    let all_local_done = {
        let mut slot = job.exit.lock();
        let Some(exit) = slot.as_mut() else {
            return;
        };
        exit.local_exits += 1;
        exit.pipelined = exit.pipelined.max(finished_virtual);
        exit.local_exits == shared.role.hosted_in_round(job.num_groups())
    };
    if all_local_done {
        shared.resolve(round, Ok(member_stub(job)));
    }
}

/// The report a non-coordinator member resolves a round with: local
/// traffic and latency only, empty protocol output (the coordinator holds
/// the authoritative report). All zero for a round it hosts no group of.
pub(super) fn member_stub(job: &JobState) -> RoundReport {
    let pipelined = (job.exit.lock().as_ref()).map_or(Duration::ZERO, |exit| exit.pipelined);
    let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
    let mix_messages = job.group_mix.iter().map(|(m, _)| load(m)).sum();
    let mix_bytes = job.group_mix.iter().map(|(_, b)| load(b)).sum();
    RoundReport {
        output: RoundOutput::default(),
        pipelined_latency: pipelined,
        wall_clock: job.wall_clock(),
        setup_latency: job.setup_latency(),
        mix_messages,
        mix_bytes,
    }
}

/// Collects timings, runs the variant-specific exit phase and resolves the
/// round (coordinator only; members resolve through [`on_local_exit`]).
fn finalize_round(shared: &Shared<'_>, round: usize, exit: ExitState) {
    let job = &shared.jobs[round];
    let frames = exit.frames.into_full().expect("every exit frame arrived");
    let pipelined = frames.iter().map(|frame| frame.finished_virtual).max();
    let mix = (frames.iter()).fold((0, 0), |(m, b), f| (m + f.mix_messages, b + f.mix_bytes));
    let (payloads, computes): (Vec<_>, Vec<_>) =
        frames.into_iter().map(|f| (f.payloads, f.compute)).unzip();
    let (output, wall_clock) = {
        let _span = atom_obs::span("exit", shared.trace_round(round), atom_obs::GID_NONE);
        // Per-iteration compute critical path as reported in the groups'
        // exit frames, via the accounting helper shared with the sequential
        // driver.
        let setup = job.round_setup();
        let mut timings = collect_round_timings(setup, &computes);
        // Same field semantics as the sequential driver: end-to-end wall
        // time of the round in the coordinator process.
        let wall_clock = job.wall_clock();
        timings.wall_clock = wall_clock;
        let (routed, commitments) = (exit.routed, &exit.commitments);
        let output = match job.submissions.defense() {
            Defense::Nizk => finish_nizk_round(payloads, routed, timings),
            Defense::Trap => finish_trap_round(setup, commitments, payloads, routed, timings),
        };
        (output, wall_clock)
    };

    // The exit phase itself can reject a round (trap-check failure,
    // malformed payloads); `resolve` then tells any member still mixing.
    let report = output.map(|output| RoundReport {
        pipelined_latency: pipelined.unwrap_or_default(),
        wall_clock,
        setup_latency: job.setup_latency(),
        mix_messages: job.intake_mix_messages.load(Ordering::Relaxed) + mix.0,
        mix_bytes: job.intake_mix_bytes.load(Ordering::Relaxed) + mix.1,
        output,
    });
    shared.resolve(round, report);
}

/// What a round waits on once its directory and intake are done: the
/// coordinator names the groups whose exit frames are missing, a member
/// counts its exited groups.
pub(super) fn waiting_on(shared: &Shared<'_>, job: &JobState) -> (String, Vec<usize>) {
    let slot = job.exit.lock();
    let Some(exit) = slot.as_ref() else {
        return ("finalizing: every exit frame arrived".into(), Vec::new());
    };
    if shared.role.coordinator {
        let (named, remote) = shared.locate(exit.frames.missing().collect());
        let detail = format!("waiting on exit frames from groups [{named}]");
        return (detail, remote);
    }
    let exited = exit.local_exits;
    let hosted = shared.role.hosted_in_round(job.num_groups());
    let detail = format!("member still mixing: {exited}/{hosted} hosted groups exited");
    (detail, Vec::new())
}
