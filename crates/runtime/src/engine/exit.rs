//! Exit: the coordinator's finalization through its variant's exit phase,
//! and a member's stub report. The round's machine decides when either is
//! due; exit frames reach it through [`on_exit_frame`].

use std::time::Duration;

use atom_core::config::Defense;
use atom_core::round::{collect_round_timings, finish_nizk_round, finish_trap_round, RoundOutput};

use super::phase::{self, Input};
use super::{JobState, RoundReport, Shared};
use crate::wire::ExitFrame;

mod machine;

pub(super) use machine::Released;

/// Routes one exit frame to its round's machine: exit frames go to the
/// orchestrator alone.
pub(super) fn on_exit_frame(shared: &Shared<'_>, round: usize, node: usize, frame: ExitFrame) {
    if node != shared.orchestrator || !shared.role.coordinator {
        return shared.fail_all("exit frame delivered to a non-orchestrator node");
    }
    phase::step(shared, round, Input::Exit(frame));
}

/// A member's stub report (see [`RoundReport`]): its hosted groups' traffic
/// and latency, no output; all zero for a round it hosts no group of.
pub(super) fn member_stub(job: &JobState, pipelined: Duration, traffic: (u64, u64)) -> RoundReport {
    RoundReport {
        output: RoundOutput::default(),
        pipelined_latency: pipelined,
        wall_clock: job.wall_clock(),
        setup_latency: job.setup_latency(),
        mix_messages: traffic.0,
        mix_bytes: traffic.1,
    }
}

/// Runs the variant's exit phase over every group's frame and resolves the
/// round (coordinator only).
pub(super) fn finalize_round(
    shared: &Shared<'_>,
    round: usize,
    frames: Vec<ExitFrame>,
    released: Released,
) {
    let (job, (routed, commitments, injected)) = (&shared.jobs[round], released);
    let pipelined = frames.iter().map(|frame| frame.finished_virtual).max();
    let mix = (frames.iter()).fold((0, 0), |(m, b), f| (m + f.mix_messages, b + f.mix_bytes));
    let (payloads, computes): (Vec<_>, Vec<_>) =
        frames.into_iter().map(|f| (f.payloads, f.compute)).unzip();
    let span = atom_obs::span("exit", shared.trace_round(round), atom_obs::GID_NONE);
    // The per-iteration compute critical path from the groups' exit frames
    // and the round's wall time in the coordinator process, with the
    // sequential driver's accounting and field semantics.
    let setup = job.round_setup();
    let mut timings = collect_round_timings(setup, &computes);
    let wall_clock = job.wall_clock();
    timings.wall_clock = wall_clock;
    let output = match job.submissions.defense() {
        Defense::Nizk => finish_nizk_round(payloads, routed, timings),
        Defense::Trap => finish_trap_round(setup, &commitments, payloads, routed, timings),
    };
    drop(span);

    // The exit phase itself can reject a round (trap-check failure,
    // malformed payloads); `resolve` then tells any member still mixing.
    let report = output.map(|output| RoundReport {
        pipelined_latency: pipelined.unwrap_or_default(),
        wall_clock,
        setup_latency: job.setup_latency(),
        mix_messages: injected.0 + mix.0,
        mix_bytes: injected.1 + mix.1,
        output,
    });
    shared.resolve(round, report);
}
