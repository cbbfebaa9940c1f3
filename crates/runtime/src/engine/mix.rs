//! Mixing: a group step, run on the worker that carries out the round
//! machine's `Step`, outside any lock. The machine records every inbound
//! sub-batch, hands out the steps and routes what they emit.

use atom_core::actor::GroupStepper;

use super::phase::{Input, Ready};
use super::Shared;

pub(super) mod machine;

pub(super) use machine::Mixer;

/// Runs group `gid`'s step of round `round` over the iteration its inbox
/// handed out, and returns the stepper with the outputs for the machine.
pub(super) fn step(
    shared: &Shared<'_>,
    round: usize,
    gid: usize,
    mut stepper: Box<GroupStepper>,
    ready: Ready,
) -> Input {
    // Members start their round clock at their first group step (the
    // coordinator starts it at intake).
    shared.jobs[round].start_clock();
    let span = atom_obs::span("mix", shared.trace_round(round), gid as u32);
    let outputs = stepper.step(ready);
    drop(span);
    Input::Stepped(gid, stepper, outputs)
}
