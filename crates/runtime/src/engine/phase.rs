//! The driver of a round's [`RoundPhase`]: [`step`] feeds it one input and
//! carries out what it returns over the task queue, the actors and the
//! transport, through the phase modules that do the work.

use super::{exit, intake, mix, setup, Shared, Task};

pub(super) mod machine;

pub(super) use machine::{Action, Input, RoundPhase};

/// Steps round `round`'s machine with `input`, at the time since the run
/// started. The machine stays held while an `Install` (always first)
/// builds the actors, so an envelope handed to another worker never finds
/// its actor missing; every other action runs once it is released.
pub(super) fn step(shared: &Shared<'_>, round: usize, input: Input) {
    let job = &shared.jobs[round];
    if job.failed() {
        return;
    }
    shared.progressed(round);
    let mut machine = job.phase.lock();
    let actions = machine.step(shared.started.elapsed(), input);
    let mut held = Some(machine);
    for action in actions {
        if !matches!(action, Action::Install(_)) {
            drop(held.take());
        }
        match action {
            Action::Derive => setup::derive(shared, round),
            Action::Install(directory) => setup::install(shared, round, *directory),
            Action::Deliver(gid, mix) => mix::feed(shared, round, gid, mix),
            Action::Verify(chunk) => shared.sched.push_task(Task::IntakeChunk { round, chunk }),
            Action::Release(batches) => intake::release(shared, round, batches),
            Action::Finalize(frames, released) => {
                exit::finalize_round(shared, round, frames, released)
            }
            Action::Stub(pipelined) => shared.resolve(round, Ok(exit::member_stub(job, pipelined))),
            Action::Fail(error) => shared.fail_job(round, error),
        }
    }
}
