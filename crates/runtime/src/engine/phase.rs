//! The driver of a round's [`RoundPhase`]: [`step`] feeds it one input and
//! carries out what it returns over the task queue and the transport,
//! through the phase modules that do the work.

use atom_core::actor::SOURCE;

use super::{exit, mix, setup, Shared, Task, EXIT_LABEL, MIX_LABEL};

pub(super) mod machine;

pub(super) use machine::{Action, Input, Ready, RoundPhase};

/// Steps round `round`'s machine with `input`, at the time since the run
/// started, and carries out what it returns once it is released, until the
/// round fails. A `Step` runs its group step here and feeds the outputs
/// back at once (one nesting per iteration at most).
pub(super) fn step(shared: &Shared<'_>, round: usize, input: Input) {
    let job = &shared.jobs[round];
    if job.failed() {
        return;
    }
    shared.progressed(round);
    let actions = job.phase.lock().step(shared.started.elapsed(), input);
    for action in actions.into_iter().take_while(|_| !job.failed()) {
        match action {
            Action::Derive => setup::derive(shared, round),
            Action::Install(directory) => {
                let _ = job.setup.set(*directory);
            }
            Action::Step(gid, stepper, ready) => {
                step(shared, round, mix::step(shared, round, gid, stepper, ready))
            }
            Action::Send(from, to, payload) => {
                // SOURCE sorts above every node: it maps to the orchestrator's.
                let node = |id: usize| id.min(shared.orchestrator);
                let label = if to == SOURCE { EXIT_LABEL } else { MIX_LABEL };
                shared.send_for_round(round, node(from), node(to), label, payload);
            }
            Action::Verify(chunk) => shared.sched.push_task(Task::IntakeChunk { round, chunk }),
            Action::Finalize(frames, released) => {
                exit::finalize_round(shared, round, frames, released)
            }
            Action::Stub(pipelined, traffic) => {
                shared.resolve(round, Ok(exit::member_stub(job, pipelined, traffic)))
            }
            Action::Fail(error) => shared.fail_job(round, error),
        }
    }
}
