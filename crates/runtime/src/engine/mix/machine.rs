//! The mixing transitions of a round's machine: they record every inbound
//! sub-batch in its group's inbox, hand a group's stepper out once its next
//! iteration is complete, and take it back with the step's outputs, which
//! leave as encoded forwards or the group's exit frame.

use atom_core::actor::{ActorConfig, ActorOutput, GroupInbox, GroupStepper, SOURCE};
use atom_core::config::AtomConfig;
use atom_core::directory::RoundSetup;
use atom_core::error::{AtomError, AtomResult};
use atom_core::faults::heal_group_via_escrow;

use crate::engine::phase::{Action, RoundPhase};
use crate::wire::{self, ExitFrame, MixEnvelope};

/// A hosted group's mixing state in its round's machine.
pub(crate) struct Mixer {
    inbox: GroupInbox,
    /// Home between the group's steps; none before the directory is
    /// installed and while a step is out.
    stepper: Option<Box<GroupStepper>>,
    /// The forwards the group's steps emitted, and their bytes, which its
    /// exit frame carries.
    traffic: (u64, u64),
}

impl Mixer {
    /// Group `gid`'s mixing in a round of `config`, before the directory.
    pub(crate) fn new(config: &AtomConfig, gid: usize) -> Self {
        Self {
            inbox: GroupInbox::new(config, gid),
            stepper: None,
            traffic: (0, 0),
        }
    }

    /// Hands group `gid`'s stepper out with its next iteration if the
    /// stepper is home and the iteration complete.
    pub(crate) fn hand_out(&mut self, gid: usize) -> Option<Action> {
        self.stepper.as_ref()?;
        let ready = self.inbox.take()?;
        Some(Action::Step(gid, self.stepper.take()?, ready))
    }
}

impl RoundPhase {
    /// Builds every hosted group's stepper from the installed directory.
    pub(crate) fn arm(&mut self, setup: &RoundSetup) -> AtomResult<()> {
        let (seed, config) = &self.stepping;
        for (&gid, mixer) in &mut self.mixers {
            mixer.stepper = Some(Box::new(stepper(setup, gid, *seed, config)?));
        }
        Ok(())
    }

    /// Records a mix envelope in group `gid`'s inbox, and hands out the
    /// group's step if the envelope completed its next iteration.
    pub(crate) fn mix(&mut self, gid: usize, mix: MixEnvelope) -> Vec<Action> {
        let Some(mixer) = self.mixers.get_mut(&gid) else {
            let refused = format!("mix envelope for group {gid}, which this process does not host");
            return vec![Action::Fail(AtomError::Malformed(refused))];
        };
        let (iteration, from, arrival) = (mix.iteration, mix.from, mix.sent_virtual);
        match mixer.inbox.record(iteration, from, mix.batch, arrival) {
            Ok(()) => mixer.hand_out(gid).into_iter().collect(),
            Err(error) => vec![Action::Fail(error)],
        }
    }

    /// Takes group `gid`'s stepper back with its step's outputs: the
    /// forwards, then the exit frame and (a member's last exit) the stub,
    /// then the group's next step if that iteration is already complete. A
    /// failed step fails the round.
    pub(crate) fn stepped(
        &mut self,
        gid: usize,
        stepper: Box<GroupStepper>,
        outputs: AtomResult<Vec<ActorOutput>>,
    ) -> Vec<Action> {
        let outputs = match outputs {
            Ok(outputs) => outputs,
            Err(error) => return vec![Action::Fail(error)],
        };
        let round = self.wire_round;
        let mixer = (self.mixers.get_mut(&gid)).expect("only a hosted group steps");
        mixer.stepper = Some(stepper);
        let (mut actions, mut exited) = (Vec::new(), None);
        for output in outputs {
            match output {
                ActorOutput::Forward {
                    iteration,
                    to,
                    batch,
                    sent_virtual,
                } => {
                    let payload = wire::encode_mix(round, iteration, gid, sent_virtual, &batch);
                    mixer.traffic.0 += 1;
                    mixer.traffic.1 += payload.len() as u64;
                    actions.push(Action::Send(gid, to, payload));
                }
                // The group's final products travel to the orchestrator as
                // an exit frame — across the loopback in a single-process
                // run, across TCP when the coordinator is remote.
                ActorOutput::Exit {
                    plaintexts,
                    finished_virtual,
                    compute,
                } => {
                    let frame = ExitFrame {
                        round,
                        gid,
                        finished_virtual,
                        mix_messages: mixer.traffic.0,
                        mix_bytes: mixer.traffic.1,
                        compute,
                        payloads: plaintexts,
                    };
                    actions.push(Action::Send(gid, SOURCE, wire::encode_exit(&frame)));
                    exited = Some(finished_virtual);
                }
            }
        }
        let next = mixer.hand_out(gid);
        actions.extend(exited.and_then(|finished_virtual| self.local(finished_virtual)));
        actions.extend(next);
        actions
    }

    /// The forwards every hosted group emitted so far, and their bytes.
    pub(crate) fn traffic(&self) -> (u64, u64) {
        (self.mixers.values()).fold((0, 0), |(m, b), mixer| {
            (m + mixer.traffic.0, b + mixer.traffic.1)
        })
    }
}

/// Builds group `gid`'s stepper. A group that lost more members than its
/// DKG threshold tolerates cannot run threshold decryption with Lagrange
/// reweighting alone; it falls back to the buddy-group escrow (§4.5), which
/// deterministically reconstructs the missing shares onto replacement
/// servers drawn from the buddy group. The group public key is unchanged,
/// so already collected submissions stay decryptable.
fn stepper(
    setup: &RoundSetup,
    gid: usize,
    seed: u64,
    config: &ActorConfig,
) -> AtomResult<GroupStepper> {
    let failed = &config.failed_servers;
    if failed.is_empty() || setup.groups[gid].participating(failed).is_ok() {
        return GroupStepper::new(setup, gid, seed, config.clone());
    }
    let group = heal_group_via_escrow(setup, gid, failed)?;
    atom_obs::count("engine.escrow.reconstructions", 1);
    let mut healed = setup.clone();
    healed.groups[gid] = group;
    GroupStepper::new(&healed, gid, seed, config.clone())
}

#[cfg(test)]
pub(crate) mod tests {
    use std::time::Duration;

    use atom_core::actor::{ActorOutput, GroupStepper, SOURCE};
    use atom_core::directory::RoundSetup;
    use atom_core::error::AtomError;
    use atom_crypto::elgamal::{Ciphertext, MessageCiphertext};
    use atom_crypto::RistrettoPoint;
    use curve25519_dalek::traits::Identity;

    use crate::engine::phase::machine::tests::{assert_fails, frame, machine, ms, T0};
    use crate::engine::phase::{Action, Input, Ready, RoundPhase};
    use crate::wire::{self, Frame, MixEnvelope};
    use crate::EngineRole;

    /// A one-ciphertext sub-batch from `from` for `iteration`, sent at
    /// `sent`. Its ciphertext has as many components as the sender's tag
    /// (the orchestrator's is 9, group `g`'s is `g + 1`), so an assembled
    /// batch shows its sender order.
    fn envelope(iteration: usize, from: usize, sent: Duration) -> MixEnvelope {
        let tag = if from == SOURCE { 9 } else { from + 1 };
        let point = RistrettoPoint::identity();
        let component = Ciphertext {
            r: point,
            c: point,
            y: None,
        };
        MixEnvelope {
            round: 0,
            iteration,
            from,
            sent_virtual: sent,
            batch: vec![MessageCiphertext {
                components: vec![component; tag],
            }],
        }
    }

    /// The senders' tags of an assembled batch, in assembly order.
    fn tags(batch: &[MessageCiphertext]) -> Vec<usize> {
        batch
            .iter()
            .map(|ciphertext| ciphertext.components.len())
            .collect()
    }

    /// A member hosting group 1 of the 3-group, 2-iteration deployment,
    /// before its directory is installed.
    fn member() -> (RoundSetup, RoundPhase) {
        machine(EngineRole::member(vec![1]), 0, 0)
    }

    /// Installs the member's directory; returns what installing hands out
    /// after the `Install`.
    fn install(setup: &RoundSetup, phase: &mut RoundPhase) -> Vec<Action> {
        for input in [
            Input::Group(setup.groups[1].clone()),
            Input::Frame(frame(setup, 0)),
        ] {
            assert!(phase.step(T0, input).is_empty());
        }
        let mut actions = phase.step(T0, Input::Frame(frame(setup, 2)));
        assert!(matches!(actions.first(), Some(Action::Install(_))));
        actions.remove(0);
        actions
    }

    /// The one step `actions` hand out, last of them.
    fn handed(actions: Vec<Action>) -> (Box<GroupStepper>, Ready) {
        match actions.into_iter().last() {
            Some(Action::Step(1, stepper, ready)) => (stepper, ready),
            _ => panic!("want group 1's step handed out last"),
        }
    }

    /// What a step of `iteration` emits: one forward per group, sent at
    /// `sent`.
    fn forwards(iteration: usize, sent: Duration) -> Vec<ActorOutput> {
        let forward = |to| ActorOutput::Forward {
            iteration: iteration + 1,
            to,
            batch: Vec::new(),
            sent_virtual: sent,
        };
        (0..3).map(forward).collect()
    }

    fn exit(finished: Duration) -> Vec<ActorOutput> {
        vec![ActorOutput::Exit {
            plaintexts: vec![vec![7]],
            finished_virtual: finished,
            compute: vec![ms(1), ms(2)],
        }]
    }

    /// Hosted group `gid`'s exit, driven through the machine: its
    /// iteration-0 batch hands its step out, and the step returns the exit
    /// at `finished`. Returns what the return yields.
    pub(crate) fn exit_step(phase: &mut RoundPhase, gid: usize, finished: Duration) -> Vec<Action> {
        let mut actions = phase.step(T0, Input::Mix(gid, envelope(0, SOURCE, T0)));
        let Some(Action::Step(stepped, stepper, _)) = actions.pop() else {
            panic!("want group {gid}'s step");
        };
        assert!(actions.is_empty() && stepped == gid);
        phase.step(T0, Input::Stepped(gid, stepper, Ok(exit(finished))))
    }

    #[test]
    fn sub_batches_from_before_and_after_the_install_step_in_iteration_order() {
        let (setup, mut phase) = member();
        for (iteration, from) in [(1, 2), (0, SOURCE), (1, 0)] {
            let mix = envelope(
                iteration,
                from,
                ms(from as u64 % 10 + 10 * iteration as u64),
            );
            assert!(phase.step(T0, Input::Mix(1, mix)).is_empty());
        }
        // Installing hands out the iteration the early envelopes completed.
        let (stepper, (iteration, batch, ready)) = handed(install(&setup, &mut phase));
        assert_eq!((iteration, tags(&batch), ready), (0, vec![9], ms(5)));

        let actions = phase.step(T0, Input::Stepped(1, stepper, Ok(forwards(0, ms(6)))));
        assert!(
            matches!(
                actions.as_slice(),
                [
                    Action::Send(1, 0, _),
                    Action::Send(1, 1, _),
                    Action::Send(1, 2, _)
                ]
            ),
            "iteration 1 still waits on group 1's own sub-batch"
        );
        let actions = phase.step(T0, Input::Mix(1, envelope(1, 1, ms(3))));
        let (_, (iteration, batch, ready)) = handed(actions);
        assert_eq!((iteration, tags(&batch), ready), (1, vec![1, 2, 3], ms(12)));
    }

    #[test]
    fn a_sub_batch_for_the_next_iteration_waits_for_the_step_that_is_out() {
        let (setup, mut phase) = member();
        assert!(install(&setup, &mut phase).is_empty());
        let actions = phase.step(T0, Input::Mix(1, envelope(0, SOURCE, T0)));
        let (stepper, (iteration, ..)) = handed(actions);
        assert_eq!(iteration, 0);
        // Iteration 1 completes while step 0 is out: nothing to hand out.
        for from in [2, 1, 0] {
            assert!(phase
                .step(T0, Input::Mix(1, envelope(1, from, T0)))
                .is_empty());
        }
        let actions = phase.step(T0, Input::Stepped(1, stepper, Ok(forwards(0, ms(4)))));
        assert_eq!(actions.len(), 4, "three forwards, then the next step");
        let (_, (iteration, batch, _)) = handed(actions);
        assert_eq!((iteration, tags(&batch)), (1, vec![1, 2, 3]));
    }

    #[test]
    fn late_duplicate_and_after_exit_sub_batches_keep_their_verdicts() {
        let (setup, mut phase) = member();
        assert!(install(&setup, &mut phase).is_empty());
        assert!(phase.step(T0, Input::Mix(1, envelope(1, 0, T0))).is_empty());
        let actions = phase.step(T0, Input::Mix(1, envelope(1, 0, T0)));
        assert_fails(
            actions,
            "group 1 received a duplicate iteration-1 batch from 0",
        );

        let (stepper, _) = handed(phase.step(T0, Input::Mix(1, envelope(0, SOURCE, T0))));
        let actions = phase.step(T0, Input::Mix(1, envelope(0, SOURCE, T0)));
        assert_fails(
            actions,
            "group 1 received a batch for iteration 0 (next is 1)",
        );

        phase.step(T0, Input::Stepped(1, stepper, Ok(forwards(0, T0))));
        for from in [1, 2] {
            phase.step(T0, Input::Mix(1, envelope(1, from, T0)));
        }
        // The exit layer is handed out (or back): every later sub-batch is
        // refused.
        let actions = phase.step(T0, Input::Mix(1, envelope(1, 2, T0)));
        assert_fails(actions, "group 1 received a batch after its exit layer");
    }

    #[test]
    fn a_failed_step_fails_the_round() {
        let (setup, mut phase) = member();
        install(&setup, &mut phase);
        let (stepper, _) = handed(phase.step(T0, Input::Mix(1, envelope(0, SOURCE, T0))));
        let failure = Err(AtomError::Malformed("member 2 of group 1 cheated".into()));
        let actions = phase.step(T0, Input::Stepped(1, stepper, failure));
        assert_fails(actions, "member 2 of group 1 cheated");
    }

    #[test]
    fn a_members_last_stepped_sends_the_exit_frame_before_the_stub() {
        let (setup, mut phase) = member();
        install(&setup, &mut phase);
        let (stepper, _) = handed(phase.step(T0, Input::Mix(1, envelope(0, SOURCE, T0))));
        let actions = phase.step(T0, Input::Stepped(1, stepper, Ok(forwards(0, ms(2)))));
        let sent = |action: &Action| match action {
            Action::Send(1, _, payload) => payload.len() as u64,
            _ => panic!("want only group 1's forwards"),
        };
        let bytes: u64 = actions.iter().map(sent).sum();
        for from in [0, 1] {
            assert!(phase
                .step(T0, Input::Mix(1, envelope(1, from, T0)))
                .is_empty());
        }
        let (stepper, _) = handed(phase.step(T0, Input::Mix(1, envelope(1, 2, T0))));

        let actions = phase.step(T0, Input::Stepped(1, stepper, Ok(exit(ms(9)))));
        let [Action::Send(1, SOURCE, payload), Action::Stub(pipelined, traffic)] =
            actions.as_slice()
        else {
            panic!("want the exit frame, then the stub");
        };
        assert_eq!((*pipelined, *traffic), (ms(9), (3, bytes)));
        let Ok(Frame::Exit(frame)) = wire::decode(payload) else {
            panic!("want an exit frame");
        };
        let carried = (
            frame.gid,
            frame.finished_virtual,
            frame.mix_messages,
            frame.mix_bytes,
        );
        assert_eq!(carried, (1, ms(9), 3, bytes));
        assert_eq!(
            (frame.compute, frame.payloads),
            (vec![ms(1), ms(2)], vec![vec![7]])
        );
    }
}
