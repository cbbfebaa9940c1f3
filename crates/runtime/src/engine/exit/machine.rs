//! The exit transitions of a round's machine: they record the exit frames
//! and a member's hosted exits, and claim the round's finalization or stub.

use std::time::Duration;

use atom_core::error::AtomError;
use atom_crypto::commit::Commitment;

use crate::engine::phase::{Action, RoundPhase};
use crate::{fill_vec::FillVec, wire::ExitFrame};

/// What intake released: the routed ciphertext count and (trap variant)
/// the per-group commitments the exit phase checks.
pub(crate) type Released = (usize, Vec<Vec<Commitment>>);

impl RoundPhase {
    /// Records one group's exit frame; the frame that completes the round
    /// claims its finalization. No group can legitimately exit before the
    /// directory is installed (every mix batch descends from intake, which
    /// runs after it), so an early frame is forged or broken.
    pub(crate) fn record_exit(&mut self, frame: ExitFrame) -> Vec<Action> {
        let gid = frame.gid;
        let refused = if gid >= self.config.num_groups {
            format!("exit frame from unknown group {gid}")
        } else if self.ready.is_none() {
            format!("exit frame from group {gid} before the round directory was assembled")
        } else if self.frames.set(gid, frame).is_err() {
            format!("duplicate exit frame from group {gid}")
        } else if !self.frames.is_full() {
            return Vec::new();
        } else {
            self.done = true;
            let frames = std::mem::replace(&mut self.frames, FillVec::new(0)).into_full();
            let frames = frames.expect("every exit frame arrived");
            return vec![Action::Finalize(frames, std::mem::take(&mut self.released))];
        };
        vec![Action::Fail(AtomError::Malformed(refused))]
    }

    /// Records a hosted group's exit; a member's last claims its stub.
    pub(crate) fn local(&mut self, finished_virtual: Duration) -> Vec<Action> {
        if self.coordinator {
            return Vec::new();
        }
        self.exited += 1;
        self.pipelined = self.pipelined.max(finished_virtual);
        self.done = self.exited == self.in_round;
        match self.done {
            true => vec![Action::Stub(self.pipelined)],
            false => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::phase::machine::tests::verified;
    use crate::engine::phase::machine::tests::{frame as setup_frame, install, machine, ms, T0};
    use crate::engine::phase::{Action, Input, RoundPhase};
    use crate::wire::ExitFrame;
    use crate::EngineRole;
    use atom_core::error::AtomError;

    fn frame(gid: usize) -> ExitFrame {
        ExitFrame {
            round: 0,
            gid,
            finished_virtual: ms(gid as u64),
            mix_messages: 0,
            mix_bytes: 0,
            compute: Vec::new(),
            payloads: vec![vec![gid as u8]],
        }
    }

    /// The round machine of a 3-group round's coordinator, which hosts
    /// group 0, with its directory installed.
    fn coordinator() -> RoundPhase {
        let (setup, mut phase) = machine(EngineRole::coordinator(vec![0]), 0, 1);
        install(&setup, &mut phase);
        phase
    }

    fn assert_fails(actions: Vec<Action>, want: &str) {
        match actions.as_slice() {
            [Action::Fail(AtomError::Malformed(reason))] => assert_eq!(reason, want),
            _ => panic!("want one failure naming {want:?}"),
        }
    }

    #[test]
    fn the_frame_that_fills_the_last_slot_finalizes_once() {
        let mut phase = coordinator();
        let actions = phase.step(T0, Input::Chunk(0, verified([2, 1, 4], 0)));
        assert!(matches!(actions.as_slice(), [Action::Release(_)]));
        for gid in [2, 0] {
            assert!(phase.step(T0, Input::Exit(frame(gid))).is_empty());
        }
        let actions = phase.step(T0, Input::Exit(frame(1)));
        let [Action::Finalize(frames, (routed, commitments))] = actions.as_slice() else {
            panic!("the last frame finalizes the round");
        };
        let gids: Vec<_> = frames.iter().map(|frame| frame.gid).collect();
        assert_eq!((gids, *routed, commitments.len()), (vec![0, 1, 2], 7, 3));

        // The claim stops every later frame, a duplicate or an unknown
        // group's included.
        for gid in [1, 0, 9] {
            assert!(phase.step(T0, Input::Exit(frame(gid))).is_empty());
        }
        let (detail, remote) = phase.waiting_on(|_| panic!("nothing is missing"));
        assert_eq!(
            (detail.as_str(), remote),
            ("finalizing: every exit frame arrived", vec![])
        );
    }

    #[test]
    fn a_duplicate_before_the_claim_fails_the_round() {
        let mut phase = coordinator();
        assert!(phase.step(T0, Input::Exit(frame(1))).is_empty());
        let actions = phase.step(T0, Input::Exit(frame(1)));
        assert_fails(actions, "duplicate exit frame from group 1");
    }

    #[test]
    fn a_frame_before_the_directory_fails_the_round() {
        let (setup, mut phase) = machine(EngineRole::coordinator(vec![0]), 0, 1);
        let actions = phase.step(T0, Input::Exit(frame(2)));
        let want = "exit frame from group 2 before the round directory was assembled";
        assert_fails(actions, want);
        // It was not recorded: the same frame after installation is new.
        install(&setup, &mut phase);
        assert!(phase.step(T0, Input::Exit(frame(2))).is_empty());
    }

    #[test]
    fn a_frame_from_an_unknown_group_fails_the_round() {
        let mut phase = coordinator();
        let actions = phase.step(T0, Input::Exit(frame(3)));
        assert_fails(actions, "exit frame from unknown group 3");
    }

    #[test]
    fn a_members_last_hosted_exit_yields_one_stub_at_the_latest_time() {
        // Group 5 is not in this 3-group round: two hosted groups exit.
        let (setup, mut phase) = machine(EngineRole::member(vec![0, 2, 5]), 0, 1);
        for input in [
            Input::Group(setup.groups[0].clone()),
            Input::Group(setup.groups[2].clone()),
        ] {
            assert!(phase.step(T0, input).is_empty());
        }
        let actions = phase.step(T0, Input::Frame(setup_frame(&setup, 1)));
        assert!(matches!(actions.as_slice(), [Action::Install(_)]));
        assert!(phase.step(T0, Input::Local(ms(9))).is_empty());
        let (detail, _) = phase.waiting_on(|_| panic!("a member names no groups"));
        assert_eq!(detail, "member still mixing: 1/2 hosted groups exited");
        let actions = phase.step(T0, Input::Local(ms(4)));
        assert!(matches!(actions.as_slice(), [Action::Stub(pipelined)] if *pipelined == ms(9)));
        assert!(phase.step(T0, Input::Local(ms(12))).is_empty());

        // The coordinator resolves on its frames, not on its local exits.
        let mut phase = coordinator();
        assert!(phase.step(T0, Input::Local(ms(1))).is_empty());
    }

    #[test]
    fn waiting_on_names_the_missing_groups_in_ascending_order() {
        let mut phase = coordinator();
        phase.step(T0, Input::Chunk(0, verified([0, 0, 0], 0)));
        assert!(phase.step(T0, Input::Exit(frame(1))).is_empty());
        let (detail, remote) = phase.waiting_on(|gids| (format!("{gids:?}"), gids));
        assert_eq!(detail, "waiting on exit frames from groups [[0, 2]]");
        assert_eq!(remote, [0, 2]);
    }
}
