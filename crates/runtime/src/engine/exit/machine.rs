//! A round's exit as a sans-I/O machine: it records intake's release, the
//! exit frames and a member's hosted exits, and says when the round is to
//! be finalized or stubbed. Its driver is `engine::exit`.

use std::time::Duration;

use atom_core::error::AtomError;
use atom_crypto::commit::Commitment;

use crate::{fill_vec::FillVec, wire::ExitFrame, EngineRole};

/// What intake released: the routed ciphertext count and (trap variant)
/// the per-group commitments the exit phase checks.
pub(crate) type Released = (usize, Vec<Vec<Commitment>>);

/// What the driver feeds the machine.
pub(crate) enum Input {
    Released(Released),
    /// An exit frame at the coordinator, and whether the directory is
    /// installed.
    Frame(ExitFrame, bool),
    /// A hosted group reached its exit layer at this virtual time.
    Local(Duration),
}

/// What the driver is to do.
pub(crate) enum Action {
    /// Run the variant's exit phase over every group's frame, in group
    /// order, with what intake released (coordinator only).
    Finalize(Vec<ExitFrame>, Released),
    /// Resolve a member's round with its stub report: every hosted group
    /// exited, the last at this virtual time.
    Stub(Duration),
    Fail(AtomError),
}

/// One round's exit. Every engine round finalizes through
/// [`step`](Self::step).
pub(crate) struct ExitPhase {
    coordinator: bool,
    /// The round's group count, and how many of them this process hosts.
    groups: usize,
    hosted: usize,
    /// The coordinator's exit frames, one slot per group, local and remote.
    frames: FillVec<ExitFrame>,
    released: Released,
    /// A member's exited hosted groups and their latest virtual exit time
    /// (the coordinator learns of its own groups' exits from their frames).
    exited: usize,
    pipelined: Duration,
    /// Whether finalization or the stub was handed out: the claim.
    done: bool,
}

impl ExitPhase {
    pub(crate) fn new(groups: usize, role: &EngineRole) -> Self {
        Self {
            coordinator: role.coordinator,
            groups,
            hosted: role.hosted_in_round(groups),
            frames: FillVec::new(groups),
            released: (0, Vec::new()),
            exited: 0,
            pipelined: Duration::ZERO,
            done: false,
        }
    }

    /// Feeds `input` and returns what the driver is to do: the frame that
    /// fills the last slot [`Action::Finalize`], a member's last hosted exit
    /// [`Action::Stub`], each once; after that, nothing.
    pub(crate) fn step(&mut self, input: Input) -> Vec<Action> {
        match input {
            _ if self.done => {}
            Input::Released(released) => self.released = released,
            Input::Frame(frame, installed) => return self.record(frame, installed),
            Input::Local(_) if self.coordinator => {}
            Input::Local(finished_virtual) => {
                self.exited += 1;
                self.pipelined = self.pipelined.max(finished_virtual);
                self.done = self.exited == self.hosted;
                if self.done {
                    return vec![Action::Stub(self.pipelined)];
                }
            }
        }
        Vec::new()
    }

    /// What the round waits on once its directory and intake are done:
    /// the coordinator names the missing exit frames' groups through
    /// `locate` (which also returns the remote ones), a member counts.
    pub(crate) fn waiting_on(
        &self,
        locate: impl FnOnce(Vec<usize>) -> (String, Vec<usize>),
    ) -> (String, Vec<usize>) {
        let (exited, hosted) = (self.exited, self.hosted);
        if !self.coordinator {
            let detail = format!("member still mixing: {exited}/{hosted} hosted groups exited");
            return (detail, Vec::new());
        }
        if self.done {
            return ("finalizing: every exit frame arrived".into(), Vec::new());
        }
        let (named, remote) = locate(self.frames.missing().collect());
        let detail = format!("waiting on exit frames from groups [{named}]");
        (detail, remote)
    }

    /// Records one group's exit frame; the frame that completes the round
    /// claims its finalization. No group can legitimately exit before the
    /// directory is installed (every mix batch descends from intake, which
    /// runs after it), so an early frame is forged or broken.
    fn record(&mut self, frame: ExitFrame, installed: bool) -> Vec<Action> {
        let gid = frame.gid;
        let refused = if gid >= self.groups {
            format!("exit frame from unknown group {gid}")
        } else if !installed {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(millis: u64) -> Duration {
        Duration::from_millis(millis)
    }

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

    /// The exit machine of a 3-group round's coordinator, which hosts
    /// group 0.
    fn coordinator() -> ExitPhase {
        ExitPhase::new(3, &EngineRole::coordinator(vec![0]))
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
        let commitments = vec![Vec::new(); 3];
        assert!(phase.step(Input::Released((7, commitments))).is_empty());
        for gid in [2, 0] {
            assert!(phase.step(Input::Frame(frame(gid), true)).is_empty());
        }
        let actions = phase.step(Input::Frame(frame(1), true));
        let [Action::Finalize(frames, (routed, commitments))] = actions.as_slice() else {
            panic!("the last frame finalizes the round");
        };
        let gids: Vec<_> = frames.iter().map(|frame| frame.gid).collect();
        assert_eq!((gids, *routed, commitments.len()), (vec![0, 1, 2], 7, 3));

        // The claim stops every later frame, a duplicate or an unknown
        // group's included.
        for gid in [1, 0, 9] {
            assert!(phase.step(Input::Frame(frame(gid), true)).is_empty());
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
        assert!(phase.step(Input::Frame(frame(1), true)).is_empty());
        let actions = phase.step(Input::Frame(frame(1), true));
        assert_fails(actions, "duplicate exit frame from group 1");
    }

    #[test]
    fn a_frame_before_the_directory_fails_the_round() {
        let mut phase = coordinator();
        let actions = phase.step(Input::Frame(frame(2), false));
        let want = "exit frame from group 2 before the round directory was assembled";
        assert_fails(actions, want);
        // It was not recorded: the same frame after installation is new.
        assert!(phase.step(Input::Frame(frame(2), true)).is_empty());
    }

    #[test]
    fn a_frame_from_an_unknown_group_fails_the_round() {
        let mut phase = coordinator();
        let actions = phase.step(Input::Frame(frame(3), true));
        assert_fails(actions, "exit frame from unknown group 3");
    }

    #[test]
    fn a_members_last_hosted_exit_yields_one_stub_at_the_latest_time() {
        // Group 5 is not in this 3-group round: two hosted groups exit.
        let mut phase = ExitPhase::new(3, &EngineRole::member(vec![0, 2, 5]));
        assert!(phase.step(Input::Local(ms(9))).is_empty());
        let (detail, _) = phase.waiting_on(|_| panic!("a member names no groups"));
        assert_eq!(detail, "member still mixing: 1/2 hosted groups exited");
        let actions = phase.step(Input::Local(ms(4)));
        assert!(matches!(actions.as_slice(), [Action::Stub(pipelined)] if *pipelined == ms(9)));
        assert!(phase.step(Input::Local(ms(12))).is_empty());

        // The coordinator resolves on its frames, not on its local exits.
        let mut phase = coordinator();
        assert!(phase.step(Input::Local(ms(1))).is_empty());
    }

    #[test]
    fn waiting_on_names_the_missing_groups_in_ascending_order() {
        let mut phase = ExitPhase::new(5, &EngineRole::coordinator(vec![0]));
        for gid in [3, 0] {
            assert!(phase.step(Input::Frame(frame(gid), true)).is_empty());
        }
        let (detail, remote) = phase.waiting_on(|gids| (format!("{gids:?}"), gids));
        assert_eq!(detail, "waiting on exit frames from groups [[1, 2, 4]]");
        assert_eq!(remote, [1, 2, 4]);
    }
}
