//! A round's machine: every setup, intake and exit decision of the round,
//! made in one [`step`](RoundPhase::step). Its setup and exit transitions
//! live beside those phases' work, in `engine/{setup,exit}/machine.rs`;
//! intake's are here. Its driver (`engine::phase`) runs the DKGs, verifies
//! the chunks, builds the actors, sends every frame and finalizes; time is
//! an input.

use std::time::Duration;

use atom_core::config::AtomConfig;
use atom_core::directory::{GroupContext, RoundSetup, TrusteeContext};
use atom_core::error::{AtomError, AtomResult, EngineErrorKind};
use atom_core::round::TrapIntake;
use atom_crypto::commit::Commitment;
use atom_crypto::elgamal::MessageCiphertext;

use super::super::exit::Released;
use super::super::setup::member_trustee_placeholder;
use super::super::{wire_round_id, EngineOptions};
use crate::fill_vec::FillVec;
use crate::wire::{ExitFrame, MixEnvelope, SetupFrame};
use crate::EngineRole;

/// What the driver feeds the machine.
pub(crate) enum Input {
    /// The round's first input: admit it or refuse it.
    Begin,
    /// The DKG of a group this process hosts.
    Group(GroupContext),
    /// The trustee DKG (coordinator only).
    Trustees(TrusteeContext),
    /// A peer's `setup` frame.
    Frame(SetupFrame),
    /// A mix envelope for hosted group `gid` that reached the round before
    /// its directory was published.
    Mix(usize, MixEnvelope),
    /// An intake chunk's verification result, by chunk index.
    Chunk(usize, AtomResult<TrapIntake>),
    /// An exit frame at the coordinator.
    Exit(ExitFrame),
    /// A hosted group reached its exit layer at this virtual time.
    Local(Duration),
}

/// What the driver is to do, in order.
pub(crate) enum Action {
    /// Queue the round's DKG tasks.
    Derive,
    /// Build the hosted actors from the directory and publish it while the
    /// machine is held. Always first: the parked envelopes follow as
    /// `Deliver`s in arrival order, then (coordinator) the first chunks.
    Install(Box<RoundSetup>),
    /// Feed the envelope to the actor of its group.
    Deliver(usize, MixEnvelope),
    /// Queue the verification of this intake chunk.
    Verify(usize),
    /// Send the iteration-0 batches, one per group, in group order.
    Release(Vec<Vec<MessageCiphertext>>),
    /// Run the variant's exit phase over every group's frame, in group
    /// order, with what intake released (coordinator only).
    Finalize(Vec<ExitFrame>, Released),
    /// Resolve a member's round with its stub report: every hosted group
    /// exited, the last at this virtual time.
    Stub(Duration),
    Fail(AtomError),
}

/// One round's setup, intake and exit. Every engine round goes through
/// [`step`](Self::step), from its [`Input::Begin`] on. The fields each
/// phase's transitions read are the crate's, for their modules.
pub(crate) struct RoundPhase {
    pub(crate) config: AtomConfig,
    pub(crate) coordinator: bool,
    pub(crate) hosted: Vec<usize>,
    /// Why the round cannot run at all, handed out at [`Input::Begin`].
    refused: Option<AtomError>,
    /// Setup. Collected contexts: full (with shares) for hosted groups,
    /// public-only for remote ones. Once the directory is installed the
    /// contexts live there and only their public halves stay here, so a
    /// late frame is still checked against the keys the round mixes under:
    /// an equivocating peer that lands its forged frame first is caught
    /// when its genuine frame (or a second forged story) arrives.
    pub(crate) groups: FillVec<GroupContext>,
    /// The trustee context: derived on the coordinator, a placeholder from
    /// the start on members (see [`member_trustee_placeholder`]).
    pub(crate) trustees: Option<TrusteeContext>,
    /// Mix envelopes that arrived before the directory, `(gid, envelope)`
    /// in arrival order.
    pub(crate) parked: Vec<(usize, MixEnvelope)>,
    /// When the directory was installed, as the driver's `now`.
    pub(crate) ready: Option<Duration>,
    /// Intake. The chunk count, and the next chunk to hand out: each chunk
    /// result hands out one more, keeping at most the window in flight.
    /// Starts at the window, whose chunks installation hands out.
    chunks: usize,
    pub(crate) next_chunk: usize,
    /// Per-chunk verification results, merged in chunk order once every
    /// chunk reported, so the first failing submission wins, exactly like
    /// the sequential driver. Empty once released.
    results: FillVec<AtomResult<TrapIntake>>,
    /// Exit. The coordinator's exit frames, one slot per group, local and
    /// remote, and what intake released.
    pub(crate) frames: FillVec<ExitFrame>,
    pub(crate) released: Released,
    /// A member's hosted groups in the round, how many exited and their
    /// latest virtual exit time (the coordinator learns of its own groups'
    /// exits from their frames).
    pub(crate) in_round: usize,
    pub(crate) exited: usize,
    pub(crate) pipelined: Duration,
    /// Whether finalization or the stub was handed out: the claim. After
    /// it, every exit input yields nothing.
    pub(crate) done: bool,
}

impl RoundPhase {
    /// The machine of job `round` offering `offered` submissions in
    /// `chunks` intake chunks.
    pub(crate) fn new(
        round: usize,
        config: &AtomConfig,
        role: &EngineRole,
        options: &EngineOptions,
        offered: usize,
        chunks: usize,
    ) -> Self {
        let groups = config.num_groups;
        Self {
            config: config.clone(),
            coordinator: role.coordinator,
            hosted: role.hosted.clone(),
            refused: refusal(round, config, role, options, offered),
            groups: FillVec::new(groups),
            trustees: (!role.coordinator).then(member_trustee_placeholder),
            parked: Vec::new(),
            ready: None,
            chunks,
            next_chunk: match options.intake_window {
                0 => chunks,
                window => window.min(chunks).max(1),
            },
            results: FillVec::new(chunks),
            frames: FillVec::new(groups),
            released: (0, Vec::new()),
            in_round: role.hosted_in_round(groups),
            exited: 0,
            pipelined: Duration::ZERO,
            done: false,
        }
    }

    /// Feeds `input`, read at `now`, and returns what the driver is to do.
    /// The input that completes the directory returns [`Action::Install`],
    /// once; from then on a mix envelope is delivered at once. The last
    /// chunk result returns [`Action::Release`], the frame that fills the
    /// last slot [`Action::Finalize`] and a member's last hosted exit
    /// [`Action::Stub`], each once; after the claim, exit inputs yield
    /// nothing.
    pub(crate) fn step(&mut self, now: Duration, input: Input) -> Vec<Action> {
        let recorded = match input {
            Input::Begin => return self.begin(),
            Input::Group(context) => {
                let _ = self.groups.set(context.id, context);
                Ok(())
            }
            Input::Trustees(trustees) => {
                self.trustees.get_or_insert(trustees);
                Ok(())
            }
            Input::Frame(frame) => self.record_setup(frame),
            Input::Mix(gid, mix) if self.ready.is_some() => return vec![Action::Deliver(gid, mix)],
            Input::Mix(gid, mix) => self.park(gid, mix),
            Input::Chunk(chunk, result) => return self.verified(chunk, result),
            Input::Exit(_) | Input::Local(_) if self.done => return Vec::new(),
            Input::Exit(frame) => return self.record_exit(frame),
            Input::Local(finished_virtual) => return self.local(finished_virtual),
        };
        if let Err(error) = recorded {
            return vec![Action::Fail(error)];
        }
        if self.ready.is_some() || self.trustees.is_none() || !self.groups.is_full() {
            return Vec::new();
        }
        self.install(now)
    }

    /// What the round waits on, asked of the phase it is stuck in. Setup
    /// names the missing group directories and, on the coordinator, the
    /// trustee DKG; intake counts the unverified chunks; exit names the
    /// coordinator's missing exit frames' groups, and a member counts its
    /// exits. Groups are named through `locate`, which also returns the
    /// remote ones.
    pub(crate) fn waiting_on(
        &self,
        locate: impl FnOnce(Vec<usize>) -> (String, Vec<usize>),
    ) -> (String, Vec<usize>) {
        let (pending, exited, in_round) =
            (self.results.missing().count(), self.exited, self.in_round);
        if self.ready.is_none() {
            let trustees = self.trustees.is_none().then_some(" and the trustee DKG");
            let (named, remote) = locate(self.groups.missing().collect());
            let detail = format!("stuck in sharded setup, waiting on group directories [{named}]");
            (detail + trustees.unwrap_or_default(), remote)
        } else if self.coordinator && pending > 0 {
            let detail =
                format!("stuck before batch release: {pending} intake chunk(s) unverified");
            (detail, Vec::new())
        } else if !self.coordinator {
            let detail = format!("member still mixing: {exited}/{in_round} hosted groups exited");
            (detail, Vec::new())
        } else if self.done {
            ("finalizing: every exit frame arrived".into(), Vec::new())
        } else {
            let (named, remote) = locate(self.frames.missing().collect());
            (
                format!("waiting on exit frames from groups [{named}]"),
                remote,
            )
        }
    }

    /// Admits the round, or refuses it; a member hosting none of the
    /// round's groups has nothing to run and is stubbed at once.
    fn begin(&mut self) -> Vec<Action> {
        if let Some(error) = self.refused.take() {
            return vec![Action::Fail(error)];
        }
        self.done = !self.coordinator && self.in_round == 0;
        vec![match self.done {
            true => Action::Stub(Duration::ZERO),
            false => Action::Derive,
        }]
    }

    /// Records one chunk's result and hands out the next unclaimed chunk
    /// (a failed chunk too: the release needs every slot filled before it
    /// can diagnose the round). The last result releases the round.
    fn verified(&mut self, chunk: usize, result: AtomResult<TrapIntake>) -> Vec<Action> {
        let mut actions = Vec::new();
        if self.next_chunk < self.chunks {
            actions.push(Action::Verify(self.next_chunk));
            self.next_chunk += 1;
        }
        if self.results.set(chunk, result).is_ok() && self.results.is_full() {
            let results = std::mem::replace(&mut self.results, FillVec::new(0)).into_full();
            actions.push(self.release(results.expect("every chunk verified")));
        }
        actions
    }

    /// Merges the chunk results in chunk order. Ranges are contiguous and
    /// ascending, so the merged per-group batches equal the single-task
    /// (and sequential-driver) bucketing byte for byte; the first failed
    /// chunk — which holds the lowest-indexed rejected submission — decides
    /// the round's error.
    fn release(&mut self, results: Vec<AtomResult<TrapIntake>>) -> Action {
        let groups = self.config.num_groups;
        let mut batches: Vec<Vec<MessageCiphertext>> = vec![Vec::new(); groups];
        let mut commitments: Vec<Vec<Commitment>> = vec![Vec::new(); groups];
        for result in results {
            let chunk = match result {
                Ok(chunk) => chunk,
                Err(error) => return Action::Fail(error),
            };
            for (gid, mut sub) in chunk.batches.into_iter().enumerate() {
                batches[gid].append(&mut sub);
            }
            for (gid, mut sub) in chunk.commitments.into_iter().enumerate() {
                commitments[gid].append(&mut sub);
            }
        }
        self.released = (batches.iter().map(Vec::len).sum(), commitments);
        Action::Release(batches)
    }
}

/// Why job `round` cannot run at all, if it cannot: every frame carries
/// its round as a `u32`, so a job past that range would go out wrapped and
/// be fenced as stale by its own run (every process fails it alike); an
/// invalid config; or, on the coordinator, a submission flood over the
/// intake cap, failed closed at admission — not one of the flood's
/// submissions gets materialized or verified, so an attacker can spend our
/// memory only up to the cap, never up to their offer.
fn refusal(
    round: usize,
    config: &AtomConfig,
    role: &EngineRole,
    options: &EngineOptions,
    offered: usize,
) -> Option<AtomError> {
    if wire_round_id(round, options.round_offset).is_none() {
        return Some(AtomError::Config(format!(
            "round_offset {} puts job {round} past the u32 wire round range",
            options.round_offset
        )));
    }
    let cap = options.intake_cap;
    match config.validate() {
        Err(error) => Some(error),
        Ok(()) if role.coordinator && cap > 0 && offered > cap => Some(AtomError::Engine {
            kind: EngineErrorKind::ProtocolAbort,
            reason: format!(
                "submission flood: round {round} offers {offered} submissions, over the intake \
                 cap of {cap}; failing closed without buffering the flood"
            ),
            nodes: Vec::new(),
        }),
        Ok(()) => None,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use atom_core::directory::derive_setup;

    pub(crate) const T0: Duration = Duration::ZERO;

    pub(crate) fn ms(millis: u64) -> Duration {
        Duration::from_millis(millis)
    }

    /// The machine of a process playing `role` in a 3-group, 2-iteration
    /// deployment whose intake has `chunks` chunks under `window`, and the
    /// deployment's directory.
    pub(crate) fn machine(
        role: EngineRole,
        window: usize,
        chunks: usize,
    ) -> (RoundSetup, RoundPhase) {
        let mut config = AtomConfig::test_default();
        (config.num_groups, config.iterations) = (3, 2);
        let options = EngineOptions {
            intake_window: window,
            ..EngineOptions::default()
        };
        let phase = RoundPhase::new(0, &config, &role, &options, 0, chunks);
        (derive_setup(&config).unwrap(), phase)
    }

    pub(crate) fn frame(setup: &RoundSetup, gid: usize) -> SetupFrame {
        let group = &setup.groups[gid];
        SetupFrame {
            round: 0,
            gid,
            members: group.members.clone(),
            threshold: group.threshold,
            public_key: group.public_key,
        }
    }

    /// Feeds every piece of a coordinator's directory but group 2's frame.
    pub(crate) fn all_but_group_2(setup: &RoundSetup, phase: &mut RoundPhase) {
        for input in [
            Input::Group(setup.groups[0].clone()),
            Input::Frame(frame(setup, 1)),
            Input::Trustees(setup.trustees.clone()),
        ] {
            assert!(phase.step(T0, input).is_empty());
        }
    }

    /// Installs a coordinator's directory; returns the chunks handed out
    /// with it.
    pub(crate) fn install(setup: &RoundSetup, phase: &mut RoundPhase) -> Vec<usize> {
        all_but_group_2(setup, phase);
        let actions = phase.step(T0, Input::Frame(frame(setup, 2)));
        assert!(matches!(actions.first(), Some(Action::Install(_))));
        verifies(&actions[1..])
    }

    /// The chunks `actions` hand out, and nothing else.
    fn verifies(actions: &[Action]) -> Vec<usize> {
        let chunk = |action: &Action| match action {
            Action::Verify(chunk) => *chunk,
            _ => panic!("want only chunks handed out"),
        };
        actions.iter().map(chunk).collect()
    }

    /// A chunk result routing `lens[g]` ciphertexts to group `g`, each
    /// with a commitment tagged `tag`.
    pub(crate) fn verified(lens: [usize; 3], tag: u8) -> AtomResult<TrapIntake> {
        let ciphertext = MessageCiphertext {
            components: Vec::new(),
        };
        Ok(TrapIntake {
            batches: lens.map(|len| vec![ciphertext.clone(); len]).to_vec(),
            commitments: lens.map(|len| vec![Commitment([tag; 32]); len]).to_vec(),
        })
    }

    pub(crate) fn assert_fails(actions: Vec<Action>, want: &str) {
        match actions.as_slice() {
            [Action::Fail(AtomError::Malformed(reason))] => {
                assert!(reason.contains(want), "{reason}")
            }
            _ => panic!("want one failure naming {want:?}"),
        }
    }

    fn exit_frame(gid: usize) -> ExitFrame {
        ExitFrame {
            round: 0,
            gid,
            finished_virtual: ms(1),
            mix_messages: 0,
            mix_bytes: 0,
            compute: Vec::new(),
            payloads: Vec::new(),
        }
    }

    #[test]
    fn begin_derives_refuses_or_stubs_an_idle_member() {
        let (_, mut phase) = machine(EngineRole::coordinator(vec![0]), 0, 1);
        assert!(matches!(
            phase.step(T0, Input::Begin).as_slice(),
            [Action::Derive]
        ));
        // Group 5 is not in this 3-group round: nothing to run.
        let (_, mut phase) = machine(EngineRole::member(vec![5]), 0, 1);
        let actions = phase.step(T0, Input::Begin);
        assert!(matches!(actions.as_slice(), [Action::Stub(pipelined)] if pipelined.is_zero()));

        let (config, role) = (AtomConfig::test_default(), EngineRole::coordinator(vec![0]));
        let begin = |round, options: &EngineOptions, offered| {
            let mut phase = RoundPhase::new(round, &config, &role, options, offered, 1);
            phase.step(T0, Input::Begin)
        };
        let fenced = EngineOptions {
            round_offset: u32::MAX as usize,
            ..EngineOptions::default()
        };
        let actions = begin(1, &fenced, 0);
        assert!(matches!(
            actions.as_slice(),
            [Action::Fail(AtomError::Config(_))]
        ));
        let capped = EngineOptions {
            intake_cap: 5,
            ..EngineOptions::default()
        };
        assert!(matches!(begin(0, &capped, 5).as_slice(), [Action::Derive]));
        let actions = begin(0, &capped, 6);
        let [Action::Fail(AtomError::Engine { reason, .. })] = actions.as_slice() else {
            panic!("a flood is refused");
        };
        assert!(reason.starts_with("submission flood: round 0 offers 6 submissions"));
    }

    #[test]
    fn install_hands_out_the_window_and_each_result_the_next_unclaimed_chunk() {
        let (setup, mut phase) = machine(EngineRole::coordinator(vec![0]), 2, 5);
        let mut handed = install(&setup, &mut phase);
        assert_eq!(handed, [0, 1]);
        for (chunk, next) in [(1, vec![2]), (0, vec![3]), (3, vec![4]), (2, vec![])] {
            let actions = phase.step(T0, Input::Chunk(chunk, verified([1, 0, 0], 0)));
            assert_eq!(verifies(&actions), next, "after chunk {chunk}");
            handed.extend(next);
        }
        assert_eq!(handed, [0, 1, 2, 3, 4], "every chunk, none twice");
        let actions = phase.step(T0, Input::Chunk(4, verified([1, 0, 0], 0)));
        assert!(matches!(actions.as_slice(), [Action::Release(_)]));
    }

    #[test]
    fn the_lowest_failing_chunk_decides_the_rounds_error() {
        let (setup, mut phase) = machine(EngineRole::coordinator(vec![0]), 0, 3);
        assert_eq!(install(&setup, &mut phase), [0, 1, 2]);
        let rejected = |index: usize| Err(AtomError::Malformed(format!("submission {index}")));
        assert!(phase.step(T0, Input::Chunk(2, rejected(9))).is_empty());
        assert!(phase
            .step(T0, Input::Chunk(0, verified([1, 1, 1], 0)))
            .is_empty());
        let actions = phase.step(T0, Input::Chunk(1, rejected(4)));
        assert_fails(actions, "submission 4");
    }

    #[test]
    fn the_last_chunk_releases_once_and_finalize_carries_what_it_released() {
        let (setup, mut phase) = machine(EngineRole::coordinator(vec![0]), 0, 2);
        install(&setup, &mut phase);
        assert!(phase
            .step(T0, Input::Chunk(1, verified([0, 2, 1], 1)))
            .is_empty());
        let actions = phase.step(T0, Input::Chunk(0, verified([1, 1, 0], 0)));
        let [Action::Release(batches)] = actions.as_slice() else {
            panic!("the last chunk releases the round");
        };
        assert_eq!(batches.iter().map(Vec::len).collect::<Vec<_>>(), [1, 3, 1]);
        assert!(phase
            .step(T0, Input::Chunk(0, verified([1, 1, 0], 0)))
            .is_empty());

        for gid in [0, 2] {
            assert!(phase.step(T0, Input::Exit(exit_frame(gid))).is_empty());
        }
        let actions = phase.step(T0, Input::Exit(exit_frame(1)));
        let [Action::Finalize(_, (routed, commitments))] = actions.as_slice() else {
            panic!("the last exit frame finalizes the round");
        };
        let tags: Vec<Vec<u8>> = (commitments.iter())
            .map(|group| group.iter().map(|c| c.0[0]).collect())
            .collect();
        assert_eq!((*routed, tags), (5, vec![vec![0], vec![0, 1, 1], vec![1]]));
    }

    #[test]
    fn waiting_on_counts_the_unverified_chunks() {
        let (setup, mut phase) = machine(EngineRole::coordinator(vec![0]), 0, 3);
        install(&setup, &mut phase);
        assert!(phase
            .step(T0, Input::Chunk(1, verified([1, 0, 0], 0)))
            .is_empty());
        let (detail, remote) = phase.waiting_on(|_| panic!("intake names no groups"));
        let want = "stuck before batch release: 2 intake chunk(s) unverified";
        assert_eq!((detail.as_str(), remote), (want, vec![]));
    }
}
