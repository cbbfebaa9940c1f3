//! A round's machine: every setup, intake, mixing and exit decision of
//! the round, made in one [`step`](RoundPhase::step). Its setup, mixing
//! and exit transitions live beside those phases' work, in
//! `engine/{setup,mix,exit}/machine.rs`; intake's are here. Its driver
//! (`engine::phase`) runs the DKGs, verifies the chunks, runs the group
//! steps, sends every frame and finalizes; time is an input.

use std::collections::BTreeMap;
use std::time::Duration;

use atom_core::actor::{ActorConfig, ActorOutput, GroupStepper, SOURCE};
use atom_core::config::AtomConfig;
use atom_core::directory::{GroupContext, RoundSetup, TrusteeContext};
use atom_core::error::{AtomError, AtomResult, EngineErrorKind};
use atom_core::round::TrapIntake;
use atom_crypto::commit::Commitment;
use atom_crypto::elgamal::MessageCiphertext;

use super::super::exit::Released;
use super::super::mix::Mixer;
use super::super::setup::member_trustee_placeholder;
use super::super::{wire_round_id, EngineOptions};
use crate::fill_vec::FillVec;
use crate::wire::{self, ExitFrame, MixEnvelope, SetupFrame};
use crate::EngineRole;

/// A complete iteration of a group, as its inbox hands it out:
/// `(iteration, batch, ready)`, `ready` on the group's virtual clock.
pub(crate) type Ready = (usize, Vec<MessageCiphertext>, Duration);

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
    /// A mix envelope delivered to group `gid`'s mailbox, whenever it
    /// arrives.
    Mix(usize, MixEnvelope),
    /// Group `gid`'s stepper back from the step a [`Action::Step`] handed
    /// out, with what the step emitted.
    Stepped(usize, Box<GroupStepper>, AtomResult<Vec<ActorOutput>>),
    /// An intake chunk's verification result, by chunk index.
    Chunk(usize, AtomResult<TrapIntake>),
    /// An exit frame at the coordinator.
    Exit(ExitFrame),
}

/// What the driver is to do, in order.
pub(crate) enum Action {
    /// Queue the round's DKG tasks.
    Derive,
    /// Publish the directory. Always first: (coordinator) the first chunks
    /// follow, then a step for each hosted group whose first iteration is
    /// already complete.
    Install(Box<RoundSetup>),
    /// Run group `gid`'s step over the complete iteration with its
    /// stepper, outside the machine, and feed [`Input::Stepped`] back.
    Step(usize, Box<GroupStepper>, Ready),
    /// Send an encoded frame from `from` to `to`, each a group id or
    /// [`SOURCE`] for the orchestrator: a mix frame to a group, a group's
    /// exit frame to the orchestrator.
    Send(usize, usize, Vec<u8>),
    /// Queue the verification of this intake chunk.
    Verify(usize),
    /// Run the variant's exit phase over every group's frame, in group
    /// order, with what intake released (coordinator only).
    Finalize(Vec<ExitFrame>, Released),
    /// Resolve a member's round with its stub report: every hosted group
    /// exited, the last at this virtual time, after forwarding this many
    /// sub-batches and bytes.
    Stub(Duration, (u64, u64)),
    Fail(AtomError),
}

/// One round's setup, intake, mixing and exit. Every engine round goes
/// through [`step`](Self::step), from its [`Input::Begin`] on. The fields
/// each phase's transitions read are the crate's, for their modules.
pub(crate) struct RoundPhase {
    pub(crate) config: AtomConfig,
    pub(crate) coordinator: bool,
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
    /// Mixing. The hosted groups of the round by id, built with the
    /// machine so a sub-batch is recorded whether it arrives before the
    /// directory or after; the shared seed and options their steppers are
    /// built from at install; and the wire round their frames carry.
    pub(crate) mixers: BTreeMap<usize, Mixer>,
    pub(crate) stepping: (u64, ActorConfig),
    pub(crate) wire_round: usize,
    /// Exit. The coordinator's exit frames, one slot per group, local and
    /// remote, and what intake released.
    pub(crate) frames: FillVec<ExitFrame>,
    pub(crate) released: Released,
    /// How many of a member's hosted groups exited and their latest
    /// virtual exit time (the coordinator learns of its own groups' exits
    /// from their frames).
    pub(crate) exited: usize,
    pub(crate) pipelined: Duration,
    /// Whether finalization or the stub was handed out: the claim. After
    /// it, every exit input yields nothing.
    pub(crate) done: bool,
}

impl RoundPhase {
    /// The machine of job `round` offering `offered` submissions in
    /// `chunks` intake chunks, whose groups step with `stepping`'s master
    /// seed and options. A round that cannot run gets no inboxes.
    pub(crate) fn new(
        round: usize,
        config: &AtomConfig,
        role: &EngineRole,
        options: &EngineOptions,
        (offered, chunks): (usize, usize),
        stepping: (u64, ActorConfig),
    ) -> Self {
        let groups = config.num_groups;
        let refused = refusal(round, config, role, options, offered);
        let hosted = (role.hosted.iter()).filter(|&&gid| gid < groups && refused.is_none());
        let mixers = hosted.map(|&gid| (gid, Mixer::new(config, gid))).collect();
        Self {
            config: config.clone(),
            coordinator: role.coordinator,
            refused,
            groups: FillVec::new(groups),
            trustees: (!role.coordinator).then(member_trustee_placeholder),
            ready: None,
            chunks,
            next_chunk: match options.intake_window {
                0 => chunks,
                window => window.min(chunks).max(1),
            },
            results: FillVec::new(chunks),
            frames: FillVec::new(groups),
            released: (0, Vec::new(), (0, 0)),
            mixers,
            stepping,
            wire_round: round + options.round_offset,
            exited: 0,
            pipelined: Duration::ZERO,
            done: false,
        }
    }

    /// Feeds `input`, read at `now`, and returns what the driver is to do.
    /// The input that completes the directory returns [`Action::Install`],
    /// once. A mix envelope or a step's return hands out the group's next
    /// [`Action::Step`] once its stepper is home and its next iteration
    /// complete. The last chunk result returns the iteration-0 sends, the
    /// frame that fills the last slot [`Action::Finalize`] and a member's
    /// last hosted exit [`Action::Stub`], each once; after the claim, exit
    /// frames yield nothing.
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
            Input::Mix(gid, mix) => return self.mix(gid, mix),
            Input::Stepped(gid, stepper, outputs) => return self.stepped(gid, stepper, outputs),
            Input::Chunk(chunk, result) => return self.verified(chunk, result),
            Input::Exit(_) if self.done => return Vec::new(),
            Input::Exit(frame) => return self.record_exit(frame),
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
        let pending = self.results.missing().count();
        let (exited, in_round) = (self.exited, self.mixers.len());
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
        self.done = !self.coordinator && self.mixers.is_empty();
        vec![match self.done {
            true => Action::Stub(Duration::ZERO, (0, 0)),
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
            actions.extend(self.release(results.expect("every chunk verified")));
        }
        actions
    }

    /// Merges the chunk results in chunk order and sends the iteration-0
    /// batches, one per group in group order. Ranges are contiguous and
    /// ascending, so the merged per-group batches equal the single-task
    /// (and sequential-driver) bucketing byte for byte; the first failed
    /// chunk — which holds the lowest-indexed rejected submission — decides
    /// the round's error.
    fn release(&mut self, results: Vec<AtomResult<TrapIntake>>) -> Vec<Action> {
        let groups = self.config.num_groups;
        let mut batches: Vec<Vec<MessageCiphertext>> = vec![Vec::new(); groups];
        let mut commitments: Vec<Vec<Commitment>> = vec![Vec::new(); groups];
        for result in results {
            let chunk = match result {
                Ok(chunk) => chunk,
                Err(error) => return vec![Action::Fail(error)],
            };
            for (gid, mut sub) in chunk.batches.into_iter().enumerate() {
                batches[gid].append(&mut sub);
            }
            for (gid, mut sub) in chunk.commitments.into_iter().enumerate() {
                commitments[gid].append(&mut sub);
            }
        }
        let (round, routed) = (self.wire_round, batches.iter().map(Vec::len).sum());
        let encode = |batch: &Vec<_>| wire::encode_mix(round, 0, SOURCE, Duration::ZERO, batch);
        let payloads: Vec<Vec<u8>> = batches.iter().map(encode).collect();
        let bytes = payloads.iter().map(|payload| payload.len() as u64).sum();
        self.released = (routed, commitments, (payloads.len() as u64, bytes));
        let send = |(gid, payload)| Action::Send(SOURCE, gid, payload);
        payloads.into_iter().enumerate().map(send).collect()
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
    use atom_core::config::Defense;
    use atom_core::directory::derive_setup;
    use atom_core::group::GroupStepOptions;

    pub(crate) const T0: Duration = Duration::ZERO;

    /// The master seed and options the test rounds' groups step with.
    fn stepping() -> (u64, ActorConfig) {
        let options = GroupStepOptions::new(Defense::Trap);
        let config = ActorConfig {
            options,
            adversary: None,
            failed_servers: Vec::new(),
            churn: Vec::new(),
        };
        (7, config)
    }

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
        let phase = RoundPhase::new(0, &config, &role, &options, (0, chunks), stepping());
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

    /// The batch sizes of the iteration-0 frames `actions` send, one per
    /// group in group order, and nothing else.
    pub(crate) fn releases(actions: &[Action]) -> Vec<usize> {
        let size = |(gid, action): (usize, &Action)| match action {
            Action::Send(SOURCE, to, payload) if *to == gid => match wire::decode(payload) {
                Ok(wire::Frame::Mix(mix)) if (mix.iteration, mix.from) == (0, SOURCE) => {
                    mix.batch.len()
                }
                _ => panic!("want an iteration-0 mix frame"),
            },
            _ => panic!("want only the iteration-0 sends, in group order"),
        };
        actions.iter().enumerate().map(size).collect()
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
        assert!(matches!(actions.as_slice(), [Action::Stub(pipelined, _)] if pipelined.is_zero()));

        let (config, role) = (AtomConfig::test_default(), EngineRole::coordinator(vec![0]));
        let begin = |round, options: &EngineOptions, offered| {
            let mut phase =
                RoundPhase::new(round, &config, &role, options, (offered, 1), stepping());
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
        assert_eq!(releases(&actions), [5, 0, 0]);
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
        assert_eq!(
            releases(&actions),
            [1, 3, 1],
            "the last chunk releases the round"
        );
        let sent = |action: &Action| match action {
            Action::Send(_, _, payload) => payload.len() as u64,
            _ => unreachable!(),
        };
        let bytes: u64 = actions.iter().map(sent).sum();
        assert!(phase
            .step(T0, Input::Chunk(0, verified([1, 1, 0], 0)))
            .is_empty());

        for gid in [0, 2] {
            assert!(phase.step(T0, Input::Exit(exit_frame(gid))).is_empty());
        }
        let actions = phase.step(T0, Input::Exit(exit_frame(1)));
        let [Action::Finalize(_, (routed, commitments, traffic))] = actions.as_slice() else {
            panic!("the last exit frame finalizes the round");
        };
        let tags: Vec<Vec<u8>> = (commitments.iter())
            .map(|group| group.iter().map(|c| c.0[0]).collect())
            .collect();
        assert_eq!((*routed, tags), (5, vec![vec![0], vec![0, 1, 1], vec![1]]));
        assert_eq!(*traffic, (3, bytes));
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
