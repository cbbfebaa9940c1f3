//! A round's directory setup as a sans-I/O machine: it collects the hosted
//! groups' DKGs, the trustee DKG and the peers' `setup` frames, parks the
//! mix envelopes that race ahead of the directory, and says when the
//! assembled directory is to be installed. Its driver (`engine::setup`)
//! runs the DKGs, broadcasts the frames and builds the actors; time is an
//! input.

use std::time::Duration;

use atom_core::config::AtomConfig;
use atom_core::directory::{
    derive_buddies, derive_members, GroupContext, RoundSetup, TrusteeContext,
};
use atom_core::error::{AtomError, AtomResult};
use atom_crypto::elgamal::PublicKey;
use atom_crypto::RistrettoPoint;
use curve25519_dalek::traits::Identity;

use crate::fill_vec::FillVec;
use crate::wire::{MixEnvelope, SetupFrame};
use crate::EngineRole;

/// What the driver feeds the machine.
pub(crate) enum Input {
    /// The DKG of a group this process hosts.
    Group(GroupContext),
    /// The trustee DKG (coordinator only).
    Trustees(TrusteeContext),
    /// A peer's `setup` frame.
    Frame(SetupFrame),
    /// A mix envelope for hosted group `gid` that reached the round before
    /// its directory was installed.
    Mix(usize, MixEnvelope),
}

/// What the driver is to do, in order.
pub(crate) enum Action {
    /// Build the hosted actors from the directory and release the
    /// coordinator's intake, then feed the parked envelopes to their actors
    /// in arrival order.
    Install(Box<RoundSetup>, Vec<(usize, MixEnvelope)>),
    /// Feed the envelope to the actor of its group.
    Deliver(usize, MixEnvelope),
    /// Fail the round.
    Fail(AtomError),
}

/// One round's directory setup. Every engine round reaches its directory
/// through [`step`](Self::step).
pub(crate) struct SetupPhase {
    config: AtomConfig,
    hosted: Vec<usize>,
    /// Collected contexts: full (with shares) for hosted groups, public-only
    /// for remote ones. Kept after installation, so a late frame is still
    /// checked against the keys the round mixes under: an equivocating peer
    /// that lands its forged frame first is caught when its genuine frame
    /// (or a second forged story) arrives.
    groups: FillVec<GroupContext>,
    /// The trustee context: derived on the coordinator, a placeholder from
    /// the start on members (see [`member_trustee_placeholder`]).
    trustees: Option<TrusteeContext>,
    /// Mix envelopes that arrived before the directory, `(gid, envelope)`
    /// in arrival order.
    parked: Vec<(usize, MixEnvelope)>,
    /// When the directory was installed, as the driver's `now`.
    ready: Option<Duration>,
}

impl SetupPhase {
    pub(crate) fn new(config: &AtomConfig, role: &EngineRole) -> Self {
        Self {
            config: config.clone(),
            hosted: role.hosted.clone(),
            groups: FillVec::new(config.num_groups),
            trustees: (!role.coordinator).then(member_trustee_placeholder),
            parked: Vec::new(),
            ready: None,
        }
    }

    /// Feeds `input`, read at `now`, and returns what the driver is to do.
    /// The input that completes the directory returns
    /// [`Action::Install`], once; from then on a mix envelope is delivered
    /// at once.
    pub(crate) fn step(&mut self, now: Duration, input: Input) -> Vec<Action> {
        let recorded = match input {
            Input::Group(context) => {
                let _ = self.groups.set(context.id, context);
                Ok(())
            }
            Input::Trustees(trustees) => {
                self.trustees.get_or_insert(trustees);
                Ok(())
            }
            Input::Frame(frame) => self.record(frame),
            Input::Mix(gid, mix) if self.ready.is_some() => return vec![Action::Deliver(gid, mix)],
            Input::Mix(gid, mix) => self.park(gid, mix),
        };
        if let Err(error) = recorded {
            return vec![Action::Fail(error)];
        }
        if self.ready.is_some() || self.trustees.is_none() || !self.groups.is_full() {
            return Vec::new();
        }
        self.ready = Some(now);
        let groups = self
            .groups
            .clone()
            .into_full()
            .expect("every group recorded");
        let setup = RoundSetup {
            config: self.config.clone(),
            groups,
            trustees: self.trustees.take().expect("the trustees recorded"),
            buddies: derive_buddies(&self.config),
        };
        let parked = std::mem::take(&mut self.parked);
        vec![Action::Install(Box::new(setup), parked)]
    }

    /// When the directory was installed (zero before).
    pub(crate) fn latency(&self) -> Duration {
        self.ready.unwrap_or_default()
    }

    /// What the round waits on while its directory is not installed: the
    /// missing group directories, named by `locate` (which also returns
    /// the remote ones), and, on the coordinator, the trustee DKG.
    pub(crate) fn waiting_on(
        &self,
        locate: impl FnOnce(Vec<usize>) -> (String, Vec<usize>),
    ) -> Option<(String, Vec<usize>)> {
        if self.ready.is_some() {
            return None;
        }
        let trustees = self.trustees.is_none().then_some(" and the trustee DKG");
        let (named, remote) = locate(self.groups.missing().collect());
        let detail = format!("stuck in sharded setup, waiting on group directories [{named}]");
        Some((detail + trustees.unwrap_or_default(), remote))
    }

    /// Records one remote group's public directory entry. Duplicate frames
    /// are expected — a peer broadcasts once per remote mailbox, and this
    /// process may own several — and are compared with the stored,
    /// already validated entry instead of re-deriving the membership; a
    /// copy that disagrees is a hostile or broken peer.
    fn record(&mut self, frame: SetupFrame) -> AtomResult<()> {
        let gid = frame.gid;
        if gid >= self.config.num_groups {
            return Err(AtomError::Malformed(format!(
                "setup frame for unknown group {gid}"
            )));
        }
        if self.hosted.contains(&gid) {
            return Err(AtomError::Malformed(format!(
                "setup frame for group {gid}, which this process derives itself"
            )));
        }
        if let Some(stored) = self.groups.get(gid) {
            let copy = (stored.public_key, stored.threshold, &stored.members)
                == (frame.public_key, frame.threshold, &frame.members);
            return match copy {
                true => Ok(()),
                false => Err(AtomError::Malformed(format!(
                    "conflicting setup frames for group {gid}"
                ))),
            };
        }
        validate(&self.config, &frame)?;
        let context = GroupContext {
            id: gid,
            members: frame.members,
            shares: Vec::new(),
            public_key: frame.public_key,
            threshold: frame.threshold,
        };
        let _ = self.groups.set(gid, context);
        Ok(())
    }

    /// Parks an envelope until the directory is installed. Bounded: a
    /// legitimate round delivers at most `groups × (1 + groups ×
    /// iterations)` mix frames in all, so growth past that is a peer
    /// streaming frames while withholding its setup frames.
    fn park(&mut self, gid: usize, mix: MixEnvelope) -> AtomResult<()> {
        let (groups, iterations) = (self.config.num_groups, self.config.topology().iterations());
        let cap = groups.saturating_mul(1 + groups.saturating_mul(iterations));
        if self.parked.len() >= cap {
            return Err(AtomError::Malformed(format!(
                "more than {cap} mix envelopes buffered before the round's directory was assembled"
            )));
        }
        self.parked.push((gid, mix));
        Ok(())
    }
}

/// Everything in a setup frame except the DKG public key is a pure function
/// of the shared configuration — recompute and reject rather than trust. A
/// hostile peer can therefore only influence the public keys of the groups
/// it hosts, which it controls anyway by running their DKGs.
fn validate(config: &AtomConfig, frame: &SetupFrame) -> AtomResult<()> {
    let gid = frame.gid;
    if frame.threshold != config.group_threshold() {
        return Err(AtomError::Malformed(format!(
            "setup frame for group {gid} claims threshold {} (expected {})",
            frame.threshold,
            config.group_threshold()
        )));
    }
    if derive_members(config, gid)? != frame.members {
        return Err(AtomError::Malformed(format!(
            "setup frame for group {gid} claims a membership that does not match the beacon \
             derivation"
        )));
    }
    Ok(())
}

/// The trustee context a non-coordinator member records in its assembled
/// directory. Members never consult the trustees — group actors only read
/// `setup.groups` and `setup.config`, and the trap-variant exit phase runs
/// on the coordinator — so an empty placeholder keeps the trustee DKG off
/// every member's setup path.
fn member_trustee_placeholder() -> TrusteeContext {
    TrusteeContext {
        members: Vec::new(),
        shares: Vec::new(),
        public_key: PublicKey(RistrettoPoint::identity()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atom_core::directory::derive_setup;

    const T0: Duration = Duration::ZERO;

    /// A 3-group, 2-iteration deployment, and the setup machine of its
    /// coordinator, which hosts group 0.
    fn deployment() -> (RoundSetup, SetupPhase) {
        let mut config = AtomConfig::test_default();
        (config.num_groups, config.iterations) = (3, 2);
        let setup = derive_setup(&config).unwrap();
        (
            setup,
            SetupPhase::new(&config, &EngineRole::coordinator(vec![0])),
        )
    }

    fn frame(setup: &RoundSetup, gid: usize) -> SetupFrame {
        let group = &setup.groups[gid];
        SetupFrame {
            round: 0,
            gid,
            members: group.members.clone(),
            threshold: group.threshold,
            public_key: group.public_key,
        }
    }

    fn mix(from: usize) -> MixEnvelope {
        MixEnvelope {
            round: 0,
            iteration: 0,
            from,
            sent_virtual: T0,
            batch: Vec::new(),
        }
    }

    /// Feeds every piece but group 2's frame.
    fn all_but_group_2(setup: &RoundSetup, phase: &mut SetupPhase) {
        for input in [
            Input::Group(setup.groups[0].clone()),
            Input::Frame(frame(setup, 1)),
            Input::Trustees(setup.trustees.clone()),
        ] {
            assert!(phase.step(T0, input).is_empty());
        }
    }

    fn assert_fails(actions: Vec<Action>, want: &str) {
        match actions.as_slice() {
            [Action::Fail(AtomError::Malformed(reason))] => {
                assert!(reason.contains(want), "{reason}")
            }
            _ => panic!("want one failure naming {want:?}"),
        }
    }

    #[test]
    fn parked_envelopes_replay_in_arrival_order_at_install() {
        let (setup, mut phase) = deployment();
        let ms = Duration::from_millis;
        for from in [7, 3, 5] {
            assert!(phase.step(ms(1), Input::Mix(0, mix(from))).is_empty());
        }
        all_but_group_2(&setup, &mut phase);
        assert!(phase
            .waiting_on(|gids| (format!("{gids:?}"), gids))
            .is_some());

        let actions = phase.step(ms(5), Input::Frame(frame(&setup, 2)));
        let [Action::Install(installed, replay)] = actions.as_slice() else {
            panic!("the last piece installs the directory");
        };
        let order: Vec<_> = replay.iter().map(|(gid, mix)| (*gid, mix.from)).collect();
        assert_eq!(order, [(0, 7), (0, 3), (0, 5)]);
        let keys = |setup: &RoundSetup| {
            setup
                .groups
                .iter()
                .map(|g| g.public_key)
                .collect::<Vec<_>>()
        };
        assert!(keys(installed) == keys(&setup));
        assert!(installed.trustees.public_key == setup.trustees.public_key);
        assert_eq!(phase.latency(), ms(5));
        assert!(phase.waiting_on(|gids| (String::new(), gids)).is_none());

        // From then on an envelope is delivered at once.
        let actions = phase.step(ms(6), Input::Mix(0, mix(1)));
        assert!(matches!(actions.as_slice(), [Action::Deliver(0, mix)] if mix.from == 1));
    }

    #[test]
    fn a_duplicate_copy_is_benign_before_and_after_install() {
        let (setup, mut phase) = deployment();
        all_but_group_2(&setup, &mut phase);
        assert!(phase.step(T0, Input::Frame(frame(&setup, 1))).is_empty());
        let actions = phase.step(T0, Input::Frame(frame(&setup, 2)));
        assert!(matches!(actions.as_slice(), [Action::Install(..)]));
        for gid in [1, 2] {
            assert!(phase.step(T0, Input::Frame(frame(&setup, gid))).is_empty());
        }
    }

    #[test]
    fn a_conflicting_frame_fails_the_round_before_and_after_install() {
        let (setup, mut phase) = deployment();
        let forged = SetupFrame {
            public_key: setup.groups[2].public_key,
            ..frame(&setup, 1)
        };
        all_but_group_2(&setup, &mut phase);
        let conflict = "conflicting setup frames for group 1";
        assert_fails(phase.step(T0, Input::Frame(forged.clone())), conflict);

        let actions = phase.step(T0, Input::Frame(frame(&setup, 2)));
        assert!(matches!(actions.as_slice(), [Action::Install(..)]));
        assert_fails(phase.step(T0, Input::Frame(forged)), conflict);
    }

    #[test]
    fn the_park_cap_fails_the_round() {
        let (_, mut phase) = deployment();
        // 3 groups x 2 iterations: the cap is 3 * (1 + 3 * 2) = 21.
        for _ in 0..21 {
            assert!(phase.step(T0, Input::Mix(0, mix(0))).is_empty());
        }
        let actions = phase.step(T0, Input::Mix(0, mix(0)));
        assert_fails(actions, "more than 21 mix envelopes buffered");
    }
}
