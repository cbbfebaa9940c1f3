//! The setup transitions of a round's machine: they collect the hosted
//! groups' DKGs, the trustee DKG and the peers' `setup` frames, park the
//! mix envelopes that race ahead of the directory, and install the
//! directory once every piece is in.

use std::time::Duration;

use atom_core::config::AtomConfig;
use atom_core::directory::{
    derive_buddies, derive_members, GroupContext, RoundSetup, TrusteeContext,
};
use atom_core::error::{AtomError, AtomResult};
use atom_crypto::elgamal::PublicKey;
use atom_crypto::RistrettoPoint;
use curve25519_dalek::traits::Identity;

use crate::engine::phase::{Action, RoundPhase};
use crate::fill_vec::FillVec;
use crate::wire::{MixEnvelope, SetupFrame};

impl RoundPhase {
    /// Hands out the directory, then the parked envelopes and the window's
    /// chunks. The contexts move into the directory; only their public
    /// halves stay for [`record_setup`](Self::record_setup).
    pub(crate) fn install(&mut self, now: Duration) -> Vec<Action> {
        self.ready = Some(now);
        let groups = std::mem::replace(&mut self.groups, FillVec::new(self.config.num_groups));
        let groups = groups.into_full().expect("every group recorded");
        for group in &groups {
            let _ = self.groups.set(group.id, group.public_only());
        }
        let setup = RoundSetup {
            config: self.config.clone(),
            groups,
            trustees: self.trustees.take().expect("the trustees recorded"),
            buddies: derive_buddies(&self.config),
        };
        let mut actions = vec![Action::Install(Box::new(setup))];
        actions.extend((self.parked.drain(..)).map(|(gid, mix)| Action::Deliver(gid, mix)));
        if self.coordinator {
            actions.extend((0..self.next_chunk).map(Action::Verify));
        }
        actions
    }

    /// Records one remote group's public directory entry. Duplicate frames
    /// are expected — a peer broadcasts once per remote mailbox, and this
    /// process may own several — and are compared with the stored,
    /// already validated entry instead of re-deriving the membership; a
    /// copy that disagrees is a hostile or broken peer.
    pub(crate) fn record_setup(&mut self, frame: SetupFrame) -> AtomResult<()> {
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
    pub(crate) fn park(&mut self, gid: usize, mix: MixEnvelope) -> AtomResult<()> {
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
pub(crate) fn member_trustee_placeholder() -> TrusteeContext {
    TrusteeContext {
        members: Vec::new(),
        shares: Vec::new(),
        public_key: PublicKey(RistrettoPoint::identity()),
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::phase::machine::tests::{all_but_group_2, assert_fails, frame, machine, T0};
    use crate::engine::phase::{Action, Input, RoundPhase};
    use crate::wire::{MixEnvelope, SetupFrame};
    use crate::EngineRole;
    use atom_core::directory::RoundSetup;
    use std::time::Duration;

    /// A 3-group, 2-iteration deployment, and the round machine of its
    /// coordinator, which hosts group 0; its intake has no chunk, so
    /// installing hands out setup's actions alone.
    fn deployment() -> (RoundSetup, RoundPhase) {
        machine(EngineRole::coordinator(vec![0]), 0, 0)
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

    #[test]
    fn parked_envelopes_replay_in_arrival_order_at_install() {
        let (setup, mut phase) = deployment();
        let ms = Duration::from_millis;
        for from in [7, 3, 5] {
            assert!(phase.step(ms(1), Input::Mix(0, mix(from))).is_empty());
        }
        all_but_group_2(&setup, &mut phase);
        let in_setup = |phase: &RoundPhase| {
            let (detail, _) = phase.waiting_on(|gids| (format!("{gids:?}"), gids));
            detail.starts_with("stuck in sharded setup")
        };
        assert!(in_setup(&phase));

        let actions = phase.step(ms(5), Input::Frame(frame(&setup, 2)));
        let [Action::Install(installed), replay @ ..] = actions.as_slice() else {
            panic!("the last piece installs the directory");
        };
        let order: Vec<_> = (replay.iter())
            .map(|action| match action {
                Action::Deliver(gid, mix) => (*gid, mix.from),
                _ => panic!("want only the parked envelopes after the install"),
            })
            .collect();
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
        assert_eq!(phase.ready, Some(ms(5)));
        assert!(!in_setup(&phase));

        // From then on an envelope is delivered at once.
        let actions = phase.step(ms(6), Input::Mix(0, mix(1)));
        assert!(matches!(actions.as_slice(), [Action::Deliver(0, mix)] if mix.from == 1));
    }

    #[test]
    fn the_directory_takes_the_hosted_shares_and_the_machine_keeps_none() {
        let (setup, mut phase) = deployment();
        all_but_group_2(&setup, &mut phase);
        let actions = phase.step(T0, Input::Frame(frame(&setup, 2)));
        let [Action::Install(installed)] = actions.as_slice() else {
            panic!("the last piece installs the directory");
        };
        assert!(!installed.groups[0].shares.is_empty());
        assert_eq!(
            installed.groups[0].shares.len(),
            setup.groups[0].shares.len()
        );
        for gid in 0..3 {
            let kept = phase.groups.get(gid).expect("a public half per group");
            assert!(kept.shares.is_empty(), "group {gid} keeps a share");
            assert!(kept.public_key == setup.groups[gid].public_key);
        }
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
