//! Active-adversary injection for tests, examples and ablation benches.
//!
//! The threat model (§2.1) lets malicious servers deviate arbitrarily. This
//! module describes concrete deviations a compromised group member can make
//! during a mixing iteration; the group protocol consults the plan and
//! applies the deviation, so tests can check that the NIZK variant detects it
//! immediately (§4.3) and that the trap variant aborts the round before any
//! inner ciphertext is opened (§4.4).

use serde::{Deserialize, Serialize};

/// A concrete deviation from the protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Misbehavior {
    /// Silently drop the message at `slot` in the batch.
    DropMessage {
        /// Batch position to drop.
        slot: usize,
    },
    /// Replace the message at `slot` with a copy of the message at `source`
    /// (creating a duplicate ciphertext).
    DuplicateMessage {
        /// Batch position to overwrite.
        slot: usize,
        /// Batch position to copy from.
        source: usize,
    },
    /// Replace the message at `slot` with a fresh encryption of an
    /// attacker-chosen plaintext.
    ReplaceMessage {
        /// Batch position to overwrite.
        slot: usize,
    },
    /// Tamper with one group element of the message at `slot` after the
    /// shuffle proof has been produced (a "mauling" attack).
    TamperCiphertext {
        /// Batch position to maul.
        slot: usize,
    },
    /// Tamper with one group element of the message at `slot` of every
    /// sub-batch this member re-encrypts, after its re-encryption proof has
    /// been produced.
    MaulReencryption {
        /// Sub-batch position to maul.
        slot: usize,
    },
}

/// A plan describing when and where a malicious server strikes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdversaryPlan {
    /// The compromised group.
    pub group: usize,
    /// The compromised member's 1-based position within the group.
    pub member: u64,
    /// The mixing iteration during which to deviate.
    pub iteration: usize,
    /// What to do.
    pub action: Misbehavior,
}

impl AdversaryPlan {
    /// True if this plan applies to the given group and iteration.
    pub(crate) fn applies_to(&self, group: usize, iteration: usize) -> bool {
        self.group == group && self.iteration == iteration
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn applies_to_matches_group_and_iteration() {
        let plan = AdversaryPlan {
            group: 2,
            member: 1,
            iteration: 3,
            action: Misbehavior::DropMessage { slot: 0 },
        };
        assert!(plan.applies_to(2, 3));
        assert!(!plan.applies_to(2, 4));
        assert!(!plan.applies_to(1, 3));
    }
}
