//! Deployment configuration for an Atom network.

use serde::{Deserialize, Serialize};

use atom_topology::network::{ButterflyNetwork, SquareNetwork, Topology};

use crate::error::{AtomError, AtomResult};

/// Which defence against actively malicious servers a deployment uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Defense {
    /// Verifiable shuffles and verifiable decryption after every step
    /// (Algorithm 2, §4.3). Stronger anonymity, roughly 4× the cost.
    Nizk,
    /// Trap messages checked by a trustee group before the inner decryption
    /// key is released (§4.4).
    Trap,
}

/// Which permutation-network topology connects the groups (§3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TopologyKind {
    /// Håstad's square network (the paper's default, `T = 10`).
    Square,
    /// Iterated butterfly (β = 2, `O(log² G)` iterations).
    Butterfly,
}

/// Full configuration of an Atom deployment.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AtomConfig {
    /// Number of physical servers (`N`).
    pub num_servers: usize,
    /// Number of anytrust groups (`G`); each group is a node of the
    /// permutation network.
    pub num_groups: usize,
    /// Servers per group (`k`). Use
    /// [`atom_topology::groups::required_group_size`] for production sizes;
    /// tests use small groups.
    pub group_size: usize,
    /// Required honest servers per group (`h`): 1 for plain anytrust, ≥2 to
    /// tolerate `h − 1` failures (§4.5).
    pub required_honest: usize,
    /// Number of mixing iterations (`T`).
    pub iterations: usize,
    /// Defence variant.
    pub defense: Defense,
    /// Topology connecting the groups.
    pub topology: TopologyKind,
    /// Fixed plaintext length in bytes every user pads to (§2; 160 for the
    /// microblogging evaluation, 80 for dialing).
    pub message_len: usize,
    /// Number of buddy groups per group for catastrophic-failure recovery.
    pub buddy_groups: usize,
    /// Beacon seed standing in for the public randomness source used to form
    /// groups for this round (§4.1).
    pub beacon_seed: u64,
    /// Round number (bound into proofs and inner-ciphertext associated data).
    pub round: u64,
    /// Servers the directory has evicted (§4.5): they are excluded from
    /// group formation for this round. Membership derivation substitutes a
    /// beacon-determined surviving server for every evicted one, so the
    /// re-formed directory is a pure function of `(config, eviction log)` —
    /// the DKG streams do not depend on membership, so group keys (and
    /// therefore already-collected user submissions) survive eviction
    /// unchanged.
    pub evicted_servers: Vec<usize>,
}

impl AtomConfig {
    /// A small test-sized deployment.
    pub fn test_default() -> Self {
        Self {
            num_servers: 8,
            num_groups: 4,
            group_size: 3,
            required_honest: 1,
            iterations: 3,
            defense: Defense::Trap,
            topology: TopologyKind::Square,
            message_len: 32,
            buddy_groups: 1,
            beacon_seed: 0,
            round: 0,
            evicted_servers: Vec::new(),
        }
    }

    /// Server ids still participating in group formation (everything not in
    /// [`Self::evicted_servers`]), in ascending order.
    pub(crate) fn surviving_servers(&self) -> Vec<usize> {
        (0..self.num_servers)
            .filter(|server| !self.evicted_servers.contains(server))
            .collect()
    }

    /// Number of member failures each group tolerates (`h − 1`).
    fn tolerated_failures(&self) -> usize {
        self.required_honest.saturating_sub(1)
    }

    /// The DKG threshold per group: `k − (h − 1)` members suffice to decrypt.
    pub fn group_threshold(&self) -> usize {
        self.group_size - self.tolerated_failures()
    }

    /// Builds the configured topology object.
    pub fn topology(&self) -> Box<dyn Topology + Send + Sync> {
        match self.topology {
            TopologyKind::Square => Box::new(SquareNetwork::new(self.num_groups, self.iterations)),
            TopologyKind::Butterfly => {
                let net = ButterflyNetwork::for_groups(self.num_groups);
                Box::new(net)
            }
        }
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> AtomResult<()> {
        if self.num_servers == 0 || self.num_groups == 0 {
            return Err(AtomError::Config(
                "need at least one server and group".into(),
            ));
        }
        if self.group_size == 0 || self.group_size > self.num_servers {
            return Err(AtomError::Config(format!(
                "group size {} incompatible with {} servers",
                self.group_size, self.num_servers
            )));
        }
        if self.required_honest == 0 || self.required_honest > self.group_size {
            return Err(AtomError::Config(format!(
                "required honest {} incompatible with group size {}",
                self.required_honest, self.group_size
            )));
        }
        if self.iterations == 0 {
            return Err(AtomError::Config(
                "need at least one mixing iteration".into(),
            ));
        }
        if self.message_len == 0 {
            return Err(AtomError::Config("message length must be positive".into()));
        }
        if self.topology == TopologyKind::Butterfly && !self.num_groups.is_power_of_two() {
            return Err(AtomError::Config(
                "butterfly topology requires a power-of-two group count".into(),
            ));
        }
        if let Some(server) = self
            .evicted_servers
            .iter()
            .find(|server| **server >= self.num_servers)
        {
            return Err(AtomError::Config(format!(
                "evicted server {server} out of range for {} servers",
                self.num_servers
            )));
        }
        if self.surviving_servers().len() < self.group_size {
            return Err(AtomError::Config(format!(
                "{} evictions leave fewer than {} (group size) surviving servers",
                self.evicted_servers.len(),
                self.group_size
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_default_is_valid() {
        assert!(AtomConfig::test_default().validate().is_ok());
    }

    #[test]
    fn invalid_configs_rejected() {
        let base = AtomConfig::test_default();
        let mut c = base.clone();
        c.num_servers = 0;
        assert!(c.validate().is_err());

        let mut c = base.clone();
        c.group_size = 100;
        assert!(c.validate().is_err());

        let mut c = base.clone();
        c.required_honest = 0;
        assert!(c.validate().is_err());

        let mut c = base.clone();
        c.required_honest = 10;
        assert!(c.validate().is_err());

        let mut c = base.clone();
        c.iterations = 0;
        assert!(c.validate().is_err());

        let mut c = base.clone();
        c.message_len = 0;
        assert!(c.validate().is_err());

        let mut c = base.clone();
        c.topology = TopologyKind::Butterfly;
        c.num_groups = 3;
        assert!(c.validate().is_err());
        c.num_groups = 4;
        assert!(c.validate().is_ok());

        // Evictions: out-of-range ids and eviction sets that leave fewer
        // survivors than one full group are both rejected.
        let mut c = base.clone();
        c.evicted_servers = vec![c.num_servers];
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.evicted_servers = (0..6).collect();
        assert!(c.validate().is_err());
        c.evicted_servers = vec![1, 5];
        assert!(c.validate().is_ok());
        assert_eq!(c.surviving_servers(), vec![0, 2, 3, 4, 6, 7]);
    }

    #[test]
    fn threshold_accounts_for_fault_tolerance() {
        let mut c = AtomConfig::test_default();
        assert_eq!(c.group_threshold(), 3);
        c.required_honest = 2;
        assert_eq!(c.group_threshold(), 2);
        assert_eq!(c.tolerated_failures(), 1);
    }

    #[test]
    fn topology_matches_kind() {
        let mut c = AtomConfig::test_default();
        assert_eq!(c.topology().name(), "square");
        assert_eq!(c.topology().iterations(), 3);
        c.topology = TopologyKind::Butterfly;
        assert_eq!(c.topology().name(), "butterfly");
    }
}
