//! Random permutation networks (§3).
//!
//! Atom organizes its (groups of) servers into a layered graph. In every
//! mixing iteration each node shuffles its batch, splits it into β equal
//! sub-batches and forwards one to each of its β neighbours in the next
//! layer. After `T` iterations the composition of the local shuffles is
//! statistically close to a uniform random permutation of all messages.
//!
//! Two topologies from the paper are provided:
//!
//! * [`SquareNetwork`] — Håstad's square-lattice shuffle (ref. \[40\] in the paper): G nodes per
//!   layer, every node connects to every node of the next layer (β = G), and
//!   a constant number of iterations suffices. This is the topology Atom's
//!   evaluation uses (`T = 10`).
//! * [`ButterflyNetwork`] — an iterated butterfly (ref. \[26\] in the paper): β = 2, and
//!   `O(log² G)` iterations are needed.

use serde::{Deserialize, Serialize};

/// A mixing topology: who sends to whom at each iteration.
pub trait Topology {
    /// Number of nodes (groups) per layer.
    fn num_groups(&self) -> usize;
    /// Total number of mixing iterations `T`.
    fn iterations(&self) -> usize;
    /// The branching factor β (number of neighbours per node).
    fn branching_factor(&self) -> usize;
    /// The neighbours that group `group` forwards to after iteration
    /// `iteration` (0-based). The last iteration has no neighbours: its
    /// outputs are the exit batches.
    fn neighbors(&self, group: usize, iteration: usize) -> Vec<usize>;
    /// A short human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// Håstad's square-lattice permutation network.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SquareNetwork {
    /// Number of groups per layer.
    pub groups: usize,
    /// Number of mixing iterations (the paper's evaluation uses 10).
    pub iterations: usize,
}

impl SquareNetwork {
    /// Creates a square network; the paper's default depth is `T = 10`.
    pub fn new(groups: usize, iterations: usize) -> Self {
        assert!(groups > 0 && iterations > 0);
        Self { groups, iterations }
    }

    /// The configuration used in the paper's evaluation (§6.2).
    pub fn paper_default(groups: usize) -> Self {
        Self::new(groups, 10)
    }
}

impl Topology for SquareNetwork {
    fn num_groups(&self) -> usize {
        self.groups
    }

    fn iterations(&self) -> usize {
        self.iterations
    }

    fn branching_factor(&self) -> usize {
        self.groups
    }

    fn neighbors(&self, group: usize, iteration: usize) -> Vec<usize> {
        assert!(group < self.groups);
        if iteration + 1 >= self.iterations {
            Vec::new()
        } else {
            (0..self.groups).collect()
        }
    }

    fn name(&self) -> &'static str {
        "square"
    }
}

/// An iterated-butterfly permutation network on `2^dimension` groups.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ButterflyNetwork {
    /// log₂ of the number of groups.
    pub dimension: u32,
    /// Number of complete butterfly passes (each pass has `dimension`
    /// stages); ref. \[26\] in the paper shows `O(log M)` passes suffice.
    pub passes: usize,
}

impl ButterflyNetwork {
    /// Creates an iterated butterfly over `2^dimension` groups.
    pub fn new(dimension: u32, passes: usize) -> Self {
        assert!(dimension > 0 && passes > 0);
        Self { dimension, passes }
    }

    /// A butterfly sized for `groups` (rounded up to a power of two) with
    /// `log₂(groups)` passes, giving the paper's `O(log² N)` total depth.
    pub fn for_groups(groups: usize) -> Self {
        let dimension = (groups.max(2) as f64).log2().ceil() as u32;
        Self::new(dimension, dimension as usize)
    }
}

impl Topology for ButterflyNetwork {
    fn num_groups(&self) -> usize {
        1 << self.dimension
    }

    fn iterations(&self) -> usize {
        self.dimension as usize * self.passes
    }

    fn branching_factor(&self) -> usize {
        2
    }

    fn neighbors(&self, group: usize, iteration: usize) -> Vec<usize> {
        assert!(group < self.num_groups());
        if iteration + 1 >= self.iterations() {
            return Vec::new();
        }
        // The stage that the *next* iteration's exchange corresponds to.
        let stage = (iteration + 1) % self.dimension as usize;
        let partner = group ^ (1 << stage);
        vec![group, partner]
    }

    fn name(&self) -> &'static str {
        "butterfly"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_network_is_fully_connected_until_last_layer() {
        let net = SquareNetwork::paper_default(8);
        assert_eq!(net.iterations(), 10);
        assert_eq!(net.branching_factor(), 8);
        for iteration in 0..9 {
            for group in 0..8 {
                assert_eq!(net.neighbors(group, iteration), (0..8).collect::<Vec<_>>());
            }
        }
        for group in 0..8 {
            assert!(net.neighbors(group, 9).is_empty());
        }
    }

    #[test]
    fn butterfly_network_has_branching_two_and_log_squared_depth() {
        let net = ButterflyNetwork::for_groups(16);
        assert_eq!(net.num_groups(), 16);
        assert_eq!(net.branching_factor(), 2);
        assert_eq!(net.iterations(), 16); // 4 passes × 4 stages.
        for iteration in 0..net.iterations() - 1 {
            for group in 0..16 {
                let neighbors = net.neighbors(group, iteration);
                assert_eq!(neighbors.len(), 2);
                assert!(neighbors.contains(&group));
                let partner = neighbors.iter().find(|&&n| n != group).copied().unwrap();
                assert_eq!((partner ^ group).count_ones(), 1);
            }
        }
    }

    #[test]
    fn butterfly_partners_are_symmetric() {
        let net = ButterflyNetwork::new(3, 3);
        for iteration in 0..net.iterations() - 1 {
            for group in 0..net.num_groups() {
                let partner = net
                    .neighbors(group, iteration)
                    .into_iter()
                    .find(|&n| n != group)
                    .unwrap();
                assert!(net.neighbors(partner, iteration).contains(&group));
            }
        }
    }

    #[test]
    fn non_power_of_two_rounds_up() {
        let net = ButterflyNetwork::for_groups(10);
        assert_eq!(net.num_groups(), 16);
    }
}
