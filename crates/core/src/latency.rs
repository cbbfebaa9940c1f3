//! The server-class mix of the paper's large-scale evaluation.
//!
//! §6 runs Atom on EC2 with a Tor-derived bandwidth distribution and a mix
//! of instance sizes. This module reproduces that mix for the deployment
//! simulator (`atom_sim::deployment`), which also carries its own per-hop
//! link latency. Nothing here touches a real socket.

use serde::{Deserialize, Serialize};

/// Deterministic pseudo-random 64-bit mix (splitmix64) used to derive
/// per-server draws from a seed without carrying an RNG around.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Bandwidth classes matching the Tor-derived distribution used in §6.2:
/// 80% of servers below 100 Mbps, 10% at 100–200, 5% at 200–300, 5% above
/// 300 Mbps; paired with the core counts used for the EC2 instance mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerClass {
    /// Available bandwidth in megabits per second.
    pub bandwidth_mbps: u64,
    /// Number of cores.
    pub cores: u32,
}

/// The heterogeneous server mix of the paper's large-scale evaluation
/// (§6.2): fractions of the fleet in each class.
pub fn paper_server_mix() -> Vec<(f64, ServerClass)> {
    vec![
        (
            0.80,
            ServerClass {
                bandwidth_mbps: 100,
                cores: 4,
            },
        ),
        (
            0.10,
            ServerClass {
                bandwidth_mbps: 200,
                cores: 8,
            },
        ),
        (
            0.05,
            ServerClass {
                bandwidth_mbps: 300,
                cores: 16,
            },
        ),
        (
            0.05,
            ServerClass {
                bandwidth_mbps: 400,
                cores: 32,
            },
        ),
    ]
}

/// Assigns a server class to each of `count` servers following the given
/// mix, deterministically in the seed.
pub fn assign_server_classes(
    count: usize,
    mix: &[(f64, ServerClass)],
    seed: u64,
) -> Vec<ServerClass> {
    assert!(!mix.is_empty());
    (0..count)
        .map(|i| {
            let h = splitmix64(seed ^ i as u64) as f64 / u64::MAX as f64;
            let mut acc = 0.0;
            for (fraction, class) in mix {
                acc += fraction;
                if h < acc {
                    return *class;
                }
            }
            mix.last().unwrap().1
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_mix_fractions_sum_to_one() {
        let total: f64 = paper_server_mix().iter().map(|(f, _)| f).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn class_assignment_roughly_matches_mix() {
        let classes = assign_server_classes(10_000, &paper_server_mix(), 11);
        let four_core = classes.iter().filter(|c| c.cores == 4).count();
        let big = classes.iter().filter(|c| c.cores == 32).count();
        assert!((7_500..=8_500).contains(&four_core), "{four_core}");
        assert!((300..=700).contains(&big), "{big}");
    }

    #[test]
    fn class_assignment_is_deterministic() {
        let a = assign_server_classes(100, &paper_server_mix(), 3);
        let b = assign_server_classes(100, &paper_server_mix(), 3);
        assert_eq!(a, b);
    }
}
