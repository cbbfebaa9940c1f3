//! Link-latency and bandwidth models.
//!
//! The paper's evaluation runs on EC2 with artificially injected pairwise
//! latencies of 40–160 ms (via `tc`) and a Tor-derived bandwidth
//! distribution (§6). This module reproduces those models so that both the
//! protocol driver ([`hop_latency`](crate::round::hop_latency)) and the
//! large-scale simulator (`atom_sim::deployment`) can charge realistic
//! network time to each hop. They are simulation models of the paper's
//! links: no byte on a real socket ever waits on them.

use std::time::Duration;

use serde::{Deserialize, Serialize};

/// Deterministic pseudo-random 64-bit mix (splitmix64) used to derive
/// per-link latencies from a seed without carrying an RNG around.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A model assigning a one-way propagation latency to every ordered node
/// pair.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum LatencyModel {
    /// No propagation delay (pure computation experiments).
    Zero,
    /// The same fixed latency on every link.
    Fixed {
        /// One-way delay in milliseconds.
        millis: u64,
    },
    /// Per-link latency drawn uniformly from `[min_millis, max_millis]`,
    /// deterministic in the (seed, src, dst) triple and symmetric.
    Uniform {
        /// Lower bound in milliseconds.
        min_millis: u64,
        /// Upper bound in milliseconds.
        max_millis: u64,
        /// Seed for the per-link draw.
        seed: u64,
    },
}

impl LatencyModel {
    /// The paper's wide-area emulation: 40–160 ms per link (§6).
    pub fn paper_wan(seed: u64) -> Self {
        LatencyModel::Uniform {
            min_millis: 40,
            max_millis: 160,
            seed,
        }
    }

    /// One-way latency between two nodes.
    pub fn link(&self, src: usize, dst: usize) -> Duration {
        match *self {
            LatencyModel::Zero => Duration::ZERO,
            LatencyModel::Fixed { millis } => Duration::from_millis(millis),
            LatencyModel::Uniform {
                min_millis,
                max_millis,
                seed,
            } => {
                if src == dst {
                    return Duration::ZERO;
                }
                // Symmetric: order the endpoints before hashing.
                let (a, b) = if src < dst { (src, dst) } else { (dst, src) };
                let h = splitmix64(seed ^ ((a as u64) << 32) ^ b as u64);
                let span = max_millis.saturating_sub(min_millis) + 1;
                Duration::from_millis(min_millis + h % span)
            }
        }
    }
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
    fn zero_and_fixed_models() {
        assert_eq!(LatencyModel::Zero.link(1, 2), Duration::ZERO);
        assert_eq!(
            LatencyModel::Fixed { millis: 25 }.link(4, 9),
            Duration::from_millis(25)
        );
    }

    #[test]
    fn uniform_model_is_symmetric_deterministic_and_in_range() {
        let model = LatencyModel::paper_wan(7);
        for src in 0..20 {
            for dst in 0..20 {
                let latency = model.link(src, dst);
                if src == dst {
                    assert_eq!(latency, Duration::ZERO);
                    continue;
                }
                assert_eq!(latency, model.link(dst, src));
                assert_eq!(latency, model.link(src, dst));
                let ms = latency.as_millis() as u64;
                assert!((40..=160).contains(&ms), "latency out of range: {ms}");
            }
        }
    }

    #[test]
    fn uniform_model_varies_across_links() {
        let model = LatencyModel::paper_wan(7);
        let values: Vec<u128> = (1..30).map(|dst| model.link(0, dst).as_millis()).collect();
        let distinct: std::collections::HashSet<_> = values.iter().collect();
        assert!(distinct.len() > 5);
    }

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
