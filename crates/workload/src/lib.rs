//! Deterministic traffic models for million-user Atom deployments.
//!
//! The paper's claim is horizontal scaling of strong anonymity to millions
//! of users; exercising that claim needs workloads *shaped* like real
//! traffic — Zipf-distributed microblog fan-in, dialing, mixed trap/NIZK
//! deployments — at sizes that must never be materialized in one `Vec`. Every generator here is a pure function
//! of `(seed, index)`: submission `i` is derived from its own
//! [`StdRng`] seeded by a splitmix64 hash of the workload seed and `i`, so
//! any index range can be generated independently and
//! [`WorkloadSource::generate`] yields byte-identical streams whatever the
//! chunking or [window](atom_runtime::EngineOptions::intake_window) the
//! engine pulls it through. The same property lets
//! [`WorkloadSource::materialize`] build a whole round on every core, one
//! contiguous index range per core, with output that cannot depend on the
//! split.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;
use std::thread;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use atom_core::config::Defense;
use atom_core::directory::RoundSetup;
use atom_core::error::{AtomError, AtomResult};
use atom_core::message::{make_nizk_submission, make_trap_submission};
use atom_runtime::wire::ClientSubmission;
use atom_runtime::{RoundSubmissions, SubmissionBlock, SubmissionSource};

/// Sebastiano Vigna's splitmix64 finalizer: the standard cheap bijection
/// for turning a counter into an independent-looking 64-bit seed.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The RNG seed of submission `index` under workload seed `seed`. Mixing
/// the index in *before* the splitmix finalizer keeps adjacent indices
/// statistically unrelated, which is what lets `generate(a..b)` and
/// `generate(b..c)` concatenate into exactly `generate(a..c)`.
fn index_seed(seed: u64, index: u64) -> u64 {
    splitmix64(seed ^ index.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// The per-submission RNG: every random choice of submission `index`
/// (author, entry group, encryption randomness, trap nonce) draws from
/// this stream and nothing else.
fn index_rng(seed: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(index_seed(seed, index))
}

/// A uniform draw in `[0, 1)` from one `u64` (53 mantissa bits).
fn unit_f64(raw: u64) -> f64 {
    (raw >> 11) as f64 / (1u64 << 53) as f64
}

/// A Zipf(`exponent`) sampler over ranks `0..ranks` via its cumulative
/// distribution: rank `r` has weight `1/(r+1)^exponent`. Microblog fan-in
/// is the canonical use — a handful of prolific authors produce most
/// posts, with a long tail of occasional ones.
#[derive(Clone, Debug)]
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `ranks` ranks with the given exponent. Panics on
    /// zero ranks or a non-finite exponent.
    fn new(ranks: usize, exponent: f64) -> Self {
        assert!(ranks > 0, "a Zipf law needs at least one rank");
        assert!(exponent.is_finite(), "non-finite Zipf exponent");
        let mut cdf = Vec::with_capacity(ranks);
        let mut acc = 0.0;
        for rank in 0..ranks {
            acc += 1.0 / ((rank + 1) as f64).powf(exponent);
            cdf.push(acc);
        }
        let total = acc;
        for slot in &mut cdf {
            *slot /= total;
        }
        Self { cdf }
    }

    /// The rank a uniform `u ∈ [0, 1)` maps to.
    fn sample(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&cum| cum <= u)
            .min(self.cdf.len() - 1)
    }
}

/// What the submissions of one workload round look like.
#[derive(Clone, Debug)]
pub enum TrafficPattern {
    /// Microblog fan-in: the author of each post is drawn from a
    /// Zipf(`exponent`) law over `users` users.
    ZipfMicroblog {
        /// User population size.
        users: usize,
        /// Zipf exponent (≈1.0 for classic microblog fan-in).
        exponent: f64,
    },
    /// Dialing: each submission is a caller→callee invitation with both
    /// endpoints uniform over `users` users.
    Dialing {
        /// User population size.
        users: usize,
    },
}

/// One round's workload: a traffic pattern, a protocol variant, a size
/// and a seed. Equal specs (against equal directories) generate
/// byte-identical streams.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Shape of the submission payloads.
    pub pattern: TrafficPattern,
    /// Protocol variant the submissions are built for.
    pub defense: Defense,
    /// Submissions the round offers.
    pub submissions: usize,
    /// Seed of every random choice in the stream.
    pub seed: u64,
}

/// A deterministic, range-addressable stream of submissions for one round
/// (the [`SubmissionSource`] the engine's streaming intake pulls from).
/// Holds the round's directory for the group/trustee keys submissions
/// encrypt to.
pub struct WorkloadSource {
    setup: Arc<RoundSetup>,
    spec: WorkloadSpec,
    zipf: Option<Zipf>,
}

impl WorkloadSource {
    /// A stream of `spec` submissions against the `setup` directory.
    pub fn new(setup: Arc<RoundSetup>, spec: WorkloadSpec) -> AtomResult<Self> {
        let zipf = match &spec.pattern {
            TrafficPattern::ZipfMicroblog { users, exponent } => {
                if *users == 0 {
                    return Err(AtomError::Config(
                        "a Zipf microblog workload needs at least one user".into(),
                    ));
                }
                Some(Zipf::new(*users, *exponent))
            }
            TrafficPattern::Dialing { users } => {
                if *users == 0 {
                    return Err(AtomError::Config(
                        "a dialing workload needs at least one user".into(),
                    ));
                }
                None
            }
        };
        Ok(Self { setup, spec, zipf })
    }

    /// The one walk down submission `index`'s [`index_rng`]: the entry
    /// group (the first draw), the RNG right after that draw, which the
    /// builder encrypts with, and the payload text, drawn from a clone of
    /// that RNG so the pattern's draws never shift the encryption
    /// randomness.
    fn draw(&self, index: usize) -> (usize, StdRng, String) {
        let mut rng = index_rng(self.spec.seed, index as u64);
        let gid = (rng.next_u64() % self.setup.config.num_groups as u64) as usize;
        let mut text_rng = rng.clone();
        let text = match &self.spec.pattern {
            TrafficPattern::ZipfMicroblog { .. } => {
                let author = self
                    .zipf
                    .as_ref()
                    .expect("zipf sampler exists for microblog patterns")
                    .sample(unit_f64(text_rng.next_u64()));
                format!("u{author} p{index}")
            }
            TrafficPattern::Dialing { users } => {
                let caller = text_rng.next_u64() % *users as u64;
                let callee = text_rng.next_u64() % *users as u64;
                format!("dial {caller}>{callee} #{index}")
            }
        };
        (gid, rng, text)
    }

    /// The payload text of submission `index` — pattern-shaped, and short
    /// enough for any test-sized `message_len`.
    pub fn text_at(&self, index: usize) -> String {
        self.draw(index).2
    }

    /// Materializes the whole stream as engine-ready submissions — the
    /// equivalence baseline the streaming path is byte-compared against.
    /// It runs one contiguous index range per core (never more ranges than
    /// submissions; the caller's thread takes the first) and joins the
    /// blocks in index order. The output cannot depend on the split, since
    /// `generate(a..b) ++ generate(b..c)` is `generate(a..c)`, and the first
    /// error in that order is the lowest failing index's, as serially.
    pub fn materialize(&self) -> AtomResult<RoundSubmissions> {
        let total = self.spec.submissions;
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        let ranges = cores.min(total).max(1); // an empty stream: one empty range
        let range = |r: usize| (r * total / ranges, (r + 1) * total / ranges);
        thread::scope(|scope| {
            let rest: Vec<_> = (1..ranges)
                .map(|r| scope.spawn(move || self.generate(range(r))))
                .collect();
            let first = self.generate(range(0));
            let rest = rest
                .into_iter()
                .map(|handle| handle.join().expect("generator panicked"));
            let (mut nizk, mut trap) = (Vec::new(), Vec::new());
            for block in std::iter::once(first).chain(rest) {
                match block? {
                    SubmissionBlock::Nizk(part) => nizk.extend(part),
                    SubmissionBlock::Trap(part) => trap.extend(part),
                }
            }
            Ok(match self.spec.defense {
                Defense::Nizk => RoundSubmissions::Nizk(nizk),
                Defense::Trap => RoundSubmissions::Trap(trap),
            })
        })
    }

    /// Submission `index` built for the wire: the [`ClientSubmission`] a
    /// real client at that index would send the ingress tier.
    /// [`generate`](SubmissionSource::generate) collects the same
    /// submissions, so the socket path and the materialized path carry
    /// byte-identical submissions by construction.
    fn submission_at(&self, index: usize) -> AtomResult<ClientSubmission> {
        let (gid, mut rng, text) = self.draw(index);
        let (config, key) = (&self.setup.config, &self.setup.groups[gid].public_key);
        Ok(match self.spec.defense {
            Defense::Nizk => ClientSubmission::Nizk(
                make_nizk_submission(gid, key, text.as_bytes(), config.message_len, &mut rng)?.0,
            ),
            Defense::Trap => ClientSubmission::Trap(
                make_trap_submission(
                    gid,
                    key,
                    &self.setup.trustees.public_key,
                    config.round,
                    text.as_bytes(),
                    config.message_len,
                    &mut rng,
                )?
                .0,
            ),
        })
    }
}

impl SubmissionSource for WorkloadSource {
    fn total(&self) -> usize {
        self.spec.submissions
    }

    fn defense(&self) -> Defense {
        self.spec.defense
    }

    fn generate(&self, (start, end): (usize, usize)) -> AtomResult<SubmissionBlock> {
        let (mut nizk, mut trap) = (Vec::new(), Vec::new());
        for index in start..end {
            match self.submission_at(index)? {
                ClientSubmission::Nizk(submission) => nizk.push(submission),
                ClientSubmission::Trap(submission) => trap.push(submission),
            }
        }
        Ok(match self.spec.defense {
            Defense::Nizk => SubmissionBlock::Nizk(nizk),
            Defense::Trap => SubmissionBlock::Trap(trap),
        })
    }
}

#[cfg(test)]
impl Zipf {
    /// The probability mass of `rank`.
    fn share(&self, rank: usize) -> f64 {
        let below = if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
        self.cdf[rank] - below
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atom_core::config::AtomConfig;
    use atom_core::directory::derive_setup;
    use atom_runtime::wire::{self, SubmitFrame};

    fn test_setup(defense: Defense, groups: usize, seed: u64) -> Arc<RoundSetup> {
        let mut config = AtomConfig::test_default();
        config.defense = defense;
        config.num_groups = groups;
        config.num_servers = (groups * 2).max(config.group_size);
        config.iterations = 2;
        config.message_len = 32;
        config.beacon_seed = seed;
        Arc::new(derive_setup(&config).unwrap())
    }

    fn microblog_source(defense: Defense, submissions: usize, seed: u64) -> WorkloadSource {
        WorkloadSource::new(
            test_setup(defense, 3, seed ^ 0xD1),
            WorkloadSpec {
                pattern: TrafficPattern::ZipfMicroblog {
                    users: 100,
                    exponent: 1.1,
                },
                defense,
                submissions,
                seed,
            },
        )
        .unwrap()
    }

    #[test]
    fn fixed_seed_means_identical_stream_across_runs() {
        let a = microblog_source(Defense::Nizk, 12, 0x5EED);
        let b = microblog_source(Defense::Nizk, 12, 0x5EED);
        let (SubmissionBlock::Nizk(left), SubmissionBlock::Nizk(right)) =
            (a.generate((0, 12)).unwrap(), b.generate((0, 12)).unwrap())
        else {
            panic!("nizk spec must yield nizk blocks");
        };
        assert_eq!(left, right);

        // A different seed must not reproduce the stream.
        let c = microblog_source(Defense::Nizk, 12, 0x5EEE);
        let SubmissionBlock::Nizk(other) = c.generate((0, 12)).unwrap() else {
            panic!("nizk spec must yield nizk blocks");
        };
        assert_ne!(left, other);
    }

    #[test]
    fn stream_is_identical_across_window_sizes() {
        // generate(0..n) must equal the concatenation of any partition of
        // 0..n — the property the engine's windowed intake stands on.
        let source = microblog_source(Defense::Trap, 13, 0xA11);
        let SubmissionBlock::Trap(whole) = source.generate((0, 13)).unwrap() else {
            panic!("trap spec must yield trap blocks");
        };
        for cuts in [
            vec![0, 13],
            vec![0, 1, 13],
            vec![0, 4, 8, 13],
            vec![0, 5, 5, 13],
        ] {
            let mut stitched = Vec::new();
            for pair in cuts.windows(2) {
                let SubmissionBlock::Trap(part) = source.generate((pair[0], pair[1])).unwrap()
                else {
                    panic!("trap spec must yield trap blocks");
                };
                stitched.extend(part);
            }
            assert_eq!(stitched, whole, "partition {cuts:?}");
        }
    }

    fn source_on(
        setup: &Arc<RoundSetup>,
        pattern: TrafficPattern,
        submissions: usize,
    ) -> WorkloadSource {
        let spec = WorkloadSpec {
            pattern,
            defense: setup.config.defense,
            submissions,
            seed: 0x5B117,
        };
        WorkloadSource::new(setup.clone(), spec).unwrap()
    }

    fn client_submissions(round: RoundSubmissions) -> Vec<ClientSubmission> {
        match round {
            RoundSubmissions::Nizk(subs) => subs.into_iter().map(ClientSubmission::Nizk).collect(),
            RoundSubmissions::Trap(subs) => subs.into_iter().map(ClientSubmission::Trap).collect(),
            RoundSubmissions::Stream(_) => panic!("materialize never streams"),
        }
    }

    #[test]
    fn materialize_matches_submission_at_whatever_the_split() {
        // Sizes cover an empty stream, fewer submissions than cores, and
        // ranges with odd remainders.
        for defense in [Defense::Nizk, Defense::Trap] {
            let setup = test_setup(defense, 3, 0x5B1);
            for pattern in [
                TrafficPattern::ZipfMicroblog {
                    users: 100,
                    exponent: 1.1,
                },
                TrafficPattern::Dialing { users: 50 },
            ] {
                for n in [0, 1, 2, 3, 7, 129] {
                    let source = source_on(&setup, pattern.clone(), n);
                    let whole = client_submissions(source.materialize().unwrap());
                    assert_eq!(whole.len(), n, "{defense:?} {pattern:?}");
                    for (index, submission) in whole.iter().enumerate() {
                        assert_eq!(
                            submission,
                            &source.submission_at(index).unwrap(),
                            "{defense:?} {pattern:?} n = {n}: index {index} diverged"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn materialize_reports_a_later_ranges_error_like_the_serial_pass() {
        // Ten single-digit authors: `u{author} p{index}` is 7 bytes from
        // index 100 on, too long for 6 — so the first failure lies past
        // the first of two or more ranges.
        let mut setup = (*test_setup(Defense::Trap, 3, 0xE44)).clone();
        setup.config.message_len = 6;
        let pattern = TrafficPattern::ZipfMicroblog {
            users: 10,
            exponent: 1.1,
        };
        let source = source_on(&Arc::new(setup), pattern, 129);
        let serial = source.generate((0, 129)).map(|_| ()).unwrap_err();
        let parallel = source.materialize().map(|_| ()).unwrap_err();
        assert_eq!(parallel, serial);
        assert!(serial.to_string().contains("7 bytes"), "{serial}");
    }

    #[test]
    fn zipf_rank_one_share_is_within_tolerance() {
        let zipf = Zipf::new(50, 1.0);
        let samples = 20_000usize;
        let mut rank_one = 0usize;
        for i in 0..samples {
            if zipf.sample(unit_f64(splitmix64(0xBEEF ^ i as u64))) == 0 {
                rank_one += 1;
            }
        }
        let expected = zipf.share(0);
        let observed = rank_one as f64 / samples as f64;
        assert!(
            (observed - expected).abs() < 0.15 * expected,
            "rank-1 share {observed:.4} strays from the law's {expected:.4}"
        );
    }

    #[test]
    fn zipf_bucket_counts_decrease_monotonically() {
        // Bucket the empirical counts of rank decades: a Zipf law's decade
        // masses must be non-increasing.
        let zipf = Zipf::new(100, 1.1);
        let mut buckets = [0usize; 10];
        for i in 0..50_000u64 {
            buckets[zipf.sample(unit_f64(splitmix64(0xCAFE ^ i))) / 10] += 1;
        }
        for pair in buckets.windows(2) {
            assert!(
                pair[0] >= pair[1],
                "bucket counts must be monotone, got {buckets:?}"
            );
        }
        assert!(buckets[0] > buckets[9] * 5, "no fan-in skew: {buckets:?}");
    }

    #[test]
    fn wire_submissions_match_the_materialized_stream_exactly() {
        // submission_at (what a socket client sends) and generate (what
        // the materialized baseline holds) must agree byte-for-byte, and
        // the wire payload must decode back to the same submission.
        let source = microblog_source(Defense::Nizk, 6, 0x1236);
        let SubmissionBlock::Nizk(block) = source.generate((0, 6)).unwrap() else {
            panic!("nizk spec must yield nizk blocks");
        };
        for (index, expected) in block.iter().enumerate() {
            let ClientSubmission::Nizk(wire_side) = source.submission_at(index).unwrap() else {
                panic!("nizk spec must yield nizk submissions");
            };
            assert_eq!(&wire_side, expected, "index {index} diverged");

            let payload = wire::encode_submit(&SubmitFrame {
                round: 3,
                client: index as u64,
                app: 9,
                submission: source.submission_at(index).unwrap(),
            });
            let wire::Frame::Submit(frame) = wire::decode(&payload).unwrap() else {
                panic!("submit payload must decode as a submit frame");
            };
            assert_eq!(frame.round, 3);
            assert_eq!(frame.client, index as u64);
            assert_eq!(frame.app, 9);
            let ClientSubmission::Nizk(decoded) = frame.submission else {
                panic!("nizk payload must decode as a nizk submission");
            };
            assert_eq!(&decoded, expected, "index {index} corrupted on the wire");
        }

        let trap = microblog_source(Defense::Trap, 2, 0x1236);
        assert!(matches!(
            trap.submission_at(0).unwrap(),
            ClientSubmission::Trap(_)
        ));
    }

    #[test]
    fn mixed_deployments_generate_both_variants() {
        let trap = microblog_source(Defense::Trap, 3, 0x77);
        let nizk = microblog_source(Defense::Nizk, 3, 0x77);
        assert!(matches!(
            trap.generate((0, 3)).unwrap(),
            SubmissionBlock::Trap(_)
        ));
        assert!(matches!(
            nizk.generate((0, 3)).unwrap(),
            SubmissionBlock::Nizk(_)
        ));
        // Same seed, same pattern: the payload *texts* agree across
        // variants even though the ciphertexts differ.
        assert_eq!(trap.text_at(2), nizk.text_at(2));
    }
}
