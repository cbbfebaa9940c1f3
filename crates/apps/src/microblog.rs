//! Anonymous microblogging on top of Atom (§5).
//!
//! Users broadcast short fixed-length posts (160 bytes in the paper's
//! evaluation, Twitter-style); the exit groups publish the anonymized
//! plaintexts to a public bulletin board that anyone can read.
//! [`prepare_posts`] encrypts the posts to a round's directory, the round
//! runs on `atom_runtime::Engine`, and [`BulletinBoard::publish`] reads its
//! output.

use rand::{CryptoRng, RngCore};
use serde::{Deserialize, Serialize};

use atom_core::config::Defense;
use atom_core::directory::RoundSetup;
use atom_core::error::{AtomError, AtomResult};
use atom_core::message::{
    make_nizk_submission, make_trap_submission, NizkSubmission, SubmissionReceipt, TrapSubmission,
};
use atom_core::round::RoundOutput;

/// The fixed post length used in the paper's microblogging evaluation.
pub const PAPER_POST_LEN: usize = 160;

/// A published post on the bulletin board.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Post {
    /// The exit group that published the post.
    pub published_by: usize,
    /// The post text (padding stripped).
    pub text: String,
}

/// The public bulletin board the exit servers write to.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BulletinBoard {
    /// All posts published this round.
    pub posts: Vec<Post>,
}

impl BulletinBoard {
    /// Builds the board from a finished round: every exit-group plaintext
    /// becomes one post, with zero padding stripped and non-UTF-8 posts
    /// replaced lossily.
    pub fn publish(output: &RoundOutput) -> Self {
        let mut posts = Vec::new();
        for (group, messages) in output.per_group.iter().enumerate() {
            for message in messages {
                let unpadded: Vec<u8> = message
                    .iter()
                    .copied()
                    .take_while(|&byte| byte != 0)
                    .collect();
                posts.push(Post {
                    published_by: group,
                    text: String::from_utf8_lossy(&unpadded).into_owned(),
                });
            }
        }
        Self { posts }
    }

    /// Posts containing `needle`, for simple reader-side search.
    pub fn search(&self, needle: &str) -> Vec<&Post> {
        self.posts
            .iter()
            .filter(|p| p.text.contains(needle))
            .collect()
    }

    /// Number of posts on the board.
    pub fn len(&self) -> usize {
        self.posts.len()
    }

    /// True if nothing was published.
    pub fn is_empty(&self) -> bool {
        self.posts.is_empty()
    }
}

/// A batch of microblogging submissions together with the users' receipts.
pub struct MicroblogBatch {
    /// NIZK-variant submissions (if that defence is configured).
    pub nizk: Vec<NizkSubmission>,
    /// Trap-variant submissions (if that defence is configured).
    pub trap: Vec<TrapSubmission>,
    /// Per-user receipts (same order as the posts given).
    pub receipts: Vec<SubmissionReceipt>,
}

/// Encrypts a set of user posts for a round, assigning users to entry groups
/// round-robin (an untrusted load balancer in the paper, §3).
pub fn prepare_posts<R: RngCore + CryptoRng>(
    setup: &RoundSetup,
    posts: &[&str],
    rng: &mut R,
) -> AtomResult<MicroblogBatch> {
    let config = &setup.config;
    let mut batch = MicroblogBatch {
        nizk: Vec::new(),
        trap: Vec::new(),
        receipts: Vec::new(),
    };
    for (index, post) in posts.iter().enumerate() {
        let bytes = post.as_bytes();
        if bytes.len() > config.message_len {
            return Err(AtomError::Malformed(format!(
                "post {index} exceeds the {}-byte limit",
                config.message_len
            )));
        }
        let gid = index % config.num_groups;
        match config.defense {
            Defense::Nizk => {
                let (submission, receipt) = make_nizk_submission(
                    gid,
                    &setup.groups[gid].public_key,
                    bytes,
                    config.message_len,
                    rng,
                )?;
                batch.nizk.push(submission);
                batch.receipts.push(receipt);
            }
            Defense::Trap => {
                let (submission, receipt) = make_trap_submission(
                    gid,
                    &setup.groups[gid].public_key,
                    &setup.trustees.public_key,
                    config.round,
                    bytes,
                    config.message_len,
                    rng,
                )?;
                batch.trap.push(submission);
                batch.receipts.push(receipt);
            }
        }
    }
    Ok(batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atom_core::config::AtomConfig;
    use atom_core::directory::derive_setup;
    use atom_core::round::RoundDriver;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Prepares the posts, runs the round on the sequential driver and
    /// publishes the board.
    fn run_microblog(
        driver: &RoundDriver,
        posts: &[&str],
        rng: &mut StdRng,
    ) -> AtomResult<(BulletinBoard, RoundOutput)> {
        let batch = prepare_posts(driver.setup(), posts, rng)?;
        let output = match driver.setup().config.defense {
            Defense::Nizk => driver.run_nizk_round(&batch.nizk, rng)?,
            Defense::Trap => driver.run_trap_round(&batch.trap, rng)?,
        };
        Ok((BulletinBoard::publish(&output), output))
    }

    fn driver(defense: Defense) -> (StdRng, RoundDriver) {
        let mut config = AtomConfig::test_default();
        config.defense = defense;
        config.message_len = 48;
        config.num_groups = 3;
        config.iterations = 2;
        let setup = derive_setup(&config).unwrap();
        (StdRng::seed_from_u64(99), RoundDriver::new(setup))
    }

    #[test]
    fn trap_variant_microblogging_publishes_all_posts() {
        let (mut rng, driver) = driver(Defense::Trap);
        let posts = [
            "rally at dawn",
            "bring water",
            "stay peaceful",
            "tell everyone",
        ];
        let (board, output) = run_microblog(&driver, &posts, &mut rng).unwrap();
        assert_eq!(board.len(), posts.len());
        assert_eq!(output.plaintexts.len(), posts.len());
        let mut texts: Vec<&str> = board.posts.iter().map(|p| p.text.as_str()).collect();
        texts.sort_unstable();
        let mut expected = posts.to_vec();
        expected.sort_unstable();
        assert_eq!(texts, expected);
        assert_eq!(board.search("water").len(), 1);
    }

    #[test]
    fn nizk_variant_microblogging_publishes_all_posts() {
        let (mut rng, driver) = driver(Defense::Nizk);
        let posts = ["one", "two", "three"];
        let (board, _) = run_microblog(&driver, &posts, &mut rng).unwrap();
        assert_eq!(board.len(), 3);
        assert!(!board.is_empty());
    }

    #[test]
    fn oversized_post_rejected() {
        let (mut rng, driver) = driver(Defense::Trap);
        let long = "x".repeat(100);
        assert!(run_microblog(&driver, &[long.as_str()], &mut rng).is_err());
    }
}
