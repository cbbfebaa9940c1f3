//! A dialing protocol on top of Atom (§5), in the style of Vuvuzela and
//! Alpenhorn.
//!
//! To "dial" Bob, Alice encrypts her public key to Bob's public key and sends
//! the resulting request through the Atom network addressed to Bob's mailbox
//! (`mailbox = H(Bob's identity) mod m`). The exit servers sort the
//! anonymized requests into mailboxes; Bob downloads his mailbox, tries to
//! decrypt every request, and establishes a shared secret with every caller
//! he recognizes. To hide how many calls a user receives, one anytrust group
//! (the trustees in the trap variant) injects a differentially-private number
//! of dummy requests into every mailbox (the Vuvuzela mechanism, ref. \[72\] in the paper).
//! [`make_dial_submission`] and [`make_dummy_submissions`] encrypt to a
//! round's directory, the round runs on `atom_runtime::Engine`, and
//! [`Mailboxes::from_round`] reads its output.

use rand::{CryptoRng, Rng, RngCore};
use serde::{Deserialize, Serialize};

use atom_core::config::Defense;
use atom_core::directory::RoundSetup;
use atom_core::error::{AtomError, AtomResult};
use atom_core::message::{make_trap_submission, TrapSubmission};
use atom_core::round::RoundOutput;
use atom_crypto::cca2;
use atom_crypto::elgamal::{KeyPair, PublicKey};
use atom_crypto::keccak::sha3_256;

/// The dialing message size used by the paper's prototype ("the simpler
/// 80 byte message dialing scheme").
pub const PAPER_DIAL_LEN: usize = 96;

/// Associated data binding dial requests to their purpose.
const DIAL_AAD: &[u8] = b"atom-dial-v1";

/// A user identity in the dialing system: a long-term keypair.
#[derive(Clone, Debug)]
pub struct DialIdentity {
    /// The long-term keypair.
    pub keys: KeyPair,
}

impl DialIdentity {
    /// Creates a fresh identity.
    pub fn generate<R: RngCore + CryptoRng>(rng: &mut R) -> Self {
        Self {
            keys: KeyPair::generate(rng),
        }
    }

    /// The mailbox this identity listens on, out of `mailboxes`.
    pub fn mailbox(&self, mailboxes: usize) -> usize {
        mailbox_for(&self.keys.public, mailboxes)
    }
}

/// The mailbox assignment function: `H(identity) mod m`.
pub fn mailbox_for(identity: &PublicKey, mailboxes: usize) -> usize {
    let digest = sha3_256(&identity.to_bytes());
    let mut value = 0u64;
    for &byte in &digest[..8] {
        value = (value << 8) | byte as u64;
    }
    (value % mailboxes.max(1) as u64) as usize
}

/// The plaintext of a dial request as routed through Atom:
/// `mailbox (2 bytes LE) ‖ sealed caller key`.
fn encode_dial_request(mailbox: usize, sealed: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + sealed.len());
    out.extend_from_slice(&(mailbox as u16).to_le_bytes());
    out.extend_from_slice(sealed);
    out
}

fn decode_dial_request(bytes: &[u8]) -> Option<(usize, Vec<u8>)> {
    if bytes.len() < 2 {
        return None;
    }
    let mailbox = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
    // Strip the zero padding Atom added; the sealed blob length is fixed.
    Some((mailbox, bytes[2..].to_vec()))
}

/// Builds the Atom submission for dialing `callee` from `caller`.
pub fn make_dial_submission<R: RngCore + CryptoRng>(
    setup: &RoundSetup,
    caller: &DialIdentity,
    callee: &PublicKey,
    mailboxes: usize,
    entry_group: usize,
    rng: &mut R,
) -> AtomResult<TrapSubmission> {
    let config = &setup.config;
    if config.defense != Defense::Trap {
        return Err(AtomError::Config(
            "the dialing application uses the trap variant".into(),
        ));
    }
    let mailbox = mailbox_for(callee, mailboxes);
    let sealed = cca2::encrypt(callee, DIAL_AAD, &caller.keys.public.to_bytes(), rng).to_bytes();
    let request = encode_dial_request(mailbox, &sealed);
    if request.len() > config.message_len {
        return Err(AtomError::Config(format!(
            "dial request of {} bytes exceeds the configured message length {}",
            request.len(),
            config.message_len
        )));
    }
    let (submission, _) = make_trap_submission(
        entry_group,
        &setup.groups[entry_group].public_key,
        &setup.trustees.public_key,
        config.round,
        &request,
        config.message_len,
        rng,
    )?;
    Ok(submission)
}

/// Samples the number of dummy dial requests an anytrust group adds to each
/// mailbox: `max(0, mu + Laplace(scale))`, the Vuvuzela mechanism.
pub fn dummy_count<R: RngCore + CryptoRng>(mu: f64, scale: f64, rng: &mut R) -> usize {
    let uniform: f64 = rng.gen_range(-0.5..0.5);
    let laplace = -scale * uniform.signum() * (1.0 - 2.0 * uniform.abs()).ln();
    (mu + laplace).max(0.0).round() as usize
}

/// Generates `count` dummy dial submissions addressed to random mailboxes.
pub fn make_dummy_submissions<R: RngCore + CryptoRng>(
    setup: &RoundSetup,
    mailboxes: usize,
    count: usize,
    rng: &mut R,
) -> AtomResult<Vec<TrapSubmission>> {
    let config = &setup.config;
    let mut dummies = Vec::with_capacity(count);
    for _ in 0..count {
        let throwaway = DialIdentity::generate(rng);
        let target = DialIdentity::generate(rng);
        let entry_group = rng.gen_range(0..config.num_groups);
        dummies.push(make_dial_submission(
            setup,
            &throwaway,
            &target.keys.public,
            mailboxes,
            entry_group,
            rng,
        )?);
    }
    Ok(dummies)
}

/// The mailboxes produced by the exit servers after a dialing round.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Mailboxes {
    /// `boxes[m]` holds the sealed dial requests for mailbox `m`.
    pub boxes: Vec<Vec<Vec<u8>>>,
}

impl Mailboxes {
    /// Sorts a finished round's plaintexts into `mailboxes` mailboxes.
    pub fn from_round(output: &RoundOutput, mailboxes: usize) -> Self {
        let mut boxes = vec![Vec::new(); mailboxes];
        for plaintext in &output.plaintexts {
            if let Some((mailbox, sealed)) = decode_dial_request(plaintext) {
                if mailbox < mailboxes {
                    boxes[mailbox].push(sealed);
                }
            }
        }
        Self { boxes }
    }

    /// Total number of requests across all mailboxes (including dummies).
    pub fn total_requests(&self) -> usize {
        self.boxes.iter().map(Vec::len).sum()
    }

    /// Downloads and decrypts the mailbox of `identity`, returning the public
    /// keys of everyone who dialed it (dummies fail to decrypt and are
    /// skipped).
    pub fn check_mailbox(&self, identity: &DialIdentity) -> Vec<PublicKey> {
        let mailbox = identity.mailbox(self.boxes.len());
        let mut callers = Vec::new();
        for sealed in &self.boxes[mailbox] {
            // The sealed blob is zero-padded by Atom's fixed-length framing;
            // the true hybrid ciphertext length is 32 (KEM) + 32 (key) + 16
            // (tag) bytes.
            let true_len = 32 + 32 + 16;
            if sealed.len() < true_len {
                continue;
            }
            let Ok(ct) = cca2::HybridCiphertext::from_bytes(&sealed[..true_len]) else {
                continue;
            };
            let Ok(plaintext) =
                cca2::decrypt(&identity.keys.secret, &identity.keys.public, DIAL_AAD, &ct)
            else {
                continue;
            };
            if let Ok(caller) = PublicKey::from_bytes(&plaintext) {
                callers.push(caller);
            }
        }
        callers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atom_core::config::AtomConfig;
    use atom_core::directory::derive_setup;
    use atom_core::round::RoundDriver;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn driver() -> (StdRng, RoundDriver) {
        let mut config = AtomConfig::test_default();
        config.message_len = PAPER_DIAL_LEN;
        config.num_groups = 2;
        config.iterations = 2;
        let setup = derive_setup(&config).unwrap();
        (StdRng::seed_from_u64(314), RoundDriver::new(setup))
    }

    #[test]
    fn dialing_round_delivers_requests_to_the_right_mailbox() {
        let (mut rng, driver) = driver();
        let setup = driver.setup();
        let mailboxes = 8;
        let alice = DialIdentity::generate(&mut rng);
        let carol = DialIdentity::generate(&mut rng);
        let bob = DialIdentity::generate(&mut rng);

        let submissions = vec![
            make_dial_submission(setup, &alice, &bob.keys.public, mailboxes, 0, &mut rng).unwrap(),
            make_dial_submission(setup, &carol, &bob.keys.public, mailboxes, 1, &mut rng).unwrap(),
            // Unrelated call so Bob's mailbox is not the only busy one.
            make_dial_submission(setup, &bob, &alice.keys.public, mailboxes, 0, &mut rng).unwrap(),
        ];
        let output = driver.run_trap_round(&submissions, &mut rng).unwrap();
        let boxes = Mailboxes::from_round(&output, mailboxes);
        assert_eq!(boxes.total_requests(), 3);

        let bobs_callers = boxes.check_mailbox(&bob);
        assert_eq!(bobs_callers.len(), 2);
        assert!(bobs_callers.contains(&alice.keys.public));
        assert!(bobs_callers.contains(&carol.keys.public));
        assert!(!bobs_callers.contains(&bob.keys.public));

        let alices_callers = boxes.check_mailbox(&alice);
        assert_eq!(alices_callers, vec![bob.keys.public]);
    }

    #[test]
    fn dummies_hide_call_volume_but_do_not_decrypt() {
        let (mut rng, driver) = driver();
        let setup = driver.setup();
        let mailboxes = 4;
        let bob = DialIdentity::generate(&mut rng);
        let alice = DialIdentity::generate(&mut rng);

        let mut submissions =
            vec![
                make_dial_submission(setup, &alice, &bob.keys.public, mailboxes, 0, &mut rng)
                    .unwrap(),
            ];
        submissions.extend(make_dummy_submissions(setup, mailboxes, 5, &mut rng).unwrap());

        let output = driver.run_trap_round(&submissions, &mut rng).unwrap();
        let boxes = Mailboxes::from_round(&output, mailboxes);
        assert_eq!(boxes.total_requests(), 6);
        // Bob only recognizes Alice's call; dummies are indistinguishable
        // noise that fails decryption.
        assert_eq!(boxes.check_mailbox(&bob), vec![alice.keys.public]);
    }

    #[test]
    fn dummy_count_concentrates_around_mu() {
        let mut rng = StdRng::seed_from_u64(5);
        let samples: Vec<usize> = (0..200)
            .map(|_| dummy_count(100.0, 10.0, &mut rng))
            .collect();
        let mean = samples.iter().sum::<usize>() as f64 / samples.len() as f64;
        assert!((mean - 100.0).abs() < 15.0, "mean = {mean}");
        // Noise is actually present.
        assert!(samples.iter().any(|&s| s != samples[0]));
    }

    #[test]
    fn mailbox_assignment_is_stable_and_bounded() {
        let mut rng = StdRng::seed_from_u64(6);
        let identity = DialIdentity::generate(&mut rng);
        let m = identity.mailbox(16);
        assert!(m < 16);
        assert_eq!(m, identity.mailbox(16));
    }

    #[test]
    fn nizk_configuration_rejected_for_dialing() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut config = AtomConfig::test_default();
        config.defense = Defense::Nizk;
        config.message_len = PAPER_DIAL_LEN;
        let setup = derive_setup(&config).unwrap();
        let alice = DialIdentity::generate(&mut rng);
        let bob = DialIdentity::generate(&mut rng);
        assert!(make_dial_submission(&setup, &alice, &bob.keys.public, 4, 0, &mut rng).is_err());
    }
}
