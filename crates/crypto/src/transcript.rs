//! Fiat-Shamir transcript built on the SHAKE256 sponge.
//!
//! All non-interactive zero-knowledge proofs in this crate (EncProof,
//! ReEncProof, ShufProof) derive their challenges from a transcript that
//! absorbs a domain-separation label, the full public statement, and every
//! prover announcement in order. Binding the statement (including the entry
//! group id for EncProof) into the challenge is what makes the proofs
//! non-malleable across groups, as required by §3 and Appendix A.

use curve25519_dalek::ristretto::RistrettoPoint;
use curve25519_dalek::scalar::Scalar;

use crate::elgamal::MessageCiphertext;
use crate::keccak::Shake256;

/// A Fiat-Shamir transcript.
///
/// Each absorbed item is framed as `len(label) || label || len(data) || data`
/// so that distinct sequences of appends can never collide.
#[derive(Clone)]
pub(crate) struct Transcript {
    xof: Shake256,
}

impl Transcript {
    /// Creates a transcript with a protocol-level domain separation label.
    pub(crate) fn new(domain: &'static [u8]) -> Self {
        let mut xof = Shake256::new();
        xof.absorb(b"atom-transcript-v1");
        let mut t = Self { xof };
        t.append_bytes(b"domain", domain);
        t
    }

    /// Absorbs an item's frame: the label and the length of what follows.
    fn frame(&mut self, label: &'static [u8], len: usize) {
        self.xof.absorb(&(label.len() as u64).to_le_bytes());
        self.xof.absorb(label);
        self.xof.absorb(&(len as u64).to_le_bytes());
    }

    /// Appends a labelled byte string.
    pub(crate) fn append_bytes(&mut self, label: &'static [u8], data: &[u8]) {
        self.frame(label, data.len());
        self.xof.absorb(data);
    }

    /// Appends a labelled u64.
    pub(crate) fn append_u64(&mut self, label: &'static [u8], value: u64) {
        self.append_bytes(label, &value.to_le_bytes());
    }

    /// Appends a labelled group element.
    pub(crate) fn append_point(&mut self, label: &'static [u8], point: &RistrettoPoint) {
        self.append_bytes(label, point.compress().as_bytes());
    }

    /// Appends a labelled scalar.
    pub(crate) fn append_scalar(&mut self, label: &'static [u8], scalar: &Scalar) {
        self.append_bytes(label, scalar.as_bytes());
    }

    /// Appends a labelled scalar vector as one framed item.
    pub(crate) fn append_scalars(&mut self, label: &'static [u8], scalars: &[Scalar]) {
        self.frame(label, 32 * scalars.len());
        for scalar in scalars {
            self.xof.absorb(scalar.as_bytes());
        }
    }

    /// Appends a whole message ciphertext as one framed item: every
    /// component's `R`, `c` and a presence byte followed by `Y` when there
    /// is one. `buf` is scratch space reused across calls.
    pub(crate) fn append_message(
        &mut self,
        label: &'static [u8],
        message: &MessageCiphertext,
        buf: &mut Vec<u8>,
    ) {
        buf.clear();
        for ct in &message.components {
            buf.extend_from_slice(ct.r.compress().as_bytes());
            buf.extend_from_slice(ct.c.compress().as_bytes());
            match &ct.y {
                Some(y) => {
                    buf.push(1);
                    buf.extend_from_slice(y.compress().as_bytes());
                }
                None => buf.push(0),
            }
        }
        self.append_bytes(label, buf);
    }

    /// Derives a challenge scalar. The transcript state advances, so repeated
    /// calls yield independent challenges.
    pub(crate) fn challenge_scalar(&mut self, label: &'static [u8]) -> Scalar {
        let mut wide = [0u8; 64];
        self.challenge_bytes(label, &mut wide);
        Scalar::from_bytes_mod_order_wide(&wide)
    }

    /// Derives challenge bytes. The transcript state advances. At most 255
    /// bytes per call: the consumed-length marker is a single byte (part of
    /// every existing proof's transcript, so it stays one), and a longer
    /// request would wrap it.
    pub(crate) fn challenge_bytes(&mut self, label: &'static [u8], out: &mut [u8]) {
        let consumed = u8::try_from(out.len()).expect("challenge_bytes: at most 255 bytes a call");
        // Fork the sponge for output, then fold a commitment to this
        // challenge back into the main transcript so later challenges depend
        // on earlier ones.
        self.append_bytes(b"challenge-label", label);
        let mut fork = self.xof.clone();
        fork.squeeze(out);
        self.append_bytes(b"challenge-consumed", &[consumed]);
    }

    /// Derives `n` 128-bit random-linear-combination coefficients from one
    /// fork of the sponge: one squeeze stream instead of a fork, two
    /// framed appends and a fresh permutation per coefficient. The label and
    /// the count are absorbed before the fork, so the transcript state
    /// advances and requests of different lengths leave different states.
    pub(crate) fn challenge_coefficients(&mut self, label: &'static [u8], n: usize) -> Vec<Scalar> {
        self.append_bytes(b"coefficients-label", label);
        self.append_u64(b"coefficients-count", n as u64);
        let mut fork = self.xof.clone();
        (0..n)
            .map(|_| {
                let mut bytes = [0u8; 16];
                fork.squeeze(&mut bytes);
                Scalar::from(u128::from_le_bytes(bytes))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use curve25519_dalek::constants::RISTRETTO_BASEPOINT_POINT;

    #[test]
    fn deterministic_for_same_inputs() {
        let mut a = Transcript::new(b"test");
        let mut b = Transcript::new(b"test");
        a.append_u64(b"x", 7);
        b.append_u64(b"x", 7);
        assert_eq!(a.challenge_scalar(b"c"), b.challenge_scalar(b"c"));
    }

    #[test]
    fn different_domains_differ() {
        let mut a = Transcript::new(b"test-a");
        let mut b = Transcript::new(b"test-b");
        assert_ne!(a.challenge_scalar(b"c"), b.challenge_scalar(b"c"));
    }

    #[test]
    fn different_appended_data_differ() {
        let mut a = Transcript::new(b"test");
        let mut b = Transcript::new(b"test");
        a.append_u64(b"x", 7);
        b.append_u64(b"x", 8);
        assert_ne!(a.challenge_scalar(b"c"), b.challenge_scalar(b"c"));
    }

    #[test]
    fn framing_prevents_concatenation_collision() {
        let mut a = Transcript::new(b"test");
        let mut b = Transcript::new(b"test");
        a.append_bytes(b"x", b"ab");
        a.append_bytes(b"y", b"c");
        b.append_bytes(b"x", b"a");
        b.append_bytes(b"y", b"bc");
        assert_ne!(a.challenge_scalar(b"c"), b.challenge_scalar(b"c"));
    }

    #[test]
    fn sequential_challenges_differ_and_depend_on_history() {
        let mut a = Transcript::new(b"test");
        let c1 = a.challenge_scalar(b"c");
        let c2 = a.challenge_scalar(b"c");
        assert_ne!(c1, c2);

        // A transcript that diverges after the first challenge produces a
        // different second challenge.
        let mut b = Transcript::new(b"test");
        let d1 = b.challenge_scalar(b"c");
        assert_eq!(c1, d1);
        b.append_point(b"p", &RISTRETTO_BASEPOINT_POINT);
        assert_ne!(a.challenge_scalar(b"c"), b.challenge_scalar(b"c"));
    }

    #[test]
    fn coefficient_stream_binds_its_length_and_advances_the_transcript() {
        let mut a = Transcript::new(b"test");
        let mut b = a.clone();
        let short = a.challenge_coefficients(b"rho", 16);
        let long = b.challenge_coefficients(b"rho", 272);
        assert_eq!(short.len(), 16);
        assert_eq!(long.len(), 272);
        // 128-bit values, pairwise distinct, and the count is part of what
        // is hashed: neither the streams nor the states left behind agree.
        assert!(long.iter().all(|rho| rho.as_bytes()[16..] == [0u8; 16]));
        let distinct: std::collections::HashSet<_> = long.iter().collect();
        assert_eq!(distinct.len(), long.len());
        assert_ne!(short[..], long[..16]);
        assert_ne!(a.challenge_scalar(b"c"), b.challenge_scalar(b"c"));

        // Same request on the same history is deterministic, and a second
        // request depends on the first having been made.
        let mut c = Transcript::new(b"test");
        let mut d = Transcript::new(b"test");
        assert_eq!(c.challenge_coefficients(b"rho", 16), short);
        assert_ne!(c.challenge_coefficients(b"rho", 16), short);
        assert_ne!(d.challenge_coefficients(b"other", 16), short);
    }

    #[test]
    fn challenge_bytes_keeps_its_one_byte_length_marker_below_256() {
        // The largest request the one-byte marker can record still works...
        let mut a = Transcript::new(b"test");
        let mut out = [0u8; 255];
        a.challenge_bytes(b"c", &mut out);
        // ...and leaves a different state than a 16-byte request does.
        let mut b = Transcript::new(b"test");
        b.challenge_bytes(b"c", &mut [0u8; 16]);
        assert_ne!(a.challenge_scalar(b"next"), b.challenge_scalar(b"next"));
    }

    #[test]
    #[should_panic(expected = "at most 255 bytes")]
    fn challenge_bytes_refuses_a_length_its_marker_would_wrap() {
        Transcript::new(b"test").challenge_bytes(b"c", &mut [0u8; 272]);
    }
}
