//! Embedding byte messages into Ristretto group elements and back.
//!
//! Atom's rerandomizable ElGamal operates on group elements, so plaintext
//! bytes must be embedded into curve points before encryption and recovered
//! after decryption (the paper embeds 32 bytes per NIST P-256 point; here we
//! embed `PAYLOAD_PER_POINT` bytes per point).
//!
//! The embedding writes the canonical 32-byte encoding directly: the payload
//! in the low bytes and `len + 1` in the top byte. This is the one file that
//! relies on a property of the stand-in group (see the vendored
//! `curve25519-dalek/src/lib.rs` header): every little-endian integer in
//! `[1, (p − 1) / 2]` is the encoding of an element, and a top byte of at
//! most 32 keeps the value below `2^253.05`, inside that range; the marker
//! is never zero, so neither is the value. Under real Ristretto this file is
//! replaced by an Elligator-inverse embedding.

use curve25519_dalek::ristretto::{CompressedRistretto, RistrettoPoint};

use crate::error::{CryptoError, CryptoResult};

/// Number of message payload bytes carried by a single group element.
const PAYLOAD_PER_POINT: usize = 31;

/// Byte offset of the marker `len + 1`, the encoding's most significant byte.
const MARKER: usize = 31;

/// Returns the number of points needed to carry `len` payload bytes.
///
/// A zero-length message still occupies one point so that every message in a
/// batch has the same shape after fixed-length padding.
pub fn points_needed(len: usize) -> usize {
    if len == 0 {
        1
    } else {
        len.div_ceil(PAYLOAD_PER_POINT)
    }
}

/// Embeds a chunk of at most [`PAYLOAD_PER_POINT`] bytes into a point.
fn encode_chunk(chunk: &[u8]) -> CryptoResult<RistrettoPoint> {
    if chunk.len() > PAYLOAD_PER_POINT {
        return Err(CryptoError::EncodingFailed(format!(
            "chunk of {} bytes exceeds {} bytes per point",
            chunk.len(),
            PAYLOAD_PER_POINT
        )));
    }
    let mut bytes = [0u8; 32];
    bytes[..chunk.len()].copy_from_slice(chunk);
    bytes[MARKER] = chunk.len() as u8 + 1;
    Ok(CompressedRistretto(bytes)
        .decompress()
        .expect("a top byte in 1..=32 keeps the value in [1, (p - 1) / 2]"))
}

/// Recovers the payload bytes embedded in a point by [`encode_chunk`].
fn decode_chunk(point: &RistrettoPoint) -> CryptoResult<Vec<u8>> {
    let bytes = point.compress().to_bytes();
    let marker = bytes[MARKER] as usize;
    if marker == 0 || marker > PAYLOAD_PER_POINT + 1 {
        return Err(CryptoError::DecodingFailed(format!(
            "marker byte {marker} is not a chunk length plus one"
        )));
    }
    Ok(bytes[..marker - 1].to_vec())
}

/// Embeds an arbitrary byte message into a vector of points.
pub fn encode_message(message: &[u8]) -> CryptoResult<Vec<RistrettoPoint>> {
    if message.is_empty() {
        return Ok(vec![encode_chunk(&[])?]);
    }
    message
        .chunks(PAYLOAD_PER_POINT)
        .map(encode_chunk)
        .collect()
}

/// Recovers a byte message from a vector of points produced by
/// [`encode_message`].
pub fn decode_message(points: &[RistrettoPoint]) -> CryptoResult<Vec<u8>> {
    let mut out = Vec::with_capacity(points.len() * PAYLOAD_PER_POINT);
    for point in points {
        out.extend(decode_chunk(point)?);
    }
    Ok(out)
}

/// Pads `message` with zero bytes up to `target_len` and embeds it.
///
/// All Atom users in a round pad their plaintext to a fixed length (§2), so
/// every ciphertext in a batch consists of the same number of points.
pub fn encode_message_padded(
    message: &[u8],
    target_len: usize,
) -> CryptoResult<Vec<RistrettoPoint>> {
    if message.len() > target_len {
        return Err(CryptoError::EncodingFailed(format!(
            "message of {} bytes exceeds padded length {}",
            message.len(),
            target_len
        )));
    }
    let mut padded = message.to_vec();
    padded.resize(target_len, 0);
    encode_message(&padded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elgamal::{encrypt_message, reencrypt_message, KeyPair, PublicKey};
    use curve25519_dalek::scalar::Scalar;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn chunk_roundtrip_various_lengths() {
        for len in 0..=PAYLOAD_PER_POINT {
            for chunk in [
                (0..len as u8).collect::<Vec<u8>>(),
                vec![0; len],
                vec![0xff; len],
            ] {
                let point = encode_chunk(&chunk).unwrap();
                assert_eq!(decode_chunk(&point).unwrap(), chunk);
                // One point per chunk, whatever the bytes: nothing to search.
                assert_eq!(point.compress().as_bytes()[..len], chunk[..]);
                assert_eq!(point.compress().as_bytes()[MARKER], len as u8 + 1);
            }
        }
    }

    #[test]
    fn points_without_a_length_marker_do_not_decode() {
        for marker in [0u8, 33, 34, 0x3f] {
            let mut bytes = [7u8; 32];
            bytes[MARKER] = marker;
            let point = CompressedRistretto(bytes).decompress().unwrap();
            assert!(decode_chunk(&point).is_err(), "marker {marker}");
        }
    }

    /// The identity held as the residue `p − 1`. The stand-in group keeps
    /// either residue `v` or `p − v` of an element and nothing outside its
    /// crate can tell which; adding this to a point flips it. 5 is not a
    /// square modulo `p` (`p ≡ 3 mod 5`), so `5^q = p − 1` exactly, and
    /// `−1 mod q` is `q − 1`.
    fn identity_as_the_other_residue() -> RistrettoPoint {
        let mut five = [0u8; 32];
        five[0] = 5;
        let five = CompressedRistretto(five).decompress().unwrap();
        five + (-Scalar::ONE) * five
    }

    #[test]
    fn plaintext_survives_a_group_chain_as_either_residue() {
        let mut rng = StdRng::seed_from_u64(0xe4c0de);
        let text: Vec<u8> = (0..211u32).map(|i| (i * 7) as u8).collect();
        let points = encode_message(&text).unwrap();
        let groups: Vec<Vec<KeyPair>> = (0..2)
            .map(|_| (0..3).map(|_| KeyPair::generate(&mut rng)).collect())
            .collect();
        let keys: Vec<PublicKey> = groups
            .iter()
            .map(|group| PublicKey::combine(group.iter().map(|k| &k.public)))
            .collect();
        let (mut current, _) = encrypt_message(&keys[0], &points, &mut rng);
        for (g, group) in groups.iter().enumerate() {
            for member in group {
                current =
                    reencrypt_message(&member.secret.0, keys.get(g + 1), &current, &mut rng).0;
            }
            current = current.finalize_handoff();
        }
        let recovered: Vec<RistrettoPoint> = current
            .components
            .into_iter()
            .map(|component| component.into_plaintext_point())
            .collect();
        // Of each recovered point and its flip, one is held as the
        // non-canonical residue; both must decode.
        let flip = identity_as_the_other_residue();
        let flipped: Vec<RistrettoPoint> = recovered.iter().map(|point| point + flip).collect();
        assert_eq!(decode_message(&recovered).unwrap(), text);
        assert_eq!(decode_message(&flipped).unwrap(), text);
    }

    #[test]
    fn oversized_chunk_rejected() {
        let chunk = vec![1u8; PAYLOAD_PER_POINT + 1];
        assert!(encode_chunk(&chunk).is_err());
    }

    #[test]
    fn message_roundtrip() {
        let message = b"Atom: Horizontally Scaling Strong Anonymity (SOSP 2017)";
        let points = encode_message(message).unwrap();
        assert_eq!(points.len(), points_needed(message.len()));
        assert_eq!(decode_message(&points).unwrap(), message);
    }

    #[test]
    fn empty_message_roundtrip() {
        let points = encode_message(b"").unwrap();
        assert_eq!(points.len(), 1);
        assert_eq!(decode_message(&points).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn padded_message_has_fixed_shape() {
        let a = encode_message_padded(b"short", 160).unwrap();
        let b = encode_message_padded(b"a considerably longer tweet-like message", 160).unwrap();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.len(), points_needed(160));
        let decoded = decode_message(&a).unwrap();
        assert_eq!(&decoded[..5], b"short");
        assert!(decoded[5..].iter().all(|&b| b == 0));
    }

    #[test]
    fn padded_rejects_oversized() {
        assert!(encode_message_padded(&[1u8; 200], 160).is_err());
    }

    #[test]
    fn points_needed_boundaries() {
        assert_eq!(points_needed(0), 1);
        assert_eq!(points_needed(1), 1);
        assert_eq!(points_needed(PAYLOAD_PER_POINT), 1);
        assert_eq!(points_needed(PAYLOAD_PER_POINT + 1), 2);
        assert_eq!(points_needed(160), 6);
        // The padded payloads of a 160-byte post (trap, NIZK) and a dial.
        assert_eq!(points_needed(211), 7);
        assert_eq!(points_needed(163), 6);
        assert_eq!(points_needed(131), 5);
    }

    #[test]
    fn binary_payload_roundtrip() {
        // Exercise non-ASCII payloads including 0xff bytes near the field top.
        let message: Vec<u8> = (0..=255u8).collect();
        let points = encode_message(&message).unwrap();
        assert_eq!(decode_message(&points).unwrap(), message);
    }
}
