//! ChaCha20-Poly1305 AEAD (RFC 8439), implemented from scratch.
//!
//! The Atom paper uses NaCl's authenticated encryption for the IND-CCA2
//! "inner ciphertext" layer of the trap variant (§4.4, Appendix A). We use
//! the ChaCha20-Poly1305 construction in the same family; it plays the role
//! of `AEnc`/`ADec` in the paper's key-encapsulation scheme.

use crate::error::CryptoError;

/// Size of a ChaCha20-Poly1305 key in bytes.
pub(crate) const KEY_LEN: usize = 32;
/// Size of a nonce in bytes.
pub(crate) const NONCE_LEN: usize = 12;
/// Size of the authentication tag in bytes.
pub(crate) const TAG_LEN: usize = 16;

/// The ChaCha20 quarter round.
#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// Computes one 64-byte ChaCha20 keystream block.
fn chacha20_block(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u8; 64] {
    let mut state = [0u32; 16];
    state[0] = 0x6170_7865;
    state[1] = 0x3320_646e;
    state[2] = 0x7962_2d32;
    state[3] = 0x6b20_6574;
    for i in 0..8 {
        state[4 + i] = u32::from_le_bytes(key[4 * i..4 * i + 4].try_into().unwrap());
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = u32::from_le_bytes(nonce[4 * i..4 * i + 4].try_into().unwrap());
    }

    let mut working = state;
    for _ in 0..10 {
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }

    let mut out = [0u8; 64];
    for i in 0..16 {
        let word = working[i].wrapping_add(state[i]);
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// Encrypts or decrypts `data` in place with the ChaCha20 stream cipher,
/// starting at block `counter`.
fn chacha20_xor(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32, data: &mut [u8]) {
    for (block_idx, chunk) in data.chunks_mut(64).enumerate() {
        let block = chacha20_block(key, counter.wrapping_add(block_idx as u32), nonce);
        for (byte, key_byte) in chunk.iter_mut().zip(block.iter()) {
            *byte ^= key_byte;
        }
    }
}

/// Poly1305 one-time authenticator state.
///
/// The accumulator is kept in five 26-bit limbs to stay within u64 products,
/// following the classic "donna"-style reference layout.
struct Poly1305 {
    r: [u32; 5],
    s: [u32; 4],
    acc: [u64; 5],
    buffer: [u8; 16],
    buffered: usize,
}

impl Poly1305 {
    fn new(key: &[u8; 32]) -> Self {
        // Clamp r per RFC 8439.
        let t0 = u32::from_le_bytes(key[0..4].try_into().unwrap());
        let t1 = u32::from_le_bytes(key[4..8].try_into().unwrap());
        let t2 = u32::from_le_bytes(key[8..12].try_into().unwrap());
        let t3 = u32::from_le_bytes(key[12..16].try_into().unwrap());

        let r = [
            t0 & 0x03ff_ffff,
            ((t0 >> 26) | (t1 << 6)) & 0x03ff_ff03,
            ((t1 >> 20) | (t2 << 12)) & 0x03ff_c0ff,
            ((t2 >> 14) | (t3 << 18)) & 0x03f0_3fff,
            (t3 >> 8) & 0x000f_ffff,
        ];
        let s = [
            u32::from_le_bytes(key[16..20].try_into().unwrap()),
            u32::from_le_bytes(key[20..24].try_into().unwrap()),
            u32::from_le_bytes(key[24..28].try_into().unwrap()),
            u32::from_le_bytes(key[28..32].try_into().unwrap()),
        ];
        Self {
            r,
            s,
            acc: [0; 5],
            buffer: [0; 16],
            buffered: 0,
        }
    }

    /// Processes one 16-byte block (with the high bit set unless `partial`).
    fn block(&mut self, block: &[u8; 16], partial_len: Option<usize>) {
        let mut padded = [0u8; 17];
        match partial_len {
            None => {
                padded[..16].copy_from_slice(block);
                padded[16] = 1;
            }
            Some(len) => {
                padded[..len].copy_from_slice(&block[..len]);
                padded[len] = 1;
            }
        }

        let t0 = u32::from_le_bytes(padded[0..4].try_into().unwrap());
        let t1 = u32::from_le_bytes(padded[4..8].try_into().unwrap());
        let t2 = u32::from_le_bytes(padded[8..12].try_into().unwrap());
        let t3 = u32::from_le_bytes(padded[12..16].try_into().unwrap());
        let hi = padded[16] as u32;

        self.acc[0] += (t0 & 0x03ff_ffff) as u64;
        self.acc[1] += (((t0 >> 26) | (t1 << 6)) & 0x03ff_ffff) as u64;
        self.acc[2] += (((t1 >> 20) | (t2 << 12)) & 0x03ff_ffff) as u64;
        self.acc[3] += (((t2 >> 14) | (t3 << 18)) & 0x03ff_ffff) as u64;
        self.acc[4] += ((t3 >> 8) | (hi << 24)) as u64;

        // acc = (acc * r) mod 2^130 - 5, schoolbook with limb reduction.
        let r0 = self.r[0] as u64;
        let r1 = self.r[1] as u64;
        let r2 = self.r[2] as u64;
        let r3 = self.r[3] as u64;
        let r4 = self.r[4] as u64;
        let s1 = r1 * 5;
        let s2 = r2 * 5;
        let s3 = r3 * 5;
        let s4 = r4 * 5;

        let h0 = self.acc[0];
        let h1 = self.acc[1];
        let h2 = self.acc[2];
        let h3 = self.acc[3];
        let h4 = self.acc[4];

        let d0 = h0 * r0 + h1 * s4 + h2 * s3 + h3 * s2 + h4 * s1;
        let d1 = h0 * r1 + h1 * r0 + h2 * s4 + h3 * s3 + h4 * s2;
        let d2 = h0 * r2 + h1 * r1 + h2 * r0 + h3 * s4 + h4 * s3;
        let d3 = h0 * r3 + h1 * r2 + h2 * r1 + h3 * r0 + h4 * s4;
        let d4 = h0 * r4 + h1 * r3 + h2 * r2 + h3 * r1 + h4 * r0;

        let mut c;
        let mut acc = [0u64; 5];
        c = d0 >> 26;
        acc[0] = d0 & 0x03ff_ffff;
        let d1 = d1 + c;
        c = d1 >> 26;
        acc[1] = d1 & 0x03ff_ffff;
        let d2 = d2 + c;
        c = d2 >> 26;
        acc[2] = d2 & 0x03ff_ffff;
        let d3 = d3 + c;
        c = d3 >> 26;
        acc[3] = d3 & 0x03ff_ffff;
        let d4 = d4 + c;
        c = d4 >> 26;
        acc[4] = d4 & 0x03ff_ffff;
        acc[0] += c * 5;
        c = acc[0] >> 26;
        acc[0] &= 0x03ff_ffff;
        acc[1] += c;

        self.acc = acc;
    }

    fn update(&mut self, mut data: &[u8]) {
        if self.buffered > 0 {
            let take = (16 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == 16 {
                let block = self.buffer;
                self.block(&block, None);
                self.buffered = 0;
            }
        }
        while data.len() >= 16 {
            let block: [u8; 16] = data[..16].try_into().unwrap();
            self.block(&block, None);
            data = &data[16..];
        }
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffered = data.len();
        }
    }

    fn finalize(mut self) -> [u8; TAG_LEN] {
        if self.buffered > 0 {
            let block = self.buffer;
            let len = self.buffered;
            self.block(&block, Some(len));
        }

        // Fully reduce the accumulator modulo 2^130 - 5.
        let mut h = self.acc;
        let mut c = h[1] >> 26;
        h[1] &= 0x03ff_ffff;
        h[2] += c;
        c = h[2] >> 26;
        h[2] &= 0x03ff_ffff;
        h[3] += c;
        c = h[3] >> 26;
        h[3] &= 0x03ff_ffff;
        h[4] += c;
        c = h[4] >> 26;
        h[4] &= 0x03ff_ffff;
        h[0] += c * 5;
        c = h[0] >> 26;
        h[0] &= 0x03ff_ffff;
        h[1] += c;

        // Compute h + -p and select it if h >= p.
        let mut g = [0u64; 5];
        g[0] = h[0] + 5;
        c = g[0] >> 26;
        g[0] &= 0x03ff_ffff;
        g[1] = h[1] + c;
        c = g[1] >> 26;
        g[1] &= 0x03ff_ffff;
        g[2] = h[2] + c;
        c = g[2] >> 26;
        g[2] &= 0x03ff_ffff;
        g[3] = h[3] + c;
        c = g[3] >> 26;
        g[3] &= 0x03ff_ffff;
        g[4] = h[4].wrapping_add(c).wrapping_sub(1 << 26);

        let use_g = (g[4] >> 63) == 0;
        let sel = if use_g { g } else { h };
        // The g branch has already wrapped off the carry bit; mask to 26 bits.
        let h0 = sel[0] & 0x03ff_ffff;
        let h1 = sel[1] & 0x03ff_ffff;
        let h2 = sel[2] & 0x03ff_ffff;
        let h3 = sel[3] & 0x03ff_ffff;
        let h4 = sel[4] & 0x03ff_ffff;

        // Convert back to four 32-bit words.
        let w0 = (h0 | (h1 << 26)) as u32;
        let w1 = ((h1 >> 6) | (h2 << 20)) as u32;
        let w2 = ((h2 >> 12) | (h3 << 14)) as u32;
        let w3 = ((h3 >> 18) | (h4 << 8)) as u32;

        // Add s with carry.
        let mut tag = [0u8; TAG_LEN];
        let mut carry: u64 = 0;
        for (i, word) in [w0, w1, w2, w3].iter().enumerate() {
            let sum = *word as u64 + self.s[i] as u64 + carry;
            tag[4 * i..4 * i + 4].copy_from_slice(&(sum as u32).to_le_bytes());
            carry = sum >> 32;
        }
        tag
    }
}

/// Computes the Poly1305 tag over the AEAD input layout of RFC 8439.
fn poly1305_aead_tag(otk: &[u8; 32], aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
    let mut mac = Poly1305::new(otk);
    mac.update(aad);
    let pad = [0u8; 16];
    if !aad.len().is_multiple_of(16) {
        mac.update(&pad[..16 - aad.len() % 16]);
    }
    mac.update(ciphertext);
    if !ciphertext.len().is_multiple_of(16) {
        mac.update(&pad[..16 - ciphertext.len() % 16]);
    }
    mac.update(&(aad.len() as u64).to_le_bytes());
    mac.update(&(ciphertext.len() as u64).to_le_bytes());
    mac.finalize()
}

/// Encrypts `plaintext` with ChaCha20-Poly1305, returning ciphertext || tag.
pub(crate) fn seal(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    plaintext: &[u8],
) -> Vec<u8> {
    let otk_block = chacha20_block(key, 0, nonce);
    let otk: [u8; 32] = otk_block[..32].try_into().unwrap();

    let mut out = plaintext.to_vec();
    chacha20_xor(key, nonce, 1, &mut out);
    let tag = poly1305_aead_tag(&otk, aad, &out);
    out.extend_from_slice(&tag);
    out
}

/// Decrypts and authenticates a ciphertext produced by [`seal`].
pub(crate) fn open(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    ciphertext: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    if ciphertext.len() < TAG_LEN {
        return Err(CryptoError::AuthenticationFailed);
    }
    let (body, tag) = ciphertext.split_at(ciphertext.len() - TAG_LEN);

    let otk_block = chacha20_block(key, 0, nonce);
    let otk: [u8; 32] = otk_block[..32].try_into().unwrap();
    let expected = poly1305_aead_tag(&otk, aad, body);

    // Constant-time-ish comparison: accumulate differences before branching.
    let mut diff = 0u8;
    for (a, b) in expected.iter().zip(tag.iter()) {
        diff |= a ^ b;
    }
    if diff != 0 {
        return Err(CryptoError::AuthenticationFailed);
    }

    let mut out = body.to_vec();
    chacha20_xor(key, nonce, 1, &mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn seal_matches_reference_implementation() {
        // Vector generated with the `cryptography` library's ChaCha20Poly1305.
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = core::array::from_fn(|i| i as u8);
        let aad = b"atom-aad";
        let msg = b"The quick brown fox jumps over the lazy dog, anonymously.";
        let ct = seal(&key, &nonce, aad, msg);
        assert_eq!(
            hex(&ct),
            "dd936d205862cc23dca35d81f76a6043af1fcac73b01c0c995b740b310b28648\
             84e50c9f8764c8b8535d11f445f5e14c10fdc41b885bd4e23c93d98d8d56f84f\
             063b4dac99ce8ffc0d"
                .replace(char::is_whitespace, "")
        );
    }

    #[test]
    fn seal_empty_matches_reference_implementation() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce = [0u8; 12];
        let ct = seal(&key, &nonce, b"", b"");
        assert_eq!(hex(&ct), "10324f800a160bd9a1794255be7ec29d");
    }

    #[test]
    fn roundtrip() {
        let key = [7u8; 32];
        let nonce = [9u8; 12];
        let aad = b"header";
        let msg = b"hello atom";
        let ct = seal(&key, &nonce, aad, msg);
        let pt = open(&key, &nonce, aad, &ct).unwrap();
        assert_eq!(pt, msg);
    }

    #[test]
    fn roundtrip_various_lengths() {
        let key = [42u8; 32];
        let nonce = [1u8; 12];
        for len in [0usize, 1, 15, 16, 17, 63, 64, 65, 160, 1000] {
            let msg: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let ct = seal(&key, &nonce, b"", &msg);
            assert_eq!(ct.len(), len + TAG_LEN);
            assert_eq!(open(&key, &nonce, b"", &ct).unwrap(), msg);
        }
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let key = [3u8; 32];
        let nonce = [4u8; 12];
        let mut ct = seal(&key, &nonce, b"ad", b"secret message");
        ct[0] ^= 1;
        assert!(open(&key, &nonce, b"ad", &ct).is_err());
    }

    #[test]
    fn tampered_tag_rejected() {
        let key = [3u8; 32];
        let nonce = [4u8; 12];
        let mut ct = seal(&key, &nonce, b"ad", b"secret message");
        let last = ct.len() - 1;
        ct[last] ^= 0x80;
        assert!(open(&key, &nonce, b"ad", &ct).is_err());
    }

    #[test]
    fn wrong_aad_rejected() {
        let key = [3u8; 32];
        let nonce = [4u8; 12];
        let ct = seal(&key, &nonce, b"ad", b"secret message");
        assert!(open(&key, &nonce, b"other", &ct).is_err());
    }

    #[test]
    fn wrong_key_rejected() {
        let key = [3u8; 32];
        let other = [5u8; 32];
        let nonce = [4u8; 12];
        let ct = seal(&key, &nonce, b"", b"secret message");
        assert!(open(&other, &nonce, b"", &ct).is_err());
    }

    #[test]
    fn truncated_ciphertext_rejected() {
        let key = [3u8; 32];
        let nonce = [4u8; 12];
        let ct = seal(&key, &nonce, b"", b"secret message");
        assert!(open(&key, &nonce, b"", &ct[..TAG_LEN - 1]).is_err());
        assert!(open(&key, &nonce, b"", &[]).is_err());
    }
}
