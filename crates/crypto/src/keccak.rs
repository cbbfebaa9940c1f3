//! Keccak-f\[1600\] sponge, SHA3-256 and SHAKE256, implemented from scratch.
//!
//! Atom uses SHA-3 as its cryptographic commitment function for trap messages
//! (§4.4 of the paper) and this crate additionally uses SHAKE256 as the
//! extendable-output function behind the Fiat-Shamir transcript and the KEM
//! key-derivation function. The implementation follows FIPS 202; test vectors
//! are checked against a reference implementation.

/// Keccak round constants for the 24 rounds of Keccak-f\[1600\].
const ROUND_CONSTANTS: [u64; 24] = [
    0x0000000000000001,
    0x0000000000008082,
    0x800000000000808a,
    0x8000000080008000,
    0x000000000000808b,
    0x0000000080000001,
    0x8000000080008081,
    0x8000000000008009,
    0x000000000000008a,
    0x0000000000000088,
    0x0000000080008009,
    0x000000008000000a,
    0x000000008000808b,
    0x800000000000008b,
    0x8000000000008089,
    0x8000000000008003,
    0x8000000000008002,
    0x8000000000000080,
    0x000000000000800a,
    0x800000008000000a,
    0x8000000080008081,
    0x8000000000008080,
    0x0000000080000001,
    0x8000000080008008,
];

/// Rotation offsets for the rho step, indexed as `RHO[x][y]` with lane (x, y).
const RHO: [[u32; 5]; 5] = [
    [0, 36, 3, 41, 18],
    [1, 44, 10, 45, 2],
    [62, 6, 43, 15, 61],
    [28, 55, 25, 21, 56],
    [27, 20, 39, 8, 14],
];

/// Applies the full 24-round Keccak-f\[1600\] permutation to the state.
///
/// The state is indexed as `state[x + 5 * y]` holding lane (x, y), matching
/// the FIPS 202 byte ordering when lanes are loaded little-endian.
fn keccak_f1600(state: &mut [u64; 25]) {
    for rc in ROUND_CONSTANTS {
        // Theta.
        let mut c = [0u64; 5];
        for (x, cx) in c.iter_mut().enumerate() {
            *cx = state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15] ^ state[x + 20];
        }
        let mut d = [0u64; 5];
        for x in 0..5 {
            d[x] = c[(x + 4) % 5] ^ c[(x + 1) % 5].rotate_left(1);
        }
        for y in 0..5 {
            for x in 0..5 {
                state[x + 5 * y] ^= d[x];
            }
        }

        // Rho and Pi combined: B[y][(2x + 3y) mod 5] = rot(A[x][y], RHO[x][y]).
        let mut b = [0u64; 25];
        for y in 0..5 {
            for x in 0..5 {
                let nx = y;
                let ny = (2 * x + 3 * y) % 5;
                b[nx + 5 * ny] = state[x + 5 * y].rotate_left(RHO[x][y]);
            }
        }

        // Chi.
        for y in 0..5 {
            for x in 0..5 {
                state[x + 5 * y] =
                    b[x + 5 * y] ^ ((!b[(x + 1) % 5 + 5 * y]) & b[(x + 2) % 5 + 5 * y]);
            }
        }

        // Iota.
        state[0] ^= rc;
    }
}

/// An incremental Keccak sponge with a configurable rate and domain padding.
#[derive(Clone)]
struct KeccakSponge {
    state: [u64; 25],
    /// Rate in bytes (136 for SHA3-256 / SHAKE256).
    rate: usize,
    /// Number of bytes absorbed into the current block.
    offset: usize,
    /// Domain separation / padding byte (0x06 for SHA-3, 0x1f for SHAKE).
    pad: u8,
    /// Whether the sponge has switched to the squeezing phase.
    squeezing: bool,
    /// Offset within the current squeezed block.
    squeeze_offset: usize,
}

impl KeccakSponge {
    /// Creates a sponge with the given byte rate and padding byte.
    pub(crate) fn new(rate: usize, pad: u8) -> Self {
        assert!(
            rate > 0 && rate < 200 && rate.is_multiple_of(8),
            "invalid Keccak rate"
        );
        Self {
            state: [0u64; 25],
            rate,
            offset: 0,
            pad,
            squeezing: false,
            squeeze_offset: 0,
        }
    }

    /// XORs a single byte into the state at the given byte position.
    fn xor_byte(&mut self, pos: usize, byte: u8) {
        let lane = pos / 8;
        let shift = (pos % 8) * 8;
        self.state[lane] ^= (byte as u64) << shift;
    }

    /// Reads a single byte of the state at the given byte position.
    fn read_byte(&self, pos: usize) -> u8 {
        let lane = pos / 8;
        let shift = (pos % 8) * 8;
        (self.state[lane] >> shift) as u8
    }

    /// XORs `data` into the state starting at byte position `pos`: whole
    /// little-endian lanes where the position is lane-aligned, single bytes
    /// for the ragged head and tail. The caller keeps
    /// `pos + data.len() <= rate`.
    fn xor_bytes(&mut self, pos: usize, data: &[u8]) {
        let (head, rest) = data.split_at(data.len().min(pos.wrapping_neg() % 8));
        for (i, &byte) in head.iter().enumerate() {
            self.xor_byte(pos + i, byte);
        }
        let pos = pos + head.len();
        let lanes = rest.chunks_exact(8);
        let tail = lanes.remainder();
        for (lane, chunk) in self.state[pos / 8..].iter_mut().zip(lanes) {
            *lane ^= u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        let pos = pos + rest.len() - tail.len();
        for (i, &byte) in tail.iter().enumerate() {
            self.xor_byte(pos + i, byte);
        }
    }

    /// Copies state bytes from byte position `pos` into `out`, lane-wise
    /// like [`Self::xor_bytes`]. The caller keeps `pos + out.len() <= rate`.
    fn read_bytes(&self, pos: usize, out: &mut [u8]) {
        let (head, rest) = out.split_at_mut(out.len().min(pos.wrapping_neg() % 8));
        for (i, byte) in head.iter_mut().enumerate() {
            *byte = self.read_byte(pos + i);
        }
        let pos = pos + head.len();
        let whole = rest.len() - rest.len() % 8;
        let (body, tail) = rest.split_at_mut(whole);
        for (lane, chunk) in self.state[pos / 8..].iter().zip(body.chunks_exact_mut(8)) {
            chunk.copy_from_slice(&lane.to_le_bytes());
        }
        for (i, byte) in tail.iter_mut().enumerate() {
            *byte = self.read_byte(pos + whole + i);
        }
    }

    /// Absorbs input into the sponge. Panics if called after squeezing began.
    pub(crate) fn absorb(&mut self, mut data: &[u8]) {
        assert!(!self.squeezing, "cannot absorb after squeezing started");
        while !data.is_empty() {
            let take = data.len().min(self.rate - self.offset);
            self.xor_bytes(self.offset, &data[..take]);
            self.offset += take;
            data = &data[take..];
            if self.offset == self.rate {
                keccak_f1600(&mut self.state);
                self.offset = 0;
            }
        }
    }

    /// Applies padding and switches to the squeezing phase.
    fn finish_absorbing(&mut self) {
        self.xor_byte(self.offset, self.pad);
        self.xor_byte(self.rate - 1, 0x80);
        keccak_f1600(&mut self.state);
        self.squeezing = true;
        self.squeeze_offset = 0;
    }

    /// Squeezes `out.len()` bytes from the sponge. May be called repeatedly.
    pub(crate) fn squeeze(&mut self, mut out: &mut [u8]) {
        if !self.squeezing {
            self.finish_absorbing();
        }
        while !out.is_empty() {
            if self.squeeze_offset == self.rate {
                keccak_f1600(&mut self.state);
                self.squeeze_offset = 0;
            }
            let take = out.len().min(self.rate - self.squeeze_offset);
            let (head, rest) = out.split_at_mut(take);
            self.read_bytes(self.squeeze_offset, head);
            self.squeeze_offset += take;
            out = rest;
        }
    }
}

/// Computes the SHA3-256 digest of `data`.
pub fn sha3_256(data: &[u8]) -> [u8; 32] {
    let mut sponge = KeccakSponge::new(136, 0x06);
    sponge.absorb(data);
    let mut out = [0u8; 32];
    sponge.squeeze(&mut out);
    out
}

/// Computes a SHA3-256 digest over several input slices, as if concatenated.
pub(crate) fn sha3_256_multi(parts: &[&[u8]]) -> [u8; 32] {
    let mut sponge = KeccakSponge::new(136, 0x06);
    for part in parts {
        sponge.absorb(part);
    }
    let mut out = [0u8; 32];
    sponge.squeeze(&mut out);
    out
}

/// An incremental SHAKE256 extendable-output function.
#[derive(Clone)]
pub(crate) struct Shake256 {
    sponge: KeccakSponge,
}

impl Shake256 {
    /// Creates an empty SHAKE256 instance.
    pub(crate) fn new() -> Self {
        Self {
            sponge: KeccakSponge::new(136, 0x1f),
        }
    }

    /// Absorbs more input.
    pub(crate) fn absorb(&mut self, data: &[u8]) {
        self.sponge.absorb(data);
    }

    /// Squeezes `out.len()` bytes of output; callable repeatedly for a stream.
    pub(crate) fn squeeze(&mut self, out: &mut [u8]) {
        self.sponge.squeeze(out);
    }
}

#[cfg(test)]
impl Shake256 {
    /// One-shot convenience: SHAKE256(data) truncated/extended to `n` bytes.
    fn hash(data: &[u8], n: usize) -> Vec<u8> {
        let mut xof = Self::new();
        xof.absorb(data);
        let mut out = vec![0u8; n];
        xof.squeeze(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn sha3_256_empty_vector() {
        assert_eq!(
            hex(&sha3_256(b"")),
            "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"
        );
    }

    #[test]
    fn sha3_256_abc_vector() {
        assert_eq!(
            hex(&sha3_256(b"abc")),
            "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532"
        );
    }

    #[test]
    fn sha3_256_multiblock_vector() {
        // 200 bytes of 'a' spans more than one rate-sized block.
        let data = vec![b'a'; 200];
        assert_eq!(
            hex(&sha3_256(&data)),
            "cce34485baf2bf2aca99b94833892a4f52896d3d153f7b840cc4f9fe695f1387"
        );
    }

    #[test]
    fn sha3_256_multi_matches_concatenation() {
        let joined = sha3_256(b"hello world");
        let parts = sha3_256_multi(&[b"hello", b" ", b"world"]);
        assert_eq!(joined, parts);
    }

    #[test]
    fn shake256_empty_vector() {
        assert_eq!(
            hex(&Shake256::hash(b"", 32)),
            "46b9dd2b0ba88d13233b3feb743eeb243fcd52ea62b81b82b50c27646ed5762f"
        );
    }

    #[test]
    fn shake256_abc_vector() {
        assert_eq!(
            hex(&Shake256::hash(b"abc", 64)),
            "483366601360a8771c6863080cc4114d8db44530f8f1e1ee4f94ea37e78b5739\
             d5a15bef186a5386c75744c0527e1faa9f8726e462a12a4feb06bd8801e751e4"
                .replace(char::is_whitespace, "")
        );
    }

    #[test]
    fn shake256_incremental_squeeze_matches_oneshot() {
        let oneshot = Shake256::hash(b"incremental", 96);
        let mut xof = Shake256::new();
        xof.absorb(b"incre");
        xof.absorb(b"mental");
        let mut a = vec![0u8; 10];
        let mut b = vec![0u8; 50];
        let mut c = vec![0u8; 36];
        xof.squeeze(&mut a);
        xof.squeeze(&mut b);
        xof.squeeze(&mut c);
        let combined: Vec<u8> = a.into_iter().chain(b).chain(c).collect();
        assert_eq!(oneshot, combined);
    }

    /// The byte-at-a-time sponge the lane-wise `absorb`/`squeeze` replaced,
    /// kept as the reference for the differential test below.
    impl KeccakSponge {
        fn absorb_bytewise(&mut self, data: &[u8]) {
            assert!(!self.squeezing);
            for &byte in data {
                self.xor_byte(self.offset, byte);
                self.offset += 1;
                if self.offset == self.rate {
                    keccak_f1600(&mut self.state);
                    self.offset = 0;
                }
            }
        }

        fn squeeze_bytewise(&mut self, out: &mut [u8]) {
            if !self.squeezing {
                self.finish_absorbing();
            }
            for byte in out.iter_mut() {
                if self.squeeze_offset == self.rate {
                    keccak_f1600(&mut self.state);
                    self.squeeze_offset = 0;
                }
                *byte = self.read_byte(self.squeeze_offset);
                self.squeeze_offset += 1;
            }
        }
    }

    #[test]
    fn lane_sponge_matches_bytewise_sponge_over_random_splits() {
        use rand::rngs::StdRng;
        use rand::{Rng, RngCore, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5907);
        const RATE: usize = 136;
        for len in 0..=3 * RATE {
            let mut data = vec![0u8; len];
            rng.fill_bytes(&mut data);
            let mut lanes = KeccakSponge::new(RATE, 0x1f);
            let mut bytes = KeccakSponge::new(RATE, 0x1f);
            bytes.absorb_bytewise(&data);
            // Absorb in randomly sized pieces (empty ones included).
            let mut rest = data.as_slice();
            while !rest.is_empty() {
                let (piece, tail) = rest.split_at(rng.gen_range(0..=rest.len()));
                lanes.absorb(piece);
                rest = tail;
            }
            assert_eq!(lanes.state, bytes.state, "absorb, len {len}");
            assert_eq!(lanes.offset, bytes.offset, "absorb, len {len}");

            // Squeeze the same total in independently random pieces.
            let total = rng.gen_range(0..=3 * RATE);
            let mut want = vec![0u8; total];
            bytes.squeeze_bytewise(&mut want);
            let mut got = vec![0u8; total];
            let mut rest = got.as_mut_slice();
            while !rest.is_empty() {
                let cut = rng.gen_range(0..=rest.len());
                let (piece, tail) = rest.split_at_mut(cut);
                lanes.squeeze(piece);
                rest = tail;
            }
            assert_eq!(got, want, "squeeze, len {len}, total {total}");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha3_256(b"a"), sha3_256(b"b"));
        assert_ne!(sha3_256(b""), sha3_256(b"\x00"));
    }
}
