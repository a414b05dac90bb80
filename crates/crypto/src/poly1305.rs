//! The Poly1305 one-time authenticator (RFC 8439 §2.5).
//!
//! Arithmetic is modulo p = 2¹³⁰ − 5 in radix 2⁴⁴: the accumulator `h` and
//! the clamped key half `r` are three limbs of 44, 44 and 42 bits held in
//! `u64`. A 16-byte block costs nine `u64 × u64 → u128` products and one
//! carry chain. The three products that land at or above 2¹³⁰ (h1·r2,
//! h2·r1, h2·r2) are folded back by using `s1 = 20·r1` or `s2 = 20·r2` in
//! place of r1 or r2 (2¹³² ≡ 4·5 mod p), both precomputed once per key, so
//! no reduction loop runs per block.
//!
//! The final reduction to the canonical representative is constant-time:
//! it computes `g = h + 5 − 2¹³⁰` and keeps `g` or `h` by a mask taken
//! from `g`'s sign bit, so no branch or memory access depends on `h`.
//! The message is absorbed by the crate-private incremental `Poly1305`
//! state; [`authenticate`] is a one-shot wrapper over it.

/// Poly1305 key length (r ‖ s) in bytes.
pub const KEY_LEN: usize = 32;
/// Poly1305 tag length in bytes.
pub const TAG_LEN: usize = 16;

const BLOCK_LEN: usize = 16;
const MASK44: u64 = (1 << 44) - 1;
const MASK42: u64 = (1 << 42) - 1;
/// The 2¹²⁸ bit every full block carries, as it sits in limb 2 (2⁸⁸·2⁴⁰).
const HIBIT: u64 = 1 << 40;

/// Splits 16 little-endian bytes into radix-2⁴⁴ limbs of 44, 44 and 40 bits.
fn limbs(bytes: &[u8]) -> [u64; 3] {
    let t0 = u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes"));
    let t1 = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    [t0 & MASK44, ((t0 >> 44) | (t1 << 20)) & MASK44, t1 >> 24]
}

/// Incremental Poly1305: absorb the message with [`update`](Self::update)
/// (and [`pad16`](Self::pad16) where a construction zero-pads), then take
/// the tag with [`finish`](Self::finish).
pub(crate) struct Poly1305 {
    /// Clamped `r` in radix 2⁴⁴.
    r: [u64; 3],
    /// `20·r1` and `20·r2`, folding the products at or above 2¹³⁰.
    s1: u64,
    s2: u64,
    /// The accumulator in radix 2⁴⁴.
    h: [u64; 3],
    /// The key's second half `s` in radix 2⁴⁴, added to the reduced `h`.
    pad: [u64; 3],
    /// Message bytes not yet absorbed as a full block.
    buf: [u8; BLOCK_LEN],
    buffered: usize,
}

impl Poly1305 {
    /// Starts a tag computation under the one-time `key` (r ‖ s), clamping
    /// `r` per RFC 8439 §2.5.
    pub(crate) fn new(key: &[u8; KEY_LEN]) -> Self {
        let [r0, r1, r2] = limbs(&key[..16]);
        let r = [
            r0 & 0xffc_0fff_ffff,
            r1 & 0xfff_ffc0_ffff,
            r2 & 0x00f_ffff_fc0f,
        ];
        Poly1305 {
            r,
            s1: r[1] * 20,
            s2: r[2] * 20,
            h: [0; 3],
            pad: limbs(&key[16..]),
            buf: [0; BLOCK_LEN],
            buffered: 0,
        }
    }

    /// Absorbs `msg`, which may be any length.
    pub(crate) fn update(&mut self, mut msg: &[u8]) {
        if self.buffered > 0 {
            let take = msg.len().min(BLOCK_LEN - self.buffered);
            self.buf[self.buffered..self.buffered + take].copy_from_slice(&msg[..take]);
            self.buffered += take;
            msg = &msg[take..];
            if self.buffered < BLOCK_LEN {
                return;
            }
            self.absorb_buf(HIBIT);
        }
        let mut blocks = msg.chunks_exact(BLOCK_LEN);
        for block in &mut blocks {
            self.block(block, HIBIT);
        }
        let rest = blocks.remainder();
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Absorbs zero bytes up to the next 16-byte boundary of the message.
    pub(crate) fn pad16(&mut self) {
        if self.buffered > 0 {
            self.buf[self.buffered..].fill(0);
            self.absorb_buf(HIBIT);
        }
    }

    /// Absorbs a trailing partial block (with its 0x01 terminator and no
    /// 2¹²⁸ bit), reduces fully mod p and returns `(h + s) mod 2¹²⁸`.
    pub(crate) fn finish(mut self) -> [u8; TAG_LEN] {
        if self.buffered > 0 {
            self.buf[self.buffered] = 1;
            self.buf[self.buffered + 1..].fill(0);
            self.absorb_buf(0);
        }
        let [mut h0, mut h1, mut h2] = self.h;
        // Carry fully, twice round, leaving h < 2p: one conditional
        // subtraction of p then makes it canonical.
        for _ in 0..2 {
            h2 += h1 >> 44;
            h1 &= MASK44;
            h0 += (h2 >> 42) * 5;
            h2 &= MASK42;
            h1 += h0 >> 44;
            h0 &= MASK44;
        }
        // g = h + 5 − 2¹³⁰; keep g when it did not go negative (h ≥ p).
        let g0 = h0 + 5;
        let g1 = h1 + (g0 >> 44);
        let g2 = (h2 + (g1 >> 44)).wrapping_sub(1 << 42);
        let keep_g = (g2 >> 63).wrapping_sub(1);
        h0 = (h0 & !keep_g) | (g0 & MASK44 & keep_g);
        h1 = (h1 & !keep_g) | (g1 & MASK44 & keep_g);
        h2 = (h2 & !keep_g) | (g2 & keep_g);
        // h + s mod 2¹²⁸.
        let [s0, s1, s2] = self.pad;
        h0 += s0;
        h1 += s1 + (h0 >> 44);
        h2 += s2 + (h1 >> 44);
        let mut tag = [0u8; TAG_LEN];
        tag[..8].copy_from_slice(&((h0 & MASK44) | (h1 << 44)).to_le_bytes());
        tag[8..].copy_from_slice(&(((h1 & MASK44) >> 20) | (h2 << 24)).to_le_bytes());
        tag
    }

    /// Absorbs the buffer as one block and empties it.
    fn absorb_buf(&mut self, hibit: u64) {
        let block = self.buf;
        self.block(&block, hibit);
        self.buffered = 0;
    }

    /// h = (h + block + hibit·2⁸⁸) · r mod p, weakly reduced. `hibit` is
    /// [`HIBIT`] for full blocks and 0 for a terminated tail.
    #[inline(always)]
    fn block(&mut self, block: &[u8], hibit: u64) {
        let [m0, m1, m2] = limbs(block);
        let h0 = u128::from(self.h[0] + m0);
        let h1 = u128::from(self.h[1] + m1);
        let h2 = u128::from(self.h[2] + (m2 | hibit));
        let [r0, r1, r2] = self.r.map(u128::from);
        let (s1, s2) = (u128::from(self.s1), u128::from(self.s2));

        let d0 = h0 * r0 + h1 * s2 + h2 * s1;
        let d1 = h0 * r1 + h1 * r0 + h2 * s2 + (d0 >> 44);
        let d2 = h0 * r2 + h1 * r1 + h2 * r0 + (d1 >> 44);
        let h0 = (d0 as u64 & MASK44) + (d2 >> 42) as u64 * 5;
        self.h = [
            h0 & MASK44,
            (d1 as u64 & MASK44) + (h0 >> 44),
            d2 as u64 & MASK42,
        ];
    }
}

/// Computes the Poly1305 tag of `msg` under the one-time `key` (r ‖ s).
///
/// # Example
///
/// ```
/// use fedora_crypto::poly1305::authenticate;
/// let tag = authenticate(&[0x42; 32], b"some message");
/// assert_eq!(tag.len(), 16);
/// ```
pub fn authenticate(key: &[u8; KEY_LEN], msg: &[u8]) -> [u8; TAG_LEN] {
    let mut mac = Poly1305::new(key);
    mac.update(msg);
    mac.finish()
}

/// Constant-time tag comparison.
pub fn verify(expected: &[u8; TAG_LEN], actual: &[u8; TAG_LEN]) -> bool {
    let mut diff = 0u8;
    for (a, b) in expected.iter().zip(actual.iter()) {
        diff |= a ^ b;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{hex, random_bytes, splitmix64};

    /// RFC 8439 §2.5.2 test vector.
    #[test]
    fn rfc8439_tag_vector() {
        let key: [u8; 32] =
            hex("85d6be7857556d337f4452fe42d506a8 0103808afb0db2fd4abff6af4149f51b")
                .try_into()
                .unwrap();
        let msg = b"Cryptographic Forum Research Group";
        let tag = authenticate(&key, msg);
        let expected: [u8; 16] = hex("a8061dc1305136c6c22b8baf0c0127a9").try_into().unwrap();
        assert_eq!(tag, expected);
    }

    #[test]
    fn empty_message() {
        // For an empty message h stays 0, so tag == s.
        let mut key = [0u8; 32];
        key[16..].copy_from_slice(&[0xAA; 16]);
        let tag = authenticate(&key, b"");
        assert_eq!(tag, [0xAA; 16]);
    }

    #[test]
    fn tag_changes_with_message() {
        let key = [7u8; 32];
        assert_ne!(authenticate(&key, b"aaa"), authenticate(&key, b"aab"));
    }

    #[test]
    fn tag_changes_with_key() {
        assert_ne!(
            authenticate(&[1u8; 32], b"m"),
            authenticate(&[2u8; 32], b"m")
        );
    }

    #[test]
    fn verify_constant_time_compare() {
        let t1 = [1u8; 16];
        let mut t2 = t1;
        assert!(verify(&t1, &t2));
        t2[15] ^= 1;
        assert!(!verify(&t1, &t2));
    }

    #[test]
    fn multiblock_lengths() {
        // Exercise block boundary lengths 15, 16, 17, 31, 32, 33.
        let key = [3u8; 32];
        let mut tags = Vec::new();
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 64, 100] {
            let msg = vec![0x5Au8; len];
            tags.push(authenticate(&key, &msg));
        }
        // All distinct (length is authenticated implicitly via padding rule).
        for i in 0..tags.len() {
            for j in i + 1..tags.len() {
                assert_ne!(tags[i], tags[j], "lengths {i} vs {j} collided");
            }
        }
    }

    /// RFC 8439 Appendix A.3 vectors #5–#11: the carry and reduction
    /// corners (h at or just below p, all-ones limbs with an incoming
    /// carry, s wrapping past 2¹²⁸, a 131-bit intermediate).
    #[test]
    fn rfc8439_a3_carry_vectors() {
        // A 16-byte block: `first`, then 15 copies of `rest`.
        let block = |first: u8, rest: u8| {
            let mut b = vec![rest; 16];
            b[0] = first;
            b
        };
        let zero = vec![0u8; 16];
        let ones = vec![0xffu8; 16];
        let r10 = hex("0100000000000000 0400000000000000");
        let msg10 = [
            hex("e33594d7505e43b9 0000000000000000"),
            hex("3394d7505e4379cd 0100000000000000"),
            zero.clone(),
            block(0x01, 0),
        ]
        .concat();
        let cases = [
            (block(2, 0), zero.clone(), ones.clone(), block(3, 0)),
            (block(2, 0), ones.clone(), block(2, 0), block(3, 0)),
            (
                block(1, 0),
                zero.clone(),
                [ones.clone(), block(0xf0, 0xff), block(0x11, 0)].concat(),
                block(5, 0),
            ),
            (
                block(1, 0),
                zero.clone(),
                [ones, block(0xfb, 0xfe), vec![0x01; 16]].concat(),
                zero.clone(),
            ),
            (
                block(2, 0),
                zero.clone(),
                block(0xfd, 0xff),
                block(0xfa, 0xff),
            ),
            (
                r10.clone(),
                zero.clone(),
                msg10.clone(),
                hex("1400000000000000 5500000000000000"),
            ),
            (r10, zero, msg10[..48].to_vec(), block(0x13, 0)),
        ];
        for (i, (r, s, msg, tag)) in cases.into_iter().enumerate() {
            let key: [u8; KEY_LEN] = [r, s].concat().try_into().unwrap();
            assert_eq!(authenticate(&key, &msg).to_vec(), tag, "A.3 #{}", i + 5);
        }
    }

    /// The incremental state yields `authenticate`'s tag however the
    /// message is split across `update` calls.
    #[test]
    fn incremental_random_splits_match_one_shot() {
        let mut rng = 0x1305_u64;
        for _ in 0..200 {
            let key: [u8; KEY_LEN] = random_bytes(&mut rng, KEY_LEN).try_into().unwrap();
            let len = (splitmix64(&mut rng) % 300) as usize;
            let msg = random_bytes(&mut rng, len);
            let mut mac = Poly1305::new(&key);
            let mut rest = &msg[..];
            while !rest.is_empty() {
                let take = (splitmix64(&mut rng) % 40) as usize;
                let (head, tail) = rest.split_at(take.min(rest.len()));
                mac.update(head);
                rest = tail;
            }
            assert_eq!(mac.finish(), authenticate(&key, &msg), "len {len}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random 32-byte key and a message of a random length in `len`.
    fn key_and_msg(rng: &mut StdRng, len: std::ops::Range<usize>) -> ([u8; 32], Vec<u8>) {
        let mut key = [0u8; 32];
        rng.fill(&mut key);
        let mut msg = vec![0u8; rng.gen_range(len)];
        rng.fill(&mut msg);
        (key, msg)
    }

    #[test]
    fn deterministic() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let (key, msg) = key_and_msg(&mut rng, 0..200);
            assert_eq!(
                authenticate(&key, &msg),
                authenticate(&key, &msg),
                "case {case}"
            );
        }
    }

    #[test]
    fn bitflip_changes_tag() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let (key, mut msg) = key_and_msg(&mut rng, 1..100);
            let pos = rng.gen_range(0..msg.len());
            let bit = rng.gen_range(0..8u32);
            let t1 = authenticate(&key, &msg);
            msg[pos] ^= 1 << bit;
            let t2 = authenticate(&key, &msg);
            assert_ne!(t1, t2, "case {case}: flipped bit {bit} of byte {pos}");
        }
    }
}
