//! Group-based encryption for tree-structured data (paper §5.2, Figure 6).
//!
//! Existing TEEs allocate an encryption counter and an authentication tag per
//! 64-byte cache line and protect counters with a Merkle tree — too expensive
//! for multi-gigabyte ORAM trees. FEDORA instead groups multiple tree nodes
//! (512 bytes in the paper) into one encryption *group* that shares a single
//! counter and tag, and stores each group's counter inside its **parent**
//! group. Only the root group's counter needs tamper-proof storage (the 4-KB
//! scratchpad). Decrypting a path walks root → leaf, verifying each group
//! and extracting the next group's counter; encrypting walks leaf → root,
//! bumping the on-path counters.
//!
//! This module is device-agnostic: it transforms byte vectors. The ORAM
//! layer owns where the encrypted groups live (DRAM or SSD).

use crate::aead::{AeadError, ChaCha20Poly1305, Key, Nonce, TAG_LEN};

/// Number of child-counter slots stored in each group (binary tree).
pub const CHILD_SLOTS: usize = 2;
/// Bytes of counter material appended to each group payload.
pub const COUNTER_OVERHEAD: usize = CHILD_SLOTS * 8;

/// Error from group-tree path decryption.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GroupError {
    /// A group failed authentication (tampered data or stale counter —
    /// i.e. a replay of an old version).
    Authentication {
        /// Index of the failing group within the path (0 = root).
        level: usize,
    },
    /// Input shape was malformed (mismatched lengths).
    Malformed,
}

impl core::fmt::Display for GroupError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GroupError::Authentication { level } => {
                write!(f, "group authentication failed at path level {level}")
            }
            GroupError::Malformed => f.write_str("malformed group path"),
        }
    }
}

impl std::error::Error for GroupError {}

/// A decrypted path through the group tree: the mutable payloads plus the
/// bookkeeping needed to re-encrypt (the off-path child counters that must
/// be preserved).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecryptedPath {
    /// Plaintext payload of each group, root first.
    pub payloads: Vec<Vec<u8>>,
    /// Child counters `[left, right]` carried by each group.
    pub child_counters: Vec<[u64; 2]>,
    /// Public group ids, root first.
    ids: Vec<u32>,
    /// Direction taken from group `i` to group `i+1` (`false` = left).
    dirs: Vec<bool>,
}

impl DecryptedPath {
    /// Number of groups on the path.
    pub fn len(&self) -> usize {
        self.payloads.len()
    }

    /// Whether the path is empty.
    pub fn is_empty(&self) -> bool {
        self.payloads.is_empty()
    }
}

/// Encrypts/decrypts paths of a binary tree whose per-group counters are
/// stored in parent groups, with the root counter held by the caller's
/// scratchpad model.
///
/// # Example
///
/// ```
/// use fedora_crypto::aead::Key;
/// use fedora_crypto::group::GroupTreeCipher;
///
/// let mut cipher = GroupTreeCipher::new(Key::from_bytes([1; 32]));
/// // A 2-level path: root group id 0, child id 1 (left child).
/// let enc = cipher.encrypt_fresh_path(&[b"root-data".to_vec(), b"leaf-data".to_vec()],
///                                     &[0, 1], &[false]);
/// let dec = cipher.decrypt_path(&enc, &[0, 1], &[false]).unwrap();
/// assert_eq!(dec.payloads[1], b"leaf-data");
/// ```
#[derive(Clone, Debug)]
pub struct GroupTreeCipher {
    aead: ChaCha20Poly1305,
    root_counter: u64,
}

impl GroupTreeCipher {
    /// Creates a cipher with root counter 0.
    pub fn new(key: Key) -> Self {
        GroupTreeCipher {
            aead: ChaCha20Poly1305::new(&key),
            root_counter: 0,
        }
    }

    /// The current root counter (lives in the scratchpad in the real
    /// system; exposed for persistence and tests).
    pub fn root_counter(&self) -> u64 {
        self.root_counter
    }

    /// Total ciphertext overhead per group (child counters + tag).
    pub const fn overhead() -> usize {
        COUNTER_OVERHEAD + TAG_LEN
    }

    /// Encrypts a fresh path whose groups have never been written (all
    /// child counters start at 0). Used at tree initialization.
    ///
    /// # Panics
    ///
    /// Panics if `ids.len() != payloads.len()` or `dirs.len() + 1 !=
    /// payloads.len()` — these are programming errors in tree geometry.
    pub fn encrypt_fresh_path(
        &mut self,
        payloads: &[Vec<u8>],
        ids: &[u32],
        dirs: &[bool],
    ) -> Vec<Vec<u8>> {
        assert_eq!(ids.len(), payloads.len(), "one id per group");
        assert_eq!(dirs.len() + 1, payloads.len(), "one direction per edge");
        let path = DecryptedPath {
            payloads: payloads.to_vec(),
            child_counters: vec![[0, 0]; payloads.len()],
            ids: ids.to_vec(),
            dirs: dirs.to_vec(),
        };
        self.encrypt_path(path)
    }

    /// Decrypts a path root → leaf, verifying authenticity and freshness of
    /// every group along the way.
    ///
    /// # Errors
    ///
    /// [`GroupError::Authentication`] if any group fails its tag check —
    /// which also catches *replay*, because a stale group would have been
    /// encrypted under an older counter. [`GroupError::Malformed`] if the
    /// shapes disagree.
    pub fn decrypt_path(
        &self,
        encrypted: &[Vec<u8>],
        ids: &[u32],
        dirs: &[bool],
    ) -> Result<DecryptedPath, GroupError> {
        if ids.len() != encrypted.len() || dirs.len() + 1 != encrypted.len() || encrypted.is_empty()
        {
            return Err(GroupError::Malformed);
        }
        let mut payloads = Vec::with_capacity(encrypted.len());
        let mut child_counters = Vec::with_capacity(encrypted.len());
        let mut counter = self.root_counter;
        for (level, group) in encrypted.iter().enumerate() {
            let nonce = Nonce::from_u64_pair(ids[level], counter);
            let aad = ids[level].to_le_bytes();
            let plain = self
                .aead
                .decrypt(&nonce, group, &aad)
                .map_err(|AeadError| GroupError::Authentication { level })?;
            if plain.len() < COUNTER_OVERHEAD {
                return Err(GroupError::Malformed);
            }
            let split = plain.len() - COUNTER_OVERHEAD;
            let left = u64::from_le_bytes(plain[split..split + 8].try_into().expect("8 bytes"));
            let right = u64::from_le_bytes(plain[split + 8..].try_into().expect("8 bytes"));
            child_counters.push([left, right]);
            payloads.push(plain[..split].to_vec());
            if level < dirs.len() {
                counter = if dirs[level] { right } else { left };
            }
        }
        Ok(DecryptedPath {
            payloads,
            child_counters,
            ids: ids.to_vec(),
            dirs: dirs.to_vec(),
        })
    }

    /// Re-encrypts a (possibly modified) decrypted path, bumping the counter
    /// of every on-path group: each group's new counter is written into its
    /// parent, and the root counter (scratchpad) is incremented.
    ///
    /// Returns the new encrypted groups, root first.
    pub fn encrypt_path(&mut self, mut path: DecryptedPath) -> Vec<Vec<u8>> {
        let n = path.payloads.len();
        assert!(n > 0, "cannot encrypt an empty path");
        // Bump on-path child counters parent-side, leaf upward.
        for level in (0..n - 1).rev() {
            let slot = usize::from(path.dirs[level]);
            path.child_counters[level][slot] = path.child_counters[level][slot].wrapping_add(1);
        }
        self.root_counter = self.root_counter.wrapping_add(1);

        let mut counters_used = Vec::with_capacity(n);
        counters_used.push(self.root_counter);
        for level in 0..n - 1 {
            let slot = usize::from(path.dirs[level]);
            counters_used.push(path.child_counters[level][slot]);
        }

        (0..n)
            .map(|level| {
                let mut plain = path.payloads[level].clone();
                plain.extend_from_slice(&path.child_counters[level][0].to_le_bytes());
                plain.extend_from_slice(&path.child_counters[level][1].to_le_bytes());
                let nonce = Nonce::from_u64_pair(path.ids[level], counters_used[level]);
                let aad = path.ids[level].to_le_bytes();
                self.aead.encrypt(&nonce, &plain, &aad)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cipher() -> GroupTreeCipher {
        GroupTreeCipher::new(Key::from_bytes([9u8; 32]))
    }

    #[test]
    fn fresh_roundtrip_single_group() {
        let mut c = cipher();
        let enc = c.encrypt_fresh_path(&[b"only-root".to_vec()], &[0], &[]);
        let dec = c.decrypt_path(&enc, &[0], &[]).unwrap();
        assert_eq!(dec.payloads, vec![b"only-root".to_vec()]);
    }

    #[test]
    fn fresh_roundtrip_three_levels() {
        let mut c = cipher();
        let payloads = vec![vec![1u8; 32], vec![2u8; 32], vec![3u8; 32]];
        let ids = [0u32, 2, 5];
        let dirs = [true, false];
        let enc = c.encrypt_fresh_path(&payloads, &ids, &dirs);
        let dec = c.decrypt_path(&enc, &ids, &dirs).unwrap();
        assert_eq!(dec.payloads, payloads);
        assert_eq!(dec.child_counters.len(), 3);
    }

    #[test]
    fn modify_and_reencrypt() {
        let mut c = cipher();
        let ids = [0u32, 1];
        let dirs = [false];
        let enc = c.encrypt_fresh_path(&[vec![0u8; 16], vec![0u8; 16]], &ids, &dirs);
        let mut dec = c.decrypt_path(&enc, &ids, &dirs).unwrap();
        dec.payloads[1] = vec![0xAB; 16];
        let enc2 = c.encrypt_path(dec);
        let dec2 = c.decrypt_path(&enc2, &ids, &dirs).unwrap();
        assert_eq!(dec2.payloads[1], vec![0xAB; 16]);
        assert_eq!(dec2.payloads[0], vec![0u8; 16]);
    }

    #[test]
    fn replay_of_old_root_detected() {
        let mut c = cipher();
        let ids = [0u32];
        let enc_old = c.encrypt_fresh_path(&[vec![7u8; 8]], &ids, &[]);
        // Write a newer version; root counter advances.
        let dec = c.decrypt_path(&enc_old, &ids, &[]).unwrap();
        let _enc_new = c.encrypt_path(dec);
        // Replaying the old ciphertext now fails: counter mismatch.
        assert_eq!(
            c.decrypt_path(&enc_old, &ids, &[]),
            Err(GroupError::Authentication { level: 0 })
        );
    }

    #[test]
    fn tampered_leaf_detected_at_its_level() {
        let mut c = cipher();
        let ids = [0u32, 1, 3];
        let dirs = [false, false];
        let mut enc =
            c.encrypt_fresh_path(&[vec![0u8; 8], vec![1u8; 8], vec![2u8; 8]], &ids, &dirs);
        let last = enc.len() - 1;
        enc[last][0] ^= 0xFF;
        assert_eq!(
            c.decrypt_path(&enc, &ids, &dirs),
            Err(GroupError::Authentication { level: 2 })
        );
    }

    #[test]
    fn swapped_groups_detected() {
        // Moving a validly-encrypted group to a different tree position
        // fails because the group id is the AAD/nonce domain.
        let mut c = cipher();
        let ids = [0u32, 1];
        let dirs = [false];
        let enc = c.encrypt_fresh_path(&[vec![0u8; 8], vec![1u8; 8]], &ids, &dirs);
        let swapped = vec![enc[0].clone(), enc[0].clone()];
        assert!(c.decrypt_path(&swapped, &ids, &dirs).is_err());
    }

    #[test]
    fn counters_increment_per_write() {
        let mut c = cipher();
        assert_eq!(c.root_counter(), 0);
        let enc = c.encrypt_fresh_path(&[vec![0u8; 4]], &[0], &[]);
        assert_eq!(c.root_counter(), 1);
        let dec = c.decrypt_path(&enc, &[0], &[]).unwrap();
        let _ = c.encrypt_path(dec);
        assert_eq!(c.root_counter(), 2);
    }

    #[test]
    fn off_path_sibling_counter_preserved() {
        // Write path root->left twice, then root->right once; the root's
        // left-counter must still decrypt the left child.
        let mut c = cipher();
        // Tree: root 0, children 1 (left) and 2 (right).
        let left_enc = c.encrypt_fresh_path(&[vec![0u8; 4], vec![1u8; 4]], &[0, 1], &[false]);
        // Decrypt left path, re-encrypt with a change.
        let mut dec = c.decrypt_path(&left_enc, &[0, 1], &[false]).unwrap();
        dec.payloads[1] = vec![9u8; 4];
        let left_enc2 = c.encrypt_path(dec);
        // Now operate on the right path, reusing the *current* root group.
        // Build a right path by decrypting the root from left_enc2 and
        // encrypting a fresh right child: simulate by asking decrypt for a
        // path of length 1 (root only) then manual two-level encrypt.
        let root_only = c.decrypt_path(&left_enc2[..1], &[0], &[]).unwrap();
        let right_path = DecryptedPath {
            payloads: vec![root_only.payloads[0].clone(), vec![7u8; 4]],
            child_counters: vec![root_only.child_counters[0], [0, 0]],
            ids: vec![0, 2],
            dirs: vec![true],
        };
        let right_enc = c.encrypt_path(right_path);
        // The left child is still decryptable under the new root.
        let full_left = vec![right_enc[0].clone(), left_enc2[1].clone()];
        let dec_left = c.decrypt_path(&full_left, &[0, 1], &[false]).unwrap();
        assert_eq!(dec_left.payloads[1], vec![9u8; 4]);
        // And the right child decrypts too.
        let dec_right = c.decrypt_path(&right_enc, &[0, 2], &[true]).unwrap();
        assert_eq!(dec_right.payloads[1], vec![7u8; 4]);
    }

    #[test]
    fn malformed_shapes_rejected() {
        let c = cipher();
        assert_eq!(c.decrypt_path(&[], &[], &[]), Err(GroupError::Malformed));
        assert_eq!(
            c.decrypt_path(&[vec![0u8; 40]], &[0, 1], &[]),
            Err(GroupError::Malformed)
        );
    }

    #[test]
    fn overhead_constant() {
        assert_eq!(GroupTreeCipher::overhead(), 16 + 16);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn arbitrary_paths_roundtrip() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let payloads: Vec<Vec<u8>> = (0..rng.gen_range(1..6))
                .map(|_| {
                    let mut p = vec![0u8; rng.gen_range(0..48)];
                    rng.fill(&mut p);
                    p
                })
                .collect();
            let dirs_seed: u64 = rng.gen();
            let mut key = [0u8; 32];
            rng.fill(&mut key);
            let mut c = GroupTreeCipher::new(Key::from_bytes(key));
            let n = payloads.len();
            let ids: Vec<u32> = (0..n as u32).collect();
            let dirs: Vec<bool> = (0..n.saturating_sub(1))
                .map(|i| (dirs_seed >> i) & 1 == 1)
                .collect();
            let enc = c.encrypt_fresh_path(&payloads, &ids, &dirs);
            let dec = c.decrypt_path(&enc, &ids, &dirs).unwrap();
            assert_eq!(&dec.payloads, &payloads, "case {case}");
            // Modify-and-reencrypt cycle also roundtrips.
            let enc2 = c.encrypt_path(dec);
            let dec2 = c.decrypt_path(&enc2, &ids, &dirs).unwrap();
            assert_eq!(&dec2.payloads, &payloads, "case {case}");
        }
    }
}
