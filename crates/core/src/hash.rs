//! The hash map of the elaborator and of every compile path over a
//! [`Design`](crate::Design).
//!
//! Its keys are the program's own ops, shapes and indices, never outside
//! input, so the hasher is a fixed multiply-rotate (the build is offline:
//! no `rustc-hash`) instead of std's keyed SipHash: cheaper on long keys
//! (EXPERIMENTS.md, Figure 16), and no process-random state in elaboration
//! or compilation.

use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`FastHasher`].
pub type FastMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A word-at-a-time multiply-rotate hasher; see the [module](self) docs.
#[derive(Default)]
pub struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517C_C1B7_2722_0A95);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Whole words straight from the slice; only a short tail is
        // zero-padded (a padded copy per word costs a `memcpy` call).
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.mix(u64::from_le_bytes(word.try_into().expect("an 8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The table takes its bucket from the low bits and its tag from
        // the top seven; the multiply leaves the low bits the weakest.
        self.0.rotate_left(26)
    }
}
