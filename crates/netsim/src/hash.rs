//! One seedless hasher for maps keyed by the program's own integers.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// One 64x64 -> 128-bit multiply, the high half folded into the low half.
/// The keys are the program's own, never chosen outside it, so a map needs
/// no per-process random seed — and without one its layout, like
/// everything else in a run, repeats exactly.
#[derive(Clone, Copy, Debug, Default)]
pub struct MulHasher(u64);

impl Hasher for MulHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let m = u128::from(self.0 ^ x) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }
}

/// A [`HashMap`] hashed by [`MulHasher`].
pub type MulHashMap<K, V> = HashMap<K, V, BuildHasherDefault<MulHasher>>;
