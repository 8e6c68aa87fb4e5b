//! Functional stub: ChaCha8Rng replaced by SplitMix64 (deterministic).

use rand::{RngCore, SeedableRng};

#[derive(Clone, Debug)]
pub struct ChaCha8Rng {
    state: u64,
}

impl SeedableRng for ChaCha8Rng {
    fn seed_from_u64(seed: u64) -> Self {
        ChaCha8Rng {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
