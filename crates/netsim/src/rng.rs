//! Deterministic randomness: the workspace's one generator (DESIGN.md §7).
//!
//! Every stochastic component takes a `u64` seed and derives a
//! [`ChaCha8Rng`] with [`seeded`]. The generator and its samplers are
//! written to the semantics of `rand` 0.8.5 / `rand_chacha` 0.3 — the
//! crates the committed `results/` reports were produced with — so a seed
//! means the same stream, draw for draw, as it did then:
//!
//! * **Stream.** ChaCha with 4 double rounds over a 256-bit key, a
//!   64-bit block counter in state words 12–13 and a zero stream id in
//!   14–15; four blocks per refill into a 64-word buffer. A `u64` is two
//!   consecutive words, low word first; when only word 63 is left it is
//!   the low half and the high half is word 0 of the next refill.
//! * **Seeding.** [`seeded`] expands the `u64` into the key with
//!   `rand_core`'s PCG32 sequence, eight little-endian words.
//! * **Samplers.** Integer ranges by widening multiply with rejection
//!   (`u32` draws for `u8`/`u16`/`u32`, `u64` draws for `u64`/`usize`),
//!   floats from the top 53 (unit) or 52 (range) bits of a `u64`,
//!   `gen_bool` by a 64-bit threshold, `shuffle` and `choose` indexing
//!   through the `u32` range sampler.

use std::ops::{Range, RangeInclusive};

/// The ChaCha8 generator (see the module docs for what it promises).
#[derive(Clone, Debug)]
pub struct ChaCha8Rng {
    key: [u32; 8],
    /// Block counter of the next refill.
    counter: u64,
    buf: [u32; BUF_WORDS],
    /// Next unread word of `buf`; `BUF_WORDS` when it is spent.
    index: usize,
}

const BUF_WORDS: usize = 64;

/// Derive a deterministic RNG from a seed.
pub fn seeded(seed: u64) -> ChaCha8Rng {
    let mut state = seed;
    let key = std::array::from_fn(|_| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(11634580027462260723);
        let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
        xorshifted.rotate_right((state >> 59) as u32)
    });
    ChaCha8Rng::from_key(key)
}

/// Derive a child seed from a parent seed and a stream label, so independent
/// components never share RNG streams (SplitMix64 finaliser).
pub fn child_seed(parent: u64, label: u64) -> u64 {
    let mut z = parent ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run `body` once per case index in `cases`, each with its own generator
/// — the loop behind the seeded property tests. A failing case prints
/// its index; narrow `cases` to `i..i + 1` to replay it alone.
pub fn check_cases(cases: Range<u64>, mut body: impl FnMut(&mut ChaCha8Rng)) {
    struct Running(u64);
    impl Drop for Running {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("property failed at case {}", self.0);
            }
        }
    }
    for case in cases {
        let _running = Running(case);
        body(&mut seeded(child_seed(0x5052_4F50, case))); // "PROP"
    }
}

impl ChaCha8Rng {
    fn from_key(key: [u32; 8]) -> ChaCha8Rng {
        ChaCha8Rng {
            key,
            counter: 0,
            buf: [0; BUF_WORDS],
            index: BUF_WORDS,
        }
    }

    /// Generate the next four blocks into `buf`.
    fn refill(&mut self) {
        for block in self.buf.chunks_exact_mut(16) {
            let mut init = [0u32; 16];
            init[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
            init[4..12].copy_from_slice(&self.key);
            init[12] = self.counter as u32;
            init[13] = (self.counter >> 32) as u32;
            self.counter = self.counter.wrapping_add(1);
            let mut x = init;
            let [x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15] = &mut x;
            for _ in 0..4 {
                // One double round: the four columns, then the diagonals.
                quarter_round(x0, x4, x8, x12);
                quarter_round(x1, x5, x9, x13);
                quarter_round(x2, x6, x10, x14);
                quarter_round(x3, x7, x11, x15);
                quarter_round(x0, x5, x10, x15);
                quarter_round(x1, x6, x11, x12);
                quarter_round(x2, x7, x8, x13);
                quarter_round(x3, x4, x9, x14);
            }
            for (out, (x, init)) in block.iter_mut().zip(x.iter().zip(&init)) {
                *out = x.wrapping_add(*init);
            }
        }
        self.index = 0;
    }

    /// The next 32 bits of the stream.
    pub fn next_u32(&mut self) -> u32 {
        if self.index >= BUF_WORDS {
            self.refill();
        }
        let word = self.buf[self.index];
        self.index += 1;
        word
    }

    /// The next 64 bits of the stream (module docs, "Stream").
    pub fn next_u64(&mut self) -> u64 {
        let low = self.next_u32();
        u64::from(self.next_u32()) << 32 | u64::from(low)
    }

    /// A uniform value over the whole type: `u32`, `u64`, or `f64` in
    /// `[0, 1)`.
    pub fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// A uniform value in `range` (`a..b` or `a..=b` over `u8`, `u16`,
    /// `u32`, `u64` or `usize`; `a..b` over `f64`). Panics on an empty
    /// range.
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`. `p == 1.0` draws nothing; every other
    /// value draws one `u64`. Panics unless `0.0 <= p <= 1.0`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "p={p} is outside range [0.0, 1.0]"
        );
        // 2^64 as f64; `p * 2^64` truncates to the threshold.
        p == 1.0 || self.next_u64() < (p * 18_446_744_073_709_551_616.0) as u64
    }

    /// Shuffle in place (Fisher–Yates from the last element down).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.index_below(i + 1));
        }
    }

    /// A uniformly chosen element; `None` for an empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.index_below(items.len())])
        }
    }

    /// Uniform index below `bound`, drawn as a `u32` whenever it fits.
    fn index_below(&mut self, bound: usize) -> usize {
        match u32::try_from(bound) {
            Ok(bound) => self.gen_range(0..bound) as usize,
            Err(_) => self.gen_range(0..bound),
        }
    }

    /// Uniform `u32` below `range` (`range > 0`): widening multiply,
    /// rejecting a draw whose low half exceeds `zone`.
    fn below_u32(&mut self, range: u32, zone: u32) -> u32 {
        loop {
            let wide = u64::from(self.next_u32()) * u64::from(range);
            if wide as u32 <= zone {
                return (wide >> 32) as u32;
            }
        }
    }

    /// Uniform `u64` below `range` (`range > 0`), same scheme.
    fn below_u64(&mut self, range: u64) -> u64 {
        let zone = (range << range.leading_zeros()).wrapping_sub(1);
        loop {
            let wide = u128::from(self.next_u64()) * u128::from(range);
            if wide as u64 <= zone {
                return (wide >> 64) as u64;
            }
        }
    }
}

#[inline(always)]
fn quarter_round(a: &mut u32, b: &mut u32, c: &mut u32, d: &mut u32) {
    *a = a.wrapping_add(*b);
    *d = (*d ^ *a).rotate_left(16);
    *c = c.wrapping_add(*d);
    *b = (*b ^ *c).rotate_left(12);
    *a = a.wrapping_add(*b);
    *d = (*d ^ *a).rotate_left(8);
    *c = c.wrapping_add(*d);
    *b = (*b ^ *c).rotate_left(7);
}

/// Types [`ChaCha8Rng::gen`] can draw.
pub trait Standard {
    /// One value over the whole type.
    fn draw(rng: &mut ChaCha8Rng) -> Self;
}

impl Standard for u32 {
    fn draw(rng: &mut ChaCha8Rng) -> u32 {
        rng.next_u32()
    }
}

impl Standard for u64 {
    fn draw(rng: &mut ChaCha8Rng) -> u64 {
        rng.next_u64()
    }
}

impl Standard for f64 {
    fn draw(rng: &mut ChaCha8Rng) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges [`ChaCha8Rng::gen_range`] can sample; the output type parameter
/// lets an expected type drive inference of untyped range literals.
pub trait SampleRange<T> {
    /// One value in the range.
    fn sample(self, rng: &mut ChaCha8Rng) -> T;
}

/// `$below(rng, span)` draws below `span = high - low + 1`; a span that
/// wrapped to 0 is the whole type, where any draw will do.
macro_rules! int_ranges {
    ($($t:ty => $wide:ty, $below:expr;)+) => {$(
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut ChaCha8Rng) -> $t {
                let (low, high) = self.into_inner();
                assert!(low <= high, "cannot sample empty range");
                let span = high.wrapping_sub(low).wrapping_add(1) as $wide;
                let offset = if span == 0 {
                    rng.gen::<$wide>()
                } else {
                    $below(rng, span)
                };
                low.wrapping_add(offset as $t)
            }
        }

        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut ChaCha8Rng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                (self.start..=self.end - 1).sample(rng)
            }
        }
    )+};
}

/// The exact rejection zone of the narrow types: the largest multiple of
/// `span` that fits a `u32`, minus one.
fn below_exact(rng: &mut ChaCha8Rng, span: u32) -> u32 {
    rng.below_u32(span, u32::MAX - (u32::MAX - span + 1) % span)
}

/// The wide types' zone: `span` shifted to the top bit, minus one —
/// conservative, but a shift instead of a division.
fn below_shifted(rng: &mut ChaCha8Rng, span: u32) -> u32 {
    rng.below_u32(span, (span << span.leading_zeros()).wrapping_sub(1))
}

int_ranges! {
    u8 => u32, below_exact;
    u16 => u32, below_exact;
    u32 => u32, below_shifted;
    u64 => u64, ChaCha8Rng::below_u64;
    usize => u64, ChaCha8Rng::below_u64;
}

impl SampleRange<f64> for Range<f64> {
    fn sample(self, rng: &mut ChaCha8Rng) -> f64 {
        let (low, high) = (self.start, self.end);
        assert!(low < high, "cannot sample empty range");
        let mut scale = high - low;
        assert!(scale.is_finite(), "range overflow");
        loop {
            // 52 random mantissa bits under exponent 0: a value in [1, 2).
            let one_to_two = f64::from_bits(1023 << 52 | rng.next_u64() >> 12);
            let value = (one_to_two - 1.0) * scale + low;
            if value < high {
                return value;
            }
            // Rounding landed on `high`: shave one ulp off the scale.
            scale = f64::from_bits(scale.to_bits() - 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic() {
        let mut a = seeded(42);
        let mut b = seeded(42);
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn child_seeds_differ_per_label() {
        let s = 1234;
        assert_ne!(child_seed(s, 0), child_seed(s, 1));
        assert_ne!(child_seed(s, 1), child_seed(s, 2));
        assert_eq!(child_seed(s, 5), child_seed(s, 5));
    }

    /// The published ChaCha8 keystream for the all-zero key and nonce.
    #[test]
    fn zero_key_keystream_matches_the_test_vector() {
        let mut rng = ChaCha8Rng::from_key([0; 8]);
        let bytes: Vec<u8> = (0..8).flat_map(|_| rng.next_u32().to_le_bytes()).collect();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "3e00ef2f895f40d67f5bb8e81f09a5a12c840ec3ce9a7f3b181be188ef711a1e"
        );
    }

    #[test]
    fn u64_straddles_the_refill_low_word_first() {
        let mut words = seeded(7);
        let all: Vec<u32> = (0..2 * BUF_WORDS).map(|_| words.next_u32()).collect();
        let mut rng = seeded(7);
        assert_eq!(rng.next_u64(), u64::from(all[1]) << 32 | u64::from(all[0]));
        for _ in 2..BUF_WORDS - 1 {
            rng.next_u32();
        }
        // 63 words read: word 63 is the low half, the next refill's word
        // 0 the high half.
        assert_eq!(
            rng.next_u64(),
            u64::from(all[BUF_WORDS]) << 32 | u64::from(all[BUF_WORDS - 1])
        );
        assert_eq!(rng.next_u32(), all[BUF_WORDS + 1]);
    }

    #[test]
    fn gen_bool_one_draws_nothing_and_others_draw_a_u64() {
        let mut rng = seeded(3);
        let mut reference = seeded(3);
        assert!(rng.gen_bool(1.0));
        assert_eq!(rng.next_u32(), reference.next_u32());
        assert!(!rng.gen_bool(0.0));
        reference.next_u64();
        assert_eq!(rng.next_u32(), reference.next_u32());
    }

    /// `u8` ranges draw a `u32` against the exact zone: for a span of 17
    /// that accepts every draw whose product's low half is at most
    /// `u32::MAX - 2^32 % 17`, which the shifted zone would not.
    #[test]
    fn narrow_ranges_take_the_exact_zone_path() {
        let exact = u32::MAX - (u32::MAX - 17 + 1) % 17;
        assert_eq!(exact, u32::MAX - 1);
        let shifted = (17u32 << 17u32.leading_zeros()).wrapping_sub(1);
        assert!(shifted < exact);
        let mut rng = seeded(11);
        let mut reference = seeded(11);
        for _ in 0..10_000 {
            let v: u8 = rng.gen_range(8..=24);
            assert!((8..=24).contains(&v));
            let wide = loop {
                let wide = u64::from(reference.next_u32()) * 17;
                if wide as u32 <= exact {
                    break wide;
                }
            };
            assert_eq!(v, 8 + (wide >> 32) as u8);
        }
    }

    #[test]
    fn ranges_stay_in_bounds_and_infer_their_type() {
        let mut rng = seeded(5);
        for _ in 0..2_000 {
            assert!((3..9usize).contains(&rng.gen_range(3..9)));
            assert!((1..=2u64).contains(&rng.gen_range(1..=2)));
            assert!((0.5..1.5).contains(&rng.gen_range(0.5..1.5)));
            assert!((0.0..1.0).contains(&rng.gen::<f64>()));
            assert_eq!(rng.gen_range(4..5u16), 4);
        }
        let _: u32 = rng.gen_range(0..=u32::MAX);
    }

    /// Pinned from the generator that reproduces the committed `results/`
    /// reports byte for byte.
    #[test]
    fn seeded_42_shuffle_and_choose_are_pinned() {
        let mut rng = seeded(42);
        let mut items: Vec<u32> = (0..10).collect();
        rng.shuffle(&mut items);
        assert_eq!(items, [0, 3, 5, 7, 9, 4, 8, 1, 6, 2]);
        assert_eq!(rng.choose(&items), Some(&3));
        assert_eq!(rng.choose::<u32>(&[]), None);
    }

    #[test]
    fn check_cases_gives_each_case_its_own_stream() {
        let mut firsts = Vec::new();
        check_cases(0..8, |rng| firsts.push(rng.next_u64()));
        let mut replay = Vec::new();
        check_cases(3..4, |rng| replay.push(rng.next_u64()));
        assert_eq!(replay, [firsts[3]]);
        firsts.sort_unstable();
        firsts.dedup();
        assert_eq!(firsts.len(), 8);
    }
}
