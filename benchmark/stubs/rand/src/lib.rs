//! Functional stub for the narrow slice of `rand` this workspace uses.
//! Deterministic but NOT the real rand streams — fine for the harness,
//! where before/after builds share the same stub.

use std::ops::{Range, RangeInclusive};

pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

pub trait RandValue {
    fn rand_from(x: u64) -> Self;
}
impl RandValue for u64 {
    fn rand_from(x: u64) -> u64 {
        x
    }
}
impl RandValue for u32 {
    fn rand_from(x: u64) -> u32 {
        (x >> 32) as u32
    }
}
impl RandValue for usize {
    fn rand_from(x: u64) -> usize {
        x as usize
    }
}
impl RandValue for f64 {
    fn rand_from(x: u64) -> f64 {
        (x >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Mirrors real rand's `SampleRange<T>`: the *output* type parameter lets
/// an expected type (e.g. a `u8` argument position) drive inference of
/// untyped integer literals in the range, exactly like upstream.
pub trait SampleRange<T> {
    fn sample(self, x: u64) -> T;
}
macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, x: u64) -> $t {
                assert!(self.start < self.end);
                self.start + (x % (self.end - self.start) as u64) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, x: u64) -> $t {
                let (s, e) = (*self.start(), *self.end());
                s + (x % ((e - s) as u64 + 1)) as $t
            }
        }
    )*};
}
int_sample_range!(u8, u16, u32, u64, usize);
impl SampleRange<f64> for Range<f64> {
    fn sample(self, x: u64) -> f64 {
        let unit = (x >> 11) as f64 / (1u64 << 53) as f64;
        self.start + unit * (self.end - self.start)
    }
}

pub trait Rng: RngCore {
    fn gen<T: RandValue>(&mut self) -> T
    where
        Self: Sized,
    {
        T::rand_from(self.next_u64())
    }
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.gen::<f64>() < p
    }
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample(self.next_u64())
    }
}
impl<R: RngCore + ?Sized> Rng for R {}

pub mod seq {
    use super::RngCore;

    pub trait SliceRandom {
        type Item;
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                let i = (rng.next_u64() % self.len() as u64) as usize;
                Some(&self[i])
            }
        }
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                self.swap(i, j);
            }
        }
    }
}
