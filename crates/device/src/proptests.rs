//! Property tests — seeded loops over
//! [`dtcs_netsim::rng::check_cases`] — for the support structures (rates
//! never negative, admission never exceeds the configured budget, Bloom
//! filters never false-negative, ring logs retain exactly the newest
//! entries).

#![cfg(test)]

use crate::support::{Bloom, LogEntry, RingLog, TokenBucket, WindowRate};
use dtcs_netsim::rng::check_cases;
use dtcs_netsim::{SimDuration, SimTime};

/// Over any admission sequence, total admitted bytes never exceed
/// burst + rate × elapsed-time (the defining token-bucket bound).
#[test]
fn token_bucket_never_over_admits() {
    check_cases(0..128, |rng| {
        let rate = rng.gen_range(1.0..1e6);
        let burst = rng.gen_range(1..1_000_000u32);
        let offers: Vec<(u64, u32)> = (0..rng.gen_range(1..200usize))
            .map(|_| (rng.gen_range(0..10_000_000), rng.gen_range(1..100_000)))
            .collect();
        let mut tb = TokenBucket::new(rate, burst);
        let mut now = SimTime::ZERO;
        let mut admitted: f64 = 0.0;
        for (advance, size) in offers {
            now += SimDuration(advance);
            if tb.take(now, size) {
                admitted += size as f64;
            }
            let bound = burst as f64 + rate * now.as_secs_f64();
            assert!(
                admitted <= bound + 1e-6,
                "admitted {admitted} exceeds bound {bound}"
            );
            assert!(tb.tokens() >= -1e-9, "tokens never negative");
        }
    });
}

/// Bloom filters never false-negative, under any insert set.
#[test]
fn bloom_never_false_negative() {
    check_cases(0..128, |rng| {
        let bits = rng.gen_range(64..(1u32 << 16));
        let hashes = rng.gen_range(1..8u8);
        let items: Vec<u64> = (0..rng.gen_range(0..500usize)).map(|_| rng.gen()).collect();
        let mut b = Bloom::new(bits, hashes);
        for &x in &items {
            b.insert(x);
        }
        for &x in &items {
            assert!(b.contains(x));
        }
        assert_eq!(b.inserted(), items.len() as u64);
    });
}

/// A ring log retains exactly the most recent `min(capacity, pushed)`
/// entries, in order.
#[test]
fn ring_log_retains_newest() {
    check_cases(0..128, |rng| {
        let capacity = rng.gen_range(1..64usize);
        let n = rng.gen_range(0..300u64);
        let mut r = RingLog::new(capacity);
        for i in 0..n {
            r.push(LogEntry {
                at: SimTime(i),
                digest: i,
            });
        }
        let snap = r.snapshot();
        let expect_len = capacity.min(n as usize);
        assert_eq!(snap.len(), expect_len);
        assert_eq!(r.total(), n);
        for (k, e) in snap.iter().enumerate() {
            assert_eq!(e.digest, n - expect_len as u64 + k as u64);
        }
    });
}

/// Window rates are non-negative and zero after long gaps.
#[test]
fn window_rate_sane() {
    check_cases(0..128, |rng| {
        let window = rng.gen_range(1..1_000_000_000u64);
        let events: Vec<(u64, f64)> = (0..rng.gen_range(1..100usize))
            .map(|_| (rng.gen_range(0..10_000_000_000), rng.gen_range(0.0..100.0)))
            .collect();
        let mut w = WindowRate::new(SimDuration(window));
        let mut now = SimTime::ZERO;
        for (advance, amount) in events {
            now += SimDuration(advance);
            if let Some((rate, _gap)) = w.record(now, amount) {
                assert!(rate >= 0.0);
            }
            assert!(w.last_rate() >= 0.0);
        }
        // A very long silence then one event: the last completed window
        // must read as a gap (rate dropped to zero).
        let far = now + SimDuration(window.saturating_mul(1000).max(10));
        if let Some((_, gap)) = w.record(far, 1.0) {
            assert!(
                gap || window >= far.as_nanos(),
                "long silences read as gaps"
            );
        }
        assert_eq!(w.last_rate(), 0.0);
    });
}
