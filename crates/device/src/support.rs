//! Small data structures backing the runtime modules: token bucket, Bloom
//! filter, and digest ring log. Hand-rolled (no external deps) and
//! allocation-free after construction — these sit on the per-packet path.

use dtcs_netsim::{SimDuration, SimTime};

/// Classic token bucket in bytes.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    rate_bytes_per_sec: f64,
    burst_bytes: f64,
    tokens: f64,
    last: SimTime,
}

impl TokenBucket {
    /// New bucket, initially full.
    pub fn new(rate_bytes_per_sec: f64, burst_bytes: u32) -> TokenBucket {
        TokenBucket {
            rate_bytes_per_sec,
            burst_bytes: burst_bytes as f64,
            tokens: burst_bytes as f64,
            last: SimTime::ZERO,
        }
    }

    /// Try to consume `bytes` at time `now`; `true` if admitted.
    pub fn take(&mut self, now: SimTime, bytes: u32) -> bool {
        self.refill(now);
        if self.tokens >= bytes as f64 {
            self.tokens -= bytes as f64;
            true
        } else {
            false
        }
    }

    fn refill(&mut self, now: SimTime) {
        if now > self.last {
            let dt = (now - self.last).as_secs_f64();
            self.tokens = (self.tokens + dt * self.rate_bytes_per_sec).min(self.burst_bytes);
            self.last = now;
        }
    }

    /// Current token level (for tests).
    pub fn tokens(&self) -> f64 {
        self.tokens
    }
}

/// Fixed-size Bloom filter over `u64` digests, using double hashing.
#[derive(Clone, Debug)]
pub struct Bloom {
    bits: Vec<u64>,
    nbits: u64,
    hashes: u8,
    inserted: u64,
}

impl Bloom {
    /// Filter with `nbits` bits (rounded up to a word) and `hashes`
    /// probes per element.
    pub fn new(nbits: u32, hashes: u8) -> Bloom {
        let words = ((nbits as usize).max(64)).div_ceil(64);
        Bloom {
            bits: vec![0; words],
            nbits: (words * 64) as u64,
            hashes: hashes.max(1),
            inserted: 0,
        }
    }

    fn probes(&self, digest: u64) -> impl Iterator<Item = u64> + '_ {
        // Double hashing: h_i = h1 + i * h2.
        let h1 = digest;
        let h2 = digest.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let nbits = self.nbits;
        (0..self.hashes as u64).map(move |i| h1.wrapping_add(i.wrapping_mul(h2)) % nbits)
    }

    /// Insert a digest.
    pub fn insert(&mut self, digest: u64) {
        let positions: Vec<u64> = self.probes(digest).collect();
        for p in positions {
            self.bits[(p / 64) as usize] |= 1 << (p % 64);
        }
        self.inserted += 1;
    }

    /// Membership test (no false negatives).
    pub fn contains(&self, digest: u64) -> bool {
        self.probes(digest)
            .all(|p| self.bits[(p / 64) as usize] & (1 << (p % 64)) != 0)
    }

    /// Elements inserted.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }
}

/// One logged digest record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LogEntry {
    /// When the packet was seen.
    pub at: SimTime,
    /// Header digest.
    pub digest: u64,
}

/// Fixed-capacity overwrite-oldest digest log.
#[derive(Clone, Debug)]
pub struct RingLog {
    entries: Vec<LogEntry>,
    head: usize,
    capacity: usize,
    total: u64,
}

impl RingLog {
    /// Ring of `capacity` entries.
    pub fn new(capacity: usize) -> RingLog {
        RingLog {
            entries: Vec::with_capacity(capacity.min(1 << 20)),
            head: 0,
            capacity: capacity.max(1),
            total: 0,
        }
    }

    /// Append, overwriting the oldest entry when full.
    pub fn push(&mut self, entry: LogEntry) {
        if self.entries.len() < self.capacity {
            self.entries.push(entry);
        } else {
            self.entries[self.head] = entry;
            self.head = (self.head + 1) % self.capacity;
        }
        self.total += 1;
    }

    /// Entries currently retained, oldest first.
    pub fn snapshot(&self) -> Vec<LogEntry> {
        let mut out = Vec::with_capacity(self.entries.len());
        out.extend_from_slice(&self.entries[self.head..]);
        out.extend_from_slice(&self.entries[..self.head]);
        out
    }

    /// Total entries ever pushed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Entries retained.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the ring empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Sliding-window rate estimator: counts events in fixed windows and
/// reports the last completed window's rate.
#[derive(Clone, Debug)]
pub struct WindowRate {
    window: SimDuration,
    win_start: SimTime,
    count: f64,
    last_rate: f64,
}

impl WindowRate {
    /// Estimator with the given window width.
    pub fn new(window: SimDuration) -> WindowRate {
        WindowRate {
            window: SimDuration(window.as_nanos().max(1)),
            win_start: SimTime::ZERO,
            count: 0.0,
            last_rate: 0.0,
        }
    }

    /// Record `amount` at `now`; returns `Some((rate, gap))` when a
    /// window just completed: `rate` is the completed window's rate in
    /// amount/second and `gap` is true when one or more *empty* windows
    /// followed it (i.e. the rate then dropped to zero before `now`).
    /// Reporting both lets a consumer see a burst peak *and* the calm
    /// after it from a single packet arrival.
    pub fn record(&mut self, now: SimTime, amount: f64) -> Option<(f64, bool)> {
        let mut completed = None;
        if now >= self.win_start + self.window {
            let rate = self.count / self.window.as_secs_f64();
            let w = self.window.as_nanos();
            let skipped = (now.as_nanos() - self.win_start.as_nanos()) / w;
            let gap = skipped > 1;
            self.last_rate = if gap { 0.0 } else { rate };
            completed = Some((rate, gap));
            self.win_start = SimTime(self.win_start.as_nanos() + skipped * w);
            self.count = 0.0;
        }
        self.count += amount;
        completed
    }

    /// Rate over the last completed window.
    pub fn last_rate(&self) -> f64 {
        self.last_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_bucket_burst_then_limit() {
        let mut tb = TokenBucket::new(1000.0, 500);
        // Full burst available.
        assert!(tb.take(SimTime::ZERO, 500));
        assert!(!tb.take(SimTime::ZERO, 1));
        // After 100 ms, 100 bytes refilled.
        let t = SimTime::from_millis(100);
        assert!(tb.take(t, 100));
        assert!(!tb.take(t, 10));
    }

    #[test]
    fn token_bucket_caps_at_burst() {
        let mut tb = TokenBucket::new(1000.0, 200);
        let _ = tb.take(SimTime::ZERO, 0);
        let late = SimTime::from_secs(100);
        assert!(tb.take(late, 200));
        assert!(!tb.take(late, 1), "burst cap respected");
    }

    #[test]
    fn bloom_no_false_negatives() {
        let mut b = Bloom::new(1 << 14, 4);
        for i in 0..1000u64 {
            b.insert(i.wrapping_mul(0x2545F4914F6CDD1D));
        }
        for i in 0..1000u64 {
            assert!(b.contains(i.wrapping_mul(0x2545F4914F6CDD1D)));
        }
    }

    #[test]
    fn bloom_low_false_positives_when_sized() {
        let mut b = Bloom::new(1 << 16, 4);
        for i in 0..1000u64 {
            b.insert(i);
        }
        let fp = (100_000..110_000u64).filter(|&x| b.contains(x)).count();
        // ~65536 bits for 1000 elems, k=4: false-positive rate well under 1%.
        assert!(fp < 100, "false positives: {fp}/10000");
    }

    #[test]
    fn ring_log_overwrites_oldest() {
        let mut r = RingLog::new(3);
        for i in 0..5u64 {
            r.push(LogEntry {
                at: SimTime(i),
                digest: i,
            });
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(
            snap.iter().map(|e| e.digest).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(r.total(), 5);
    }

    #[test]
    fn window_rate_basic() {
        let mut w = WindowRate::new(SimDuration::from_secs(1));
        for i in 0..10 {
            assert_eq!(w.record(SimTime::from_millis(i * 100), 1.0), None);
        }
        // First event of the next window completes the previous one.
        let r = w.record(SimTime::from_millis(1000), 1.0);
        assert_eq!(r, Some((10.0, false)));
        assert_eq!(w.last_rate(), 10.0);
    }

    #[test]
    fn window_rate_gap_reports_peak_then_zero() {
        let mut w = WindowRate::new(SimDuration::from_secs(1));
        w.record(SimTime::ZERO, 5.0);
        // Long silence then a packet: the completed window's peak rate is
        // reported together with the gap flag, and last_rate reads 0.
        let r = w.record(SimTime::from_secs(10), 1.0);
        assert_eq!(r, Some((5.0, true)));
        assert_eq!(w.last_rate(), 0.0);
    }
}
