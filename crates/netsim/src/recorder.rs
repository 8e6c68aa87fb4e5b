//! The observability spine (DESIGN.md §6.4): one sink trait, one bounded
//! ring recorder and one sampling tracer, written once and generic over the
//! event type. [`crate::trace::TraceEvent`] (packets) and
//! [`crate::cp_trace::CpTraceEvent`] (control transactions) supply only
//! what differs between them through [`TraceRecord`]: their variants, their
//! JSON line, their sample key and their salt label.
//!
//! Determinism is load-bearing: whether an event is traced is a pure hash
//! of the simulator seed and the event's sample key — never wall-clock,
//! thread identity or sink back-pressure — so the same topology + seed +
//! sampling rate reproduces a byte-identical JSONL file on every platform,
//! and a sampled trace is an exact subset of the full trace.
//!
//! The disabled path is one branch: with no sink installed
//! [`Tracer::wants`] and [`Tracer::enabled`] are a `None` check and no
//! event is ever constructed. The ledger's untraced `pkt_ba400` and
//! `cp_churn` runs (`run_s`, parent vs change) hold that path to its ≤2%
//! budget.

use std::collections::VecDeque;
use std::io;
use std::sync::{Arc, Mutex};

use crate::rng::child_seed;

/// What an event type supplies to the spine.
pub trait TraceRecord {
    /// Stream label deriving the sampler's salt from the simulator seed
    /// (see [`child_seed`]); distinct per event type and from every
    /// workload stream, so enabling tracing perturbs no other randomness.
    const STREAM_LABEL: u64;

    /// The identity words an event is sampled under.
    type Key: AsRef<[u64]>;

    /// This event's sample key; `None` for events without an identity,
    /// which are always admitted (so sampled ⊂ full still holds).
    fn sample_key(&self) -> Option<Self::Key>;

    /// Serialise as a single JSON object (one JSONL line, no trailing
    /// newline). Field order must be fixed so output is byte-deterministic.
    fn write_json(&self, out: &mut String);
}

/// Receiver of trace events. Implementations must not feed decisions back
/// into the simulation (observation only) — determinism of the simulated
/// world never depends on the sink.
pub trait Sink<E>: Send {
    /// Record one event.
    fn record(&mut self, ev: E);
}

/// Bounded ring-buffer flight recorder: keeps the most recent `capacity`
/// events, evicting the oldest (and counting evictions) when full.
#[derive(Debug)]
pub struct Recorder<E> {
    cap: usize,
    buf: VecDeque<E>,
    recorded: u64,
    evicted: u64,
}

/// [`Recorder::export_jsonl`] hands its line buffer to the writer whenever
/// it has grown past this many bytes.
const EXPORT_CHUNK: usize = 64 << 10;

impl<E> Recorder<E> {
    /// Recorder holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Recorder<E> {
        let cap = capacity.max(1);
        Recorder {
            cap,
            // Pre-size moderately; very large caps grow on demand so an
            // over-provisioned recorder costs nothing up front.
            buf: VecDeque::with_capacity(cap.min(4096)),
            recorded: 0,
            evicted: 0,
        }
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no events are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total events ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events evicted to make room (oldest-first policy).
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Held events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &E> {
        self.buf.iter()
    }
}

impl<E: TraceRecord> Recorder<E> {
    /// The one JSONL line loop: append each held event to `out`, oldest
    /// first, one per line, calling `after_line` between lines.
    fn write_lines(
        &self,
        out: &mut String,
        mut after_line: impl FnMut(&mut String) -> io::Result<()>,
    ) -> io::Result<()> {
        for ev in &self.buf {
            ev.write_json(out);
            out.push('\n');
            after_line(out)?;
        }
        Ok(())
    }

    /// Serialise the held events as JSONL (one event per line, oldest
    /// first, trailing newline).
    pub fn export_jsonl_string(&self) -> String {
        let mut out = String::with_capacity(self.buf.len() * 96);
        self.write_lines(&mut out, |_| Ok(()))
            .expect("appending to a String cannot fail");
        out
    }

    /// Stream the held events as JSONL to `w` through one reused buffer,
    /// so the transient memory is [`EXPORT_CHUNK`]-sized whatever the ring
    /// holds. Writes arrive in large chunks: pass the `File` itself, no
    /// `BufWriter` needed.
    pub fn export_jsonl<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        let mut buf = String::with_capacity(EXPORT_CHUNK + 512);
        self.write_lines(&mut buf, |buf| {
            if buf.len() >= EXPORT_CHUNK {
                w.write_all(buf.as_bytes())?;
                buf.clear();
            }
            Ok(())
        })?;
        w.write_all(buf.as_bytes())
    }
}

impl<E: Send> Sink<E> for Recorder<E> {
    fn record(&mut self, ev: E) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.evicted += 1;
        }
        self.buf.push_back(ev);
        self.recorded += 1;
    }
}

/// Shared-handle sink: scenario code keeps one `Arc` clone to read the
/// recorder after the run while the simulator owns the other.
impl<E: Send> Sink<E> for Arc<Mutex<Recorder<E>>> {
    fn record(&mut self, ev: E) {
        self.lock()
            .expect("flight recorder mutex poisoned")
            .record(ev);
    }
}

/// The simulator's trace front-end for one event type: owns the optional
/// sink and the sampling decision.
pub struct Tracer<E> {
    sink: Option<Box<dyn Sink<E>>>,
    one_in: u64,
    /// Reserved at construction (from the simulator seed) so sampling keys
    /// off simulation identity, never the enabling call site.
    salt: u64,
}

impl<E: TraceRecord> Tracer<E> {
    /// Disabled tracer for a simulation seeded with `seed`.
    pub(crate) fn disabled(seed: u64) -> Tracer<E> {
        Tracer {
            sink: None,
            one_in: 1,
            salt: child_seed(seed, E::STREAM_LABEL),
        }
    }

    /// Install `sink`, tracing one sample key in `one_in` (1 = all).
    ///
    /// # Panics
    /// `one_in` must be at least 1: "one in zero" names no sample, and
    /// reading it as "everything" would hide the caller's bug.
    pub(crate) fn enable(&mut self, sink: Box<dyn Sink<E>>, one_in: u64) {
        assert!(one_in >= 1, "trace sampling rate is 1-in-n with n >= 1");
        self.one_in = one_in;
        self.sink = Some(sink);
    }

    /// Remove and return the sink, disabling tracing.
    pub(crate) fn disable(&mut self) -> Option<Box<dyn Sink<E>>> {
        self.sink.take()
    }

    /// Is tracing enabled at all? One branch — the hot-path gate for
    /// callers that build the event before knowing its key.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Should events under `key` be recorded? One branch when disabled —
    /// the hot-path gate for callers that know the key up front and skip
    /// building the event otherwise. When enabled, a SplitMix64 fold of
    /// the key words over the seed-derived salt: no state, no wall-clock,
    /// so the decision for a given `(seed, rate, key)` is a pure function.
    #[inline]
    pub fn wants(&self, key: &[u64]) -> bool {
        self.sink.is_some()
            && (self.one_in == 1
                || key.iter().fold(self.salt, |h, &k| child_seed(h, k)) % self.one_in == 0)
    }

    /// Record `ev` if tracing is enabled and its sample key is wanted
    /// (keyless events always are).
    #[inline]
    pub fn record(&mut self, ev: E) {
        if ev.sample_key().is_some_and(|k| !self.wants(k.as_ref())) {
            return;
        }
        if let Some(sink) = &mut self.sink {
            sink.record(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cp_trace::CpTraceEvent;
    use crate::node::NodeId;
    use crate::packet::TrafficClass;
    use crate::trace::TraceEvent;

    /// A packet event whose sample key is `[i]`.
    fn packet(i: u64) -> TraceEvent {
        TraceEvent::Deliver {
            t: i,
            pkt: i,
            node: NodeId(1),
            class: TrafficClass::Background,
            size: 64,
            hops: 3,
            latency: 1000,
        }
    }

    /// A control event whose sample key is `[7, i]`.
    fn control(i: u64) -> CpTraceEvent {
        CpTraceEvent::Terminal {
            t: i,
            origin: 7,
            txn: i,
            node: NodeId(1),
            outcome: "confirmed",
        }
    }

    fn shared<E>(cap: usize) -> Arc<Mutex<Recorder<E>>> {
        Arc::new(Mutex::new(Recorder::new(cap)))
    }

    fn ring_evicts_oldest_and_counts<E>(mk: fn(u64) -> E)
    where
        E: TraceRecord + Send + Clone + PartialEq + std::fmt::Debug,
    {
        let mut r = Recorder::new(3);
        for i in 0..5 {
            r.record(mk(i));
        }
        assert_eq!((r.len(), r.capacity()), (3, 3));
        assert_eq!((r.recorded(), r.evicted()), (5, 2));
        let held: Vec<E> = r.events().cloned().collect();
        assert_eq!(held, vec![mk(2), mk(3), mk(4)], "oldest evicted first");
    }

    fn export_has_one_line_per_held_event<E: TraceRecord + Send>(mk: fn(u64) -> E) {
        // Enough events that the streamed export flushes mid-ring.
        let mut r = Recorder::new(2000);
        for i in 0..2500 {
            r.record(mk(i));
        }
        let text = r.export_jsonl_string();
        assert_eq!(text.lines().count(), r.len());
        assert!(text.ends_with('\n'));
        assert!(
            text.len() > EXPORT_CHUNK,
            "the chunked path must be exercised"
        );
        let mut streamed = Vec::new();
        r.export_jsonl(&mut streamed).unwrap();
        assert_eq!(
            streamed,
            text.as_bytes(),
            "both exports share one line loop"
        );
    }

    fn sampled_is_a_subset_of_full<E>(mk: fn(u64) -> E)
    where
        E: TraceRecord + Send + Clone + PartialEq + std::fmt::Debug + 'static,
    {
        let run = |seed: u64, one_in: u64| {
            let rec = shared::<E>(1 << 12);
            let mut t = Tracer::disabled(seed);
            t.enable(Box::new(rec.clone()), one_in);
            for i in 0..2000 {
                t.record(mk(i));
            }
            let held: Vec<E> = rec.lock().unwrap().events().cloned().collect();
            held
        };
        let full = run(42, 1);
        let sampled = run(42, 8);
        assert_eq!(full.len(), 2000);
        assert_eq!(sampled, run(42, 8), "pure function of (seed, rate, key)");
        // 1/8 of 2000 = 250; generous slack for hash variance.
        assert!((150..=350).contains(&sampled.len()), "{}", sampled.len());
        let mut rest = full.iter();
        for ev in &sampled {
            assert!(rest.any(|f| f == ev), "sampled ⊂ full, in order");
        }
        assert_ne!(sampled, run(43, 8), "another seed, another subset");
    }

    fn wants_agrees_with_record<E: TraceRecord + Send + 'static>(mk: fn(u64) -> E) {
        let rec = shared::<E>(1 << 12);
        let mut t = Tracer::disabled(9);
        t.enable(Box::new(rec.clone()), 4);
        let mut wanted = 0;
        for i in 0..256 {
            let ev = mk(i);
            let key = ev.sample_key().expect("keyed");
            wanted += u64::from(t.wants(key.as_ref()));
            t.record(ev);
        }
        assert_eq!(rec.lock().unwrap().recorded(), wanted);
    }

    fn disabled_tracer_records_nothing<E: TraceRecord + Send + 'static>(mk: fn(u64) -> E) {
        let mut t = Tracer::disabled(1);
        assert!(!t.enabled());
        let key = mk(3).sample_key().expect("keyed");
        assert!(!t.wants(key.as_ref()));
        t.record(mk(3)); // no sink: no-op
        let rec = shared::<E>(4);
        t.enable(Box::new(rec.clone()), 1);
        assert!(t.enabled() && t.wants(key.as_ref()));
        assert!(t.disable().is_some());
        assert!(!t.enabled());
        t.record(mk(3));
        assert_eq!(rec.lock().unwrap().recorded(), 0);
    }

    /// Instantiate every spine test for one event type.
    macro_rules! spine_tests {
        ($module:ident, $mk:ident: $($test:ident),*) => {
            mod $module {
                $(#[test] fn $test() { super::$test(super::$mk) })*
            }
        };
    }
    spine_tests!(packet_events, packet:
        ring_evicts_oldest_and_counts, export_has_one_line_per_held_event,
        sampled_is_a_subset_of_full, wants_agrees_with_record, disabled_tracer_records_nothing);
    spine_tests!(control_events, control:
        ring_evicts_oldest_and_counts, export_has_one_line_per_held_event,
        sampled_is_a_subset_of_full, wants_agrees_with_record, disabled_tracer_records_nothing);

    #[test]
    fn keyless_control_events_are_always_admitted() {
        let rec = shared::<CpTraceEvent>(64);
        let mut t = Tracer::disabled(42);
        // With an absurd rate almost no transaction is admitted…
        t.enable(Box::new(rec.clone()), 1_000_000_007);
        for i in 0..32 {
            t.record(control(i));
        }
        let keyed = rec.lock().unwrap().recorded();
        assert!(keyed < 32);
        // …but events without a transaction identity always are.
        t.record(CpTraceEvent::Sweep {
            t: 1,
            node: NodeId(2),
        });
        assert_eq!(rec.lock().unwrap().recorded(), keyed + 1);
    }

    #[test]
    #[should_panic(expected = "1-in-n with n >= 1")]
    fn enabling_at_one_in_zero_is_a_caller_bug() {
        Tracer::disabled(1).enable(Box::new(Recorder::<TraceEvent>::new(1)), 0);
    }
}
