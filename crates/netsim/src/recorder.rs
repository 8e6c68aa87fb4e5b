//! The observability spine (DESIGN.md §6.4): one sink trait, one bounded
//! ring recorder and one sampling tracer, written once and generic over the
//! event type — and one schema. Each stream's events are declared once, as
//! a `trace_events!` table ([`crate::trace::TraceEvent`] for packets,
//! [`crate::cp_trace::CpTraceEvent`] for control transactions); the enum,
//! its [`TraceRecord`] writer and its `check_line` reader all come from
//! the table, through the one `Wire` codec each field type has. A closed
//! set of words a field may hold is a `wire_words!` enum.
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
use std::fmt::Write as _;
use std::io;
use std::sync::{Arc, Mutex};

use crate::addr::Addr;
use crate::json::{escape_into, Json};
use crate::node::{LinkId, NodeId};
use crate::rng::child_seed;

/// What an event type supplies to the spine; `trace_events!` writes the
/// impl from the stream's table.
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
    /// newline): `t`, `kind`, then the fields in table order, so output is
    /// byte-deterministic.
    fn write_json(&self, out: &mut String);
}

/// How one field type is laid on a trace line and checked on the way back
/// in: a field is `,"name":value`, an absent `Option` is omitted, and the
/// two groups ([`crate::cp_trace::CpMeta`], [`crate::cp_trace::CpVerdict`])
/// flatten into fields of their own.
pub(crate) trait Wire {
    /// Append the field to `out`; `key` is its ready-made `,"name":`.
    fn write(&self, key: &str, out: &mut String);

    /// The field `name`, if this type may not omit it, comes next on
    /// `line` and holds a value this type can write.
    fn check(name: &str, line: &mut Fields<'_>) -> Result<(), String>;
}

/// A parsed line's fields not yet checked, in wire order. Errors name the
/// line's kind and the field at fault.
pub(crate) struct Fields<'a> {
    pub(crate) kind: &'a str,
    rest: std::slice::Iter<'a, (String, Json)>,
}

impl<'a> Fields<'a> {
    /// The fields of `line` after the `t` and `kind` every line opens with.
    pub(crate) fn open(line: &'a Json) -> Result<Fields<'a>, String> {
        let Json::Object(fields) = line else {
            return Err("line is not a JSON object".into());
        };
        let mut line = Fields {
            kind: "line",
            rest: fields.iter(),
        };
        u64::check("t", &mut line)?;
        line.kind = line.take("kind", "a string", Json::as_str)?;
        Ok(line)
    }

    /// Is `name` the next field? How an optional field tells it is there.
    pub(crate) fn next_is(&self, name: &str) -> bool {
        matches!(self.rest.as_slice().first(), Some((k, _)) if k == name)
    }

    /// Take the next field, which must be `name` holding `what` as `get`
    /// reads it.
    pub(crate) fn take<T>(
        &mut self,
        name: &str,
        what: &str,
        get: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        let kind = self.kind;
        match self.rest.next() {
            Some((k, v)) if k == name => {
                get(v).ok_or_else(|| format!("{kind}: field {name:?} must be {what}, found {v}"))
            }
            Some((k, _)) => Err(format!("{kind}: expected field {name:?}, found {k:?}")),
            None => Err(format!("{kind}: missing field {name:?}")),
        }
    }

    /// Every field has been taken.
    pub(crate) fn close(mut self) -> Result<(), String> {
        match self.rest.next() {
            Some((k, _)) => Err(format!("{}: unexpected field {k:?}", self.kind)),
            None => Ok(()),
        }
    }
}

/// Append `v` in decimal. Every line is mostly integers, and going
/// through `fmt` for each would cost more than the rest of the export.
pub(crate) fn push_int(v: u64, out: &mut String) {
    let mut digits = [b'0'; 20];
    let (mut at, mut v) = (digits.len(), v);
    loop {
        at -= 1;
        digits[at] += (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// The field types that print as one bare JSON token: how it prints, what
/// an error calls it, and how it reads back — an integer only if it fits.
macro_rules! wire_tokens {
    ($($T:ty: |$v:ident, $out:ident| $push:expr, $what:literal, $get:expr;)*) => {$(
        impl Wire for $T {
            fn write(&self, key: &str, $out: &mut String) {
                $out.push_str(key);
                let $v = *self;
                $push;
            }
            fn check(name: &str, line: &mut Fields<'_>) -> Result<(), String> {
                line.take(name, $what, $get).map(drop)
            }
        }
    )*};
}
wire_tokens! {
    u8: |v, out| push_int(v.into(), out), "an integer below 2^8",
        |v| u8::try_from(v.as_u64()?).ok();
    u32: |v, out| push_int(v.into(), out), "an integer below 2^32",
        |v| u32::try_from(v.as_u64()?).ok();
    u64: |v, out| push_int(v, out), "an integer below 2^64", Json::as_u64;
    NodeId: |v, out| push_int(v.0 as u64, out), "a node index",
        |v| usize::try_from(v.as_u64()?).ok();
    LinkId: |v, out| push_int(v.0 as u64, out), "a link index",
        |v| usize::try_from(v.as_u64()?).ok();
    bool: |v, out| out.push_str(if v { "true" } else { "false" }), "a boolean", Json::as_bool;
}

/// Free text is escaped on the way out; any string reads back.
macro_rules! wire_text {
    ($($T:ty),*) => {$(
        impl Wire for $T {
            fn write(&self, key: &str, out: &mut String) {
                out.extend([key, "\""]);
                escape_into(self, out);
                out.push('"');
            }
            fn check(name: &str, line: &mut Fields<'_>) -> Result<(), String> {
                line.take(name, "a string", Json::as_str).map(drop)
            }
        }
    )*};
}
wire_text!(&'static str, String);

/// An address is the string `node.host`.
impl Wire for Addr {
    fn write(&self, key: &str, out: &mut String) {
        let _ = write!(out, "{key}\"{self:?}\"");
    }
    fn check(name: &str, line: &mut Fields<'_>) -> Result<(), String> {
        line.take(name, "a \"node.host\" address", |v| {
            let text = v.as_str()?;
            let (node, host) = text.split_once('.')?;
            let addr = Addr::new(NodeId(node.parse::<u16>().ok()?.into()), host.parse().ok()?);
            (format!("{addr:?}") == text).then_some(())
        })
    }
}

/// An absent value is an omitted field.
impl<T: Wire> Wire for Option<T> {
    fn write(&self, key: &str, out: &mut String) {
        if let Some(v) = self {
            v.write(key, out);
        }
    }
    fn check(name: &str, line: &mut Fields<'_>) -> Result<(), String> {
        if line.next_is(name) {
            T::check(name, line)
        } else {
            Ok(())
        }
    }
}

/// Declare a closed set of wire words once: each variant is written as
/// the word given after `=`, or as its own name. From the list come the
/// enum, `ALL`, `word()`, the dense `index()` and a [`Wire`] impl that
/// reads back members only.
macro_rules! wire_words {
    (
        $(#[$em:meta])*
        pub enum $E:ident {
            $( $(#[$vm:meta])* $V:ident $(= $word:literal)?, )*
        }
    ) => {
        $(#[$em])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
        pub enum $E {
            $( $(#[$vm])* $V, )*
        }

        impl $E {
            /// Every member, in declaration (and [`Self::index`]) order.
            pub const ALL: &'static [$E] = &[$($E::$V),*];

            /// The word this member is written as on a trace line.
            pub fn word(self) -> &'static str {
                match self {
                    $( $E::$V => $crate::recorder::wire_words!(@word $V $($word)?), )*
                }
            }

            /// Dense index: the member's position in [`Self::ALL`].
            pub fn index(self) -> usize {
                self as usize
            }
        }

        impl $crate::recorder::Wire for $E {
            fn write(&self, key: &str, out: &mut String) {
                out.extend([key, "\"", self.word(), "\""]);
            }
            fn check(
                name: &str,
                line: &mut $crate::recorder::Fields<'_>,
            ) -> Result<(), String> {
                let what = concat!("a ", stringify!($E), " word");
                line.take(name, what, |v| {
                    let word = v.as_str()?;
                    $E::ALL.iter().find(|m| m.word() == word)
                })
                .map(drop)
            }
        }
    };
    (@word $V:ident) => { stringify!($V) };
    (@word $V:ident $word:literal) => { $word };
}
pub(crate) use wire_words;

/// Declare one stream's events once. A row is a variant, its wire `kind`,
/// the fields its sample key is made of with the key expression over
/// them, and its fields in wire order — `name as "wire_name"` where the
/// two differ; every variant also opens with the timestamp `t`. From the
/// table come the enum, `KINDS`, `kind()`, the [`TraceRecord`] writer and
/// `check_line`, the reader-side check that accepts exactly the lines the
/// writer can emit.
macro_rules! trace_events {
    (
        $(#[$em:meta])*
        pub enum $E:ident: stream $label:literal, key $Key:ty;
        $(
            $(#[$vm:meta])*
            $V:ident = $kind:literal, key($($kf:ident),*) $key:expr, {
                $( $(#[$fm:meta])* $f:ident $(as $wire:literal)?: $ft:ty, )*
            }
        )*
    ) => {
        $(#[$em])*
        #[derive(Clone, Debug, PartialEq)]
        pub enum $E {
            $(
                $(#[$vm])*
                $V {
                    /// Timestamp (ns).
                    t: u64,
                    $( $(#[$fm])* $f: $ft, )*
                },
            )*
        }

        impl $E {
            /// Every kind tag of the stream, in table order.
            pub const KINDS: &'static [&'static str] = &[$($kind),*];

            /// Stable kind tag used in the JSONL schema.
            pub fn kind(&self) -> &'static str {
                match self {
                    $( $E::$V { .. } => $kind, )*
                }
            }

            /// Parse one JSONL line and check it against the table: `t`,
            /// a known `kind`, then exactly that kind's fields, in wire
            /// order, each holding a value its type can write. Returns
            /// the parsed object.
            pub fn check_line(line: &str) -> Result<$crate::json::Json, String> {
                use $crate::recorder::{Fields, Wire};
                let line = $crate::json::parse(line).map_err(|e| e.to_string())?;
                let mut rest = Fields::open(&line)?;
                match rest.kind {
                    $( $kind => {
                        $( <$ft as Wire>::check(
                            $crate::recorder::trace_events!(@name $f $($wire)?),
                            &mut rest,
                        )?; )*
                    } )*
                    other => {
                        return Err(format!(
                            "unknown event kind {other:?} (known: {:?})",
                            $E::KINDS
                        ))
                    }
                }
                rest.close()?;
                Ok(line)
            }
        }

        impl $crate::recorder::TraceRecord for $E {
            const STREAM_LABEL: u64 = $label;

            type Key = $Key;

            fn sample_key(&self) -> Option<$Key> {
                match self {
                    $( $E::$V { $($kf,)* .. } => $key, )*
                }
            }

            fn write_json(&self, out: &mut String) {
                match self {
                    $( $E::$V { t, $($f),* } => {
                        out.push_str("{\"t\":");
                        $crate::recorder::push_int(*t, out);
                        out.push_str(concat!(",\"kind\":\"", $kind, "\""));
                        $( $crate::recorder::Wire::write(
                            $f,
                            concat!(",\"", $crate::recorder::trace_events!(@name $f $($wire)?), "\":"),
                            out,
                        ); )*
                    } )*
                }
                out.push('}');
            }
        }
    };
    (@name $f:ident) => { stringify!($f) };
    (@name $f:ident $wire:literal) => { $wire };
}
pub(crate) use trace_events;

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
    use crate::cp_trace::{CpActor, CpMeta, CpOutcome, CpState, CpTraceEvent, CpVerdict};
    use crate::packet::{Proto, TrafficClass};
    use crate::stats::DropReason;
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
            outcome: CpOutcome::Confirmed,
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

    /// A line as `(name, raw JSON value)` pairs, and back.
    fn split(line: &Json) -> Vec<(String, String)> {
        let Json::Object(fields) = line else {
            panic!("{line} is not an object");
        };
        let raw = |(k, v): &(String, Json)| (k.clone(), v.to_string());
        fields.iter().map(raw).collect()
    }

    fn join(fields: &[(String, String)]) -> String {
        let body: Vec<String> = fields.iter().map(|(k, v)| format!("{k:?}:{v}")).collect();
        format!("{{{}}}", body.join(","))
    }

    /// Hold the two sides of one stream's table against each other.
    /// `samples` must cover every kind, and where a field is optional hold
    /// the event both with and without it: the reader has to take every
    /// written line, give back exactly its fields, and refuse each way of
    /// breaking it — a field dropped (unless that makes another sample's
    /// line), an unknown field anywhere, an integer one past its type
    /// (`narrow` lists the fields below `u64`), a word that is no member
    /// of its set (`free_text` lists the fields that hold any string) —
    /// with the kind and the field named.
    fn table_holds<E: TraceRecord>(
        check: fn(&str) -> Result<Json, String>,
        kinds: &[&str],
        samples: &[E],
        narrow: &[(&str, u64)],
        free_text: &[&str],
    ) {
        let write = |ev: &E| {
            let mut line = String::new();
            ev.write_json(&mut line);
            line
        };
        let lines: Vec<String> = samples.iter().map(write).collect();
        let mut seen = Vec::new();
        for line in &lines {
            let parsed = check(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(&parsed.to_string(), line, "read back what was written");
            let fields = split(&parsed);
            let kind = parsed["kind"].as_str().expect("checked").to_string();
            let refuses = |fields: &[(String, String)], at: usize, names: &[&str]| {
                let text = join(fields);
                let err = check(&text).expect_err(&text);
                let whose = if at < 2 { "" } else { kind.as_str() };
                assert!(err.starts_with(whose), "{text}: {err}");
                let named = names.iter().any(|n| err.contains(&format!("{n:?}")));
                assert!(named, "{text}: {err} names none of {names:?}");
            };
            let with = |i: usize, value: String| {
                let mut fields = fields.clone();
                fields[i].1 = value;
                fields
            };
            for (i, (name, value)) in fields.iter().enumerate() {
                let mut dropped = fields.clone();
                dropped.remove(i);
                if lines.contains(&join(&dropped)) {
                    assert!(check(&join(&dropped)).is_ok(), "{name} is optional");
                } else {
                    let next = fields.get(i + 1).map_or("", |(k, _)| k.as_str());
                    refuses(&dropped, i, &[name, next]);
                }
                let mut extra = fields.clone();
                extra.insert(i, ("bogus".into(), "1".into()));
                refuses(&extra, i, &["bogus"]);
                if value.parse::<u64>().is_ok() {
                    let limit = narrow.iter().find(|(n, _)| n == name);
                    let limit = limit.map_or(u64::MAX, |&(_, max)| max);
                    assert!(check(&join(&with(i, limit.to_string()))).is_ok());
                    refuses(&with(i, (u128::from(limit) + 1).to_string()), i, &[name]);
                } else if name == "kind" {
                    refuses(&with(i, "\"nope\"".into()), i, &["nope"]);
                } else if free_text.contains(&name.as_str()) {
                    assert!(check(&join(&with(i, "\"nope\"".into()))).is_ok());
                } else {
                    refuses(&with(i, "\"nope\"".into()), i, &[name]);
                    refuses(&with(i, "1".into()), i, &[name]);
                }
            }
            let mut extra = fields.clone();
            extra.push(("bogus".into(), "1".into()));
            refuses(&extra, fields.len(), &["bogus"]);
            seen.push(kind);
        }
        seen.dedup();
        assert_eq!(seen, kinds, "one run of samples per row, in table order");
    }

    #[test]
    fn packet_table_holds() {
        let (t, pkt, node, size, hops) = (5, 7, NodeId(3), 100, 2);
        let (link, from, backlog) = (LinkId(4), NodeId(2), 9000);
        let class = TrafficClass::LegitRequest;
        let mut samples = Vec::new();
        for &proto in Proto::ALL {
            let (src, dst) = (Addr::new(NodeId(2), 1), Addr::new(NodeId(65535), 65535));
            let flow = 9;
            samples.push(TraceEvent::Emit {
                t,
                pkt,
                node,
                src,
                dst,
                proto,
                class,
                size,
                flow,
            });
        }
        let (to, arrive) = (node, 77);
        samples.push(TraceEvent::LinkAdmit {
            t,
            pkt,
            link,
            from,
            to,
            backlog,
            arrive,
        });
        for &class in TrafficClass::ALL {
            samples.push(TraceEvent::LinkDrop {
                t,
                pkt,
                link,
                from,
                backlog,
                class,
                size,
                hops,
            });
        }
        for &reason in DropReason::ALL {
            for detail in [None, Some("stage \\1\n".to_string())] {
                let module = "dev\"ice";
                samples.push(TraceEvent::ModuleVerdict {
                    t,
                    pkt,
                    node,
                    module,
                    detail,
                    reason,
                    class,
                    size,
                    hops,
                });
            }
        }
        let latency = 1000;
        samples.push(TraceEvent::Deliver {
            t,
            pkt,
            node,
            class,
            size,
            hops,
            latency,
        });
        table_holds(
            TraceEvent::check_line,
            TraceEvent::KINDS,
            &samples,
            &[("size", u32::MAX.into()), ("hops", u8::MAX.into())],
            &["module", "detail"],
        );
        // An address reads back only as the writer spells it.
        for src in ["+2.1", "02.1", "2.65536", "65536.1", "2", "2.1.1"] {
            let line = format!(
                "{{\"t\":0,\"kind\":\"emit\",\"pkt\":7,\"node\":2,\"src\":\"{src}\",\
                 \"dst\":\"5.1\",\"proto\":\"Udp\",\"class\":\"Background\",\"size\":1,\"flow\":9}}"
            );
            let err = TraceEvent::check_line(&line).expect_err(src);
            assert!(err.starts_with("emit: field \"src\""), "{err}");
        }
    }

    #[test]
    fn control_table_holds() {
        let (t, origin, txn, node, dest) = (5, 0xAA01, 9, NodeId(1), NodeId(4));
        let (from, to) = (node, dest);
        let some_meta = Some(CpMeta {
            origin,
            txn,
            attempt: 2,
            kind: 5,
        });
        let mut samples = Vec::new();
        for meta in [some_meta, None] {
            samples.push(CpTraceEvent::Send { t, meta, from, to });
        }
        let deliver = |dup_extra_ns| CpVerdict::Deliver {
            deliver_ns: 1000,
            jitter_ns: 30,
            dup_extra_ns,
        };
        let verdicts = [
            deliver(Some(12)),
            deliver(None),
            CpVerdict::Drop,
            CpVerdict::Outage { window: Some(3) },
            CpVerdict::Outage { window: None },
            CpVerdict::Partition { window: 3 },
        ];
        for meta in [some_meta, None] {
            for verdict in verdicts {
                samples.push(CpTraceEvent::Verdict {
                    t,
                    meta,
                    from,
                    to,
                    verdict,
                });
            }
        }
        for response in [true, false] {
            let kind = 5;
            samples.push(CpTraceEvent::DedupHit {
                t,
                origin,
                txn,
                kind,
                node,
                response,
            });
        }
        samples.push(CpTraceEvent::RetrySchedule {
            t,
            origin,
            txn,
            node,
            dest,
        });
        let attempt = 1;
        samples.push(CpTraceEvent::RetryFire {
            t,
            origin,
            txn,
            attempt,
            node,
            dest,
        });
        samples.push(CpTraceEvent::RetryGaveUp {
            t,
            origin,
            txn,
            node,
            dest,
        });
        for &actor in CpActor::ALL {
            for &state in CpState::ALL {
                samples.push(CpTraceEvent::State {
                    t,
                    origin,
                    txn,
                    node,
                    actor,
                    state,
                });
            }
        }
        samples.push(CpTraceEvent::Sweep { t, node });
        for window in [Some(3), None] {
            samples.push(CpTraceEvent::Crash { t, node, window });
        }
        for &outcome in CpOutcome::ALL {
            samples.push(CpTraceEvent::Terminal {
                t,
                origin,
                txn,
                node,
                outcome,
            });
        }
        table_holds(
            CpTraceEvent::check_line,
            CpTraceEvent::KINDS,
            &samples,
            &[("attempt", u32::MAX.into()), ("mkind", u8::MAX.into())],
            &[],
        );
    }
}
