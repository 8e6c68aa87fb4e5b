//! Hierarchical timing wheel — the simulator's event queue.
//!
//! Replaces the `(time, seq)` `BinaryHeap`: under the near-uniform event
//! spacing our workloads produce (per-hop transmission delays, periodic
//! timers), a calendar-style wheel gives O(1) amortized push/pop where the
//! heap pays O(log n) sift moves per operation.
//!
//! # Structure
//!
//! [`LEVELS`] wheels of [`SLOTS`] slots each. Level `k` buckets times by
//! bits `[6k, 6k+6)` of the tick count, so level 0 resolves single
//! nanosecond ticks and each level up is 64× coarser; 11 levels × 6 bits
//! cover the whole `u64` tick range. An event is filed at the level of the
//! *highest* bit in which its time differs from the wheel's current
//! position (`horizon`): near events land in level 0, far events higher
//! up, and every event cascades down at most [`LEVELS`]−1 times before it
//! is popped. A per-level 64-bit occupancy bitmap turns "find the earliest
//! non-empty slot" into a `trailing_zeros`, so advancing over empty time
//! needs no per-tick scan — the wheel jumps.
//!
//! # Storage
//!
//! One slab holds every entry, as Varghese & Lauck describe it. A slot is
//! twelve bytes — `head`, `tail`, `depth` — naming an intrusive FIFO list
//! threaded through the slab by `u32` index, and an entry is two records
//! at one index: a 16-byte *link* `{time, next, back}`, which is all a
//! cascade reads or writes, and a *payload* `{seq, Option<K>}`, which only
//! push, pop and cancel touch (the `Option` is taken at pop, so every
//! record is always initialized and the slab is plain safe code; the
//! engine's `K` is its 64-byte `EventKind`, whose spare discriminants hold
//! the `None`, so a payload record is 72 bytes). Freed records go on a
//! free list threaded through `next` and are reused before the slab
//! grows, so its size is exactly [`TimingWheel::len_hwm`] — what was live
//! at the worst moment, not what every slot once held — and push, pop and
//! cancel allocate nothing once it has grown. A cascade relinks: per entry
//! it reads one link, rewrites the `next` and `back` of the list it joins
//! and that slot's `tail`, and moves no
//! payload, whatever `K`'s size. The price is locality at the pop: a
//! payload stays where it was pushed, however long ago and however much
//! was pushed since, so popping a long-queued entry reads a cold line.
//!
//! # Cancellation
//!
//! Varghese & Lauck's STOP_TIMER, in O(1): [`TimingWheel::push`] returns
//! an [`EntryId`] — the record and the entry's `seq` — and
//! [`TimingWheel::cancel`] unlinks that record from its slot's list and
//! frees it. The link's spare four bytes hold `back`: the previous
//! record's index above the level the entry was filed at (whose slot
//! `time` then names), so unlinking needs no walk. A cancelled entry
//! leaves no trace in the pop order of the rest. The `seq` is the
//! generation tag: a record recycled by a later push carries a later
//! `seq`, so an id outlives its entry harmlessly — cancelling after the
//! pop, or twice, is a no-op.
//!
//! # Determinism
//!
//! Pop order is exactly ascending `(time, seq)`, bit-identical to the
//! heap it replaces:
//!
//! * A level-0 slot holds a single exact tick (1 ns granularity), so
//!   within-slot FIFO order *is* seq order, provided entries arrive in seq
//!   order — which they do: direct pushes carry globally increasing seqs,
//!   and a cascade (which preserves the relative order of the slot it
//!   drains: it walks that list from the head and appends at a tail, as a
//!   push does) always lands in a lower-level slot *before* any direct
//!   push can target it, because a push only reaches a slot whose window
//!   contains `horizon` and cascades run exactly when `horizon` enters a
//!   window (see `pop_next`).
//! * Levels partition future time in increasing ranges — all level-k
//!   events precede all level-(k+1) events — so the earliest event always
//!   sits in the first occupied slot of the lowest occupied level.
//!
//! # Bounded advance
//!
//! [`TimingWheel::pop_next`] takes a `limit` and never advances `horizon`
//! beyond it. This matters for `Simulator::run_until`: the wheel's
//! position must stay ≤ simulated "now" so later pushes (which are ≥ now)
//! are never behind the wheel.

/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
pub const SLOTS: usize = 1 << SLOT_BITS;
/// Number of levels; `LEVELS * SLOT_BITS >= 64` so any `u64` time is
/// representable (the top level only ever uses its first 16 slots).
pub const LEVELS: usize = 11;

/// End of the free list; never a record's index.
const NIL: u32 = u32::MAX;

/// Low bits of [`Link::back`] holding the level an entry was filed at;
/// the rest hold the previous record's index, so the slab is capped at
/// `2^(32 − LEVEL_BITS)` records.
const LEVEL_BITS: u32 = 4;
const LEVEL_MASK: u32 = (1 << LEVEL_BITS) - 1;
const _: () = assert!(LEVELS <= 1 << LEVEL_BITS);

/// Names one pushed entry for [`TimingWheel::cancel`]: its slab record
/// and its `seq`, which no other push repeats.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EntryId {
    rec: u32,
    seq: u64,
}

impl EntryId {
    /// Names no entry: cancelling it is a no-op.
    pub const NONE: EntryId = EntryId {
        rec: NIL,
        seq: u64::MAX,
    };
}

/// One queued event: an exact tick, a tie-breaking sequence number, and
/// the caller's payload.
#[derive(Debug)]
pub struct Entry<K> {
    /// Absolute event time, in ticks (nanoseconds for the simulator).
    pub time: u64,
    /// Monotone tie-breaker assigned by the caller at push time.
    pub seq: u64,
    /// Caller payload.
    pub kind: K,
}

/// The half of a slab record a cascade needs: where the entry belongs and
/// which record follows it — in its slot's list while live (meaningless in
/// the tail, lists end by count), in the free list once popped — and,
/// while live, `back`: the record before it (meaningless in the head)
/// shifted above the level it was filed at.
#[derive(Clone, Copy)]
struct Link {
    time: u64,
    next: u32,
    back: u32,
}

/// The other half, at the same index: `kind` is `Some` exactly while live.
struct Payload<K> {
    seq: u64,
    kind: Option<K>,
}

/// A FIFO list of slab records; `head` and `tail` mean something only
/// while `depth > 0`.
#[derive(Clone, Copy, Default)]
struct Slot {
    head: u32,
    tail: u32,
    depth: u32,
}

/// A hierarchical timing wheel priority queue over `(time, seq)` keys.
///
/// Not a general-purpose priority queue: pushes must not be earlier than
/// the wheel's current position (the last popped time, or the furthest
/// `pop_next` advanced to). The simulator guarantees this by clamping
/// past-dated events to `now` before pushing.
pub struct TimingWheel<K> {
    /// Current position in ticks. Invariant: `horizon <= e.time` for every
    /// stored entry, and `horizon` never exceeds the `limit` of any
    /// `pop_next` call.
    horizon: u64,
    /// Total stored entries.
    len: usize,
    /// Per-level occupancy bitmaps; bit `i` of `occupied[k]` set iff slot
    /// `k * SLOTS + i` is non-empty.
    occupied: [u64; LEVELS],
    /// `LEVELS × SLOTS` lists, row-major by level. FIFO within a slot
    /// (cascades preserve relative order; pushes append).
    slots: Vec<Slot>,
    /// The slab, two parallel halves; `links.len() == payloads.len()`.
    links: Vec<Link>,
    payloads: Vec<Payload<K>>,
    /// First free record, or [`NIL`].
    free: u32,
    /// Deepest any single slot has ever been (scheduler-health signal: a
    /// runaway slot means pathological same-window clustering).
    slot_depth_hwm: usize,
    /// Most entries ever stored at once.
    len_hwm: usize,
    /// Total entries refiled by cascades. Divided by events popped this
    /// should stay ≈ constant; drift signals pathological event spacing.
    cascade_moves: u64,
}

impl<K> Default for TimingWheel<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> TimingWheel<K> {
    /// Empty wheel positioned at tick 0: the slot table and an empty slab.
    pub fn new() -> Self {
        TimingWheel {
            horizon: 0,
            len: 0,
            occupied: [0; LEVELS],
            slots: vec![Slot::default(); LEVELS * SLOTS],
            links: Vec::new(),
            payloads: Vec::new(),
            free: NIL,
            slot_depth_hwm: 0,
            len_hwm: 0,
            cascade_moves: 0,
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Slab records ever allocated (live + free-listed); always equal to
    /// [`TimingWheel::len_hwm`].
    pub fn capacity(&self) -> usize {
        self.links.len()
    }

    /// High-water mark of any single slot's depth since construction.
    pub fn slot_depth_hwm(&self) -> usize {
        self.slot_depth_hwm
    }

    /// High-water mark of total stored entries since construction.
    pub fn len_hwm(&self) -> usize {
        self.len_hwm
    }

    /// Total entries refiled by cascades since construction.
    pub fn cascade_moves(&self) -> u64 {
        self.cascade_moves
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The wheel's current position: a lower bound on every stored entry's
    /// time, and the earliest time a future [`TimingWheel::push`] may use.
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// Level at which a time belongs relative to the current horizon: the
    /// index of the highest differing bit, divided by `SLOT_BITS`.
    #[inline]
    fn level_of(&self, time: u64) -> usize {
        let diff = time ^ self.horizon;
        if diff == 0 {
            0
        } else {
            ((63 - diff.leading_zeros()) / SLOT_BITS) as usize
        }
    }

    /// Slot index of `time` within `level` (a pure function of `time`).
    #[inline]
    fn slot_index(level: usize, time: u64) -> usize {
        ((time >> (SLOT_BITS as usize * level)) & (SLOTS as u64 - 1)) as usize
    }

    /// Earliest tick covered by slot `idx` of `level`, relative to the
    /// current horizon's window at that level. Shifts are guarded so the
    /// top level (whose window spans the whole `u64` range) cannot
    /// overflow the shift amount.
    #[inline]
    fn slot_base(&self, level: usize, idx: usize) -> u64 {
        let low = SLOT_BITS as usize * level;
        let high = SLOT_BITS as usize * (level + 1);
        let high_bits = if high >= 64 {
            0
        } else {
            (self.horizon >> high) << high
        };
        high_bits | ((idx as u64) << low)
    }

    /// Append record `rec` to the list of the slot `time` belongs in at the
    /// current horizon, and return that slot's level. The one place an
    /// entry is filed, for a push and a cascade alike.
    #[inline]
    fn file(&mut self, time: u64, rec: u32) -> usize {
        let level = self.level_of(time);
        let idx = Self::slot_index(level, time);
        let slot = &mut self.slots[level * SLOTS + idx];
        let prev = if slot.depth == 0 {
            slot.head = rec;
            0
        } else {
            self.links[slot.tail as usize].next = rec;
            slot.tail
        };
        self.links[rec as usize].back = prev << LEVEL_BITS | level as u32;
        slot.tail = rec;
        slot.depth += 1;
        self.slot_depth_hwm = self.slot_depth_hwm.max(slot.depth as usize);
        self.occupied[level] |= 1 << idx;
        level
    }

    /// Insert an entry. `time` must be ≥ [`TimingWheel::horizon`]; an
    /// earlier time would land in a slot the wheel has already passed and
    /// never be popped, so this is enforced unconditionally (the check is
    /// one predictable branch on the hot path).
    ///
    /// For exact heap-equivalent ordering, callers must assign `seq`
    /// monotonically increasing across pushes. The returned id cancels the
    /// entry until it pops.
    pub fn push(&mut self, time: u64, seq: u64, kind: K) -> EntryId {
        assert!(
            time >= self.horizon,
            "timing wheel push at t={time} behind horizon {}",
            self.horizon
        );
        let link = Link {
            time,
            next: NIL,
            back: 0,
        };
        let payload = Payload {
            seq,
            kind: Some(kind),
        };
        let rec = if self.free != NIL {
            let rec = self.free;
            self.free = self.links[rec as usize].next;
            self.links[rec as usize] = link;
            self.payloads[rec as usize] = payload;
            rec
        } else {
            let rec = self.links.len();
            // A record's index must fit `back` beside the level.
            assert!(
                rec < (NIL >> LEVEL_BITS) as usize,
                "timing wheel exceeds 2^28 records"
            );
            self.links.push(link);
            self.payloads.push(payload);
            rec as u32
        };
        self.file(time, rec);
        self.len += 1;
        self.len_hwm = self.len_hwm.max(self.len);
        EntryId { rec, seq }
    }

    /// Take a queued entry out before it pops and hand its payload back;
    /// `None`, and nothing changed, when `id` names no live entry (it
    /// popped, was cancelled, or its record now holds a later push). O(1):
    /// the record is unlinked from its slot's list through `back` and
    /// freed.
    pub fn cancel(&mut self, id: EntryId) -> Option<K> {
        let payload = self.payloads.get_mut(id.rec as usize)?;
        if payload.seq != id.seq {
            return None;
        }
        let kind = payload.kind.take()?;
        let rec = id.rec;
        let Link { time, next, back } = self.links[rec as usize];
        let level = (back & LEVEL_MASK) as usize;
        let prev = back >> LEVEL_BITS;
        let idx = Self::slot_index(level, time);
        let slot = &mut self.slots[level * SLOTS + idx];
        if slot.head == rec {
            slot.head = next;
        } else {
            self.links[prev as usize].next = next;
        }
        if slot.tail == rec {
            slot.tail = prev;
        } else {
            let after = &mut self.links[next as usize].back;
            *after = prev << LEVEL_BITS | (*after & LEVEL_MASK);
        }
        slot.depth -= 1;
        if slot.depth == 0 {
            self.occupied[level] &= !(1 << idx);
        }
        self.links[rec as usize].next = self.free;
        self.free = rec;
        self.len -= 1;
        Some(kind)
    }

    /// Pop the earliest `(time, seq)` entry whose time is ≤ `limit`, or
    /// `None` if the wheel is empty or the earliest entry is later.
    ///
    /// Never advances `horizon` beyond `limit`: before cascading a
    /// coarse-level slot the wheel checks the slot's base tick (a lower
    /// bound on everything inside it) against `limit`, so a `None` answer
    /// leaves the wheel positioned no later than `limit` and later pushes
    /// at ≥ `limit` remain valid. Note the contract is asymmetric: after
    /// `Some(e)` the position is exactly `e.time`, but after `None` the
    /// wheel may sit anywhere in `(old position, limit]` — callers must
    /// treat a bounded `None` as "time advanced to `limit`", which is
    /// precisely what `Simulator::run_until` does by setting `now = until`
    /// before accepting further pushes.
    pub fn pop_next(&mut self, limit: u64) -> Option<Entry<K>> {
        loop {
            // Lowest occupied level holds the earliest event (levels
            // partition future time in increasing ranges).
            let level = (0..LEVELS).find(|&l| self.occupied[l] != 0)?;
            let idx = self.occupied[level].trailing_zeros() as usize;
            let base = self.slot_base(level, idx);
            if base > limit {
                return None;
            }
            // `base` can sit at or before the horizon when the slot was
            // filed against an older horizon (the entry's true level has
            // since shrunk); never move backwards.
            if base > self.horizon {
                self.horizon = base;
            }
            let slot = &mut self.slots[level * SLOTS + idx];
            assert!(slot.depth > 0, "occupied bit on empty slot");
            let mut rec = slot.head;
            if level == 0 {
                // A level-0 slot is one exact tick; FIFO order is seq
                // order (see module docs).
                let Link { time, next, .. } = self.links[rec as usize];
                slot.head = next;
                slot.depth -= 1;
                if slot.depth == 0 {
                    self.occupied[0] &= !(1 << idx);
                }
                self.links[rec as usize].next = self.free;
                self.free = rec;
                self.len -= 1;
                let payload = &mut self.payloads[rec as usize];
                let kind = payload.kind.take().expect("live record has a payload");
                let seq = payload.seq;
                return Some(Entry { time, seq, kind });
            }
            // Cascade: empty the coarse slot and refile its records, in
            // list order, against the advanced horizon. Each entry's level
            // strictly decreases, so an entry cascades at most LEVELS-1
            // times over its lifetime.
            let moved = std::mem::take(&mut slot.depth);
            self.occupied[level] &= !(1 << idx);
            self.cascade_moves += u64::from(moved);
            for _ in 0..moved {
                let Link { time, next, .. } = self.links[rec as usize];
                let l = self.file(time, rec);
                debug_assert!(l < level, "cascade must strictly descend");
                rec = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drain everything; assert ascending (time, seq) and return the keys.
    fn drain_all(w: &mut TimingWheel<u32>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(e) = w.pop_next(u64::MAX) {
            out.push((e.time, e.seq));
        }
        for win in out.windows(2) {
            assert!(win[0] < win[1], "pop order not ascending: {win:?}");
        }
        assert!(w.is_empty());
        out
    }

    #[test]
    fn pops_in_time_seq_order() {
        let mut w = TimingWheel::new();
        let times = [5u64, 1, 1, 700, 64, 63, 65, 5, 4096, 4095, 1 << 30];
        for (seq, &t) in times.iter().enumerate() {
            w.push(t, seq as u64, 0);
        }
        let mut expect: Vec<(u64, u64)> = times
            .iter()
            .enumerate()
            .map(|(s, &t)| (t, s as u64))
            .collect();
        expect.sort();
        assert_eq!(drain_all(&mut w), expect);
    }

    #[test]
    fn same_tick_burst_pops_in_seq_order() {
        let mut w = TimingWheel::new();
        for seq in 0..1000u64 {
            w.push(42, seq, 0);
        }
        let popped = drain_all(&mut w);
        assert_eq!(popped, (0..1000).map(|s| (42, s)).collect::<Vec<_>>());
    }

    #[test]
    fn multi_level_cascade_boundaries() {
        // Straddle every level boundary: one event just below and one just
        // above each 64^k edge, plus the extreme top of the tick range.
        let mut w = TimingWheel::new();
        let mut times = Vec::new();
        for level in 1..LEVELS {
            let edge = 1u64 << (SLOT_BITS as usize * level);
            times.push(edge - 1);
            times.push(edge);
            times.push(edge + 1);
        }
        times.push(u64::MAX);
        times.push(u64::MAX - 1);
        for (seq, &t) in times.iter().enumerate() {
            w.push(t, seq as u64, 0);
        }
        let popped = drain_all(&mut w);
        let mut expect: Vec<(u64, u64)> = times
            .iter()
            .enumerate()
            .map(|(s, &t)| (t, s as u64))
            .collect();
        expect.sort();
        assert_eq!(popped, expect);
    }

    #[test]
    fn far_jump_then_refill_near_the_new_horizon() {
        // A long idle gap forces a top-down cascade chain; pushes issued
        // after the jump interleave correctly with events filed before it.
        let mut w = TimingWheel::new();
        let far = (1u64 << 40) + 12345;
        w.push(far, 0, 0);
        w.push(far + 3, 1, 0);
        let e = w.pop_next(u64::MAX).unwrap();
        assert_eq!((e.time, e.seq), (far, 0));
        // Horizon has advanced; same-tick and near-future pushes are live.
        w.push(far, 2, 0);
        w.push(far + 1, 3, 0);
        w.push(far + (1 << 20), 4, 0);
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| w.pop_next(u64::MAX))
            .map(|e| (e.time, e.seq))
            .collect();
        assert_eq!(
            order,
            vec![(far, 2), (far + 1, 3), (far + 3, 1), (far + (1 << 20), 4)]
        );
    }

    #[test]
    fn pop_next_limit_is_exclusive_of_later_events() {
        let mut w = TimingWheel::new();
        w.push(100, 0, 0);
        w.push(200_000, 1, 0); // level 2 relative to horizon 0
        assert!(w.pop_next(99).is_none());
        assert_eq!(w.pop_next(100).unwrap().time, 100);
        // The next event is far; a bounded pop must neither return it nor
        // advance the horizon beyond the bound.
        assert!(w.pop_next(150).is_none());
        assert!(w.horizon() <= 150);
        // A push between the bounded pop and the event must still be
        // accepted and ordered first.
        w.push(160, 2, 0);
        let order: Vec<u64> = std::iter::from_fn(|| w.pop_next(u64::MAX))
            .map(|e| e.time)
            .collect();
        assert_eq!(order, vec![160, 200_000]);
    }

    #[test]
    #[should_panic(expected = "behind horizon")]
    fn push_behind_horizon_panics() {
        let mut w = TimingWheel::new();
        w.push(1000, 0, 0u32);
        w.pop_next(u64::MAX);
        w.push(999, 1, 0);
    }

    #[test]
    fn health_counters_track_depth_and_cascades() {
        let mut w = TimingWheel::new();
        for seq in 0..5u64 {
            w.push(42, seq, 0u32);
        }
        assert_eq!(w.slot_depth_hwm(), 5);
        assert_eq!(w.len_hwm(), 5);
        assert_eq!(w.cascade_moves(), 0, "level-0 pops never cascade");
        drain_all(&mut w);
        // A far event files coarse and must cascade down once popped; each
        // level it descends counts one move.
        w.push((1 << 30) + 7, 10, 0);
        assert!(w.pop_next(u64::MAX).is_some());
        assert!(w.cascade_moves() >= 1);
        assert_eq!(w.slot_depth_hwm(), 5, "high-water marks are sticky");
    }

    #[test]
    fn len_tracks_push_and_pop() {
        let mut w = TimingWheel::new();
        assert!(w.is_empty());
        for i in 0..10 {
            w.push(i * 1000, i, 0u32);
        }
        assert_eq!(w.len(), 10);
        w.pop_next(u64::MAX);
        assert_eq!(w.len(), 9);
        drain_all(&mut w);
        assert_eq!(w.len(), 0);
    }

    /// Delays spanning levels 0–5 of a wheel standing at the event's time:
    /// a level, then any delay that reaches no higher.
    fn delay(rng: &mut crate::rng::ChaCha8Rng) -> u64 {
        let level = rng.gen_range(0..6u32);
        rng.gen_range(0..1u64 << (SLOT_BITS * (level + 1)))
    }

    /// The footprint is what was live at the worst moment, however many
    /// slots the population has passed through on the way (a buffer per
    /// slot keeps growing with the slots visited).
    #[test]
    fn footprint_is_the_population_high_water_mark() {
        let mut rng = crate::rng::seeded(7);
        let mut w = TimingWheel::new();
        let mut seq = 0u64;
        for _ in 0..1000 {
            w.push(delay(&mut rng), seq, ());
            seq += 1;
        }
        for _ in 0..1_000_000 {
            let e = w.pop_next(u64::MAX).expect("population is constant");
            w.push(e.time + delay(&mut rng), seq, ());
            seq += 1;
        }
        assert!(w.cascade_moves() > 1_000_000, "the delays reach far levels");
        assert_eq!((w.len(), w.len_hwm()), (1000, 1000));
        assert_eq!(w.capacity(), 1000);
    }

    /// Five entries in one level-0 slot; cancel those at `victims` (list
    /// positions), then the rest pop in push order.
    fn cancel_from_one_slot(victims: &[usize]) {
        let mut w = TimingWheel::new();
        let ids: Vec<EntryId> = (0..5u64).map(|seq| w.push(9, seq, seq as u32)).collect();
        for &v in victims {
            assert_eq!(
                w.cancel(ids[v]),
                Some(v as u32),
                "cancel hands the payload back"
            );
        }
        assert_eq!(w.len(), 5 - victims.len());
        let left: Vec<u32> = std::iter::from_fn(|| w.pop_next(u64::MAX))
            .map(|e| e.kind)
            .collect();
        let expect: Vec<u32> = (0..5)
            .filter(|i| !victims.contains(&(*i as usize)))
            .collect();
        assert_eq!(left, expect, "victims {victims:?}");
        assert!(w.is_empty());
    }

    #[test]
    fn cancel_unlinks_head_middle_tail_and_all() {
        cancel_from_one_slot(&[0]);
        cancel_from_one_slot(&[2]);
        cancel_from_one_slot(&[4]);
        cancel_from_one_slot(&[1, 3]);
        cancel_from_one_slot(&[4, 3, 0]);
        cancel_from_one_slot(&[0, 1, 2, 3, 4]);
    }

    #[test]
    fn cancel_of_a_slots_only_entry_clears_its_occupancy() {
        let mut w = TimingWheel::new();
        let far = w.push(1 << 20, 0, 1u32); // a coarse level
        let near = w.push(5, 1, 2);
        assert_eq!(w.cancel(far), Some(1));
        assert_eq!(w.cancel(near), Some(2));
        assert!(w.is_empty());
        assert!(
            w.pop_next(u64::MAX).is_none(),
            "no occupied bit is left set"
        );
        w.push(7, 2, 3);
        assert_eq!(w.pop_next(u64::MAX).map(|e| e.kind), Some(3));
    }

    #[test]
    fn cancel_finds_an_entry_that_cascaded() {
        let mut w = TimingWheel::new();
        let base = 1u64 << 24;
        let ids: Vec<EntryId> = (0..4u64)
            .map(|i| w.push(base + 100 * i, i, i as u32))
            .collect();
        // The first pop cascades all four down from a coarse level.
        assert_eq!(w.pop_next(u64::MAX).map(|e| e.kind), Some(0));
        assert!(w.cascade_moves() >= 4);
        assert_eq!(w.cancel(ids[2]), Some(2));
        assert_eq!(w.cancel(ids[3]), Some(3));
        let left: Vec<u32> = std::iter::from_fn(|| w.pop_next(u64::MAX))
            .map(|e| e.kind)
            .collect();
        assert_eq!(left, [1]);
    }

    #[test]
    fn second_cancel_and_cancel_after_pop_are_noops() {
        let mut w = TimingWheel::new();
        let a = w.push(10, 0, 1u32);
        let b = w.push(20, 1, 2);
        assert_eq!(w.cancel(a), Some(1));
        assert_eq!(w.cancel(a), None, "a second cancel");
        assert_eq!(w.pop_next(u64::MAX).map(|e| e.kind), Some(2));
        assert_eq!(w.cancel(b), None, "after the pop");
        assert_eq!(w.cancel(EntryId::NONE), None);
        assert_eq!((w.len(), w.capacity()), (0, 2));
    }

    #[test]
    fn a_recycled_record_cannot_be_cancelled_through_an_old_id() {
        let mut w = TimingWheel::new();
        let old = w.push(10, 0, 1u32);
        assert_eq!(w.pop_next(u64::MAX).map(|e| e.kind), Some(1));
        let new = w.push(30, 1, 2);
        assert_eq!(w.capacity(), 1, "the popped record was reused");
        assert_eq!(w.cancel(old), None);
        assert_eq!(w.len(), 1);
        assert_eq!(w.cancel(new), Some(2));
    }

    /// Random pushes, pops and cancels against a `(time, seq)`-ordered
    /// map: the same pop order, the same length, the same cancel answers.
    #[test]
    fn cancel_agrees_with_an_ordered_map() {
        use std::collections::BTreeMap;
        crate::rng::check_cases(0..64, |rng| {
            let mut w = TimingWheel::new();
            let mut model: BTreeMap<(u64, u64), EntryId> = BTreeMap::new();
            let mut ids: Vec<EntryId> = Vec::new();
            let mut seq = 0u64;
            for _ in 0..2000 {
                match rng.gen_range(0..10u32) {
                    0..=4 => {
                        let time = w.horizon() + delay(rng);
                        let id = w.push(time, seq, seq);
                        model.insert((time, seq), id);
                        ids.push(id);
                        seq += 1;
                    }
                    5..=7 if !ids.is_empty() => {
                        // Any id ever handed out: live, popped or cancelled.
                        let id = ids[rng.gen_range(0..ids.len() as u64) as usize];
                        let live = model.iter().find(|(_, &v)| v == id).map(|(&k, _)| k);
                        let got = w.cancel(id);
                        assert_eq!(got, live.map(|k| k.1));
                        if let Some(k) = live {
                            model.remove(&k);
                        }
                    }
                    _ => {
                        let e = w.pop_next(u64::MAX);
                        let want = model.pop_first();
                        assert_eq!(
                            e.map(|e| (e.time, e.seq, e.kind)),
                            want.map(|(k, _)| (k.0, k.1, k.1))
                        );
                    }
                }
                assert_eq!(w.len(), model.len());
            }
            let rest: Vec<(u64, u64)> = std::iter::from_fn(|| w.pop_next(u64::MAX))
                .map(|e| (e.time, e.seq))
                .collect();
            assert_eq!(rest, model.keys().copied().collect::<Vec<_>>());
        });
    }

    /// A payload that counts its own drops, by id.
    struct Counted {
        id: usize,
        drops: std::rc::Rc<std::cell::RefCell<Vec<u32>>>,
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            self.drops.borrow_mut()[self.id] += 1;
        }
    }

    /// Every payload is dropped exactly once — by whoever popped it, or by
    /// the wheel when it is dropped non-empty — and a popped entry carries
    /// the payload pushed with its `(time, seq)`, across record reuse.
    #[test]
    fn payloads_are_owned_once_and_stay_with_their_key() {
        let mut rng = crate::rng::seeded(11);
        let drops = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut keys = Vec::new();
        let mut w = TimingWheel::new();
        for _round in 0..3 {
            for _ in 0..400 {
                let id = keys.len();
                let key = (w.horizon() + delay(&mut rng), id as u64);
                keys.push(key);
                drops.borrow_mut().push(0);
                let drops = drops.clone();
                w.push(key.0, key.1, Counted { id, drops });
            }
            for _ in 0..300 {
                let e = w.pop_next(u64::MAX).expect("more pushed than popped");
                assert_eq!((e.time, e.seq), keys[e.kind.id]);
            }
        }
        assert_eq!((w.len(), w.capacity()), (300, 600));
        let dropped = |n: u32| drops.borrow().iter().filter(|&&d| d == n).count();
        assert_eq!((dropped(0), dropped(1)), (300, 900), "popped ones only");
        drop(w);
        assert_eq!(dropped(1), 1200, "and the wheel's own, once each");
    }
}
