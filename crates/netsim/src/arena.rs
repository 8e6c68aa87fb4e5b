//! Generation-tagged slab arena: in-flight packets.
//!
//! Replaces the recycled-`Box<Packet>` pool: event entries hold a compact
//! 8-byte [`Handle`] instead of a pointer, the backing store is one
//! contiguous `Vec`, and the event hot path never touches the allocator
//! once the arena has grown to the peak in-flight population.
//!
//! Every slot carries a *generation* counter (odd while live, even while
//! free) that is copied into the handle at allocation. A handle whose
//! generation no longer matches its slot — because the slot was freed, or
//! freed and reallocated to a different packet — fails the tag check, so
//! use-after-free and double-free are detected deterministically in every
//! build profile rather than silently reading a stale packet, which is
//! what the old pool did. (The tag wraps after 2³¹ reuse cycles of a
//! single slot; a simulation would need ~10¹⁰ events through one slot to
//! get there.)

/// A ticket for a value stored in an [`Arena`].
///
/// Deliberately small (8 bytes): every pending event, timers included,
/// occupies a timing-wheel record as wide as the widest event kind, and a
/// 72-byte `Packet` held inline would set that width.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Handle {
    idx: u32,
    gen: u32,
}

struct Slot<T> {
    /// Odd = live, even = free; bumped on every alloc and every free.
    gen: u32,
    val: T,
}

/// A slab arena handing out generation-tagged [`Handle`]s.
///
/// Freed slots go on a free list and are reused before the arena grows,
/// so capacity equals the peak live population. `T: Copy` keeps every
/// operation a plain memcpy with no drop obligations.
pub struct Arena<T: Copy> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    live: usize,
}

impl<T: Copy> Default for Arena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> Arena<T> {
    /// Empty arena.
    pub fn new() -> Self {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Number of live (allocated, not yet freed) values.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Total slots ever allocated (live + free-listed).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Store a value, reusing a freed slot when one exists.
    pub fn alloc(&mut self, val: T) -> Handle {
        self.live += 1;
        match self.free.pop() {
            Some(idx) => {
                let slot = &mut self.slots[idx as usize];
                debug_assert_eq!(slot.gen % 2, 0, "free-listed slot must be free");
                slot.gen = slot.gen.wrapping_add(1);
                slot.val = val;
                Handle { idx, gen: slot.gen }
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("arena exceeds u32 indices");
                self.slots.push(Slot { gen: 1, val });
                Handle { idx, gen: 1 }
            }
        }
    }

    /// Does `h` still name its value (not freed, not reused since)?
    #[inline]
    pub fn is_live(&self, h: Handle) -> bool {
        self.slots
            .get(h.idx as usize)
            .is_some_and(|s| s.gen == h.gen)
    }

    /// Tag-check a handle, panicking on stale (freed or reused) handles.
    #[inline]
    fn check(&self, h: Handle) -> usize {
        let slot = &self.slots[h.idx as usize];
        assert_eq!(
            slot.gen, h.gen,
            "stale arena handle: slot {} is at generation {}, handle carries {}",
            h.idx, slot.gen, h.gen
        );
        h.idx as usize
    }

    /// Copy the value out, leaving the slot live (the packet's hop-level
    /// working copy; write back with [`Arena::store`] before re-queueing).
    #[inline]
    pub fn take(&self, h: Handle) -> T {
        let idx = self.check(h);
        self.slots[idx].val
    }

    /// Write a value back into a live slot.
    #[inline]
    pub fn store(&mut self, h: Handle, val: T) {
        let idx = self.check(h);
        self.slots[idx].val = val;
    }

    /// Shared access to a live value.
    #[inline]
    pub fn get(&self, h: Handle) -> &T {
        let idx = self.check(h);
        &self.slots[idx].val
    }

    /// Release a slot. The handle (and any copy of it) is dead afterwards:
    /// further use panics on the generation tag.
    #[inline]
    pub fn free(&mut self, h: Handle) {
        let idx = self.check(h);
        self.slots[idx].gen = self.slots[idx].gen.wrapping_add(1);
        self.free.push(h.idx);
        self.live -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_take_free_roundtrip() {
        let mut a: Arena<u64> = Arena::new();
        let h1 = a.alloc(11);
        let h2 = a.alloc(22);
        assert_eq!(a.take(h1), 11);
        assert_eq!(a.take(h2), 22);
        assert_eq!(a.live(), 2);
        a.store(h1, 33);
        assert_eq!(*a.get(h1), 33);
        a.free(h1);
        a.free(h2);
        assert_eq!(a.live(), 0);
    }

    #[test]
    fn slots_are_reused_without_growth() {
        let mut a: Arena<u64> = Arena::new();
        let h = a.alloc(1);
        a.free(h);
        for i in 0..1000 {
            let h = a.alloc(i);
            assert_eq!(a.take(h), i);
            a.free(h);
        }
        assert_eq!(a.capacity(), 1, "steady-state reuse must not grow");
    }

    #[test]
    #[should_panic(expected = "stale arena handle")]
    fn double_free_panics() {
        let mut a: Arena<u64> = Arena::new();
        let h = a.alloc(1);
        a.free(h);
        a.free(h);
    }

    #[test]
    #[should_panic(expected = "stale arena handle")]
    fn use_after_free_panics() {
        let mut a: Arena<u64> = Arena::new();
        let h = a.alloc(1);
        a.free(h);
        let _ = a.take(h);
    }

    #[test]
    #[should_panic(expected = "stale arena handle")]
    fn stale_handle_after_reuse_panics() {
        let mut a: Arena<u64> = Arena::new();
        let h_old = a.alloc(1);
        a.free(h_old);
        let h_new = a.alloc(2); // reuses the slot, bumps the generation
        assert_eq!(a.take(h_new), 2);
        let _ = a.take(h_old);
    }
}
