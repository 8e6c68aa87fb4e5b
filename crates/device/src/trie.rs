//! Longest-prefix-match over 32-bit addresses: one hash table per
//! stored prefix length.
//!
//! This is the device's redirection table (Sec. 5.2 / Fig. 6 of the paper:
//! "network user traffic can be redirected permanently to the traffic
//! processing device" — the redirect decision is a prefix lookup on both the
//! source and destination address). Every prefix is a key of one exact-match
//! map, its length above its bits (Waldvogel et al., "Scalable High Speed IP
//! Routing Lookups", SIGCOMM 1997), and a lookup probes the lengths actually
//! stored, longest first: at most 33 probes, one per distinct stored length,
//! independent of the rule count — which is what makes the device scale with
//! tens of thousands of subscribers (Sec. 5.3, measured in experiment E6).
//! An owner table holds one or two lengths, so an owned packet costs one or
//! two probes. A linear-scan table with the same API exists for the ablation
//! bench.

use dtcs_netsim::hash::MulHashMap;
use dtcs_netsim::{Addr, Prefix};

/// Longest-prefix-match map from [`Prefix`] to `T`. The name is the binary
/// trie's that this table replaced; the ledger's kernels and E6's
/// `prefix-trie` rows still carry it.
#[derive(Clone, Debug)]
pub struct PrefixTrie<T> {
    entries: MulHashMap<u64, T>,
    /// Bit `len` is set while some prefix of length `len` is stored.
    lengths: u64,
    /// Prefixes stored at each length, so the last removal at a length
    /// clears its bit in `lengths`.
    per_len: [u32; 33],
}

/// The map key of `prefix`: its length above its bits, masked to the
/// length so a hand-built `Prefix` with host bits set finds its entry.
fn key(prefix: Prefix) -> u64 {
    (u64::from(prefix.len) << 32) | u64::from(prefix.bits & Prefix::mask(prefix.len))
}

impl<T> Default for PrefixTrie<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PrefixTrie<T> {
    /// Empty table.
    pub fn new() -> Self {
        PrefixTrie {
            entries: MulHashMap::default(),
            lengths: 0,
            per_len: [0; 33],
        }
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Insert or replace the value at `prefix`; returns the old value.
    pub fn insert(&mut self, prefix: Prefix, value: T) -> Option<T> {
        let old = self.entries.insert(key(prefix), value);
        if old.is_none() {
            self.per_len[prefix.len as usize] += 1;
            self.lengths |= 1 << prefix.len;
        }
        old
    }

    /// Remove the value at exactly `prefix`.
    pub fn remove(&mut self, prefix: Prefix) -> Option<T> {
        let old = self.entries.remove(&key(prefix))?;
        let count = &mut self.per_len[prefix.len as usize];
        *count -= 1;
        if *count == 0 {
            self.lengths &= !(1 << prefix.len);
        }
        Some(old)
    }

    /// Longest-prefix-match lookup: the most specific stored prefix
    /// containing `addr`, with its value. Probes the distinct stored prefix
    /// lengths longest first and stops at the first hit: at most one hash
    /// probe per stored length, so at most 33, and one per stored length on
    /// a miss.
    pub fn lookup(&self, addr: Addr) -> Option<(Prefix, &T)> {
        let mut lengths = self.lengths;
        while lengths != 0 {
            let len = 63 - lengths.leading_zeros() as u8;
            lengths ^= 1 << len;
            let prefix = Prefix {
                bits: addr.0 & Prefix::mask(len),
                len,
            };
            if let Some(v) = self.entries.get(&key(prefix)) {
                return Some((prefix, v));
            }
        }
        None
    }

    /// Value stored at exactly `prefix`.
    pub fn get(&self, prefix: Prefix) -> Option<&T> {
        self.entries.get(&key(prefix))
    }
}

/// Linear-scan alternative with the same interface, for the E6 ablation
/// ("rule-table structure" in DESIGN.md §5).
#[derive(Clone, Debug, Default)]
pub struct LinearTable<T> {
    entries: Vec<(Prefix, T)>,
}

impl<T> LinearTable<T> {
    /// Empty table.
    pub fn new() -> Self {
        LinearTable {
            entries: Vec::new(),
        }
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Insert or replace.
    pub fn insert(&mut self, prefix: Prefix, value: T) -> Option<T> {
        for (p, v) in &mut self.entries {
            if *p == prefix {
                return Some(std::mem::replace(v, value));
            }
        }
        self.entries.push((prefix, value));
        None
    }

    /// Longest-prefix match by scanning every entry.
    pub fn lookup(&self, addr: Addr) -> Option<(Prefix, &T)> {
        self.entries
            .iter()
            .filter(|(p, _)| p.contains(addr))
            .max_by_key(|(p, _)| p.len)
            .map(|(p, v)| (*p, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtcs_netsim::NodeId;

    #[test]
    fn insert_lookup_exact() {
        let mut t = PrefixTrie::new();
        let p = Prefix::of_node(NodeId(5));
        t.insert(p, "five");
        let a = Addr::new(NodeId(5), 77);
        let (got_p, v) = t.lookup(a).unwrap();
        assert_eq!(got_p, p);
        assert_eq!(*v, "five");
        assert!(t.lookup(Addr::new(NodeId(6), 0)).is_none());
    }

    #[test]
    fn longest_prefix_wins() {
        let mut t = PrefixTrie::new();
        t.insert(Prefix::new(0x0A00_0000, 8), "wide");
        t.insert(Prefix::new(0x0A0B_0000, 16), "narrow");
        let inside_narrow = Addr(0x0A0B_0001);
        assert_eq!(*t.lookup(inside_narrow).unwrap().1, "narrow");
        let inside_wide_only = Addr(0x0A0C_0001);
        assert_eq!(*t.lookup(inside_wide_only).unwrap().1, "wide");
    }

    #[test]
    fn default_route() {
        let mut t = PrefixTrie::new();
        t.insert(Prefix::ALL, "default");
        assert_eq!(*t.lookup(Addr(12345)).unwrap().1, "default");
        t.insert(Prefix::new(0, 1), "low-half");
        assert_eq!(*t.lookup(Addr(1)).unwrap().1, "low-half");
        assert_eq!(*t.lookup(Addr(0x8000_0000)).unwrap().1, "default");
    }

    #[test]
    fn remove_restores_shorter_match() {
        let mut t = PrefixTrie::new();
        t.insert(Prefix::new(0x0A00_0000, 8), 1);
        t.insert(Prefix::new(0x0A0B_0000, 16), 2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.remove(Prefix::new(0x0A0B_0000, 16)), Some(2));
        assert_eq!(t.len(), 1);
        assert_eq!(*t.lookup(Addr(0x0A0B_0001)).unwrap().1, 1);
        assert_eq!(t.remove(Prefix::new(0x0A0B_0000, 16)), None);
    }

    #[test]
    fn replace_returns_old() {
        let mut t = PrefixTrie::new();
        let p = Prefix::new(0xC000_0000, 2);
        assert_eq!(t.insert(p, 1), None);
        assert_eq!(t.insert(p, 2), Some(1));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn host_route() {
        let mut t = PrefixTrie::new();
        let a = Addr::new(NodeId(1), 1);
        t.insert(Prefix::host(a), "host");
        assert!(t.lookup(a).is_some());
        assert!(t.lookup(Addr::new(NodeId(1), 2)).is_none());
    }

    #[test]
    fn trie_and_linear_agree() {
        let mut rng = dtcs_netsim::rng::seeded(7);
        let mut trie = PrefixTrie::new();
        let mut lin = LinearTable::new();
        for i in 0..200 {
            let len = rng.gen_range(4..=32);
            let bits: u32 = rng.gen();
            let p = Prefix::new(bits, len);
            trie.insert(p, i);
            lin.insert(p, i);
        }
        for _ in 0..2000 {
            let a = Addr(rng.gen());
            let t = trie.lookup(a).map(|(p, v)| (p, *v));
            let l = lin.lookup(a).map(|(p, v)| (p, *v));
            assert_eq!(t, l, "trie/linear disagree for {a:?}");
        }
    }

    /// The brute-force answer: the longest prefix of `model` containing
    /// `addr`, with its value.
    fn model_lookup(model: &[(Prefix, u32)], addr: Addr) -> Option<(Prefix, u32)> {
        model
            .iter()
            .filter(|(p, _)| p.contains(addr))
            .max_by_key(|(p, _)| p.len)
            .copied()
    }

    #[test]
    fn random_edits_match_a_brute_force_model() {
        let mut rng = dtcs_netsim::rng::seeded(34);
        // A small pool, so inserts replace and removes hit; /0 and /32
        // are in every pool.
        let lens = [0u8, 1, 7, 8, 16, 20, 24, 31, 32];
        for _ in 0..20 {
            let mut pool: Vec<Prefix> = (0..24)
                .map(|_| Prefix::new(rng.gen(), lens[rng.gen_range(0..lens.len())]))
                .collect();
            pool.extend([Prefix::ALL, Prefix::new(rng.gen(), 32)]);
            let mut t = PrefixTrie::new();
            let mut model: Vec<(Prefix, u32)> = Vec::new();
            for step in 0..400u32 {
                let p = pool[rng.gen_range(0..pool.len())];
                let at = model.iter().position(|(q, _)| *q == p);
                if rng.gen_bool(0.35) {
                    let want = at.map(|i| model.swap_remove(i).1);
                    assert_eq!(t.remove(p), want, "remove {p:?}");
                } else {
                    let want = match at {
                        Some(i) => Some(std::mem::replace(&mut model[i].1, step)),
                        None => {
                            model.push((p, step));
                            None
                        }
                    };
                    assert_eq!(t.insert(p, step), want, "insert {p:?}");
                }
                assert_eq!(t.len(), model.len());
                for q in &pool {
                    let want = model.iter().find(|(m, _)| m == q).map(|(_, v)| *v);
                    assert_eq!(t.get(*q).copied(), want, "get {q:?}");
                    for a in [q.bits, q.bits | !Prefix::mask(q.len), rng.gen()] {
                        let got = t.lookup(Addr(a)).map(|(p, v)| (p, *v));
                        assert_eq!(got, model_lookup(&model, Addr(a)), "lookup {a:#x}");
                    }
                }
            }
        }
    }

    #[test]
    fn every_subset_of_the_short_prefixes_answers_each_class() {
        // The 15 prefixes of length 0..=3; prefix `i` has length `l` and
        // top bits `v` where `i = 2^l - 1 + v`.
        let prefixes: Vec<Prefix> = (0..=3u8)
            .flat_map(|l| {
                (0..1u32 << l)
                    .map(move |v| Prefix::new(v.checked_shl(32 - u32::from(l)).unwrap_or(0), l))
            })
            .collect();
        assert_eq!(prefixes.len(), 15);
        // Walk all 2^15 subsets in Gray-code order: each step inserts or
        // removes one prefix, so removal and the length bits are exercised
        // along the way.
        let mut t = PrefixTrie::new();
        let mut subset = 0u32;
        for step in 0..1u32 << 15 {
            if step > 0 {
                let flip = step.trailing_zeros();
                subset ^= 1 << flip;
                let p = prefixes[flip as usize];
                if subset & 1 << flip != 0 {
                    assert_eq!(t.insert(p, flip as usize), None);
                } else {
                    assert_eq!(t.remove(p), Some(flip as usize));
                }
                assert_eq!(t.len(), subset.count_ones() as usize);
            }
            for class in 0..8u32 {
                let addr = Addr(class << 29 | 0x0ABC_DEF1);
                let want = (0..=3u32)
                    .rev()
                    .map(|l| (1 << l) - 1 + (class >> (3 - l)))
                    .find(|&i| subset & 1 << i != 0)
                    .map(|i| (prefixes[i as usize], i as usize));
                let got = t.lookup(addr).map(|(p, v)| (p, *v));
                assert_eq!(got, want, "subset {subset:#06x}, class {class}");
            }
        }
    }

    #[test]
    fn removing_the_last_prefix_of_a_length_clears_its_bit() {
        let mut t = PrefixTrie::new();
        let wide = Prefix::new(0x0A00_0000, 8);
        let (a, b) = (Prefix::new(0x0A0B_0000, 20), Prefix::new(0x0A0C_0000, 20));
        t.insert(wide, "wide");
        t.insert(a, "a");
        t.insert(b, "b");
        assert_eq!(t.lengths, 1 << 8 | 1 << 20);
        assert_eq!(t.remove(a), Some("a"));
        assert_eq!(t.remove(a), None, "a second removal must not count");
        assert_eq!(t.lengths, 1 << 8 | 1 << 20, "b still holds /20");
        assert_eq!(t.lookup(Addr(0x0A0C_0001)), Some((b, &"b")));
        assert_eq!(t.remove(b), Some("b"));
        assert_eq!(t.lengths, 1 << 8);
        assert_eq!(t.lookup(Addr(0x0A0C_0001)), Some((wide, &"wide")));
    }
}
