//! Binary prefix trie: longest-prefix-match over 32-bit addresses.
//!
//! This is the device's redirection table (Sec. 5.2 / Fig. 6 of the paper:
//! "network user traffic can be redirected permanently to the traffic
//! processing device" — the redirect decision is a prefix lookup on both the
//! source and destination address). Lookup is O(32) independent of the rule
//! count, which is what makes the device scale with tens of thousands of
//! subscribers (Sec. 5.3, measured in experiment E6). A linear-scan table
//! with the same API exists for the ablation bench.

use dtcs_netsim::{Addr, Prefix};

/// Sentinel for "no child".
const NONE: u32 = u32::MAX;

#[derive(Clone, Debug)]
struct TrieNode<T> {
    children: [u32; 2],
    value: Option<T>,
}

impl<T> TrieNode<T> {
    fn new() -> Self {
        TrieNode {
            children: [NONE, NONE],
            value: None,
        }
    }
}

/// Longest-prefix-match map from [`Prefix`] to `T`.
///
/// Nodes are stored in a flat arena indexed by `u32`, so inserts never
/// reallocate existing nodes and lookups touch contiguous memory.
#[derive(Clone, Debug)]
pub struct PrefixTrie<T> {
    nodes: Vec<TrieNode<T>>,
    len: usize,
}

impl<T> Default for PrefixTrie<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PrefixTrie<T> {
    /// Empty trie.
    pub fn new() -> Self {
        PrefixTrie {
            nodes: vec![TrieNode::new()],
            len: 0,
        }
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the trie empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert or replace the value at `prefix`; returns the old value.
    pub fn insert(&mut self, prefix: Prefix, value: T) -> Option<T> {
        let mut at = 0usize;
        for depth in 0..prefix.len {
            let bit = ((prefix.bits >> (31 - depth)) & 1) as usize;
            if self.nodes[at].children[bit] == NONE {
                self.nodes.push(TrieNode::new());
                let idx = (self.nodes.len() - 1) as u32;
                self.nodes[at].children[bit] = idx;
            }
            at = self.nodes[at].children[bit] as usize;
        }
        let old = self.nodes[at].value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Remove the value at exactly `prefix`.
    pub fn remove(&mut self, prefix: Prefix) -> Option<T> {
        let mut at = 0usize;
        for depth in 0..prefix.len {
            let bit = ((prefix.bits >> (31 - depth)) & 1) as usize;
            let next = self.nodes[at].children[bit];
            if next == NONE {
                return None;
            }
            at = next as usize;
        }
        let old = self.nodes[at].value.take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Longest-prefix-match lookup: the most specific stored prefix
    /// containing `addr`, with its value.
    pub fn lookup(&self, addr: Addr) -> Option<(Prefix, &T)> {
        let mut at = 0usize;
        let mut best: Option<(u8, &T)> = self.nodes[0].value.as_ref().map(|v| (0, v));
        for depth in 0..32u8 {
            let bit = ((addr.0 >> (31 - depth)) & 1) as usize;
            let next = self.nodes[at].children[bit];
            if next == NONE {
                break;
            }
            at = next as usize;
            if let Some(v) = self.nodes[at].value.as_ref() {
                best = Some((depth + 1, v));
            }
        }
        best.map(|(len, v)| (Prefix::new(addr.0 & Prefix::mask(len), len), v))
    }

    /// Value stored at exactly `prefix`.
    pub fn get(&self, prefix: Prefix) -> Option<&T> {
        let mut at = 0usize;
        for depth in 0..prefix.len {
            let bit = ((prefix.bits >> (31 - depth)) & 1) as usize;
            let next = self.nodes[at].children[bit];
            if next == NONE {
                return None;
            }
            at = next as usize;
        }
        self.nodes[at].value.as_ref()
    }

    /// Iterate over all `(prefix, value)` pairs (preorder).
    pub fn iter(&self) -> PrefixTrieIter<'_, T> {
        PrefixTrieIter {
            trie: self,
            stack: vec![(0u32, 0u32, 0u8)],
        }
    }
}

/// Iterator over trie contents.
pub struct PrefixTrieIter<'a, T> {
    trie: &'a PrefixTrie<T>,
    /// (node index, accumulated bits, depth)
    stack: Vec<(u32, u32, u8)>,
}

impl<'a, T> Iterator for PrefixTrieIter<'a, T> {
    type Item = (Prefix, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some((idx, bits, depth)) = self.stack.pop() {
            let node = &self.trie.nodes[idx as usize];
            for bit in [1usize, 0usize] {
                let child = node.children[bit];
                if child != NONE {
                    let nbits = bits | ((bit as u32) << (31 - depth));
                    self.stack.push((child, nbits, depth + 1));
                }
            }
            if let Some(v) = node.value.as_ref() {
                return Some((Prefix::new(bits, depth), v));
            }
        }
        None
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
    fn iter_returns_everything() {
        let mut t = PrefixTrie::new();
        let prefixes = [
            Prefix::new(0x0A00_0000, 8),
            Prefix::new(0x0A0B_0000, 16),
            Prefix::new(0xFF00_0000, 8),
            Prefix::ALL,
        ];
        for (i, p) in prefixes.iter().enumerate() {
            t.insert(*p, i);
        }
        let mut got: Vec<Prefix> = t.iter().map(|(p, _)| p).collect();
        got.sort_by_key(|p| (p.len, p.bits));
        let mut want = prefixes.to_vec();
        want.sort_by_key(|p| (p.len, p.bits));
        assert_eq!(got, want);
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
            // Linear table may keep several equal-length matches; compare
            // prefix length and containment rather than identity.
            match (t, l) {
                (None, None) => {}
                (Some((tp, _)), Some((lp, _))) => {
                    assert_eq!(tp.len, lp.len, "LPM length must agree for {a:?}");
                }
                other => panic!("trie/linear disagree for {a:?}: {other:?}"),
            }
        }
    }
}
