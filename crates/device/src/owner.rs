//! Traffic ownership (Sec. 4.1).
//!
//! "We declare a network packet to be owned by these network users, who are
//! officially registered to hold either the destination or the source IP
//! address or both of that packet." The [`OwnerTable`] is the device-local
//! materialisation of that registry: a longest-prefix-match structure from
//! address to owner, consulted twice per packet (source side, then
//! destination side).

use dtcs_netsim::{Addr, NodeId, Prefix};

use crate::trie::PrefixTrie;

/// A registered network user (owner of one or more prefixes).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct OwnerId(pub u64);

/// Per-owner registration data held by a device.
#[derive(Clone, Copy, Debug)]
pub struct OwnerEntry {
    /// The owner.
    pub owner: OwnerId,
    /// Node to which telemetry (trigger events, log-ready notices) is sent.
    pub contact: NodeId,
}

/// Device-local map from address space to owner.
#[derive(Clone, Debug, Default)]
pub struct OwnerTable {
    trie: PrefixTrie<OwnerEntry>,
}

impl OwnerTable {
    /// Empty table.
    pub fn new() -> Self {
        OwnerTable {
            trie: PrefixTrie::new(),
        }
    }

    /// Register `prefix` as owned by `owner` with a telemetry contact node.
    /// More-specific registrations shadow less-specific ones (LPM).
    pub fn register(&mut self, prefix: Prefix, owner: OwnerId, contact: NodeId) {
        self.trie.insert(prefix, OwnerEntry { owner, contact });
    }

    /// Remove the registration at exactly `prefix`.
    pub fn unregister(&mut self, prefix: Prefix) -> Option<OwnerEntry> {
        self.trie.remove(prefix)
    }

    /// The owner of an address, if registered.
    pub fn owner_of(&self, addr: Addr) -> Option<&OwnerEntry> {
        self.trie.lookup(addr).map(|(_, e)| e)
    }

    /// All prefixes registered to `owner`.
    pub fn prefixes_of(&self, owner: OwnerId) -> Vec<Prefix> {
        self.trie
            .iter()
            .filter(|(_, e)| e.owner == owner)
            .map(|(p, _)| p)
            .collect()
    }

    /// Number of registrations.
    pub fn len(&self) -> usize {
        self.trie.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.trie.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut t = OwnerTable::new();
        t.register(Prefix::of_node(NodeId(3)), OwnerId(1), NodeId(3));
        let e = t.owner_of(Addr::new(NodeId(3), 42)).unwrap();
        assert_eq!(e.owner, OwnerId(1));
        assert!(t.owner_of(Addr::new(NodeId(4), 0)).is_none());
    }

    #[test]
    fn more_specific_shadows() {
        let mut t = OwnerTable::new();
        t.register(Prefix::new(0, 8), OwnerId(1), NodeId(0));
        t.register(Prefix::new(0, 16), OwnerId(2), NodeId(0));
        assert_eq!(t.owner_of(Addr(5)).unwrap().owner, OwnerId(2));
        assert_eq!(t.owner_of(Addr(0x0001_0000)).unwrap().owner, OwnerId(1));
    }

    #[test]
    fn prefixes_of_collects() {
        let mut t = OwnerTable::new();
        t.register(Prefix::of_node(NodeId(1)), OwnerId(9), NodeId(1));
        t.register(Prefix::of_node(NodeId(2)), OwnerId(9), NodeId(1));
        t.register(Prefix::of_node(NodeId(3)), OwnerId(8), NodeId(3));
        let mut ps = t.prefixes_of(OwnerId(9));
        ps.sort_by_key(|p| p.bits);
        assert_eq!(ps.len(), 2);
        assert!(ps.contains(&Prefix::of_node(NodeId(1))));
    }

    #[test]
    fn unregister_removes() {
        let mut t = OwnerTable::new();
        let p = Prefix::of_node(NodeId(7));
        t.register(p, OwnerId(1), NodeId(7));
        assert_eq!(t.len(), 1);
        assert!(t.unregister(p).is_some());
        assert!(t.owner_of(Addr::new(NodeId(7), 0)).is_none());
        assert!(t.is_empty());
    }
}
