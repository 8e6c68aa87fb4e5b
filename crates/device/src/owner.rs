//! Traffic ownership (Sec. 4.1).
//!
//! "We declare a network packet to be owned by these network users, who are
//! officially registered to hold either the destination or the source IP
//! address or both of that packet." The [`OwnerTable`] is the device-local
//! materialisation of that registry: a longest-prefix-match structure from
//! address to owner, consulted twice per packet (source side, then
//! destination side).

use std::collections::BTreeSet;

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

/// One registration as the owner-side index orders it: owner first, then
/// the prefix's bits and length.
type OwnedPrefix = (OwnerId, u32, u8);

fn owned(owner: OwnerId, prefix: Prefix) -> OwnedPrefix {
    (owner, prefix.bits, prefix.len)
}

/// Device-local map from address space to owner, and back: the trie
/// answers "who owns this address"; the index lists every registration
/// again by owner, for the two questions an address lookup cannot answer
/// when a more specific registration shadows a prefix — where does this
/// owner's telemetry go, and which prefixes leave with it. `register` and
/// `unregister` keep the two in step.
#[derive(Clone, Debug, Default)]
pub struct OwnerTable {
    trie: PrefixTrie<OwnerEntry>,
    by_owner: BTreeSet<OwnedPrefix>,
}

impl OwnerTable {
    /// Empty table.
    pub fn new() -> Self {
        OwnerTable::default()
    }

    /// Register `prefix` as owned by `owner` with a telemetry contact node.
    /// More-specific registrations shadow less-specific ones (LPM).
    pub fn register(&mut self, prefix: Prefix, owner: OwnerId, contact: NodeId) {
        let same = |e: &OwnerEntry| e.owner == owner && e.contact == contact;
        if self.trie.get(prefix).is_some_and(same) {
            return; // re-registration (every lease renewal sends one)
        }
        let old = self.trie.insert(prefix, OwnerEntry { owner, contact });
        if old.map(|old| old.owner) == Some(owner) {
            return; // new contact, same owner
        }
        if let Some(old) = old {
            self.by_owner.remove(&owned(old.owner, prefix)); // changed hands
        }
        self.by_owner.insert(owned(owner, prefix));
    }

    /// Remove the registration at exactly `prefix`.
    pub fn unregister(&mut self, prefix: Prefix) -> Option<OwnerEntry> {
        let old = self.trie.remove(prefix)?;
        self.by_owner.remove(&owned(old.owner, prefix));
        Some(old)
    }

    /// Remove every registration of `owner`.
    pub fn unregister_owner(&mut self, owner: OwnerId) {
        while let Some(prefix) = self.first_prefix_of(owner) {
            self.unregister(prefix);
        }
    }

    fn first_prefix_of(&self, owner: OwnerId) -> Option<Prefix> {
        self.prefixes_of(owner).next()
    }

    /// The owner of an address, if registered.
    pub fn owner_of(&self, addr: Addr) -> Option<&OwnerEntry> {
        self.trie.lookup(addr).map(|(_, e)| e)
    }

    /// Where `owner`'s telemetry goes: the contact it registered its own
    /// (first) prefix with, whoever else's prefixes shadow its addresses.
    pub fn contact_of(&self, owner: OwnerId) -> Option<NodeId> {
        let own = self.first_prefix_of(owner)?;
        self.trie.get(own).map(|e| e.contact)
    }

    /// All prefixes registered to `owner`, in address order.
    pub fn prefixes_of(&self, owner: OwnerId) -> impl Iterator<Item = Prefix> + '_ {
        self.by_owner
            .range((owner, 0, 0)..=(owner, u32::MAX, u8::MAX))
            .map(|&(_, bits, len)| Prefix { bits, len })
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
        let of = |owner| t.prefixes_of(OwnerId(owner)).collect::<Vec<_>>();
        assert_eq!(
            of(9),
            [Prefix::of_node(NodeId(1)), Prefix::of_node(NodeId(2))]
        );
        assert_eq!(of(8), [Prefix::of_node(NodeId(3))]);
        assert!(of(7).is_empty());
    }

    #[test]
    fn index_follows_every_registration() {
        let mut t = OwnerTable::new();
        let of = |t: &OwnerTable, owner| t.prefixes_of(OwnerId(owner)).collect::<Vec<_>>();
        let (p, q) = (Prefix::of_node(NodeId(1)), Prefix::of_node(NodeId(2)));
        t.register(p, OwnerId(1), NodeId(5));
        t.register(q, OwnerId(1), NodeId(5));
        t.register(p, OwnerId(1), NodeId(5)); // a renewal's re-registration
        assert_eq!(of(&t, 1), [p, q]);
        t.register(p, OwnerId(2), NodeId(6)); // the prefix changes hands
        assert_eq!((of(&t, 1), of(&t, 2)), (vec![q], vec![p]));
        t.register(q, OwnerId(1), NodeId(7)); // same owner, new contact
        assert_eq!(of(&t, 1), [q]);
        assert_eq!(t.contact_of(OwnerId(1)), Some(NodeId(7)));
        assert_eq!(t.contact_of(OwnerId(2)), Some(NodeId(6)));
        assert!(t.unregister(q).is_some());
        assert_eq!(t.contact_of(OwnerId(1)), None, "no registration left");
        t.unregister_owner(OwnerId(2));
        assert!(t.is_empty() && t.by_owner.is_empty());
        assert_eq!(t.contact_of(OwnerId(2)), None);
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
