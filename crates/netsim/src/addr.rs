//! Addressing.
//!
//! The simulator models the Internet at autonomous-system (AS) granularity:
//! every simulator node is an AS/site, and each node owns a /16-like block of
//! the 32-bit address space: the high 16 bits select the node, the low 16
//! bits a host within it. This keeps the `Addr -> node` mapping a shift,
//! which matters on the per-packet hot path, while still allowing tens of
//! thousands of distinct hosts per site for workload realism.

use core::fmt;

use crate::node::NodeId;

/// Number of low bits addressing a host within a node.
pub const HOST_BITS: u32 = 16;

/// A 32-bit network address (IPv4-like).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(pub u32);

impl Addr {
    /// Address of host `host` inside node `node`.
    pub fn new(node: NodeId, host: u16) -> Addr {
        Addr(((node.0 as u32) << HOST_BITS) | host as u32)
    }

    /// The node (AS/site) this address belongs to.
    pub fn node(self) -> NodeId {
        NodeId((self.0 >> HOST_BITS) as usize)
    }

    /// The host index within the owning node.
    pub fn host(self) -> u16 {
        (self.0 & 0xFFFF) as u16
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.node().0, self.host())
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A CIDR-style prefix over the 32-bit address space.
///
/// Ownership of traffic in the paper is defined per registered prefix; the
/// control plane hands these out and the adaptive devices match on them.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Prefix {
    /// Network bits; bits below `len` are zero (canonical form).
    pub bits: u32,
    /// Prefix length, 0..=32.
    pub len: u8,
}

impl Prefix {
    /// The whole address space (`0.0.0.0/0`).
    pub const ALL: Prefix = Prefix { bits: 0, len: 0 };

    /// Build a canonical prefix, masking off host bits.
    pub fn new(bits: u32, len: u8) -> Prefix {
        assert!(len <= 32, "prefix length must be <= 32");
        Prefix {
            bits: bits & Self::mask(len),
            len,
        }
    }

    /// The prefix covering every address of `node` (a /16 in this model).
    pub fn of_node(node: NodeId) -> Prefix {
        Prefix::new((node.0 as u32) << HOST_BITS, (32 - HOST_BITS) as u8)
    }

    /// The /32 prefix for one address.
    pub fn host(addr: Addr) -> Prefix {
        Prefix::new(addr.0, 32)
    }

    /// Netmask for a prefix length.
    pub fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len as u32)
        }
    }

    /// Does this prefix contain `addr`?
    pub fn contains(self, addr: Addr) -> bool {
        (addr.0 & Self::mask(self.len)) == self.bits
    }

    /// Does this prefix contain all of `other`?
    pub fn covers(self, other: Prefix) -> bool {
        self.len <= other.len && (other.bits & Self::mask(self.len)) == self.bits
    }

    /// First address in the prefix.
    pub fn first(self) -> Addr {
        Addr(self.bits)
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}/{}", self.bits, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_roundtrip() {
        let a = Addr::new(NodeId(42), 7);
        assert_eq!(a.node(), NodeId(42));
        assert_eq!(a.host(), 7);
    }

    #[test]
    fn node_prefix_contains_all_its_hosts() {
        let p = Prefix::of_node(NodeId(9));
        assert!(p.contains(Addr::new(NodeId(9), 0)));
        assert!(p.contains(Addr::new(NodeId(9), u16::MAX)));
        assert!(!p.contains(Addr::new(NodeId(10), 0)));
        assert_eq!(p.len, 16);
    }

    #[test]
    fn prefix_canonicalises() {
        let p = Prefix::new(0xFFFF_FFFF, 8);
        assert_eq!(p.bits, 0xFF00_0000);
    }

    #[test]
    fn covers_is_reflexive_and_ordered() {
        let wide = Prefix::new(0x0A00_0000, 8);
        let narrow = Prefix::new(0x0A0B_0000, 16);
        assert!(wide.covers(wide));
        assert!(wide.covers(narrow));
        assert!(!narrow.covers(wide));
        assert!(Prefix::ALL.covers(narrow));
    }

    #[test]
    fn host_prefix_matches_exactly_one() {
        let a = Addr::new(NodeId(3), 4);
        let p = Prefix::host(a);
        assert!(p.contains(a));
        assert!(!p.contains(Addr::new(NodeId(3), 5)));
    }

    #[test]
    fn mask_edges() {
        assert_eq!(Prefix::mask(0), 0);
        assert_eq!(Prefix::mask(32), u32::MAX);
        assert_eq!(Prefix::mask(16), 0xFFFF_0000);
    }
}
