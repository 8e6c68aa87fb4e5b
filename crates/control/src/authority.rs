//! Internet number authority (ARIN / RIPE NCC stand-in).
//!
//! "Ownership of (ranges of) IP addresses is maintained in databases of
//! organisations such as ARIN, RIPE NCC, etc." (Sec. 5.1, footnote 4).
//! The TCSP consults this registry during service registration (Fig. 4's
//! `verifyOwnership` exchange).

use std::collections::BTreeMap;

use dtcs_netsim::Prefix;

use crate::identity::UserId;

/// The allocation database.
#[derive(Clone, Debug, Default)]
pub struct InternetNumberAuthority {
    /// Allocations, keyed by `(bits, len)` for deterministic iteration.
    allocations: BTreeMap<(u32, u8), UserId>,
}

impl InternetNumberAuthority {
    /// Empty registry.
    pub fn new() -> InternetNumberAuthority {
        InternetNumberAuthority::default()
    }

    /// Record that `user` holds `prefix`.
    pub fn allocate(&mut self, prefix: Prefix, user: UserId) {
        self.allocations.insert((prefix.bits, prefix.len), user);
    }

    /// Does `user` hold `prefix` (exactly, or via a covering allocation)?
    pub fn owns(&self, user: UserId, prefix: Prefix) -> bool {
        self.allocations
            .iter()
            .any(|(&(bits, len), &holder)| holder == user && Prefix { bits, len }.covers(prefix))
    }

    /// Verify a whole claim set; returns the first prefix that fails, if
    /// any.
    pub fn verify_claim(&self, user: UserId, claimed: &[Prefix]) -> Result<(), Prefix> {
        for &p in claimed {
            if !self.owns(user, p) {
                return Err(p);
            }
        }
        Ok(())
    }

    /// Number of allocations.
    pub fn len(&self) -> usize {
        self.allocations.len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.allocations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtcs_netsim::NodeId;

    #[test]
    fn ownership_exact_and_covering() {
        let mut a = InternetNumberAuthority::new();
        a.allocate(Prefix::new(0x0A00_0000, 8), UserId(1));
        assert!(a.owns(UserId(1), Prefix::new(0x0A00_0000, 8)));
        assert!(
            a.owns(UserId(1), Prefix::new(0x0A0B_0000, 16)),
            "sub-prefix"
        );
        assert!(!a.owns(UserId(2), Prefix::new(0x0A00_0000, 8)));
        assert!(!a.owns(UserId(1), Prefix::new(0x0B00_0000, 8)));
    }

    #[test]
    fn claim_verification_reports_offender() {
        let mut a = InternetNumberAuthority::new();
        a.allocate(Prefix::of_node(NodeId(1)), UserId(1));
        let claim = vec![Prefix::of_node(NodeId(1)), Prefix::of_node(NodeId(2))];
        assert_eq!(
            a.verify_claim(UserId(1), &claim),
            Err(Prefix::of_node(NodeId(2)))
        );
        assert_eq!(a.verify_claim(UserId(1), &claim[..1]), Ok(()));
    }
}
