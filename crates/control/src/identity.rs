//! Users, credentials and certificates.
//!
//! The paper binds a network user to the set of IP addresses they own
//! "with digital certificates signed by the TCSP" (Sec. 5.1). We simulate
//! the trust chain with keyed 64-bit tags: a [`Certificate`] is valid iff
//! its tag matches the TCSP key over its contents. This is a stated
//! substitution (DESIGN.md §2) — the protocol logic only ever consumes the
//! valid/invalid bit, so nothing downstream changes if the tag were a real
//! signature.

use dtcs_netsim::{Prefix, SimTime};

/// A registered network user.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct UserId(pub u64);

/// SplitMix64-style keyed mixer (NOT cryptographic — simulation stand-in).
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Keyed tag over certificate contents.
fn tag(key: u64, user: UserId, prefixes: &[Prefix], expires_at: SimTime) -> u64 {
    let mut h = mix(key ^ 0x7C5);
    h = mix(h ^ user.0);
    for p in prefixes {
        h = mix(h ^ ((p.bits as u64) << 8 | p.len as u64));
    }
    mix(h ^ expires_at.as_nanos())
}

/// A TCSP-issued binding of a user to owned prefixes (Fig. 4's
/// "TCSP certificate").
#[derive(Clone, Debug, PartialEq)]
pub struct Certificate {
    /// The certified user.
    pub user: UserId,
    /// Prefixes the user may control traffic for.
    pub prefixes: Vec<Prefix>,
    /// Expiry instant.
    pub expires_at: SimTime,
    sig: u64,
}

impl Certificate {
    /// Issue a certificate under the TCSP's key.
    pub fn issue(
        key: u64,
        user: UserId,
        prefixes: Vec<Prefix>,
        expires_at: SimTime,
    ) -> Certificate {
        let sig = tag(key, user, &prefixes, expires_at);
        Certificate {
            user,
            prefixes,
            expires_at,
            sig,
        }
    }

    /// Verify signature and freshness against the TCSP key.
    pub fn verify(&self, key: u64, now: SimTime) -> bool {
        now < self.expires_at && self.sig == tag(key, self.user, &self.prefixes, self.expires_at)
    }

    /// Signature check alone, ignoring freshness. Withdrawal uses this:
    /// an owner whose certificate expired mid-flight may still *reduce*
    /// their footprint (tearing filters down is always safe), they just
    /// may no longer extend it — that requires [`Certificate::verify`].
    pub fn authentic(&self, key: u64) -> bool {
        self.sig == tag(key, self.user, &self.prefixes, self.expires_at)
    }

    /// Does this certificate authorise control over `prefix`?
    pub fn covers(&self, prefix: Prefix) -> bool {
        self.prefixes.iter().any(|p| p.covers(prefix))
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use dtcs_netsim::rng::check_cases;
    use dtcs_netsim::NodeId;

    /// Any single-field tampering of a certificate breaks verification,
    /// and verification never succeeds under a different key.
    #[test]
    fn tampering_always_breaks_verification() {
        check_cases(0..256, |rng| {
            let (key, other_key, user): (u64, u64, u64) = (rng.gen(), rng.gen(), rng.gen());
            let node = rng.gen_range(0..1000usize);
            let expiry_s = rng.gen_range(1..1_000_000u64);
            let tweak = rng.gen_range(1..u64::MAX);
            let cert = Certificate::issue(
                key,
                UserId(user),
                vec![Prefix::of_node(NodeId(node))],
                SimTime::from_secs(expiry_s),
            );
            let now = SimTime::ZERO;
            assert!(cert.verify(key, now));
            if other_key != key {
                assert!(!cert.verify(other_key, now));
            }
            // Tamper the user.
            let mut t = cert.clone();
            t.user = UserId(user.wrapping_add(tweak));
            assert!(!t.verify(key, now));
            // Tamper the prefixes.
            let mut t = cert.clone();
            t.prefixes.push(Prefix::of_node(NodeId((node + 1) % 1001)));
            assert!(!t.verify(key, now));
            // Tamper the expiry (extending one's own certificate).
            let mut t = cert.clone();
            t.expires_at = SimTime::from_secs(expiry_s + tweak % 1_000_000 + 1);
            assert!(!t.verify(key, now));
            // Expired certificates never verify.
            assert!(!cert.verify(key, SimTime::from_secs(expiry_s)));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtcs_netsim::NodeId;

    fn cert(key: u64) -> Certificate {
        Certificate::issue(
            key,
            UserId(7),
            vec![Prefix::of_node(NodeId(3))],
            SimTime::from_secs(1000),
        )
    }

    #[test]
    fn valid_certificate_verifies() {
        let c = cert(111);
        assert!(c.verify(111, SimTime::from_secs(1)));
    }

    #[test]
    fn wrong_key_fails() {
        let c = cert(111);
        assert!(!c.verify(222, SimTime::from_secs(1)));
    }

    #[test]
    fn expiry_enforced() {
        let c = cert(111);
        assert!(!c.verify(111, SimTime::from_secs(1000)));
        assert!(!c.verify(111, SimTime::from_secs(2000)));
    }

    #[test]
    fn authentic_ignores_expiry_but_not_forgery() {
        let c = cert(111);
        assert!(c.authentic(111), "fresh certificate is authentic");
        assert!(
            c.authentic(111),
            "still authentic past expiry (withdrawal path)"
        );
        assert!(!c.authentic(222), "wrong key is never authentic");
        let mut t = c.clone();
        t.expires_at = SimTime::from_secs(9999);
        assert!(!t.authentic(111), "tampered expiry breaks the signature");
    }

    #[test]
    fn tampered_prefixes_fail() {
        let mut c = cert(111);
        c.prefixes.push(Prefix::of_node(NodeId(9)));
        assert!(!c.verify(111, SimTime::from_secs(1)));
    }

    #[test]
    fn covers_checks_containment() {
        let c = cert(111);
        assert!(c.covers(Prefix::of_node(NodeId(3))));
        assert!(c.covers(Prefix::host(dtcs_netsim::Addr::new(NodeId(3), 5))));
        assert!(!c.covers(Prefix::of_node(NodeId(4))));
    }
}
