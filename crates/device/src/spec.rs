//! Declarative service specifications.
//!
//! Network users do not ship code to adaptive devices in this model — they
//! ship *specifications*: serialisable descriptions of module graphs that
//! the device instantiates after the safety verifier approves them ("New
//! service modules for the adaptive device must be checked for security
//! compliance before deployment", Sec. 4.5). The spec layer also contains
//! deliberately-forbidden module kinds (header rewriting, TTL modification,
//! amplification, redirection); they exist so the verifier's rejections are
//! testable end-to-end (experiment E8).

use std::fmt;
use std::sync::Arc;

use dtcs_netsim::{Addr, Prefix, Proto, SimDuration};

/// Which processing stage a service graph attaches to (Sec. 4.1 / Fig. 6):
/// stage 1 runs on behalf of the *source*-address owner, stage 2 on behalf
/// of the *destination*-address owner.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Stage {
    /// Source-owner processing (first stage).
    Src,
    /// Destination-owner processing (second stage).
    Dst,
}

/// A packet predicate. All present conditions must hold (conjunction).
///
/// Besides header fields, rules can match on **payload hashes** (Sec. 4.2:
/// "rules that match traffic by header fields, payload (or payload
/// hashes)…"). In this model a packet's payload identity is its
/// `payload_tag`, so payload-hash rules list the known tags — e.g. the
/// signature hashes of a worm's infection payload.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MatchExpr {
    /// Source address within this prefix.
    pub src_in: Option<Prefix>,
    /// Destination address within this prefix.
    pub dst_in: Option<Prefix>,
    /// Protocol is one of these (empty = any).
    pub protos: Vec<Proto>,
    /// Size at least this many bytes.
    pub min_size: Option<u32>,
    /// Size at most this many bytes.
    pub max_size: Option<u32>,
    /// Payload hash is one of these (empty = any) — signature matching.
    pub payload_hashes: Vec<u64>,
}

impl MatchExpr {
    /// Match everything.
    pub fn any() -> MatchExpr {
        MatchExpr::default()
    }

    /// Restrict to one protocol.
    pub fn proto(proto: Proto) -> MatchExpr {
        MatchExpr {
            protos: vec![proto],
            ..Default::default()
        }
    }

    /// Restrict to a set of protocols.
    pub fn protos(protos: &[Proto]) -> MatchExpr {
        MatchExpr {
            protos: protos.to_vec(),
            ..Default::default()
        }
    }

    /// Restrict by source prefix.
    pub fn with_src(mut self, p: Prefix) -> MatchExpr {
        self.src_in = Some(p);
        self
    }

    /// Restrict by size window.
    pub fn with_size(mut self, min: Option<u32>, max: Option<u32>) -> MatchExpr {
        self.min_size = min;
        self.max_size = max;
        self
    }

    /// Restrict to known payload hashes (signature matching).
    pub fn with_payload_hashes(mut self, hashes: Vec<u64>) -> MatchExpr {
        self.payload_hashes = hashes;
        self
    }

    /// Evaluate against header fields plus the payload hash.
    pub fn matches_full(
        &self,
        src: Addr,
        dst: Addr,
        proto: Proto,
        size: u32,
        payload_hash: u64,
    ) -> bool {
        if !self.payload_hashes.is_empty() && !self.payload_hashes.contains(&payload_hash) {
            return false;
        }
        self.matches(src, dst, proto, size)
    }

    /// Evaluate against header fields only (payload-hash conditions are
    /// NOT consulted here; use [`MatchExpr::matches_full`] on the packet
    /// path).
    pub fn matches(&self, src: Addr, dst: Addr, proto: Proto, size: u32) -> bool {
        if let Some(p) = self.src_in {
            if !p.contains(src) {
                return false;
            }
        }
        if let Some(p) = self.dst_in {
            if !p.contains(dst) {
                return false;
            }
        }
        if !self.protos.is_empty() && !self.protos.contains(&proto) {
            return false;
        }
        if let Some(m) = self.min_size {
            if size < m {
                return false;
            }
        }
        if let Some(m) = self.max_size {
            if size > m {
                return false;
            }
        }
        true
    }
}

/// First-match filter rule.
#[derive(Clone, Debug, PartialEq)]
pub struct FilterRule {
    /// Predicate.
    pub expr: MatchExpr,
    /// Drop on match? (false = explicitly pass, terminating rule scan).
    pub drop: bool,
}

/// Metric a trigger watches.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TriggerMetric {
    /// Matched packets per second over the trigger window.
    PacketRate,
    /// Matched bytes per second over the trigger window.
    ByteRate,
}

/// What a trigger does when it fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TriggerAction {
    /// Emit a [`crate::view::DeviceEvent::TriggerFired`] to the owner's
    /// contact node.
    Notify,
    /// Additionally enable the (initially disabled) graph module at this
    /// index — "during attacks, triggers can automatically activate
    /// predefined additional configurations" (Sec. 4.2). The module is
    /// disabled again on relief.
    ActivateModule(usize),
}

/// One module in a service graph.
///
/// The last four variants are *structurally unsafe* and exist to be
/// rejected: they model the misuse classes Sec. 4.5 rules out.
#[derive(Clone, Debug, PartialEq)]
pub enum ModuleSpec {
    /// First-match packet filter (firewall-like, Sec. 4.2).
    Filter {
        /// Rules, evaluated in order; no match = pass.
        rules: Vec<FilterRule>,
    },
    /// Token-bucket rate limiter over matched traffic.
    RateLimit {
        /// Which packets count against the bucket.
        expr: MatchExpr,
        /// Sustained rate in bytes/second.
        rate_bytes_per_sec: f64,
        /// Bucket depth in bytes.
        burst_bytes: u32,
    },
    /// Drop packets whose source is in any listed prefix.
    Blacklist {
        /// Blacklisted source prefixes.
        sources: Vec<Prefix>,
    },
    /// Drop traffic that claims the owner's source addresses while entering
    /// the network somewhere that cannot legitimately originate them
    /// (distributed ingress filtering, Sec. 4.3).
    AntiSpoof,
    /// Strip the payload of matched packets down to a header stub.
    PayloadDelete {
        /// Which packets to strip.
        expr: MatchExpr,
        /// Bytes to keep (header stub size).
        keep_bytes: u32,
    },
    /// Ring-buffer digest logger with sampling.
    Logger {
        /// Ring capacity in entries.
        capacity: usize,
        /// Sample one packet in `sample_one_in` (1 = every packet).
        sample_one_in: u32,
    },
    /// SPIE-style packet-digest backlog for traceback support (Sec. 4.4).
    DigestBacklog {
        /// Length of one digest window.
        window: SimDuration,
        /// Number of windows retained.
        windows: usize,
        /// Bloom filter size in bits per window.
        bits: u32,
        /// Hash functions per insertion.
        hashes: u8,
    },
    /// Threshold trigger over a traffic metric.
    Trigger {
        /// Which packets count toward the metric.
        expr: MatchExpr,
        /// Watched metric.
        metric: TriggerMetric,
        /// Fire when the metric exceeds this value.
        threshold: f64,
        /// Averaging / hysteresis window.
        window: SimDuration,
        /// Action on fire.
        action: TriggerAction,
        /// User tag reported in events.
        tag: u32,
    },
    /// FORBIDDEN: rewrite source/destination addresses (rerouting,
    /// transparent spoofing — Sec. 4.5).
    RewriteHeader {
        /// Attempted new source.
        new_src: Option<Addr>,
        /// Attempted new destination.
        new_dst: Option<Addr>,
    },
    /// FORBIDDEN: modify the TTL field (Sec. 4.5).
    TtlModify {
        /// Attempted TTL delta.
        delta: i16,
    },
    /// FORBIDDEN: grow packets or emit extra copies (amplification,
    /// Sec. 4.5 "the traffic control must not allow the packet rate to
    /// increase").
    Amplify {
        /// Attempted amplification factor.
        factor: u32,
    },
    /// FORBIDDEN: divert matched packets toward a different address
    /// (routing-loop / attack-forwarding hazard, Sec. 4.5).
    Redirect {
        /// Attempted diversion target.
        to: Addr,
    },
}

impl ModuleSpec {
    /// Short kind name for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            ModuleSpec::Filter { .. } => "filter",
            ModuleSpec::RateLimit { .. } => "rate-limit",
            ModuleSpec::Blacklist { .. } => "blacklist",
            ModuleSpec::AntiSpoof => "anti-spoof",
            ModuleSpec::PayloadDelete { .. } => "payload-delete",
            ModuleSpec::Logger { .. } => "logger",
            ModuleSpec::DigestBacklog { .. } => "digest-backlog",
            ModuleSpec::Trigger { .. } => "trigger",
            ModuleSpec::RewriteHeader { .. } => "rewrite-header",
            ModuleSpec::TtlModify { .. } => "ttl-modify",
            ModuleSpec::Amplify { .. } => "amplify",
            ModuleSpec::Redirect { .. } => "redirect",
        }
    }

    /// Number of primitive rules this module contributes to the device's
    /// rule count (the E6 scalability unit).
    pub fn rule_count(&self) -> usize {
        match self {
            ModuleSpec::Filter { rules } => rules.len().max(1),
            ModuleSpec::Blacklist { sources } => sources.len().max(1),
            _ => 1,
        }
    }
}

/// A service graph: modules executed in sequence, each optionally starting
/// disabled (until a trigger activates it).
///
/// A spec is an immutable shared value. Its body sits behind an [`Arc`]
/// and its [`content_hash`](ServiceSpec::content_hash) is computed once
/// at construction, so `clone()` is a reference count and a control plane
/// that re-sends one spec on every lease renewal copies and hashes
/// nothing.
#[derive(Clone)]
pub struct ServiceSpec {
    body: Arc<SpecBody>,
    hash: u64,
}

/// What a [`ServiceSpec`] shares between its clones. Renders as the spec
/// itself: the content hash is defined over this rendering.
#[derive(PartialEq)]
struct SpecBody {
    name: String,
    modules: Vec<GraphNodeSpec>,
}

impl fmt::Debug for SpecBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServiceSpec")
            .field("name", &self.name)
            .field("modules", &self.modules)
            .finish()
    }
}

impl fmt::Debug for ServiceSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.body, f)
    }
}

impl PartialEq for ServiceSpec {
    fn eq(&self, other: &ServiceSpec) -> bool {
        self.body == other.body
    }
}

/// One node in a service graph spec.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphNodeSpec {
    /// Module description.
    pub module: ModuleSpec,
    /// Start enabled? Triggers can flip this at run time.
    pub enabled: bool,
}

impl ServiceSpec {
    /// A service named `name` (human-readable, e.g. "ingress-filtering")
    /// running `modules` in order. The one constructor: the content hash
    /// is fixed here.
    pub fn new(name: &str, modules: Vec<GraphNodeSpec>) -> ServiceSpec {
        let body = SpecBody {
            name: name.to_string(),
            modules,
        };
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for b in format!("{:?}", body).bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        ServiceSpec {
            body: Arc::new(body),
            hash,
        }
    }

    /// A service from a plain list of always-on modules.
    pub fn chain(name: &str, modules: Vec<ModuleSpec>) -> ServiceSpec {
        let modules = modules
            .into_iter()
            .map(|m| GraphNodeSpec {
                module: m,
                enabled: true,
            })
            .collect();
        ServiceSpec::new(name, modules)
    }

    /// Human-readable service name.
    pub fn name(&self) -> &str {
        &self.body.name
    }

    /// Modules in execution order.
    pub fn modules(&self) -> &[GraphNodeSpec] {
        &self.body.modules
    }

    /// Total primitive rules (E6 unit).
    pub fn rule_count(&self) -> usize {
        self.modules().iter().map(|m| m.module.rule_count()).sum()
    }

    /// Deterministic content fingerprint, computed once at construction:
    /// FNV-1a over the spec's canonical `Debug` rendering (module specs
    /// contain `f64` fields, so the struct cannot derive `Hash`; `Debug`
    /// of finite floats is exact and stable). Devices use it to recognise
    /// a *byte-identical* reinstall — the idempotency key of
    /// [`crate::device::DeviceCommand::InstallService`] is (owner, stage,
    /// content hash) — and the NMS reconciliation sweep compares desired
    /// vs. reported hashes.
    pub fn content_hash(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtcs_netsim::NodeId;

    #[test]
    fn match_expr_conjunction() {
        let e = MatchExpr::proto(Proto::TcpSyn)
            .with_src(Prefix::of_node(NodeId(1)))
            .with_size(Some(40), Some(100));
        let src = Addr::new(NodeId(1), 1);
        let dst = Addr::new(NodeId(2), 1);
        assert!(e.matches(src, dst, Proto::TcpSyn, 64));
        assert!(!e.matches(src, dst, Proto::Udp, 64));
        assert!(!e.matches(Addr::new(NodeId(3), 1), dst, Proto::TcpSyn, 64));
        assert!(!e.matches(src, dst, Proto::TcpSyn, 200));
        assert!(!e.matches(src, dst, Proto::TcpSyn, 10));
    }

    #[test]
    fn any_matches_everything() {
        let e = MatchExpr::any();
        assert!(e.matches(Addr(0), Addr(u32::MAX), Proto::IcmpTimeExceeded, 1_000_000));
    }

    #[test]
    fn rule_counts() {
        let f = ModuleSpec::Filter {
            rules: vec![
                FilterRule {
                    expr: MatchExpr::any(),
                    drop: true,
                },
                FilterRule {
                    expr: MatchExpr::any(),
                    drop: false,
                },
            ],
        };
        assert_eq!(f.rule_count(), 2);
        assert_eq!(ModuleSpec::AntiSpoof.rule_count(), 1);
        let s = ServiceSpec::chain("x", vec![f, ModuleSpec::AntiSpoof]);
        assert_eq!(s.rule_count(), 3);
    }

    fn anti_spoofing() -> ServiceSpec {
        ServiceSpec::chain("anti-spoofing", vec![ModuleSpec::AntiSpoof])
    }

    /// A spec renders, compact and pretty, as a plain `{ name, modules }`
    /// struct derives `Debug`, and its hash is FNV-1a over the compact
    /// form: the value below has been in inventories and desired-state
    /// keys since before the body was shared.
    #[test]
    fn renders_and_hashes_as_a_plain_struct() {
        let spec = anti_spoofing();
        let compact = "ServiceSpec { name: \"anti-spoofing\", modules: \
                       [GraphNodeSpec { module: AntiSpoof, enabled: true }] }";
        assert_eq!(format!("{spec:?}"), compact);
        let pretty = "ServiceSpec {\n    name: \"anti-spoofing\",\n    modules: [\n        \
                      GraphNodeSpec {\n            module: AntiSpoof,\n            \
                      enabled: true,\n        },\n    ],\n}";
        assert_eq!(format!("{spec:#?}"), pretty);
        assert_eq!(spec.content_hash(), 0x1368_52db_fa32_719a);
    }

    #[test]
    fn clone_shares_the_body_and_equality_compares_it() {
        let spec = anti_spoofing();
        let copy = spec.clone();
        assert!(
            Arc::ptr_eq(&spec.body, &copy.body),
            "a clone is a reference"
        );
        assert_eq!(copy.content_hash(), spec.content_hash());
        let twin = anti_spoofing();
        assert!(!Arc::ptr_eq(&spec.body, &twin.body), "built separately");
        assert_eq!(twin, spec);
        assert_eq!(twin.content_hash(), spec.content_hash());
        let renamed = ServiceSpec::chain("other", vec![ModuleSpec::AntiSpoof]);
        assert_ne!(renamed, spec);
        assert_ne!(renamed.content_hash(), spec.content_hash());
        let dormant = ServiceSpec::new(
            "anti-spoofing",
            vec![GraphNodeSpec {
                module: ModuleSpec::AntiSpoof,
                enabled: false,
            }],
        );
        assert_ne!(dormant, spec);
        assert_ne!(dormant.content_hash(), spec.content_hash());
    }
}
