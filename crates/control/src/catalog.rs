//! Service catalog: the user-facing services built "on top of the TC
//! service" (Sec. 5.1) and their mapping onto device module graphs.
//!
//! The TCSP "maps the request to service components and instructs network
//! management systems of appropriate ISPs to deploy and configure the
//! service components" — this module is that mapping.

use dtcs_device::{
    FilterRule, GraphNodeSpec, MatchExpr, ModuleSpec, ServiceSpec, Stage, TriggerAction,
    TriggerMetric,
};
use dtcs_netsim::{Prefix, Proto, SimDuration};

/// A catalog service a network user can order.
#[derive(Clone, Debug, PartialEq)]
pub enum CatalogService {
    /// Worldwide anti-spoofing for the owner's prefixes (the DDoS
    /// reflector defense of Sec. 4.3). Stage 1: judged where traffic
    /// claiming the owner's sources enters the network.
    AntiSpoofing,
    /// Distributed firewall over inbound traffic (Sec. 4.4): drop the
    /// given protocols destined to the owner.
    FirewallBlock {
        /// Protocols to drop.
        protos: Vec<Proto>,
    },
    /// Rate-limit inbound traffic to the owner.
    RateLimit {
        /// Bytes per second admitted per device.
        rate_bytes_per_sec: f64,
        /// Burst allowance.
        burst_bytes: u32,
    },
    /// Source blacklist over inbound traffic.
    Blacklist {
        /// Blocked source prefixes.
        sources: Vec<Prefix>,
    },
    /// SPIE-style traceback backlog over traffic claiming the owner's
    /// sources (Sec. 4.4 "Traceback").
    TracebackSupport {
        /// Digest window.
        window: SimDuration,
        /// Windows retained.
        windows: usize,
    },
    /// Traffic statistics / logging over inbound traffic (Sec. 4.4).
    Statistics {
        /// Log ring capacity.
        capacity: usize,
        /// Sample one packet in N.
        sample_one_in: u32,
    },
    /// Automated anomaly reaction (Sec. 4.4): a trigger that activates a
    /// dormant rate limiter when inbound rate exceeds a threshold.
    AnomalyReaction {
        /// Packets/second firing threshold.
        threshold_pps: f64,
        /// Observation window.
        window: SimDuration,
        /// Rate limit applied while the trigger is hot (bytes/second).
        limit_bytes_per_sec: f64,
    },
}

impl CatalogService {
    /// Which processing stage this service runs in.
    pub fn stage(&self) -> Stage {
        match self {
            CatalogService::AntiSpoofing | CatalogService::TracebackSupport { .. } => Stage::Src,
            _ => Stage::Dst,
        }
    }

    /// Compile to a device service spec.
    pub fn compile(&self) -> ServiceSpec {
        match self {
            CatalogService::AntiSpoofing => {
                ServiceSpec::chain("anti-spoofing", vec![ModuleSpec::AntiSpoof])
            }
            CatalogService::FirewallBlock { protos } => ServiceSpec::chain(
                "firewall-block",
                vec![ModuleSpec::Filter {
                    rules: protos
                        .iter()
                        .map(|&p| FilterRule {
                            expr: MatchExpr::proto(p),
                            drop: true,
                        })
                        .collect(),
                }],
            ),
            CatalogService::RateLimit {
                rate_bytes_per_sec,
                burst_bytes,
            } => ServiceSpec::chain(
                "rate-limit",
                vec![ModuleSpec::RateLimit {
                    expr: MatchExpr::any(),
                    rate_bytes_per_sec: *rate_bytes_per_sec,
                    burst_bytes: *burst_bytes,
                }],
            ),
            CatalogService::Blacklist { sources } => ServiceSpec::chain(
                "blacklist",
                vec![ModuleSpec::Blacklist {
                    sources: sources.clone(),
                }],
            ),
            CatalogService::TracebackSupport { window, windows } => ServiceSpec::chain(
                "traceback-support",
                vec![ModuleSpec::DigestBacklog {
                    window: *window,
                    windows: *windows,
                    bits: 1 << 16,
                    hashes: 4,
                }],
            ),
            CatalogService::Statistics {
                capacity,
                sample_one_in,
            } => ServiceSpec::chain(
                "statistics",
                vec![ModuleSpec::Logger {
                    capacity: *capacity,
                    sample_one_in: *sample_one_in,
                }],
            ),
            CatalogService::AnomalyReaction {
                threshold_pps,
                window,
                limit_bytes_per_sec,
            } => ServiceSpec::new(
                "anomaly-reaction",
                vec![
                    GraphNodeSpec {
                        module: ModuleSpec::Trigger {
                            expr: MatchExpr::any(),
                            metric: TriggerMetric::PacketRate,
                            threshold: *threshold_pps,
                            window: *window,
                            action: TriggerAction::ActivateModule(1),
                            tag: 0xA401,
                        },
                        enabled: true,
                    },
                    GraphNodeSpec {
                        module: ModuleSpec::RateLimit {
                            expr: MatchExpr::any(),
                            rate_bytes_per_sec: *limit_bytes_per_sec,
                            burst_bytes: (*limit_bytes_per_sec / 2.0) as u32,
                        },
                        enabled: false, // dormant until the trigger fires
                    },
                ],
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtcs_device::SafetyVerifier;

    /// One service of each catalog kind, with the content hash its
    /// compiled spec must keep.
    fn one_of_each() -> Vec<(CatalogService, u64)> {
        vec![
            (CatalogService::AntiSpoofing, 0x1368_52db_fa32_719a),
            (
                CatalogService::FirewallBlock {
                    protos: vec![Proto::TcpRst, Proto::IcmpUnreachable],
                },
                0xdc58_500f_5463_cd0f,
            ),
            (
                CatalogService::RateLimit {
                    rate_bytes_per_sec: 1e6,
                    burst_bytes: 100_000,
                },
                0xc14d_687e_4c52_9a06,
            ),
            (
                CatalogService::Blacklist {
                    sources: vec![Prefix::new(0x0A00_0000, 8)],
                },
                0x00c0_aaf6_ebd8_bc59,
            ),
            (
                CatalogService::TracebackSupport {
                    window: SimDuration::from_secs(1),
                    windows: 30,
                },
                0x1ab5_c86b_e615_1dfd,
            ),
            (
                CatalogService::Statistics {
                    capacity: 4096,
                    sample_one_in: 16,
                },
                0x407d_df48_2050_5a57,
            ),
            (
                CatalogService::AnomalyReaction {
                    threshold_pps: 1000.0,
                    window: SimDuration::from_millis(500),
                    limit_bytes_per_sec: 1e5,
                },
                0x8425_5f56_be6e_adde,
            ),
        ]
    }

    #[test]
    fn every_catalog_service_passes_the_verifier() {
        let v = SafetyVerifier::default();
        for (s, _) in one_of_each() {
            let spec = s.compile();
            assert!(v.verify(&spec).is_ok(), "{} must verify", spec.name());
        }
    }

    /// The hash orders the NMS's desired state and travels in inventory
    /// replies: where it is computed may change, its value may not.
    #[test]
    fn compiled_fingerprints_are_pinned() {
        for (s, hash) in one_of_each() {
            let spec = s.compile();
            assert_eq!(spec.content_hash(), hash, "{}", spec.name());
        }
    }

    #[test]
    fn stages_match_semantics() {
        assert_eq!(CatalogService::AntiSpoofing.stage(), Stage::Src);
        assert_eq!(
            CatalogService::RateLimit {
                rate_bytes_per_sec: 1.0,
                burst_bytes: 1
            }
            .stage(),
            Stage::Dst
        );
    }

    #[test]
    fn anomaly_reaction_limiter_starts_dormant() {
        let spec = CatalogService::AnomalyReaction {
            threshold_pps: 10.0,
            window: SimDuration::from_secs(1),
            limit_bytes_per_sec: 1000.0,
        }
        .compile();
        assert!(spec.modules()[0].enabled);
        assert!(!spec.modules()[1].enabled);
    }
}
