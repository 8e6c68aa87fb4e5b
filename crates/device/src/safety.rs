//! The safety verifier (Sec. 4.5).
//!
//! Misuse of the delegated control "must be prevented from the very
//! beginning for gaining acceptance by network operators". The verifier is
//! the deployment-time gate: every service spec is checked before a device
//! instantiates it, and specs containing any capability from the forbidden
//! classes are rejected with a structured reason. The run-time complement
//! (the shrink-only [`crate::view::PacketView`] and the device's telemetry
//! budget) covers what a static check cannot.

use crate::spec::{ModuleSpec, ServiceSpec, TriggerAction};

/// Why a spec was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SafetyViolation {
    /// Module would rewrite source/destination addresses.
    HeaderRewrite {
        /// Index of the offending module in the service graph.
        module: usize,
    },
    /// Module would modify the TTL field.
    TtlModification {
        /// Index of the offending module.
        module: usize,
    },
    /// Module would increase packet rate or traffic volume.
    Amplification {
        /// Index of the offending module.
        module: usize,
    },
    /// Module would divert traffic to another destination.
    Redirection {
        /// Index of the offending module.
        module: usize,
    },
    /// A trigger references a module index outside the graph.
    DanglingTriggerTarget {
        /// Index of the trigger module.
        module: usize,
        /// The out-of-range target it references.
        target: usize,
    },
    /// A trigger targets itself (activation loop).
    SelfTrigger {
        /// Index of the trigger module.
        module: usize,
    },
    /// Logger/backlog sized beyond the per-service memory allowance.
    ExcessiveState {
        /// Index of the offending module.
        module: usize,
        /// Bytes the module asked for.
        requested_bytes: u64,
        /// Allowance.
        limit_bytes: u64,
    },
    /// Non-positive or non-finite numeric parameter.
    InvalidParameter {
        /// Index of the offending module.
        module: usize,
        /// Which parameter.
        what: &'static str,
    },
}

/// Deployment-time service verifier.
#[derive(Clone, Debug)]
pub struct SafetyVerifier {
    /// Per-service state (log/backlog) allowance in bytes.
    pub max_state_bytes: u64,
}

impl Default for SafetyVerifier {
    fn default() -> Self {
        // 16 MiB of log/backlog state per service: generous for logging,
        // far below anything that could hurt the device.
        SafetyVerifier {
            max_state_bytes: 16 << 20,
        }
    }
}

impl SafetyVerifier {
    /// Verify a whole service spec; `Ok(())` only if every module passes.
    pub fn verify(&self, spec: &ServiceSpec) -> Result<(), SafetyViolation> {
        let n = spec.modules().len();
        for (i, node) in spec.modules().iter().enumerate() {
            self.verify_module(i, n, &node.module)?;
        }
        Ok(())
    }

    fn verify_module(
        &self,
        i: usize,
        graph_len: usize,
        m: &ModuleSpec,
    ) -> Result<(), SafetyViolation> {
        match m {
            ModuleSpec::RewriteHeader { .. } => Err(SafetyViolation::HeaderRewrite { module: i }),
            ModuleSpec::TtlModify { .. } => Err(SafetyViolation::TtlModification { module: i }),
            ModuleSpec::Amplify { .. } => Err(SafetyViolation::Amplification { module: i }),
            ModuleSpec::Redirect { .. } => Err(SafetyViolation::Redirection { module: i }),
            ModuleSpec::RateLimit {
                rate_bytes_per_sec, ..
            } => {
                if !rate_bytes_per_sec.is_finite() || *rate_bytes_per_sec <= 0.0 {
                    Err(SafetyViolation::InvalidParameter {
                        module: i,
                        what: "rate_bytes_per_sec",
                    })
                } else {
                    Ok(())
                }
            }
            ModuleSpec::Logger { capacity, .. } => {
                // Each entry stores a 16-byte digest record.
                let bytes = *capacity as u64 * 16;
                if bytes > self.max_state_bytes {
                    Err(SafetyViolation::ExcessiveState {
                        module: i,
                        requested_bytes: bytes,
                        limit_bytes: self.max_state_bytes,
                    })
                } else {
                    Ok(())
                }
            }
            ModuleSpec::DigestBacklog {
                bits,
                windows,
                hashes,
                window,
            } => {
                let bytes = (*bits as u64 / 8).max(1) * *windows as u64;
                if bytes > self.max_state_bytes {
                    return Err(SafetyViolation::ExcessiveState {
                        module: i,
                        requested_bytes: bytes,
                        limit_bytes: self.max_state_bytes,
                    });
                }
                if *hashes == 0 {
                    return Err(SafetyViolation::InvalidParameter {
                        module: i,
                        what: "hashes",
                    });
                }
                if window.as_nanos() == 0 {
                    return Err(SafetyViolation::InvalidParameter {
                        module: i,
                        what: "window",
                    });
                }
                Ok(())
            }
            ModuleSpec::Trigger {
                action,
                threshold,
                window,
                ..
            } => {
                if !threshold.is_finite() || *threshold <= 0.0 {
                    return Err(SafetyViolation::InvalidParameter {
                        module: i,
                        what: "threshold",
                    });
                }
                if window.as_nanos() == 0 {
                    return Err(SafetyViolation::InvalidParameter {
                        module: i,
                        what: "window",
                    });
                }
                if let TriggerAction::ActivateModule(t) = action {
                    if *t >= graph_len {
                        return Err(SafetyViolation::DanglingTriggerTarget {
                            module: i,
                            target: *t,
                        });
                    }
                    if *t == i {
                        return Err(SafetyViolation::SelfTrigger { module: i });
                    }
                }
                Ok(())
            }
            ModuleSpec::Filter { .. }
            | ModuleSpec::Blacklist { .. }
            | ModuleSpec::AntiSpoof
            | ModuleSpec::PayloadDelete { .. } => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{GraphNodeSpec, MatchExpr, TriggerMetric};
    use dtcs_netsim::{Addr, NodeId, SimDuration};

    fn svc(modules: Vec<ModuleSpec>) -> ServiceSpec {
        ServiceSpec::chain("t", modules)
    }

    #[test]
    fn benign_service_passes() {
        let v = SafetyVerifier::default();
        let s = svc(vec![
            ModuleSpec::AntiSpoof,
            ModuleSpec::Filter { rules: vec![] },
            ModuleSpec::Logger {
                capacity: 1024,
                sample_one_in: 10,
            },
        ]);
        assert!(v.verify(&s).is_ok());
    }

    #[test]
    fn forbidden_modules_rejected() {
        let v = SafetyVerifier::default();
        type Check = fn(&SafetyViolation) -> bool;
        let cases: Vec<(ModuleSpec, Check)> = vec![
            (
                ModuleSpec::RewriteHeader {
                    new_src: Some(Addr::new(NodeId(1), 1)),
                    new_dst: None,
                },
                |e| matches!(e, SafetyViolation::HeaderRewrite { .. }),
            ),
            (ModuleSpec::TtlModify { delta: 10 }, |e| {
                matches!(e, SafetyViolation::TtlModification { .. })
            }),
            (ModuleSpec::Amplify { factor: 2 }, |e| {
                matches!(e, SafetyViolation::Amplification { .. })
            }),
            (
                ModuleSpec::Redirect {
                    to: Addr::new(NodeId(9), 9),
                },
                |e| matches!(e, SafetyViolation::Redirection { .. }),
            ),
        ];
        for (m, check) in cases {
            let err = v.verify(&svc(vec![ModuleSpec::AntiSpoof, m])).unwrap_err();
            assert!(check(&err), "wrong violation: {err:?}");
            // Offender index is reported correctly.
            match err {
                SafetyViolation::HeaderRewrite { module }
                | SafetyViolation::TtlModification { module }
                | SafetyViolation::Amplification { module }
                | SafetyViolation::Redirection { module } => assert_eq!(module, 1),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn oversized_logger_rejected() {
        let v = SafetyVerifier::default();
        let s = svc(vec![ModuleSpec::Logger {
            capacity: 10_000_000, // 160 MB > 16 MiB allowance
            sample_one_in: 1,
        }]);
        assert!(matches!(
            v.verify(&s),
            Err(SafetyViolation::ExcessiveState { .. })
        ));
    }

    #[test]
    fn trigger_target_validation() {
        let v = SafetyVerifier::default();
        let trig = |action| ModuleSpec::Trigger {
            expr: MatchExpr::any(),
            metric: TriggerMetric::PacketRate,
            threshold: 100.0,
            window: SimDuration::from_secs(1),
            action,
            tag: 1,
        };
        // Dangling target.
        let s = svc(vec![trig(TriggerAction::ActivateModule(5))]);
        assert!(matches!(
            v.verify(&s),
            Err(SafetyViolation::DanglingTriggerTarget { target: 5, .. })
        ));
        // Self-activation.
        let s = svc(vec![trig(TriggerAction::ActivateModule(0))]);
        assert!(matches!(
            v.verify(&s),
            Err(SafetyViolation::SelfTrigger { .. })
        ));
        // Valid target.
        let s = ServiceSpec::new(
            "t",
            vec![
                GraphNodeSpec {
                    module: trig(TriggerAction::ActivateModule(1)),
                    enabled: true,
                },
                GraphNodeSpec {
                    module: ModuleSpec::Filter { rules: vec![] },
                    enabled: false,
                },
            ],
        );
        assert!(v.verify(&s).is_ok());
    }

    #[test]
    fn bad_numeric_parameters() {
        let v = SafetyVerifier::default();
        let s = svc(vec![ModuleSpec::RateLimit {
            expr: MatchExpr::any(),
            rate_bytes_per_sec: 0.0,
            burst_bytes: 100,
        }]);
        assert!(matches!(
            v.verify(&s),
            Err(SafetyViolation::InvalidParameter { .. })
        ));
        let s = svc(vec![ModuleSpec::Trigger {
            expr: MatchExpr::any(),
            metric: TriggerMetric::ByteRate,
            threshold: f64::NAN,
            window: SimDuration::from_secs(1),
            action: TriggerAction::Notify,
            tag: 0,
        }]);
        assert!(v.verify(&s).is_err());
    }
}
