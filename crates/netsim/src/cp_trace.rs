//! Control-plane flight recorder: deterministic lifecycle tracing for
//! control transactions (DESIGN.md §6.9).
//!
//! The packet event in [`crate::trace`] answers "what happened to packet
//! N"; this module answers the symmetric question for control
//! transactions — register → deploy → install → ack/confirm, plus
//! anti-entropy reconcile rounds. Every control message pushed through the
//! simulator's single control funnel emits a [`CpTraceEvent::Send`] and a
//! fault-plane [`CpTraceEvent::Verdict`]; protocol agents add dedup hits,
//! retry lifecycle events, state transitions, and terminal outcomes via
//! [`crate::agent::AgentCtx::cp_event`]. Events are keyed by the control
//! plane's `(origin, txn, attempt)` message identity, carried across the
//! crate boundary as a plain-data [`CpMeta`] (the `control` crate's
//! `MsgKey` cannot be seen from here).
//!
//! Sink, ring recorder, sampler and JSONL export are the shared spine in
//! [`crate::recorder`]; this module supplies the control event, sampled
//! per transaction by `(origin, txn)`. Events without a transaction key
//! (sweeps, crashes, stale retry timers, unkeyed messages) are always
//! admitted, preserving the sampled ⊂ full property.

use std::fmt::Write as _;

use crate::node::NodeId;
use crate::recorder::{Recorder, TraceRecord};

/// Plain-data mirror of the control plane's message identity, attached to
/// keyed control sends via
/// [`crate::agent::AgentCtx::send_control_keyed`]. `origin` + `txn` name
/// the transaction (stable across retries); `attempt` distinguishes
/// retransmits; `kind` is the sender's stable message-kind id (the
/// `control` crate's `CpMsg::kind_id` values 1–9, device commands 10–12,
/// device replies 13–16).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CpMeta {
    /// Stable id of the requesting principal (0 for infrastructure).
    pub origin: u64,
    /// Transaction id, stable across retries.
    pub txn: u64,
    /// Retransmit counter: 0 for the first send.
    pub attempt: u32,
    /// Message-kind id (see struct docs).
    pub kind: u8,
}

/// Fault-plane verdict on one control message, recorded alongside the
/// send so traces reconcile exactly with the `cp_*` counters in
/// [`crate::stats::Stats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CpVerdict {
    /// The message will be delivered at `deliver_ns` (after any jitter).
    Deliver {
        /// Delivery instant (ns), jitter included.
        deliver_ns: u64,
        /// Jitter added by the fault plane (0 = none; nonzero increments
        /// `cp_fault_jittered`).
        jitter_ns: u64,
        /// When the fault plane duplicated the message, the extra delay of
        /// the second copy past `deliver_ns` (increments
        /// `cp_fault_duplicated`).
        dup_extra_ns: Option<u64>,
    },
    /// Dropped by the loss hash (increments `cp_fault_dropped`).
    Drop,
    /// Swallowed by an outage window at the sender or receiver
    /// (increments `cp_outage_dropped`).
    Outage {
        /// Index of the matching outage window in the fault plane's
        /// schedule, when known.
        window: Option<u64>,
    },
    /// Swallowed by a directed partition window between the sender's and
    /// receiver's node sets (increments `cp_partition_dropped`). Both
    /// endpoints are up; the cut between them was open at push time.
    Partition {
        /// Index of the matching partition window in the fault plane's
        /// schedule.
        window: u64,
    },
}

/// One step in a control transaction's life.
///
/// `Send` and `Verdict` are emitted by the simulator's control funnel;
/// the rest come from protocol agents through
/// [`crate::agent::AgentCtx::cp_event`]. Events carrying `origin`/`txn`
/// are sampled per transaction; `RetryStale`, `Sweep` and `Crash` (and
/// unkeyed sends) have no transaction identity and are always admitted.
#[derive(Clone, Debug, PartialEq)]
pub enum CpTraceEvent {
    /// A control message entered the funnel at `from`, addressed to `to`.
    Send {
        /// Timestamp (ns).
        t: u64,
        /// Message identity (None for unkeyed control messages).
        meta: Option<CpMeta>,
        /// Sending node.
        from: NodeId,
        /// Destination node.
        to: NodeId,
    },
    /// The fault plane's decision for the send recorded just before.
    Verdict {
        /// Timestamp (ns).
        t: u64,
        /// Message identity (None for unkeyed control messages).
        meta: Option<CpMeta>,
        /// Sending node.
        from: NodeId,
        /// Destination node.
        to: NodeId,
        /// The decision.
        verdict: CpVerdict,
    },
    /// A receiver suppressed a duplicate receipt (`response` = true) or
    /// re-answered a duplicate request from a done-cache (false).
    DedupHit {
        /// Timestamp (ns).
        t: u64,
        /// Transaction origin.
        origin: u64,
        /// Transaction id.
        txn: u64,
        /// Message-kind id of the duplicate.
        kind: u8,
        /// Node that detected the duplicate.
        node: NodeId,
        /// True for duplicate responses (`dup_responses`), false for
        /// duplicate requests (`dup_requests`).
        response: bool,
    },
    /// A retransmitter began tracking a transaction and armed its first
    /// retry timer.
    RetrySchedule {
        /// Timestamp (ns).
        t: u64,
        /// Transaction origin.
        origin: u64,
        /// Transaction id.
        txn: u64,
        /// Tracking node.
        node: NodeId,
        /// Destination that must ack.
        dest: NodeId,
    },
    /// A retry timer fired and the message was retransmitted
    /// (increments `CpStats::retransmits`).
    RetryFire {
        /// Timestamp (ns).
        t: u64,
        /// Transaction origin.
        origin: u64,
        /// Transaction id.
        txn: u64,
        /// Attempt number stamped on the resend (1-based).
        attempt: u32,
        /// Retransmitting node.
        node: NodeId,
        /// Destination that has not acked.
        dest: NodeId,
    },
    /// A retry timer fired for an already-acked transaction (no-op).
    /// The slot is gone, so the key is unknowable — always admitted.
    RetryStale {
        /// Timestamp (ns).
        t: u64,
        /// Node whose timer fired.
        node: NodeId,
        /// Timer family the token belonged to.
        family: u64,
    },
    /// Retry budget exhausted; the transaction was dropped from tracking
    /// (increments `CpStats::give_ups`).
    RetryGaveUp {
        /// Timestamp (ns).
        t: u64,
        /// Transaction origin.
        origin: u64,
        /// Transaction id.
        txn: u64,
        /// Node that gave up.
        node: NodeId,
        /// Destination that never acked.
        dest: NodeId,
    },
    /// A protocol actor moved a transaction through a named state
    /// (`"verify_sent"`, `"device_installed"`, `"partial_confirm"`,
    /// `"reinstall"`, …; vocabulary in DESIGN.md §6.9).
    State {
        /// Timestamp (ns).
        t: u64,
        /// Transaction origin.
        origin: u64,
        /// Transaction id.
        txn: u64,
        /// Node where the transition happened.
        node: NodeId,
        /// Actor role: `"tcsp"`, `"nms"`, `"device"`, or `"user"`.
        actor: &'static str,
        /// State entered.
        state: &'static str,
    },
    /// An NMS anti-entropy inventory round started
    /// (increments `CpStats::reconcile_sweeps`). Keyless: the sweep spans
    /// all reconcile traffic.
    Sweep {
        /// Timestamp (ns).
        t: u64,
        /// Sweeping NMS node.
        node: NodeId,
    },
    /// A node crashed, wiping volatile device state
    /// (increments `Stats::node_crashes`).
    Crash {
        /// Timestamp (ns).
        t: u64,
        /// Crashed node.
        node: NodeId,
        /// Index of the fault-plane outage window that scheduled the
        /// crash; None for ad-hoc `crash_node` calls.
        window: Option<u64>,
    },
    /// A transaction reached a terminal outcome (`"confirmed"`,
    /// `"denied"`, `"partial"`, `"gave_up"`, `"abandoned"`, `"verified"`,
    /// `"fallback_confirmed"`, `"reconciled"`). The `trace-report`
    /// analyzer hard-fails any transaction group without one.
    Terminal {
        /// Timestamp (ns).
        t: u64,
        /// Transaction origin.
        origin: u64,
        /// Transaction id.
        txn: u64,
        /// Node where the outcome was decided.
        node: NodeId,
        /// Terminal outcome.
        outcome: &'static str,
    },
}

impl CpTraceEvent {
    /// Stable kind tag used in the JSONL schema.
    pub fn kind(&self) -> &'static str {
        match self {
            CpTraceEvent::Send { .. } => "send",
            CpTraceEvent::Verdict { .. } => "verdict",
            CpTraceEvent::DedupHit { .. } => "dedup_hit",
            CpTraceEvent::RetrySchedule { .. } => "retry_schedule",
            CpTraceEvent::RetryFire { .. } => "retry_fire",
            CpTraceEvent::RetryStale { .. } => "retry_stale",
            CpTraceEvent::RetryGaveUp { .. } => "retry_give_up",
            CpTraceEvent::State { .. } => "state",
            CpTraceEvent::Sweep { .. } => "sweep",
            CpTraceEvent::Crash { .. } => "crash",
            CpTraceEvent::Terminal { .. } => "terminal",
        }
    }

    /// Timestamp in nanoseconds.
    pub fn time_ns(&self) -> u64 {
        match self {
            CpTraceEvent::Send { t, .. }
            | CpTraceEvent::Verdict { t, .. }
            | CpTraceEvent::DedupHit { t, .. }
            | CpTraceEvent::RetrySchedule { t, .. }
            | CpTraceEvent::RetryFire { t, .. }
            | CpTraceEvent::RetryStale { t, .. }
            | CpTraceEvent::RetryGaveUp { t, .. }
            | CpTraceEvent::State { t, .. }
            | CpTraceEvent::Sweep { t, .. }
            | CpTraceEvent::Crash { t, .. }
            | CpTraceEvent::Terminal { t, .. } => *t,
        }
    }
}

impl TraceRecord for CpTraceEvent {
    const STREAM_LABEL: u64 = 0x6370_7472_6163_6531; // "cptrace1"

    /// Sampled per transaction: `[origin, txn]`.
    type Key = [u64; 2];

    fn sample_key(&self) -> Option<[u64; 2]> {
        match self {
            CpTraceEvent::Send { meta, .. } | CpTraceEvent::Verdict { meta, .. } => {
                meta.map(|m| [m.origin, m.txn])
            }
            CpTraceEvent::DedupHit { origin, txn, .. }
            | CpTraceEvent::RetrySchedule { origin, txn, .. }
            | CpTraceEvent::RetryFire { origin, txn, .. }
            | CpTraceEvent::RetryGaveUp { origin, txn, .. }
            | CpTraceEvent::State { origin, txn, .. }
            | CpTraceEvent::Terminal { origin, txn, .. } => Some([*origin, *txn]),
            CpTraceEvent::RetryStale { .. }
            | CpTraceEvent::Sweep { .. }
            | CpTraceEvent::Crash { .. } => None,
        }
    }

    /// Integers and literal strings only.
    fn write_json(&self, out: &mut String) {
        fn meta_fields(meta: &Option<CpMeta>, out: &mut String) {
            if let Some(m) = meta {
                let _ = write!(
                    out,
                    ",\"origin\":{},\"txn\":{},\"attempt\":{},\"mkind\":{}",
                    m.origin, m.txn, m.attempt, m.kind
                );
            }
        }
        match self {
            CpTraceEvent::Send { t, meta, from, to } => {
                let _ = write!(out, "{{\"t\":{t},\"kind\":\"send\"");
                meta_fields(meta, out);
                let _ = write!(out, ",\"from\":{},\"to\":{}}}", from.0, to.0);
            }
            CpTraceEvent::Verdict {
                t,
                meta,
                from,
                to,
                verdict,
            } => {
                let _ = write!(out, "{{\"t\":{t},\"kind\":\"verdict\"");
                meta_fields(meta, out);
                let _ = write!(out, ",\"from\":{},\"to\":{}", from.0, to.0);
                match verdict {
                    CpVerdict::Deliver {
                        deliver_ns,
                        jitter_ns,
                        dup_extra_ns,
                    } => {
                        let _ = write!(
                            out,
                            ",\"outcome\":\"deliver\",\"deliver\":{deliver_ns},\
                             \"jitter\":{jitter_ns}"
                        );
                        if let Some(d) = dup_extra_ns {
                            let _ = write!(out, ",\"dup_extra\":{d}");
                        }
                    }
                    CpVerdict::Drop => out.push_str(",\"outcome\":\"drop\""),
                    CpVerdict::Outage { window } => {
                        out.push_str(",\"outcome\":\"outage\"");
                        if let Some(w) = window {
                            let _ = write!(out, ",\"window\":{w}");
                        }
                    }
                    CpVerdict::Partition { window } => {
                        let _ = write!(out, ",\"outcome\":\"partition\",\"window\":{window}");
                    }
                }
                out.push('}');
            }
            CpTraceEvent::DedupHit {
                t,
                origin,
                txn,
                kind,
                node,
                response,
            } => {
                let _ = write!(
                    out,
                    "{{\"t\":{t},\"kind\":\"dedup_hit\",\"origin\":{origin},\
                     \"txn\":{txn},\"mkind\":{kind},\"node\":{},\
                     \"response\":{response}}}",
                    node.0
                );
            }
            CpTraceEvent::RetrySchedule {
                t,
                origin,
                txn,
                node,
                dest,
            } => {
                let _ = write!(
                    out,
                    "{{\"t\":{t},\"kind\":\"retry_schedule\",\"origin\":{origin},\
                     \"txn\":{txn},\"node\":{},\"dest\":{}}}",
                    node.0, dest.0
                );
            }
            CpTraceEvent::RetryFire {
                t,
                origin,
                txn,
                attempt,
                node,
                dest,
            } => {
                let _ = write!(
                    out,
                    "{{\"t\":{t},\"kind\":\"retry_fire\",\"origin\":{origin},\
                     \"txn\":{txn},\"attempt\":{attempt},\"node\":{},\"dest\":{}}}",
                    node.0, dest.0
                );
            }
            CpTraceEvent::RetryStale { t, node, family } => {
                let _ = write!(
                    out,
                    "{{\"t\":{t},\"kind\":\"retry_stale\",\"node\":{},\
                     \"family\":{family}}}",
                    node.0
                );
            }
            CpTraceEvent::RetryGaveUp {
                t,
                origin,
                txn,
                node,
                dest,
            } => {
                let _ = write!(
                    out,
                    "{{\"t\":{t},\"kind\":\"retry_give_up\",\"origin\":{origin},\
                     \"txn\":{txn},\"node\":{},\"dest\":{}}}",
                    node.0, dest.0
                );
            }
            CpTraceEvent::State {
                t,
                origin,
                txn,
                node,
                actor,
                state,
            } => {
                let _ = write!(
                    out,
                    "{{\"t\":{t},\"kind\":\"state\",\"origin\":{origin},\
                     \"txn\":{txn},\"node\":{},\"actor\":\"{actor}\",\
                     \"state\":\"{state}\"}}",
                    node.0
                );
            }
            CpTraceEvent::Sweep { t, node } => {
                let _ = write!(out, "{{\"t\":{t},\"kind\":\"sweep\",\"node\":{}}}", node.0);
            }
            CpTraceEvent::Crash { t, node, window } => {
                let _ = write!(out, "{{\"t\":{t},\"kind\":\"crash\",\"node\":{}", node.0);
                if let Some(w) = window {
                    let _ = write!(out, ",\"window\":{w}");
                }
                out.push('}');
            }
            CpTraceEvent::Terminal {
                t,
                origin,
                txn,
                node,
                outcome,
            } => {
                let _ = write!(
                    out,
                    "{{\"t\":{t},\"kind\":\"terminal\",\"origin\":{origin},\
                     \"txn\":{txn},\"node\":{},\"outcome\":\"{outcome}\"}}",
                    node.0
                );
            }
        }
    }
}

/// The control-plane flight recorder: the spine's bounded ring over
/// [`CpTraceEvent`]s.
pub type CpFlightRecorder = Recorder<CpTraceEvent>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Sink;

    #[test]
    fn jsonl_shape_keyed_and_keyless() {
        let mut r = CpFlightRecorder::new(8);
        r.record(CpTraceEvent::Send {
            t: 5,
            meta: Some(CpMeta {
                origin: 0xAA01,
                txn: 9,
                attempt: 2,
                kind: 5,
            }),
            from: NodeId(1),
            to: NodeId(4),
        });
        r.record(CpTraceEvent::Send {
            t: 6,
            meta: None,
            from: NodeId(2),
            to: NodeId(3),
        });
        r.record(CpTraceEvent::Verdict {
            t: 7,
            meta: None,
            from: NodeId(2),
            to: NodeId(3),
            verdict: CpVerdict::Deliver {
                deliver_ns: 1000,
                jitter_ns: 30,
                dup_extra_ns: Some(12),
            },
        });
        r.record(CpTraceEvent::Crash {
            t: 8,
            node: NodeId(5),
            window: Some(3),
        });
        let out = r.export_jsonl_string();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines[0],
            "{\"t\":5,\"kind\":\"send\",\"origin\":43521,\"txn\":9,\
             \"attempt\":2,\"mkind\":5,\"from\":1,\"to\":4}"
        );
        assert_eq!(lines[1], "{\"t\":6,\"kind\":\"send\",\"from\":2,\"to\":3}");
        assert_eq!(
            lines[2],
            "{\"t\":7,\"kind\":\"verdict\",\"from\":2,\"to\":3,\
             \"outcome\":\"deliver\",\"deliver\":1000,\"jitter\":30,\
             \"dup_extra\":12}"
        );
        assert_eq!(
            lines[3],
            "{\"t\":8,\"kind\":\"crash\",\"node\":5,\"window\":3}"
        );
        assert!(out.ends_with('\n'));
    }
}
