//! Control-plane flight recorder: deterministic lifecycle tracing for
//! control transactions (DESIGN.md §6.4).
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
//! Sink, ring recorder, sampler, JSONL export and the table macros are the
//! shared spine in [`crate::recorder`]; this module supplies the control
//! stream's table and its three closed word sets, sampled per transaction
//! by `(origin, txn)`. Events without a transaction key
//! (sweeps, crashes, stale retry timers, unkeyed messages) are always
//! admitted, preserving the sampled ⊂ full property.

use crate::json::Json;
use crate::node::NodeId;
use crate::recorder::{trace_events, wire_words, Fields, Recorder, Wire};

/// Plain-data mirror of the control plane's message identity, attached to
/// keyed control sends via
/// [`crate::agent::AgentCtx::send_control_keyed`]. `origin` + `txn` name
/// the transaction (stable across retries); `attempt` distinguishes
/// retransmits; `kind` is the sender's stable message-kind id — one
/// numbering shared by the `control` crate's `CpMsg::kind_id`, the
/// device-command ids declared beside it, and the `device` crate's
/// `DeviceReply::kind_id`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
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

/// A message's identity flattens into the line as four fields, or none
/// for an unkeyed message.
impl Wire for Option<CpMeta> {
    fn write(&self, _key: &str, out: &mut String) {
        if let Some(m) = self {
            m.origin.write(",\"origin\":", out);
            m.txn.write(",\"txn\":", out);
            m.attempt.write(",\"attempt\":", out);
            m.kind.write(",\"mkind\":", out);
        }
    }
    fn check(_name: &str, line: &mut Fields<'_>) -> Result<(), String> {
        if !line.next_is("origin") {
            return Ok(());
        }
        u64::check("origin", line)?;
        u64::check("txn", line)?;
        u32::check("attempt", line)?;
        u8::check("mkind", line)
    }
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

impl CpVerdict {
    /// The `outcome` word of a [`CpVerdict::Deliver`] line.
    pub const DELIVER: &'static str = "deliver";
    /// The `outcome` word of a [`CpVerdict::Drop`] line.
    pub const DROP: &'static str = "drop";
    /// The `outcome` word of a [`CpVerdict::Outage`] line.
    pub const OUTAGE: &'static str = "outage";
    /// The `outcome` word of a [`CpVerdict::Partition`] line.
    pub const PARTITION: &'static str = "partition";
}

/// A verdict flattens into the line as its `outcome` word, then that
/// outcome's own fields.
impl Wire for CpVerdict {
    fn write(&self, _key: &str, out: &mut String) {
        let outcome = |word: &'static str, out: &mut String| word.write(",\"outcome\":", out);
        match self {
            CpVerdict::Deliver {
                deliver_ns,
                jitter_ns,
                dup_extra_ns,
            } => {
                outcome(Self::DELIVER, out);
                deliver_ns.write(",\"deliver\":", out);
                jitter_ns.write(",\"jitter\":", out);
                dup_extra_ns.write(",\"dup_extra\":", out);
            }
            CpVerdict::Drop => outcome(Self::DROP, out),
            CpVerdict::Outage { window } => {
                outcome(Self::OUTAGE, out);
                window.write(",\"window\":", out);
            }
            CpVerdict::Partition { window } => {
                outcome(Self::PARTITION, out);
                window.write(",\"window\":", out);
            }
        }
    }
    fn check(_name: &str, line: &mut Fields<'_>) -> Result<(), String> {
        match line.take("outcome", "a verdict word", Json::as_str)? {
            Self::DELIVER => {
                u64::check("deliver", line)?;
                u64::check("jitter", line)?;
                Option::<u64>::check("dup_extra", line)
            }
            Self::DROP => Ok(()),
            Self::OUTAGE => Option::<u64>::check("window", line),
            Self::PARTITION => u64::check("window", line),
            other => Err(format!(
                "verdict: field \"outcome\" must be a verdict word, found {other:?}"
            )),
        }
    }
}

wire_words! {
    /// The protocol role moving a transaction through a [`CpState`].
    pub enum CpActor {
        /// The traffic control service provider.
        Tcsp = "tcsp",
        /// An ISP's network management system.
        Nms = "nms",
        /// An adaptive device.
        Device = "device",
    }
}

wire_words! {
    /// A named step of a control transaction, traced by
    /// [`CpTraceEvent::State`].
    pub enum CpState {
        /// TCSP asked the number authority to verify a registration.
        VerifySent = "verify_sent",
        /// TCSP confirmed a registration to its user.
        RegisterConfirmed = "register_confirmed",
        /// TCSP denied a registration.
        RegisterDenied = "register_denied",
        /// TCSP refused a deploy presented with an expired certificate.
        CertExpired = "cert_expired",
        /// TCSP fanned a deploy out to the ISPs' NMSes.
        DeployFanout = "deploy_fanout",
        /// TCSP confirmed a deploy with some ISP's answer missing.
        PartialConfirm = "partial_confirm",
        /// TCSP fanned a withdrawal out to the ISPs' NMSes.
        WithdrawFanout = "withdraw_fanout",
        /// NMS accepted a deploy and began installing on its devices.
        DeployAccepted = "deploy_accepted",
        /// NMS heard a device accept an install.
        DeviceInstalled = "device_installed",
        /// NMS heard a device reject an install.
        DeviceRejected = "device_rejected",
        /// NMS gave up on a device that never answered.
        DeviceLost = "device_lost",
        /// NMS heard a device confirm a removal.
        DeviceRemoved = "device_removed",
        /// NMS re-sent an install a device's inventory no longer shows.
        Reinstall = "reinstall",
        /// NMS removed a filter no desired state asks for.
        RemoveOrphan = "remove_orphan",
        /// NMS began renewing a lease.
        Renew = "renew",
        /// NMS dropped desired state whose credential expired.
        DesiredExpired = "desired_expired",
        /// Device installed a service.
        InstallOk = "install_ok",
        /// Device rejected a service.
        InstallRejected = "install_rejected",
    }
}

wire_words! {
    /// How a control transaction ended, traced by
    /// [`CpTraceEvent::Terminal`].
    pub enum CpOutcome {
        /// The requester heard a full confirmation.
        Confirmed = "confirmed",
        /// The request was refused.
        Denied = "denied",
        /// A deploy was confirmed with some ISP's answer missing.
        Partial = "partial",
        /// The retry budget ran out.
        GaveUp = "gave_up",
        /// The requester dropped the transaction itself (superseded or
        /// vetoed) before an answer.
        Abandoned = "abandoned",
        /// A deploy sent straight to the ISPs, the TCSP being unreachable,
        /// was confirmed by an NMS ack.
        FallbackConfirmed = "fallback_confirmed",
        /// An anti-entropy round closed.
        Reconciled = "reconciled",
        /// A withdrawal was confirmed.
        Withdrawn = "withdrawn",
        /// A lease-renewal round closed.
        Renewed = "renewed",
        /// Desired state outlived its credential and was dropped.
        Expired = "expired",
    }
}

trace_events! {
    /// One step in a control transaction's life.
    ///
    /// `Send` and `Verdict` are emitted by the simulator's control funnel;
    /// the rest come from protocol agents through
    /// [`crate::agent::AgentCtx::cp_event`]. Events carrying `origin`/`txn`
    /// are sampled per transaction; `Sweep` and `Crash` (and unkeyed
    /// sends) have no transaction identity and are always admitted.
    pub enum CpTraceEvent: stream 0x6370_7472_6163_6531, key [u64; 2]; // "cptrace1"

    /// A control message entered the funnel at `from`, addressed to `to`.
    Send = "send", key(meta) meta.map(|m| [m.origin, m.txn]), {
        /// Message identity (None for unkeyed control messages).
        meta: Option<CpMeta>,
        /// Sending node.
        from: NodeId,
        /// Destination node.
        to: NodeId,
    }
    /// The fault plane's decision for the send recorded just before.
    Verdict = "verdict", key(meta) meta.map(|m| [m.origin, m.txn]), {
        /// Message identity (None for unkeyed control messages).
        meta: Option<CpMeta>,
        /// Sending node.
        from: NodeId,
        /// Destination node.
        to: NodeId,
        /// The decision.
        verdict: CpVerdict,
    }
    /// A receiver suppressed a duplicate receipt (`response` = true) or
    /// re-answered a duplicate request from a done-cache (false).
    DedupHit = "dedup_hit", key(origin, txn) Some([*origin, *txn]), {
        /// Transaction origin.
        origin: u64,
        /// Transaction id.
        txn: u64,
        /// Message-kind id of the duplicate.
        kind as "mkind": u8,
        /// Node that detected the duplicate.
        node: NodeId,
        /// True for duplicate responses (`dup_responses`), false for
        /// duplicate requests (`dup_requests`).
        response: bool,
    }
    /// A retransmitter began tracking a transaction and armed its first
    /// retry timer.
    RetrySchedule = "retry_schedule", key(origin, txn) Some([*origin, *txn]), {
        /// Transaction origin.
        origin: u64,
        /// Transaction id.
        txn: u64,
        /// Tracking node.
        node: NodeId,
        /// Destination that must ack.
        dest: NodeId,
    }
    /// A retry timer fired and the message was retransmitted
    /// (increments `CpStats::retransmits`).
    RetryFire = "retry_fire", key(origin, txn) Some([*origin, *txn]), {
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
    }
    /// Retry budget exhausted; the transaction was dropped from tracking
    /// (increments `CpStats::give_ups`).
    RetryGaveUp = "retry_give_up", key(origin, txn) Some([*origin, *txn]), {
        /// Transaction origin.
        origin: u64,
        /// Transaction id.
        txn: u64,
        /// Node that gave up.
        node: NodeId,
        /// Destination that never acked.
        dest: NodeId,
    }
    /// A protocol actor moved a transaction through a named state.
    State = "state", key(origin, txn) Some([*origin, *txn]), {
        /// Transaction origin.
        origin: u64,
        /// Transaction id.
        txn: u64,
        /// Node where the transition happened.
        node: NodeId,
        /// Actor role.
        actor: CpActor,
        /// State entered.
        state: CpState,
    }
    /// An NMS anti-entropy inventory round started
    /// (increments `CpStats::reconcile_sweeps`). Keyless: the sweep spans
    /// all reconcile traffic.
    Sweep = "sweep", key() None, {
        /// Sweeping NMS node.
        node: NodeId,
    }
    /// A node crashed, wiping volatile device state
    /// (increments `Stats::node_crashes`).
    Crash = "crash", key() None, {
        /// Crashed node.
        node: NodeId,
        /// Index of the fault-plane outage window that scheduled the
        /// crash; None for ad-hoc `crash_node` calls.
        window: Option<u64>,
    }
    /// A transaction reached a terminal outcome. The `trace-report`
    /// analyzer hard-fails any transaction group without one.
    Terminal = "terminal", key(origin, txn) Some([*origin, *txn]), {
        /// Transaction origin.
        origin: u64,
        /// Transaction id.
        txn: u64,
        /// Node where the outcome was decided.
        node: NodeId,
        /// Terminal outcome.
        outcome: CpOutcome,
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
