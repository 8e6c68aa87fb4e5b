//! The owner's mailbox: what a device says back.
//!
//! A device speaks only over the control plane, and in two ways: a
//! [`DeviceReply`] to the `reply_to` node of the command that asked (or to
//! the sender, for installs and removals), and a [`DeviceEvent`] — a
//! trigger firing or relieving, a full log — to the contact node its owner
//! registered. An [`Inbox`] on that node hears both, in arrival order.

use std::sync::Arc;

use dtcs_netsim::sync::Mutex;
use dtcs_netsim::{AgentCtx, ControlMsg, NodeAgent, NodeId, Simulator};

use crate::device::DeviceReply;
use crate::view::DeviceEvent;

/// One message an [`Inbox`] heard.
#[derive(Clone, Debug)]
pub enum Heard {
    /// The answer to a command.
    Reply(DeviceReply),
    /// Telemetry for an owner whose contact this node is.
    Event(DeviceEvent),
}

impl Heard {
    /// `(digest, device node)` of a [`DeviceReply::DigestAnswer`] saying
    /// the device's backlog saw the digest; `None` for anything else.
    pub fn digest_hit(&self) -> Option<(u64, NodeId)> {
        match *self {
            Heard::Reply(DeviceReply::DigestAnswer {
                node,
                digest,
                hit: Some(true),
            }) => Some((digest, node)),
            _ => None,
        }
    }
}

/// Shared read handle onto what an [`Inbox`] heard, oldest first.
pub type InboxHandle = Arc<Mutex<Vec<Heard>>>;

/// Agent recording every device reply and device event delivered to its
/// node; every other control message passes it by.
pub struct Inbox(InboxHandle);

impl Inbox {
    /// Attach an inbox to `node`'s agent chain and return its handle.
    pub fn attach(sim: &mut Simulator, node: NodeId) -> InboxHandle {
        let heard = InboxHandle::default();
        sim.add_agent(node, Box::new(Inbox(heard.clone())));
        heard
    }
}

impl NodeAgent for Inbox {
    fn name(&self) -> &'static str {
        "inbox"
    }

    fn on_control(&mut self, _ctx: &mut AgentCtx<'_>, msg: &ControlMsg) {
        let heard = if let Some(reply) = msg.get::<DeviceReply>() {
            Heard::Reply(reply.clone())
        } else if let Some(ev) = msg.get::<DeviceEvent>() {
            Heard::Event(ev.clone())
        } else {
            return;
        };
        self.0.lock().push(heard);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceCommand;
    use crate::owner::OwnerId;
    use dtcs_netsim::{SimTime, Topology};

    #[test]
    fn replies_and_events_are_recorded_in_arrival_order() {
        let mut sim = Simulator::new(Topology::line(2), 1);
        let inbox = Inbox::attach(&mut sim, NodeId(1));
        let (node, owner) = (NodeId(0), OwnerId(7));
        let fired = DeviceEvent::TriggerFired {
            owner,
            tag: 1,
            value: 2.0,
            node,
            at: SimTime::ZERO,
        };
        let answer = DeviceReply::DigestAnswer {
            node,
            digest: 9,
            hit: Some(true),
        };
        let log = DeviceReply::LogData {
            node,
            owner,
            entries: Vec::new(),
        };
        let to = |ms| SimTime::from_millis(ms);
        sim.deliver_control(to(3), node, NodeId(1), fired.clone());
        sim.deliver_control(to(1), node, NodeId(1), answer);
        sim.deliver_control(to(2), node, NodeId(1), 42u32); // foreign
        sim.deliver_control(to(2), node, NodeId(1), log);
        let query = DeviceCommand::QueryInventory {
            reply_to: NodeId(1),
        };
        sim.deliver_control(to(2), node, NodeId(1), query); // a command
        sim.run_until(to(5));
        let heard = inbox.lock();
        assert!(
            matches!(
                &heard[..],
                [
                    Heard::Reply(DeviceReply::DigestAnswer { digest: 9, .. }),
                    Heard::Reply(DeviceReply::LogData { .. }),
                    Heard::Event(ev),
                ] if *ev == fired
            ),
            "{heard:?}"
        );
    }
}
