//! Protocol-misuse attack substrate (Sec. 2.1).
//!
//! "Other ways to cause denial of service are the misuse of protocols …
//! (e.g. sending ICMP unreachable messages or TCP reset packets)". We model
//! long-lived TCP connections as heartbeat pairs; a forged RST that reaches
//! either side kills the connection. The TCS counter-measure (Sec. 4.3:
//! "attacks based on protocol misuse like e.g. sending … TCP reset messages
//! to tear down TCP connections can also be filtered out") is exercised in
//! experiment E8's companion scenario and the `distributed_firewall`
//! example.

use std::sync::Arc;

use dtcs_netsim::sync::Mutex;

use dtcs_netsim::{
    Addr, App, AppApi, Disposition, Packet, PacketBuilder, Proto, SimDuration, TrafficClass,
};

/// State of one modelled connection.
#[derive(Clone, Copy, Debug, Default)]
pub struct ConnStats {
    /// Heartbeats exchanged.
    pub heartbeats: u64,
    /// Was the connection torn down by an RST?
    pub killed: bool,
    /// Time of death (ns), if killed.
    pub killed_at_nanos: u64,
}

/// Shared handle to a connection's state.
pub type ConnHandle = Arc<Mutex<ConnStats>>;

const BEAT: u64 = 1;

/// Client half of a heartbeat connection.
pub struct ConnClientApp {
    /// Peer (server) address.
    pub server: Addr,
    /// Heartbeat period.
    pub period: SimDuration,
    alive: bool,
    stats: ConnHandle,
}

impl ConnClientApp {
    /// New client half; returns the shared connection stats.
    pub fn new(server: Addr, period: SimDuration) -> (ConnClientApp, ConnHandle) {
        let stats: ConnHandle = Arc::new(Mutex::new(ConnStats::default()));
        (
            ConnClientApp {
                server,
                period,
                alive: true,
                stats: stats.clone(),
            },
            stats,
        )
    }
}

impl App for ConnClientApp {
    fn on_start(&mut self, api: &mut AppApi<'_>) {
        api.set_timer(self.period, BEAT);
    }

    fn on_packet(&mut self, api: &mut AppApi<'_>, pkt: &Packet) -> Disposition {
        if pkt.proto == Proto::TcpRst && pkt.src == self.server && self.alive {
            // A reset apparently from our peer: connection dies. The
            // endpoint cannot distinguish a forged RST from a real one —
            // that is exactly the attack.
            self.alive = false;
            let mut s = self.stats.lock();
            s.killed = true;
            s.killed_at_nanos = api.now.as_nanos();
        } else if pkt.proto == Proto::TcpData && pkt.src == self.server {
            self.stats.lock().heartbeats += 1;
        }
        Disposition::Consumed
    }

    fn on_timer(&mut self, api: &mut AppApi<'_>, token: u64) {
        if token != BEAT || !self.alive {
            return;
        }
        let b = PacketBuilder::new(
            api.self_addr,
            self.server,
            Proto::TcpData,
            TrafficClass::LegitRequest,
        )
        .size(120);
        api.send(b);
        api.set_timer(self.period, BEAT);
    }
}

/// Server half: echoes heartbeats until it sees an RST from the client.
pub struct ConnServerApp {
    /// Peer (client) address.
    pub client: Addr,
    alive: bool,
}

impl ConnServerApp {
    /// New server half.
    pub fn new(client: Addr) -> ConnServerApp {
        ConnServerApp {
            client,
            alive: true,
        }
    }
}

impl App for ConnServerApp {
    fn on_packet(&mut self, api: &mut AppApi<'_>, pkt: &Packet) -> Disposition {
        if pkt.proto == Proto::TcpRst && pkt.src == self.client {
            self.alive = false;
        } else if pkt.proto == Proto::TcpData && pkt.src == self.client && self.alive {
            let b = PacketBuilder::new(
                api.self_addr,
                self.client,
                Proto::TcpData,
                TrafficClass::LegitReply,
            )
            .size(120);
            api.send(b);
        }
        Disposition::Consumed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtcs_netsim::{NodeId, SimTime, Simulator, Topology};

    #[test]
    fn heartbeats_flow_until_forged_rst() {
        let topo = Topology::line(3);
        let mut sim = Simulator::new(topo, 3);
        let client = Addr::new(NodeId(0), 1);
        let server = Addr::new(NodeId(2), 1);
        let (c, stats) = ConnClientApp::new(server, SimDuration::from_millis(100));
        sim.install_app(client, Box::new(c));
        sim.install_app(server, Box::new(ConnServerApp::new(client)));
        sim.run_until(SimTime::from_secs(2));
        let before = stats.lock().heartbeats;
        assert!(before >= 15, "heartbeats={before}");
        assert!(!stats.lock().killed);
        // Forged RST claiming the server as source, emitted by node 1
        // (the attacker's position).
        sim.emit_now(
            NodeId(1),
            PacketBuilder::new(server, client, Proto::TcpRst, TrafficClass::AttackDirect).size(40),
        );
        sim.run_until(SimTime::from_secs(4));
        let s = stats.lock();
        assert!(s.killed, "forged RST must kill the connection");
        // No further heartbeats after death (allow the in-flight one).
        assert!(s.heartbeats <= before + 2);
    }
}
