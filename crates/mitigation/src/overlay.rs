//! Secure-overlay defenses: SOS / Mayday (Sec. 3.2) and the i3 indirection
//! defense (Sec. 3.1).
//!
//! **SOS/Mayday** shape: authorised clients enter the overlay at an access
//! point (SOAP), which relays via a secret servlet to the victim; filters
//! at the victim's perimeter admit only servlet-sourced traffic. Protection
//! is strong for overlay members, but (the paper's critique) every client
//! needs a pre-established trust relationship, traffic pays the overlay
//! path stretch, and the scheme cannot serve an open user base.
//!
//! **i3-style indirection** shape: clients reach the victim through a
//! public trigger/relay; the victim serves only its relay. Crucially there
//! is *no network-level perimeter* — an overlay cannot filter inside ISPs —
//! so when attackers know the victim's real IP, their traffic still reaches
//! and exhausts the host (the "how can server IP addresses be hidden"
//! critique of Sec. 3.1, reproduced in E2).

use std::collections::BTreeMap;
use std::sync::Arc;

use dtcs_netsim::sync::Mutex;

use dtcs_netsim::{
    Addr, AgentCtx, App, AppApi, Disposition, DropReason, LinkId, NodeAgent, NodeId, Packet,
    PacketBuilder, Prefix, Proto, Simulator, TrafficClass, Verdict,
};

/// Is this protocol a request (client → server direction)?
fn is_request(proto: Proto) -> bool {
    matches!(
        proto,
        Proto::TcpSyn | Proto::DnsQuery | Proto::IcmpEcho | Proto::Udp
    )
}

/// Is this protocol a reply (server → client direction)?
fn is_reply(proto: Proto) -> bool {
    matches!(
        proto,
        Proto::TcpSynAck | Proto::DnsResponse | Proto::TcpData | Proto::IcmpEchoReply
    )
}

/// Where a relay forwards requests.
#[derive(Clone, Debug)]
pub enum RelayNext {
    /// Choose a servlet by flow hash (SOAP role).
    Servlets(Vec<Addr>),
    /// Forward straight to the protected server (servlet / i3 trigger
    /// role).
    Server(Addr),
}

/// Relay counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct RelayStats {
    /// Requests relayed toward the server.
    pub relayed: u64,
    /// Replies relayed back toward clients.
    pub returned: u64,
    /// Requests rejected for failing overlay authorisation.
    pub rejected: u64,
}

/// Shared handle to a relay's counters.
pub type RelayHandle = Arc<Mutex<RelayStats>>;

/// Overlay relay node application (SOAP, servlet, or i3 trigger).
pub struct RelayApp {
    next: RelayNext,
    /// When set, only these client addresses may use the relay (SOS trust
    /// relationships). `None` = open relay (i3 triggers).
    authorized: Option<Vec<Addr>>,
    /// Reverse routes: flow → previous hop.
    back: BTreeMap<u64, Addr>,
    stats: RelayHandle,
}

impl RelayApp {
    /// New relay.
    pub fn new(next: RelayNext, authorized: Option<Vec<Addr>>) -> (RelayApp, RelayHandle) {
        let stats: RelayHandle = Arc::new(Mutex::new(RelayStats::default()));
        (
            RelayApp {
                next,
                authorized,
                back: BTreeMap::new(),
                stats: stats.clone(),
            },
            stats,
        )
    }
}

impl App for RelayApp {
    fn on_packet(&mut self, api: &mut AppApi<'_>, pkt: &Packet) -> Disposition {
        if is_request(pkt.proto) {
            if let Some(auth) = &self.authorized {
                if !auth.contains(&pkt.src) {
                    self.stats.lock().rejected += 1;
                    return Disposition::Consumed;
                }
            }
            let target = match &self.next {
                RelayNext::Servlets(s) => {
                    if s.is_empty() {
                        return Disposition::Consumed;
                    }
                    s[(pkt.flow % s.len() as u64) as usize]
                }
                RelayNext::Server(v) => *v,
            };
            self.back.insert(pkt.flow, pkt.src);
            if self.back.len() > 4096 {
                let oldest = *self.back.keys().next().unwrap();
                self.back.remove(&oldest);
            }
            let b =
                PacketBuilder::new(api.self_addr, target, pkt.proto, TrafficClass::LegitRequest)
                    .size(pkt.size)
                    .flow(pkt.flow)
                    .tag(pkt.payload_tag);
            api.send(b);
            self.stats.lock().relayed += 1;
        } else if is_reply(pkt.proto) {
            if let Some(prev) = self.back.get(&pkt.flow).copied() {
                let b =
                    PacketBuilder::new(api.self_addr, prev, pkt.proto, TrafficClass::LegitReply)
                        .size(pkt.size)
                        .flow(pkt.flow)
                        .tag(pkt.payload_tag);
                api.send(b);
                self.stats.lock().returned += 1;
            }
        }
        Disposition::Consumed
    }
}

/// Network-side perimeter filter for SOS: at the victim's neighbouring
/// ASes, only servlet-sourced traffic may continue toward the victim.
pub struct PerimeterFilterAgent {
    victim_prefix: Prefix,
    allowed_sources: Vec<Addr>,
}

impl PerimeterFilterAgent {
    /// Filter admitting only `allowed_sources` toward `victim_prefix`.
    pub fn new(victim_prefix: Prefix, allowed_sources: Vec<Addr>) -> PerimeterFilterAgent {
        PerimeterFilterAgent {
            victim_prefix,
            allowed_sources,
        }
    }
}

impl NodeAgent for PerimeterFilterAgent {
    fn name(&self) -> &'static str {
        "sos-perimeter"
    }

    fn on_packet(
        &mut self,
        _ctx: &mut AgentCtx<'_>,
        pkt: &mut Packet,
        _from: Option<LinkId>,
    ) -> Verdict {
        if self.victim_prefix.contains(pkt.dst) && !self.allowed_sources.contains(&pkt.src) {
            Verdict::Drop(DropReason::OverlayReject)
        } else {
            Verdict::Forward
        }
    }
}

/// A deployed SOS overlay.
pub struct SosOverlay {
    /// Overlay entry points clients talk to.
    pub soaps: Vec<Addr>,
    /// Secret servlets allowed through the perimeter.
    pub servlets: Vec<Addr>,
    /// Per-SOAP stats.
    pub soap_stats: Vec<RelayHandle>,
    /// Per-servlet stats.
    pub servlet_stats: Vec<RelayHandle>,
    /// Number of client↔overlay trust relationships provisioned (the
    /// management-cost metric of Sec. 3.2).
    pub trust_relationships: usize,
}

impl SosOverlay {
    /// Install SOS protecting `victim`. `soap_nodes` / `servlet_nodes`
    /// host the overlay; `authorized_clients` are the trusted user base.
    /// Perimeter filters go on every neighbour of the victim's AS, so
    /// attack traffic dies one hop out and the victim's access link stays
    /// clean.
    pub fn install(
        sim: &mut Simulator,
        victim: Addr,
        soap_nodes: &[NodeId],
        servlet_nodes: &[NodeId],
        authorized_clients: Vec<Addr>,
    ) -> SosOverlay {
        const RELAY_HOST: u16 = 40;
        let servlets: Vec<Addr> = servlet_nodes
            .iter()
            .map(|&n| Addr::new(n, RELAY_HOST))
            .collect();
        let mut servlet_stats = Vec::new();
        for &s in &servlets {
            let (app, h) = RelayApp::new(RelayNext::Server(victim), None);
            sim.install_app(s, Box::new(app));
            servlet_stats.push(h);
        }
        let soaps: Vec<Addr> = soap_nodes
            .iter()
            .map(|&n| Addr::new(n, RELAY_HOST))
            .collect();
        let mut soap_stats = Vec::new();
        for &s in &soaps {
            let (app, h) = RelayApp::new(
                RelayNext::Servlets(servlets.clone()),
                Some(authorized_clients.clone()),
            );
            sim.install_app(s, Box::new(app));
            soap_stats.push(h);
        }
        // Perimeter at every neighbour of the victim's AS. The victim's
        // replies (src in victim prefix) are untouched.
        let victim_prefix = Prefix::of_node(victim.node());
        let neighbours: Vec<NodeId> = sim.topo.neighbours(victim.node()).map(|(n, _)| n).collect();
        let mut allowed = servlets.clone();
        allowed.push(victim); // victim-originated traffic via its own AS
        for n in neighbours {
            sim.add_agent(
                n,
                Box::new(PerimeterFilterAgent::new(victim_prefix, allowed.clone())),
            );
        }
        let trust_relationships =
            authorized_clients.len() * soaps.len().max(1) + soaps.len() * servlets.len();
        SosOverlay {
            soaps,
            servlets,
            soap_stats,
            servlet_stats,
            trust_relationships,
        }
    }

    /// SOAP for a client (deterministic assignment by address).
    pub fn soap_for(&self, client: Addr) -> Addr {
        self.soaps[(client.0 as usize) % self.soaps.len()]
    }
}

/// A deployed i3-style indirection defense.
pub struct I3Defense {
    /// The public trigger/relay address clients use.
    pub trigger: Addr,
    /// Relay stats.
    pub relay_stats: RelayHandle,
}

impl I3Defense {
    /// Install an i3 trigger on `relay_node` forwarding to `victim`.
    ///
    /// NOTE: the caller must install the victim app with
    /// `VictimApp::restrict_sources(vec![trigger])` to model host-level
    /// filtering, and point legitimate clients at `trigger`. There is no
    /// network-level perimeter — that is precisely the scheme's weakness.
    pub fn install(sim: &mut Simulator, victim: Addr, relay_node: NodeId) -> I3Defense {
        const TRIGGER_HOST: u16 = 41;
        let trigger = Addr::new(relay_node, TRIGGER_HOST);
        let (app, relay_stats) = RelayApp::new(RelayNext::Server(victim), None);
        sim.install_app(trigger, Box::new(app));
        I3Defense {
            trigger,
            relay_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtcs_attack::{ClientApp, VictimApp};
    use dtcs_netsim::{SimDuration, SimTime, Topology};

    #[test]
    fn sos_serves_members_and_blocks_direct_traffic() {
        let topo = Topology::barabasi_albert(60, 2, 0.1, 13);
        let mut sim = Simulator::new(topo, 3);
        let stubs = sim.topo.stub_nodes();
        let victim_node = stubs[0];
        let victim = Addr::new(victim_node, 1);
        let (vapp, vstats) = VictimApp::new(10_000.0, 400);
        sim.install_app(victim, Box::new(vapp));

        let client = Addr::new(stubs[5], 2);
        let overlay = SosOverlay::install(&mut sim, victim, &[stubs[2]], &[stubs[3]], vec![client]);
        // Member client goes through its SOAP.
        let (capp, cstats) =
            ClientApp::new(overlay.soap_for(client), SimDuration::from_millis(200));
        sim.install_app(client, Box::new(capp.until(SimTime::from_secs(5))));
        // A direct (non-overlay) sender is blocked at the perimeter.
        sim.emit_now(
            stubs[7],
            PacketBuilder::new(
                Addr::new(stubs[7], 3),
                victim,
                Proto::Udp,
                TrafficClass::AttackDirect,
            )
            .size(200),
        );
        sim.run_until(SimTime::from_secs(6));
        let cs = cstats.lock();
        assert!(
            cs.success_ratio() > 0.8,
            "member success {}",
            cs.success_ratio()
        );
        assert!(vstats.lock().served_legit > 0);
        assert_eq!(
            sim.stats.drops_for_reason(DropReason::OverlayReject).pkts,
            1,
            "direct attack packet dies at the perimeter"
        );
        assert!(overlay.trust_relationships >= 2);
    }

    #[test]
    fn sos_rejects_unauthorized_overlay_entry() {
        let topo = Topology::barabasi_albert(60, 2, 0.1, 13);
        let mut sim = Simulator::new(topo, 3);
        let stubs = sim.topo.stub_nodes();
        let victim = Addr::new(stubs[0], 1);
        let (vapp, _vstats) = VictimApp::new(10_000.0, 400);
        sim.install_app(victim, Box::new(vapp));
        let member = Addr::new(stubs[5], 2);
        let overlay = SosOverlay::install(&mut sim, victim, &[stubs[2]], &[stubs[3]], vec![member]);
        // A non-member hits the SOAP directly.
        sim.emit_now(
            stubs[8],
            PacketBuilder::new(
                Addr::new(stubs[8], 3),
                overlay.soaps[0],
                Proto::TcpSyn,
                TrafficClass::AttackDirect,
            )
            .size(60),
        );
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(overlay.soap_stats[0].lock().rejected, 1);
        assert_eq!(overlay.soap_stats[0].lock().relayed, 0);
    }

    #[test]
    fn i3_relays_but_cannot_shield_a_known_ip() {
        let topo = Topology::barabasi_albert(60, 2, 0.1, 13);
        let mut sim = Simulator::new(topo, 3);
        let stubs = sim.topo.stub_nodes();
        let victim_node = stubs[0];
        let victim = Addr::new(victim_node, 1);
        let relay_node = stubs[4];
        let i3 = I3Defense::install(&mut sim, victim, relay_node);
        // Victim only serves its trigger; tiny capacity so the direct
        // flood exhausts it.
        let (vapp, vstats) = VictimApp::new(50.0, 400);
        sim.install_app(victim, Box::new(vapp.restrict_sources(vec![i3.trigger])));
        let client = Addr::new(stubs[6], 2);
        let (capp, cstats) = ClientApp::new(i3.trigger, SimDuration::from_millis(200));
        sim.install_app(client, Box::new(capp.until(SimTime::from_secs(8))));
        // Attackers know the victim's real address: direct flood.
        for k in 0..4000u64 {
            let at = SimTime(k * 1_500_000);
            let src_node = stubs[9];
            sim.schedule(at, move |s| {
                s.emit_now(
                    src_node,
                    PacketBuilder::new(
                        Addr::new(src_node, 3),
                        victim,
                        Proto::Udp,
                        TrafficClass::AttackDirect,
                    )
                    .size(100)
                    .flow(k),
                );
            });
        }
        sim.run_until(SimTime::from_secs(8));
        assert!(
            i3.relay_stats.lock().relayed > 0,
            "relay did carry requests"
        );
        // But the known-IP flood exhausted the host anyway.
        let cs = cstats.lock();
        assert!(
            cs.success_ratio() < 0.5,
            "i3 with a known victim IP must fail: {}",
            cs.success_ratio()
        );
        assert!(vstats.lock().overloaded > 0);
    }
}
