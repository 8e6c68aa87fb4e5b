//! Victim server and legitimate clients.
//!
//! The victim models the resource-exhaustion failure mode the paper calls
//! out against pushback (Sec. 3.1): a server farm whose *processing
//! capacity*, not uplink, is the bottleneck. Capacity is a packets-per-
//! second token bucket; any packet that arrives beyond it — attack or not —
//! is turned away ([`Disposition::Overloaded`]). Clients issue periodic
//! requests and count answered ones; the ratio of answered requests is the
//! goodput metric reported by experiments E2/E4.

use std::sync::Arc;

use dtcs_netsim::sync::Mutex;

use dtcs_netsim::{
    Addr, App, AppApi, Disposition, Packet, PacketBuilder, Proto, SimDuration, SimTime,
    TrafficClass,
};

/// Victim-side counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct VictimStats {
    /// Legitimate requests served (replied to).
    pub served_legit: u64,
    /// Packets turned away for lack of capacity.
    pub overloaded: u64,
    /// Attack packets that consumed capacity (ground truth, metrics only).
    pub attack_absorbed: u64,
    /// Attack bytes received.
    pub attack_bytes: u64,
    /// Total packets received (any class).
    pub received: u64,
    /// First instant the server ran out of capacity (ns), if ever.
    pub first_overload_nanos: Option<u64>,
}

/// Shared handle to victim counters.
pub type VictimHandle = Arc<Mutex<VictimStats>>;

/// The attacked server.
pub struct VictimApp {
    /// Processing capacity in packets/second.
    capacity_pps: f64,
    /// Reply size for served requests.
    reply_size: u32,
    /// Host-level accept filter: when set, only these sources are served.
    /// Non-matching packets still consume capacity — host-level filtering
    /// happens *after* the resource was spent, which is why the i3-style
    /// defense fails against resource exhaustion when the victim's IP is
    /// known (Sec. 3.1).
    allow_only: Option<Vec<Addr>>,
    tokens: f64,
    max_tokens: f64,
    last: SimTime,
    stats: VictimHandle,
}

impl VictimApp {
    /// Server with a given processing capacity (pps). Burst tolerance is
    /// one tenth of a second of capacity.
    pub fn new(capacity_pps: f64, reply_size: u32) -> (VictimApp, VictimHandle) {
        let stats: VictimHandle = Arc::new(Mutex::new(VictimStats::default()));
        let burst = (capacity_pps / 10.0).max(2.0);
        (
            VictimApp {
                capacity_pps,
                reply_size,
                allow_only: None,
                tokens: burst,
                max_tokens: burst,
                last: SimTime::ZERO,
                stats: stats.clone(),
            },
            stats,
        )
    }

    /// Restrict host-level service to these source addresses (i3-style
    /// indirection: the victim only talks to its relay). Packets from
    /// other sources still consume capacity.
    pub fn restrict_sources(mut self, allowed: Vec<Addr>) -> VictimApp {
        self.allow_only = Some(allowed);
        self
    }

    fn take_capacity(&mut self, now: SimTime) -> bool {
        if now > self.last {
            let dt = (now - self.last).as_secs_f64();
            self.tokens = (self.tokens + dt * self.capacity_pps).min(self.max_tokens);
            self.last = now;
        }
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

impl App for VictimApp {
    fn on_packet(&mut self, api: &mut AppApi<'_>, pkt: &Packet) -> Disposition {
        {
            self.stats.lock().received += 1;
        }
        if !self.take_capacity(api.now) {
            let mut s = self.stats.lock();
            s.overloaded += 1;
            if s.first_overload_nanos.is_none() {
                s.first_overload_nanos = Some(api.now.as_nanos());
            }
            return Disposition::Overloaded;
        }
        let is_attack = pkt.provenance.class.is_attack();
        if is_attack {
            let mut s = self.stats.lock();
            s.attack_absorbed += 1;
            s.attack_bytes += pkt.size as u64;
            return Disposition::Consumed;
        }
        // Host-level accept filter: capacity was already spent above.
        if let Some(allowed) = &self.allow_only {
            if !allowed.contains(&pkt.src) {
                return Disposition::Consumed;
            }
        }
        // Serve legitimate requests.
        if matches!(
            pkt.proto,
            Proto::TcpSyn | Proto::TcpData | Proto::DnsQuery | Proto::Udp
        ) {
            let reply_proto = match pkt.proto {
                Proto::TcpSyn => Proto::TcpSynAck,
                Proto::DnsQuery => Proto::DnsResponse,
                _ => Proto::TcpData,
            };
            let b = PacketBuilder::new(
                api.self_addr,
                pkt.src,
                reply_proto,
                TrafficClass::LegitReply,
            )
            .size(self.reply_size)
            .flow(pkt.flow)
            .tag(pkt.payload_tag);
            api.send(b);
            self.stats.lock().served_legit += 1;
        }
        Disposition::Consumed
    }
}

/// Client-side counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientStats {
    /// Requests sent.
    pub sent: u64,
    /// Replies received.
    pub answered: u64,
    /// Sum of response times (seconds) over answered requests.
    pub rtt_sum: f64,
}

impl ClientStats {
    /// Fraction of requests answered.
    pub fn success_ratio(&self) -> f64 {
        if self.sent == 0 {
            1.0
        } else {
            self.answered as f64 / self.sent as f64
        }
    }

    /// Mean response time over answered requests.
    pub fn mean_rtt(&self) -> Option<f64> {
        if self.answered == 0 {
            None
        } else {
            Some(self.rtt_sum / self.answered as f64)
        }
    }
}

/// Shared handle to client counters.
pub type ClientHandle = Arc<Mutex<ClientStats>>;

const REQ: u64 = 1;

/// A legitimate client issuing periodic requests to one server.
pub struct ClientApp {
    /// Server under use.
    pub server: Addr,
    /// Request period.
    pub period: SimDuration,
    /// Request protocol.
    pub proto: Proto,
    /// Request size.
    pub req_size: u32,
    /// Stop sending at this time.
    pub stop_at: SimTime,
    seq: u64,
    outstanding: Vec<(u64, SimTime)>,
    stats: ClientHandle,
}

impl ClientApp {
    /// Client of `server` sending one request every `period`.
    pub fn new(server: Addr, period: SimDuration) -> (ClientApp, ClientHandle) {
        let stats: ClientHandle = Arc::new(Mutex::new(ClientStats::default()));
        (
            ClientApp {
                server,
                period,
                proto: Proto::TcpSyn,
                req_size: 60,
                stop_at: SimTime::MAX,
                seq: 0,
                outstanding: Vec::new(),
                stats: stats.clone(),
            },
            stats,
        )
    }

    /// Builder: request protocol and size.
    pub fn request(mut self, proto: Proto, size: u32) -> ClientApp {
        self.proto = proto;
        self.req_size = size;
        self
    }

    /// Builder: stop time.
    pub fn until(mut self, stop_at: SimTime) -> ClientApp {
        self.stop_at = stop_at;
        self
    }
}

impl App for ClientApp {
    fn on_start(&mut self, api: &mut AppApi<'_>) {
        // Desynchronise clients across the population.
        let phase = SimDuration(api.rng.gen_range(0..self.period.as_nanos().max(1)));
        api.set_timer(phase, REQ);
    }

    fn on_packet(&mut self, api: &mut AppApi<'_>, pkt: &Packet) -> Disposition {
        if let Some(pos) = self
            .outstanding
            .iter()
            .position(|&(tag, _)| tag == pkt.payload_tag)
        {
            let (_, sent_at) = self.outstanding.swap_remove(pos);
            let mut s = self.stats.lock();
            s.answered += 1;
            s.rtt_sum += (api.now - sent_at).as_secs_f64();
        }
        Disposition::Consumed
    }

    fn on_timer(&mut self, api: &mut AppApi<'_>, token: u64) {
        if token != REQ || api.now >= self.stop_at {
            return;
        }
        self.seq += 1;
        let tag = (api.self_addr.0 as u64) << 32 | self.seq;
        let b = PacketBuilder::new(
            api.self_addr,
            self.server,
            self.proto,
            TrafficClass::LegitRequest,
        )
        .size(self.req_size)
        .flow(tag)
        .tag(tag);
        api.send(b);
        self.outstanding.push((tag, api.now));
        if self.outstanding.len() > 64 {
            self.outstanding.remove(0); // oldest request considered lost
        }
        self.stats.lock().sent += 1;
        api.set_timer(self.period, REQ);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtcs_netsim::{NodeId, Simulator, Topology};

    #[test]
    fn client_server_roundtrips() {
        let topo = Topology::line(3);
        let mut sim = Simulator::new(topo, 7);
        let server = Addr::new(NodeId(2), 1);
        let client = Addr::new(NodeId(0), 1);
        let (v, vstats) = VictimApp::new(1000.0, 500);
        let (c, cstats) = ClientApp::new(server, SimDuration::from_millis(100));
        sim.install_app(server, Box::new(v));
        sim.install_app(client, Box::new(c.until(SimTime::from_secs(5))));
        sim.run_until(SimTime::from_secs(6));
        let cs = cstats.lock();
        assert!(cs.sent >= 40, "sent={}", cs.sent);
        assert!(cs.success_ratio() > 0.95, "ratio={}", cs.success_ratio());
        assert!(cs.mean_rtt().unwrap() > 0.0);
        assert_eq!(vstats.lock().served_legit, cs.answered);
    }

    #[test]
    fn victim_overloads_under_flood() {
        let topo = Topology::line(2);
        let mut sim = Simulator::new(topo, 7);
        let server = Addr::new(NodeId(1), 1);
        let (v, vstats) = VictimApp::new(10.0, 500); // tiny capacity
        sim.install_app(server, Box::new(v));
        // 1000 packets in one second at a 10 pps server.
        for i in 0..1000u64 {
            let at = SimTime(i * 1_000_000);
            sim.schedule(at, move |s| {
                s.emit_now(
                    NodeId(0),
                    PacketBuilder::new(
                        Addr::new(NodeId(0), 1),
                        Addr::new(NodeId(1), 1),
                        Proto::Udp,
                        TrafficClass::AttackDirect,
                    )
                    .size(100)
                    .flow(i),
                );
            });
        }
        sim.run_until(SimTime::from_secs(2));
        let s = vstats.lock();
        assert!(s.overloaded > 900, "overloaded={}", s.overloaded);
        assert!(s.attack_absorbed <= 30);
        // Overload drops are visible in the global stats too.
        assert!(
            sim.stats
                .drops_for_reason(dtcs_netsim::DropReason::HostOverload)
                .pkts
                > 900
        );
    }

    #[test]
    fn attack_crowds_out_legit_service() {
        let topo = Topology::star(3);
        let mut sim = Simulator::new(topo, 7);
        let server = Addr::new(NodeId(1), 1);
        let client = Addr::new(NodeId(2), 1);
        let (v, _vstats) = VictimApp::new(50.0, 200);
        let (c, cstats) = ClientApp::new(server, SimDuration::from_millis(50));
        sim.install_app(server, Box::new(v));
        sim.install_app(client, Box::new(c.until(SimTime::from_secs(5))));
        // Heavy flood from node 3 for the middle 3 seconds.
        let agent = AgentAppForTest;
        struct AgentAppForTest;
        impl App for AgentAppForTest {
            fn on_start(&mut self, api: &mut AppApi<'_>) {
                api.set_timer(SimDuration::from_secs(1), 1);
            }
            fn on_packet(&mut self, _api: &mut AppApi<'_>, _pkt: &Packet) -> Disposition {
                Disposition::Consumed
            }
            fn on_timer(&mut self, api: &mut AppApi<'_>, _t: u64) {
                if api.now >= SimTime::from_secs(4) {
                    return;
                }
                let b = PacketBuilder::new(
                    api.self_addr,
                    Addr::new(NodeId(1), 1),
                    Proto::Udp,
                    TrafficClass::AttackDirect,
                )
                .size(100);
                api.send(b);
                api.set_timer(SimDuration::from_millis(1), 1);
            }
        }
        sim.install_app(Addr::new(NodeId(3), 1), Box::new(agent));
        sim.run_until(SimTime::from_secs(6));
        let cs = cstats.lock();
        assert!(
            cs.success_ratio() < 0.8,
            "flood should degrade service: {}",
            cs.success_ratio()
        );
    }
}
