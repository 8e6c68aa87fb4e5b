//! SPIE — hash-based IP traceback (Snoeren et al., Sigcomm 2001), cited in
//! Sec. 4.4 as a service the TCS could host ("storing a backlog of packet
//! hashes").
//!
//! Every participating router inserts a digest of each forwarded packet
//! into a time-windowed Bloom filter. Given one attack packet (digest +
//! arrival time), the victim's query walks the topology outward from
//! itself: a neighbour whose filter contains the digest extends the path.
//! This standalone baseline complements the `DigestBacklog` device module,
//! which offers the same capability through the TCS.

use std::collections::BTreeMap;
use std::sync::Arc;

use dtcs_netsim::sync::Mutex;

use dtcs_device::support::Bloom;
use dtcs_device::view::digest_packet;
use dtcs_netsim::{
    AgentCtx, LinkId, NodeAgent, NodeId, Packet, SimDuration, SimTime, Simulator, Topology, Verdict,
};

/// One router's digest history.
#[derive(Clone, Debug, Default)]
pub struct SpieState {
    /// `(window start, filter)` pairs, oldest first.
    pub windows: Vec<(SimTime, Bloom)>,
    /// Packets digested.
    pub digested: u64,
}

impl SpieState {
    /// Did this router see `digest` in a window overlapping `[from, to]`?
    pub fn saw(&self, digest: u64, from: SimTime, to: SimTime, window: SimDuration) -> bool {
        self.windows.iter().any(|(start, bloom)| {
            let end = *start + window;
            *start <= to && end >= from && bloom.contains(digest)
        })
    }
}

/// Shared handle to one router's SPIE state.
pub type SpieHandle = Arc<Mutex<SpieState>>;

/// SPIE configuration.
#[derive(Clone, Copy, Debug)]
pub struct SpieConfig {
    /// Digest window length.
    pub window: SimDuration,
    /// Windows retained.
    pub retain: usize,
    /// Bloom bits per window.
    pub bits: u32,
    /// Hash probes per insertion.
    pub hashes: u8,
}

impl Default for SpieConfig {
    fn default() -> Self {
        SpieConfig {
            window: SimDuration::from_secs(1),
            retain: 30,
            bits: 1 << 18,
            hashes: 4,
        }
    }
}

/// Router-side digesting agent.
pub struct SpieAgent {
    cfg: SpieConfig,
    state: SpieHandle,
    current_start: SimTime,
    started: bool,
}

impl SpieAgent {
    /// New agent with shared state.
    pub fn new(cfg: SpieConfig) -> (SpieAgent, SpieHandle) {
        let state: SpieHandle = Arc::new(Mutex::new(SpieState::default()));
        (
            SpieAgent {
                cfg,
                state: state.clone(),
                current_start: SimTime::ZERO,
                started: false,
            },
            state,
        )
    }
}

impl NodeAgent for SpieAgent {
    fn name(&self) -> &'static str {
        "spie"
    }

    fn on_packet(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        pkt: &mut Packet,
        _from: Option<LinkId>,
    ) -> Verdict {
        let w = self.cfg.window.as_nanos().max(1);
        let start = SimTime((ctx.now.as_nanos() / w) * w);
        let mut st = self.state.lock();
        if !self.started || start > self.current_start {
            self.started = true;
            self.current_start = start;
            st.windows
                .push((start, Bloom::new(self.cfg.bits, self.cfg.hashes)));
            while st.windows.len() > self.cfg.retain {
                st.windows.remove(0);
            }
        }
        let digest = digest_packet(pkt);
        if let Some((_, bloom)) = st.windows.last_mut() {
            bloom.insert(digest);
        }
        st.digested += 1;
        Verdict::Forward
    }
}

/// A deployed SPIE fleet: per-node handles plus the config for queries.
pub struct SpieFleet {
    /// Configuration used by every agent.
    pub cfg: SpieConfig,
    /// Per-node state handles (nodes without SPIE are absent).
    pub handles: BTreeMap<NodeId, SpieHandle>,
}

impl SpieFleet {
    /// Deploy SPIE on the given nodes.
    pub fn deploy(sim: &mut Simulator, nodes: &[NodeId], cfg: SpieConfig) -> SpieFleet {
        let mut handles = BTreeMap::new();
        for &n in nodes {
            let (agent, h) = SpieAgent::new(cfg);
            sim.add_agent(n, Box::new(agent));
            handles.insert(n, h);
        }
        SpieFleet { cfg, handles }
    }

    /// Deploy everywhere.
    pub fn deploy_everywhere(sim: &mut Simulator, cfg: SpieConfig) -> SpieFleet {
        let nodes: Vec<NodeId> = (0..sim.topo.n()).map(NodeId).collect();
        Self::deploy(sim, &nodes, cfg)
    }

    fn saw(&self, node: NodeId, digest: u64, from: SimTime, to: SimTime) -> bool {
        match self.handles.get(&node) {
            Some(h) => h.lock().saw(digest, from, to, self.cfg.window),
            None => false,
        }
    }

    /// Trace one packet (by digest) backwards from `victim_node`: breadth-
    /// first over routers whose backlog contains the digest. Returns the
    /// set of *farthest* routers reached — the apparent origin ASes.
    ///
    /// `slack` widens the query window to absorb propagation delay between
    /// routers.
    pub fn trace(
        &self,
        topo: &Topology,
        victim_node: NodeId,
        digest: u64,
        seen_at: SimTime,
        slack: SimDuration,
    ) -> Vec<NodeId> {
        let from = SimTime(seen_at.as_nanos().saturating_sub(slack.as_nanos()));
        let to = seen_at + slack;
        if !self.saw(victim_node, digest, from, to) {
            return Vec::new();
        }
        let mut visited: BTreeMap<NodeId, usize> = BTreeMap::new();
        visited.insert(victim_node, 0);
        let mut frontier = vec![victim_node];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &u in &frontier {
                let du = visited[&u];
                for (w, _) in topo.neighbours(u) {
                    if visited.contains_key(&w) {
                        continue;
                    }
                    if self.saw(w, digest, from, to) {
                        visited.insert(w, du + 1);
                        next.push(w);
                    }
                }
            }
            frontier = next;
        }
        let max_d = visited.values().copied().max().unwrap_or(0);
        if max_d == 0 {
            return vec![victim_node];
        }
        visited
            .into_iter()
            .filter(|&(_, d)| d == max_d)
            .map(|(n, _)| n)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtcs_netsim::{Addr, PacketBuilder, Proto, Topology, TrafficClass};

    #[test]
    fn trace_follows_the_true_path_despite_spoofing() {
        let topo = Topology::line(6);
        let mut sim = Simulator::new(topo, 1);
        let fleet = SpieFleet::deploy_everywhere(&mut sim, SpieConfig::default());
        let victim = Addr::new(NodeId(5), 1);
        sim.install_app(victim, Box::new(dtcs_netsim::SinkApp));
        // One spoofed packet from node 0 with a distinctive tag.
        let b = PacketBuilder::new(
            Addr::new(NodeId(3), 9), // spoofed: claims node 3
            victim,
            Proto::Udp,
            TrafficClass::AttackDirect,
        )
        .size(100)
        .tag(0xFEED);
        sim.emit_now(NodeId(0), b);
        sim.run_until(SimTime::from_secs(1));
        // Reconstruct the digest of the packet as the victim saw it.
        let pkt = b.build(0, NodeId(0));
        let digest = digest_packet(&pkt);
        let sources = fleet.trace(
            &sim.topo,
            NodeId(5),
            digest,
            SimTime::from_millis(100),
            SimDuration::from_secs(1),
        );
        assert_eq!(
            sources,
            vec![NodeId(0)],
            "trace must reach the true origin, not the spoofed node 3"
        );
    }

    #[test]
    fn unknown_digest_traces_to_nothing() {
        let topo = Topology::line(4);
        let mut sim = Simulator::new(topo, 1);
        let fleet = SpieFleet::deploy_everywhere(&mut sim, SpieConfig::default());
        sim.install_app(Addr::new(NodeId(3), 1), Box::new(dtcs_netsim::SinkApp));
        sim.emit_now(
            NodeId(0),
            PacketBuilder::new(
                Addr::new(NodeId(0), 1),
                Addr::new(NodeId(3), 1),
                Proto::Udp,
                TrafficClass::Background,
            ),
        );
        sim.run_until(SimTime::from_secs(1));
        let sources = fleet.trace(
            &sim.topo,
            NodeId(3),
            0xDEAD_BEEF_0BAD_F00D,
            SimTime::from_millis(50),
            SimDuration::from_secs(1),
        );
        assert!(sources.is_empty());
    }

    #[test]
    fn partial_deployment_truncates_the_trace() {
        let topo = Topology::line(6);
        let mut sim = Simulator::new(topo, 1);
        // SPIE only on nodes 3..=5 — the trace cannot cross node 2.
        let nodes: Vec<NodeId> = (3..6).map(NodeId).collect();
        let fleet = SpieFleet::deploy(&mut sim, &nodes, SpieConfig::default());
        let victim = Addr::new(NodeId(5), 1);
        sim.install_app(victim, Box::new(dtcs_netsim::SinkApp));
        let b = PacketBuilder::new(
            Addr::new(NodeId(1), 9),
            victim,
            Proto::Udp,
            TrafficClass::AttackDirect,
        )
        .tag(0xAB);
        sim.emit_now(NodeId(0), b);
        sim.run_until(SimTime::from_secs(1));
        let digest = digest_packet(&b.build(0, NodeId(0)));
        let sources = fleet.trace(
            &sim.topo,
            NodeId(5),
            digest,
            SimTime::from_millis(100),
            SimDuration::from_secs(1),
        );
        assert_eq!(sources, vec![NodeId(3)], "trace stops at the SPIE frontier");
    }
}
