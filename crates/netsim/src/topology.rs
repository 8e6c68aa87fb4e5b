//! Topology: the AS-level graph and its generators.
//!
//! Three families are provided:
//!
//! * [`Topology::barabasi_albert`] — preferential attachment, yielding the
//!   power-law degree distribution of the real AS graph. Park & Lee's
//!   route-based filtering result (cited in Sec. 3.2 of the paper) is
//!   specifically about power-law internets, so experiment E3 runs here.
//! * [`Topology::transit_stub_multihomed`] — an explicit two-level
//!   hierarchy with a transit core and stub edges, used when experiments
//!   need a crisp notion of "border router of a stub network" (deployment
//!   scoping, Fig. 5).
//! * [`Topology::transit_stub`] — a strict three-level transit/stub/host
//!   hierarchy carrying [`Hierarchy`] metadata, built for 100k–1M-node
//!   scale runs (closed-form hierarchical routing, fluid background
//!   traffic).
//! * small hand-built shapes (line, star, dumbbell) for unit tests.

use crate::link::{Link, LinkProfile};
use crate::node::{LinkId, Node, NodeId, NodeRole};
use crate::rng::seeded;

/// The static network graph.
#[derive(Clone, Debug)]
pub struct Topology {
    /// All nodes; `nodes[i].id == NodeId(i)`.
    pub nodes: Vec<Node>,
    /// All links.
    pub links: Vec<Link>,
    /// Optional strict-hierarchy metadata. Set only by generators whose
    /// graph is a forest of single-homed trees hanging off a small core
    /// ([`Topology::transit_stub`]); lets [`crate::routing::Routing`] pick
    /// its closed-form O(core²)-memory backend instead of the dense
    /// all-pairs tables, which is what makes 100k–1M-node topologies fit
    /// in memory. `None` (every other generator) keeps the dense backend
    /// and its byte-identical behaviour.
    pub hierarchy: Option<Hierarchy>,
}

/// Strict-hierarchy routing metadata: every non-core node has exactly one
/// uplink toward the core, so shortest paths are "walk up, cross the core,
/// walk down" and need no per-destination tables.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    /// Core (transit backbone) node ids, in id order.
    pub core: Vec<NodeId>,
    /// Per node: the unique uplink toward the core (`None` for core
    /// nodes). `up_link[i]` corresponds to `NodeId(i)`.
    pub up_link: Vec<Option<LinkId>>,
}

impl Topology {
    /// Empty topology.
    pub fn new() -> Topology {
        Topology {
            nodes: Vec::new(),
            links: Vec::new(),
            hierarchy: None,
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.nodes.len()
    }

    /// Does this topology distinguish roles at all? Routing's stub-transit
    /// penalty only applies when it does; all-stub test shapes fall back to
    /// plain hop counting. Hoisted out of the per-destination Dijkstra so
    /// callers pay the scan once per (re)compute, not once per tree.
    pub fn has_transit_roles(&self) -> bool {
        self.nodes.iter().any(|n| n.role == NodeRole::Transit)
    }

    /// Append a node with the given role.
    pub fn add_node(&mut self, role: NodeRole) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            id,
            role,
            links: Vec::new(),
        });
        id
    }

    /// Connect two nodes with a link built from `profile`.
    ///
    /// Returns `None` if the link would be a duplicate or a self-loop.
    pub fn connect(&mut self, a: NodeId, b: NodeId, profile: LinkProfile) -> Option<LinkId> {
        if a == b || self.are_connected(a, b) {
            return None;
        }
        let id = LinkId(self.links.len());
        self.links.push(profile.link(a, b));
        self.nodes[a.0].links.push(id);
        self.nodes[b.0].links.push(id);
        Some(id)
    }

    /// Is there a direct link between `a` and `b`?
    pub fn are_connected(&self, a: NodeId, b: NodeId) -> bool {
        self.nodes[a.0]
            .links
            .iter()
            .any(|&l| self.links[l.0].other(a) == b)
    }

    /// Neighbours of `node` with the connecting link.
    pub fn neighbours(&self, node: NodeId) -> impl Iterator<Item = (NodeId, LinkId)> + '_ {
        self.nodes[node.0]
            .links
            .iter()
            .map(move |&l| (self.links[l.0].other(node), l))
    }

    /// All stub-role node ids.
    pub fn stub_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.role == NodeRole::Stub)
            .map(|n| n.id)
            .collect()
    }

    /// All transit-role node ids.
    pub fn transit_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.role == NodeRole::Transit)
            .map(|n| n.id)
            .collect()
    }

    /// The `k` nodes of highest degree (ties broken by lower id), i.e. the
    /// "large ISPs" a deployment would court first. A counting sort over
    /// degrees: O(n + max degree), not a comparison sort of all n ids.
    pub fn top_degree(&self, k: usize) -> Vec<NodeId> {
        let Some(max) = self.nodes.iter().map(Node::degree).max() else {
            return Vec::new();
        };
        // `slot[d]` = next output position for a node of degree `d`:
        // degrees descending, ids ascending within a degree.
        let mut slot = vec![0usize; max + 1];
        for node in &self.nodes {
            slot[node.degree()] += 1;
        }
        let mut start = 0;
        for s in slot.iter_mut().rev() {
            let count = *s;
            *s = start;
            start += count;
        }
        let mut out = vec![NodeId(0); k.min(self.n())];
        for node in &self.nodes {
            let s = &mut slot[node.degree()];
            if let Some(o) = out.get_mut(*s) {
                *o = node.id;
            }
            *s += 1;
        }
        out
    }

    /// Is the whole graph one connected component?
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.n()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for (v, _) in self.neighbours(u) {
                if !seen[v.0] {
                    seen[v.0] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == self.n()
    }

    /// Barabási–Albert preferential attachment graph of `n` nodes, each new
    /// node attaching `m` links. Nodes whose final degree lands in the top
    /// `transit_share` are labelled `Transit` (they get backbone links);
    /// the rest are `Stub`.
    pub fn barabasi_albert(n: usize, m: usize, transit_share: f64, seed: u64) -> Topology {
        assert!(m >= 1, "m must be >= 1");
        assert!(n > m, "need more nodes than attachment edges");
        let mut rng = seeded(seed ^ 0xBA5E);
        let mut topo = Topology::new();
        // Start from a small clique of m+1 nodes so every new node has
        // enough targets.
        for _ in 0..=m {
            topo.add_node(NodeRole::Stub);
        }
        // `targets` holds one entry per link endpoint, so sampling uniformly
        // from it is degree-proportional sampling.
        let mut targets: Vec<NodeId> = Vec::new();
        for i in 0..=m {
            for j in (i + 1)..=m {
                if topo
                    .connect(NodeId(i), NodeId(j), LinkProfile::transit())
                    .is_some()
                {
                    targets.push(NodeId(i));
                    targets.push(NodeId(j));
                }
            }
        }
        while topo.n() < n {
            let new = topo.add_node(NodeRole::Stub);
            let mut chosen: Vec<NodeId> = Vec::with_capacity(m);
            // Sample m distinct targets preferentially.
            let mut guard = 0;
            while chosen.len() < m && guard < 10_000 {
                guard += 1;
                let &cand = rng.choose(&targets).expect("targets non-empty");
                if cand != new && !chosen.contains(&cand) {
                    chosen.push(cand);
                }
            }
            for t in chosen {
                if topo.connect(new, t, LinkProfile::transit()).is_some() {
                    targets.push(new);
                    targets.push(t);
                }
            }
        }
        topo.assign_roles_by_degree(transit_share);
        topo.upgrade_core_links();
        topo
    }

    /// Three-level transit–stub–host hierarchy built for scale:
    /// `n_transit` core nodes joined into a connected backbone (ring plus
    /// random chords), `stubs_per_transit` single-homed stub routers per
    /// core node, and `hosts_per_stub` leaf hosts per stub router. Every
    /// non-core node has exactly one uplink, so the generator records
    /// [`Hierarchy`] metadata and routing switches to its closed-form
    /// hierarchical backend — linear memory instead of the dense O(n²)
    /// all-pairs tables, which is what lets E2/E3-style scenarios run at
    /// 100k–1M nodes. For the classic two-level multihomed shape the
    /// deployment-scoping experiments use, see
    /// [`Topology::transit_stub_multihomed`].
    pub fn transit_stub(
        n_transit: usize,
        stubs_per_transit: usize,
        hosts_per_stub: usize,
        seed: u64,
    ) -> Topology {
        assert!(n_transit >= 1);
        let mut rng = seeded(seed ^ 0x5CA1_E57AB);
        // Sized once from the generator's own counts: every non-core node
        // has one uplink, and the ring and chords add at most 2·n_transit.
        let n = n_transit * (1 + stubs_per_transit * (1 + hosts_per_stub));
        let mut topo = Topology {
            nodes: Vec::with_capacity(n),
            links: Vec::with_capacity(n + n_transit),
            hierarchy: None,
        };
        let core: Vec<NodeId> = (0..n_transit)
            .map(|_| topo.add_node(NodeRole::Transit))
            .collect();
        // Ring backbone for guaranteed connectivity.
        for i in 0..n_transit {
            if n_transit > 1 {
                let a = core[i];
                let b = core[(i + 1) % n_transit];
                topo.connect(a, b, LinkProfile::backbone());
            }
        }
        // Random chords: densify to mean core degree ~4 (ring gives 2).
        for _ in 0..n_transit {
            if n_transit >= 4 {
                let a = core[rng.gen_range(0..n_transit)];
                let b = core[rng.gen_range(0..n_transit)];
                topo.connect(a, b, LinkProfile::backbone());
            }
        }
        let mut up_link: Vec<Option<LinkId>> = Vec::with_capacity(n);
        up_link.resize(topo.n(), None);
        for &t in &core {
            topo.nodes[t.0].links.reserve_exact(stubs_per_transit);
            for _ in 0..stubs_per_transit {
                let s = topo.add_node(NodeRole::Stub);
                topo.nodes[s.0].links.reserve_exact(1 + hosts_per_stub);
                let sl = topo
                    .connect(s, t, LinkProfile::transit())
                    .expect("fresh stub uplink");
                up_link.push(Some(sl));
                for _ in 0..hosts_per_stub {
                    let h = topo.add_node(NodeRole::Stub);
                    let hl = topo
                        .connect(h, s, LinkProfile::access())
                        .expect("fresh host uplink");
                    up_link.push(Some(hl));
                }
            }
        }
        debug_assert_eq!((topo.n(), up_link.len()), (n, n));
        topo.hierarchy = Some(Hierarchy { core, up_link });
        topo
    }

    /// Smallest [`Topology::transit_stub`] instance with at least `n`
    /// nodes, using a fixed fanout (20 stub routers per transit AS, 10
    /// hosts per stub). This is the 100k-node internet E15 and the
    /// ledger's `fluid_ts100k` workload run on.
    pub fn transit_stub_at_least(n: usize, seed: u64) -> Topology {
        const STUBS: usize = 20;
        const HOSTS: usize = 10;
        let per_transit = 1 + STUBS * (1 + HOSTS);
        let n_transit = n.div_ceil(per_transit).max(4);
        Topology::transit_stub(n_transit, STUBS, HOSTS, seed)
    }

    /// Two-level transit–stub hierarchy: `transit` core nodes joined into a
    /// connected backbone (ring plus random chords), and `stubs_per_transit`
    /// stub nodes hanging off each core node. `multihome_prob` gives each
    /// stub a chance of a second uplink to another random transit node.
    pub fn transit_stub_multihomed(
        transit: usize,
        stubs_per_transit: usize,
        multihome_prob: f64,
        seed: u64,
    ) -> Topology {
        assert!(transit >= 1);
        let mut rng = seeded(seed ^ 0x57AB);
        let mut topo = Topology::new();
        let core: Vec<NodeId> = (0..transit)
            .map(|_| topo.add_node(NodeRole::Transit))
            .collect();
        // Ring backbone for guaranteed connectivity.
        for i in 0..transit {
            if transit > 1 {
                let a = core[i];
                let b = core[(i + 1) % transit];
                topo.connect(a, b, LinkProfile::backbone());
            }
        }
        // Random chords: densify to mean core degree ~4.
        let extra = transit; // one extra chord per core node on average
        for _ in 0..extra {
            if transit >= 4 {
                let a = core[rng.gen_range(0..transit)];
                let b = core[rng.gen_range(0..transit)];
                topo.connect(a, b, LinkProfile::backbone());
            }
        }
        for &t in &core {
            for _ in 0..stubs_per_transit {
                let s = topo.add_node(NodeRole::Stub);
                topo.connect(s, t, LinkProfile::access());
                if transit > 1 && rng.gen_bool(multihome_prob) {
                    let t2 = core[rng.gen_range(0..transit)];
                    topo.connect(s, t2, LinkProfile::access());
                }
            }
        }
        topo
    }

    /// Waxman random-geometric graph (the other classic internet-topology
    /// generator of the paper's era): nodes are placed uniformly in the
    /// unit square and each pair is connected with probability
    /// `alpha * exp(-d / (beta * sqrt(2)))` where `d` is their Euclidean
    /// distance. A spanning pass afterwards connects any isolated
    /// components through their geometrically closest pair, so the result
    /// is always connected. Roles are assigned by degree like BA.
    pub fn waxman(n: usize, alpha: f64, beta: f64, transit_share: f64, seed: u64) -> Topology {
        assert!(n >= 2);
        assert!(alpha > 0.0 && alpha.is_finite(), "alpha must be positive");
        assert!(beta > 0.0 && beta.is_finite(), "beta must be positive");
        let mut rng = seeded(seed ^ 0x3A77);
        let mut topo = Topology::new();
        let pos: Vec<(f64, f64)> = (0..n)
            .map(|_| {
                topo.add_node(NodeRole::Stub);
                (rng.gen::<f64>(), rng.gen::<f64>())
            })
            .collect();
        let l = std::f64::consts::SQRT_2;
        for i in 0..n {
            for j in (i + 1)..n {
                let dx = pos[i].0 - pos[j].0;
                let dy = pos[i].1 - pos[j].1;
                let d = (dx * dx + dy * dy).sqrt();
                let p = alpha * (-d / (beta * l)).exp();
                if rng.gen_bool(p.clamp(0.0, 1.0)) {
                    topo.connect(NodeId(i), NodeId(j), LinkProfile::transit());
                }
            }
        }
        // Connect components: repeatedly join the closest cross-component
        // pair until one component remains.
        loop {
            let comp = topo.components();
            if comp.iter().max().copied() == Some(0) {
                break;
            }
            let mut best: Option<(f64, usize, usize)> = None;
            for i in 0..n {
                for j in (i + 1)..n {
                    if comp[i] != comp[j] {
                        let dx = pos[i].0 - pos[j].0;
                        let dy = pos[i].1 - pos[j].1;
                        let d = dx * dx + dy * dy;
                        if best.map(|(bd, _, _)| d < bd).unwrap_or(true) {
                            best = Some((d, i, j));
                        }
                    }
                }
            }
            let (_, i, j) = best.expect("disconnected pair exists");
            topo.connect(NodeId(i), NodeId(j), LinkProfile::transit());
        }
        topo.assign_roles_by_degree(transit_share);
        topo.upgrade_core_links();
        topo
    }

    /// Component label per node (0 = the component of node 0's
    /// representative; labels are the smallest node id in each component).
    pub fn components(&self) -> Vec<usize> {
        let n = self.n();
        let mut label = vec![usize::MAX; n];
        for start in 0..n {
            if label[start] != usize::MAX {
                continue;
            }
            let mut stack = vec![NodeId(start)];
            label[start] = start;
            while let Some(u) = stack.pop() {
                for (v, _) in self.neighbours(u) {
                    if label[v.0] == usize::MAX {
                        label[v.0] = start;
                        stack.push(v);
                    }
                }
            }
        }
        label
    }

    /// A path of `n` nodes (tests).
    pub fn line(n: usize) -> Topology {
        let mut topo = Topology::new();
        for _ in 0..n {
            topo.add_node(NodeRole::Stub);
        }
        for i in 1..n {
            topo.connect(NodeId(i - 1), NodeId(i), LinkProfile::transit());
        }
        topo
    }

    /// A star: node 0 is the hub (tests).
    pub fn star(leaves: usize) -> Topology {
        let mut topo = Topology::new();
        let hub = topo.add_node(NodeRole::Transit);
        for _ in 0..leaves {
            let leaf = topo.add_node(NodeRole::Stub);
            topo.connect(hub, leaf, LinkProfile::access());
        }
        topo
    }

    /// Classic dumbbell: `left` sources and `right` sinks joined by one
    /// bottleneck link between two transit nodes (tests, pushback).
    pub fn dumbbell(left: usize, right: usize, bottleneck: LinkProfile) -> Topology {
        let mut topo = Topology::new();
        let l_hub = topo.add_node(NodeRole::Transit);
        let r_hub = topo.add_node(NodeRole::Transit);
        topo.connect(l_hub, r_hub, bottleneck);
        for _ in 0..left {
            let s = topo.add_node(NodeRole::Stub);
            topo.connect(s, l_hub, LinkProfile::access());
        }
        for _ in 0..right {
            let s = topo.add_node(NodeRole::Stub);
            topo.connect(s, r_hub, LinkProfile::access());
        }
        topo
    }

    /// Label the `frac` highest-degree nodes as transit, the rest stub.
    fn assign_roles_by_degree(&mut self, frac: f64) {
        let k = ((self.n() as f64 * frac).ceil() as usize).clamp(1, self.n());
        let top = self.top_degree(k);
        for n in &mut self.nodes {
            n.role = NodeRole::Stub;
        }
        for id in top {
            self.nodes[id.0].role = NodeRole::Transit;
        }
    }

    /// Upgrade links between two transit nodes to the backbone profile and
    /// stub uplinks to the access profile, preserving graph structure.
    fn upgrade_core_links(&mut self) {
        for l in &mut self.links {
            let ra = self.nodes[l.a.0].role;
            let rb = self.nodes[l.b.0].role;
            let profile = match (ra, rb) {
                (NodeRole::Transit, NodeRole::Transit) => LinkProfile::backbone(),
                (NodeRole::Stub, NodeRole::Stub) => LinkProfile::access(),
                _ => LinkProfile::transit(),
            };
            l.bandwidth_bps = profile.bandwidth_bps;
            l.latency = profile.latency;
            l.queue_limit_bytes = profile.queue_limit_bytes;
        }
    }

    /// Is `customer` on the customer side of `provider` (i.e. may the
    /// provider assume everything arriving from `customer` carries
    /// `customer`-owned sources)? True when the peer is a stub AS and the
    /// provider either is transit or has strictly higher degree — the
    /// degree heuristic covers flat topologies without explicit roles.
    /// This single definition is shared by ingress filtering, the
    /// anti-spoofing device module, and deployment scoping, so all three
    /// judge "customer interfaces" identically.
    pub fn is_customer_of(&self, customer: NodeId, provider: NodeId) -> bool {
        let c = &self.nodes[customer.0];
        let p = &self.nodes[provider.0];
        c.role == NodeRole::Stub && (p.role == NodeRole::Transit || c.degree() < p.degree())
    }

    /// Mean degree of the graph.
    pub fn mean_degree(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        2.0 * self.links.len() as f64 / self.n() as f64
    }
}

impl Default for Topology {
    fn default() -> Self {
        Topology::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ba_is_connected_and_right_size() {
        let t = Topology::barabasi_albert(200, 2, 0.1, 1);
        assert_eq!(t.n(), 200);
        assert!(t.is_connected());
        // m=2 attachment: |E| ~ 2n.
        assert!(t.links.len() >= 2 * (200 - 3));
    }

    #[test]
    fn ba_determinism() {
        let a = Topology::barabasi_albert(100, 2, 0.1, 7);
        let b = Topology::barabasi_albert(100, 2, 0.1, 7);
        assert_eq!(a.links.len(), b.links.len());
        for (la, lb) in a.links.iter().zip(&b.links) {
            assert_eq!((la.a, la.b), (lb.a, lb.b));
        }
    }

    #[test]
    fn ba_degree_skew() {
        let t = Topology::barabasi_albert(500, 2, 0.1, 3);
        let max_deg = t.nodes.iter().map(Node::degree).max().unwrap();
        let mean = t.mean_degree();
        // Power-law graphs have hubs far above the mean.
        assert!(
            max_deg as f64 > 4.0 * mean,
            "max {max_deg} vs mean {mean:.2}"
        );
    }

    #[test]
    fn ba_roles_cover_requested_fraction() {
        let t = Topology::barabasi_albert(300, 2, 0.1, 5);
        let transit = t.transit_nodes().len();
        assert_eq!(transit, 30);
        assert_eq!(t.stub_nodes().len(), 270);
    }

    #[test]
    fn transit_stub_multihomed_structure() {
        let t = Topology::transit_stub_multihomed(5, 10, 0.2, 11);
        assert_eq!(t.n(), 5 + 50);
        assert!(t.is_connected());
        assert_eq!(t.transit_nodes().len(), 5);
        assert!(t.hierarchy.is_none(), "multihoming breaks strict hierarchy");
        // Every stub has at least one uplink.
        for s in t.stub_nodes() {
            assert!(t.nodes[s.0].degree() >= 1);
        }
    }

    #[test]
    fn transit_stub_is_connected_and_right_size() {
        let t = Topology::transit_stub(6, 4, 3, 11);
        assert_eq!(t.n(), 6 + 6 * 4 + 6 * 4 * 3);
        assert!(t.is_connected());
    }

    #[test]
    fn transit_stub_determinism() {
        let a = Topology::transit_stub(8, 5, 4, 77);
        let b = Topology::transit_stub(8, 5, 4, 77);
        assert_eq!(a.links.len(), b.links.len());
        for (la, lb) in a.links.iter().zip(&b.links) {
            assert_eq!((la.a, la.b), (lb.a, lb.b));
        }
        // Different seed reshuffles the core chords.
        let c = Topology::transit_stub(8, 5, 4, 78);
        assert!(
            a.links
                .iter()
                .zip(&c.links)
                .any(|(la, lc)| (la.a, la.b) != (lc.a, lc.b))
                || a.links.len() != c.links.len()
        );
    }

    #[test]
    fn transit_stub_roles() {
        let t = Topology::transit_stub(6, 4, 3, 5);
        assert_eq!(t.transit_nodes().len(), 6);
        assert_eq!(t.stub_nodes().len(), 6 * 4 + 6 * 4 * 3);
    }

    #[test]
    fn transit_stub_hierarchy_invariants() {
        let t = Topology::transit_stub(6, 4, 3, 9);
        let h = t.hierarchy.as_ref().expect("generator records hierarchy");
        assert_eq!(h.core.len(), 6);
        assert_eq!(h.up_link.len(), t.n());
        for (i, up) in h.up_link.iter().enumerate() {
            let is_core = h.core.contains(&NodeId(i));
            match up {
                None => assert!(is_core, "non-core node {i} missing uplink"),
                Some(l) => {
                    assert!(!is_core, "core node {i} must not have an uplink");
                    // The uplink is incident to the node and climbs toward
                    // the core: the far end is either core or one tier up.
                    let far = t.links[l.0].other(NodeId(i));
                    assert!(
                        t.links[l.0].a == NodeId(i) || t.links[l.0].b == NodeId(i),
                        "uplink not incident"
                    );
                    assert!(far.0 < i, "uplinks point at earlier (higher) tiers");
                }
            }
        }
    }

    #[test]
    fn transit_stub_at_least_reaches_target() {
        let t = Topology::transit_stub_at_least(5_000, 3);
        assert!(t.n() >= 5_000, "{} < 5000", t.n());
        assert!(t.is_connected());
        assert!(t.hierarchy.is_some());
    }

    #[test]
    fn no_duplicate_links_or_self_loops() {
        let t = Topology::barabasi_albert(150, 3, 0.1, 9);
        for (i, l) in t.links.iter().enumerate() {
            assert_ne!(l.a, l.b);
            for l2 in &t.links[i + 1..] {
                assert!(
                    !((l.a, l.b) == (l2.a, l2.b) || (l.a, l.b) == (l2.b, l2.a)),
                    "duplicate link"
                );
            }
        }
    }

    #[test]
    fn line_and_star_shapes() {
        let line = Topology::line(4);
        assert_eq!(line.links.len(), 3);
        assert!(line.is_connected());
        let star = Topology::star(6);
        assert_eq!(star.nodes[0].degree(), 6);
        assert!(star.is_connected());
    }

    #[test]
    fn dumbbell_has_single_bottleneck() {
        let t = Topology::dumbbell(3, 3, LinkProfile::access());
        assert!(t.is_connected());
        assert_eq!(t.n(), 8);
        assert!(t.are_connected(NodeId(0), NodeId(1)));
    }

    #[test]
    fn top_degree_deterministic_order() {
        let t = Topology::barabasi_albert(100, 2, 0.1, 13);
        let a = t.top_degree(5);
        let b = t.top_degree(5);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        // Degrees are non-increasing along the list.
        for w in a.windows(2) {
            assert!(t.nodes[w[0].0].degree() >= t.nodes[w[1].0].degree());
        }
    }

    #[test]
    fn top_degree_is_the_sort_it_replaced() {
        fn sorted(t: &Topology, k: usize) -> Vec<NodeId> {
            let mut ids: Vec<NodeId> = (0..t.n()).map(NodeId).collect();
            ids.sort_by_key(|&id| (std::cmp::Reverse(t.nodes[id.0].degree()), id.0));
            ids.truncate(k);
            ids
        }
        let mut topos = vec![Topology::new(), Topology::line(3)];
        for seed in [1, 2, 3] {
            topos.push(Topology::barabasi_albert(400, 2, 0.1, seed));
            topos.push(Topology::transit_stub_multihomed(8, 16, 0.2, seed));
            topos.push(Topology::transit_stub_at_least(20_000, seed));
        }
        for t in &topos {
            let n = t.n();
            for k in [0, 1, n / 2, n, n + 5] {
                assert_eq!(t.top_degree(k), sorted(t, k), "n = {n}, k = {k}");
            }
        }
    }

    #[test]
    fn waxman_is_connected_and_sized() {
        let t = Topology::waxman(150, 0.4, 0.25, 0.1, 7);
        assert_eq!(t.n(), 150);
        assert!(t.is_connected());
        assert!(t.mean_degree() > 2.0, "mean degree {}", t.mean_degree());
    }

    #[test]
    fn waxman_is_deterministic() {
        let a = Topology::waxman(80, 0.4, 0.2, 0.1, 3);
        let b = Topology::waxman(80, 0.4, 0.2, 0.1, 3);
        assert_eq!(a.links.len(), b.links.len());
        for (la, lb) in a.links.iter().zip(&b.links) {
            assert_eq!((la.a, la.b), (lb.a, lb.b));
        }
    }

    #[test]
    fn waxman_prefers_short_links() {
        // With strong distance decay, the graph still connects but sparser
        // than with weak decay.
        let tight = Topology::waxman(100, 0.5, 0.05, 0.1, 9);
        let loose = Topology::waxman(100, 0.5, 0.5, 0.1, 9);
        assert!(tight.links.len() < loose.links.len());
        assert!(tight.is_connected());
    }

    #[test]
    fn components_labels_partition() {
        let mut t = Topology::line(3);
        let lonely = t.add_node(NodeRole::Stub);
        let comp = t.components();
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_ne!(comp[0], comp[lonely.0]);
    }
}
