//! Service graphs: composed module chains (Click-style composition,
//! Sec. 5.2 — "services are composed of components that are arranged as
//! directed graphs"). The runtime graph is the [`ServiceSpec`] it was
//! installed from — shared, never copied — plus what differs per install:
//! one enable bit and one [`ModuleState`] per module. Triggers flip those
//! bits at run time, which is how "predefined additional configurations"
//! are staged dormant and activated under attack (Sec. 4.2).

use dtcs_netsim::SimTime;

use crate::modules::{ModuleAction, ModuleState};
use crate::owner::OwnerId;
use crate::spec::ServiceSpec;
use crate::support::LogEntry;
use crate::view::{DeviceContext, DeviceEvent, ModuleEnv, PacketView};

/// The per-install half of one module; `spec.modules()[i]` is the other.
struct GraphNode {
    enabled: bool,
    state: ModuleState,
}

/// An instantiated service graph for one `(owner, stage)` slot.
pub struct ServiceGraph {
    /// The installing spec: every rule list, match expression and
    /// parameter the modules evaluate, read in place. Owners running one
    /// catalog service share it.
    spec: ServiceSpec,
    /// Whole-service activation switch (control plane sets this).
    pub active: bool,
    /// Primitive rule count (E6 scalability unit).
    pub rule_count: usize,
    nodes: Vec<GraphNode>,
    activations: Vec<(usize, bool)>,
    /// Packets that traversed this graph.
    pub packets: u64,
    /// Packets this graph dropped.
    pub dropped: u64,
}

impl ServiceGraph {
    /// Instantiate a spec. The caller must have run the
    /// [`SafetyVerifier`](crate::safety::SafetyVerifier) first; forbidden
    /// modules panic in [`ModuleState::new`].
    pub fn from_spec(spec: &ServiceSpec) -> ServiceGraph {
        ServiceGraph {
            spec: spec.clone(),
            active: true,
            rule_count: spec.rule_count(),
            nodes: spec
                .modules()
                .iter()
                .map(|n| GraphNode {
                    enabled: n.enabled,
                    state: ModuleState::new(&n.module),
                })
                .collect(),
            activations: Vec::new(),
            packets: 0,
            dropped: 0,
        }
    }

    /// Service name from the spec.
    pub fn name(&self) -> &str {
        self.spec.name()
    }

    /// Fingerprint of the installing spec
    /// ([`ServiceSpec::content_hash`], computed once at the spec's
    /// construction) — the install idempotency key and the unit the NMS
    /// reconciliation sweep compares.
    pub fn spec_hash(&self) -> u64 {
        self.spec.content_hash()
    }

    /// Run one packet through the graph.
    pub fn process(
        &mut self,
        now: SimTime,
        ctx: &DeviceContext,
        spoof_suspect: bool,
        owner: OwnerId,
        events: &mut Vec<DeviceEvent>,
        view: &mut PacketView<'_>,
    ) -> ModuleAction {
        if !self.active {
            return ModuleAction::Pass;
        }
        self.packets += 1;
        let mut action = ModuleAction::Pass;
        for (node, spec) in self.nodes.iter_mut().zip(self.spec.modules()) {
            if !node.enabled {
                continue;
            }
            let mut env = ModuleEnv {
                now,
                ctx,
                spoof_suspect,
                owner,
                events,
                activations: &mut self.activations,
            };
            action = node.state.process(&spec.module, &mut env, view);
            if let ModuleAction::Drop(_) = action {
                self.dropped += 1;
                break;
            }
        }
        // Apply trigger (de)activations after the packet completes, so a
        // trigger cannot change what the *current* packet experiences. The
        // buffer is taken, drained in place and handed back emptied, so
        // firing triggers costs no allocation per packet.
        let mut acts = std::mem::take(&mut self.activations);
        for (idx, enable) in acts.drain(..) {
            self.set_module_enabled(idx, enable);
        }
        self.activations = acts;
        action
    }

    /// Directly flip a module's enable bit (control-plane operation).
    pub fn set_module_enabled(&mut self, idx: usize, enabled: bool) -> bool {
        match self.nodes.get_mut(idx) {
            Some(n) => {
                n.enabled = enabled;
                true
            }
            None => false,
        }
    }

    /// Number of modules.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Is the graph empty?
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Forward a traceback digest query to the graph's backlog modules.
    pub fn query_digest(&self, digest: u64, from: SimTime, to: SimTime) -> Option<bool> {
        self.nodes
            .iter()
            .zip(self.spec.modules())
            .filter_map(|(n, spec)| n.state.query_digest(&spec.module, digest, from, to))
            .reduce(|seen, hit| seen || hit) // None: no backlog anywhere
    }

    /// Drain every logger module's entries.
    pub fn drain_logs(&mut self) -> Vec<LogEntry> {
        self.nodes
            .iter_mut()
            .zip(self.spec.modules())
            .filter_map(|(n, spec)| n.state.drain_log(&spec.module))
            .flatten()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FilterRule, GraphNodeSpec, MatchExpr, ModuleSpec};
    use dtcs_netsim::{Addr, NodeId, Packet, PacketBuilder, Proto, TrafficClass};

    fn mk_pkt(proto: Proto) -> Packet {
        PacketBuilder::new(
            Addr::new(NodeId(1), 1),
            Addr::new(NodeId(2), 1),
            proto,
            TrafficClass::Background,
        )
        .size(100)
        .build(1, NodeId(1))
    }

    fn dctx() -> DeviceContext {
        DeviceContext { node: NodeId(0) }
    }

    fn run(
        g: &mut ServiceGraph,
        pkt: &mut Packet,
        now: SimTime,
        events: &mut Vec<DeviceEvent>,
    ) -> ModuleAction {
        let ctx = dctx();
        let mut view = PacketView::new(pkt);
        g.process(now, &ctx, false, OwnerId(1), events, &mut view)
    }

    fn drop_udp_spec() -> ServiceSpec {
        ServiceSpec::chain(
            "drop-udp",
            vec![ModuleSpec::Filter {
                rules: vec![FilterRule {
                    expr: MatchExpr::proto(Proto::Udp),
                    drop: true,
                }],
            }],
        )
    }

    #[test]
    fn graph_drops_and_counts() {
        let mut g = ServiceGraph::from_spec(&drop_udp_spec());
        let mut events = Vec::new();
        let mut p = mk_pkt(Proto::Udp);
        assert!(matches!(
            run(&mut g, &mut p, SimTime::ZERO, &mut events),
            ModuleAction::Drop(_)
        ));
        let mut p = mk_pkt(Proto::TcpData);
        assert_eq!(
            run(&mut g, &mut p, SimTime::ZERO, &mut events),
            ModuleAction::Pass
        );
        assert_eq!(g.packets, 2);
        assert_eq!(g.dropped, 1);
    }

    #[test]
    fn inactive_graph_passes_everything() {
        let mut g = ServiceGraph::from_spec(&drop_udp_spec());
        g.active = false;
        let mut events = Vec::new();
        let mut p = mk_pkt(Proto::Udp);
        assert_eq!(
            run(&mut g, &mut p, SimTime::ZERO, &mut events),
            ModuleAction::Pass
        );
        assert_eq!(g.packets, 0);
    }

    #[test]
    fn disabled_module_is_skipped_until_enabled() {
        let spec = ServiceSpec::new(
            "staged",
            vec![GraphNodeSpec {
                module: ModuleSpec::Filter {
                    rules: vec![FilterRule {
                        expr: MatchExpr::any(),
                        drop: true,
                    }],
                },
                enabled: false,
            }],
        );
        let mut g = ServiceGraph::from_spec(&spec);
        let mut events = Vec::new();
        let mut p = mk_pkt(Proto::Udp);
        assert_eq!(
            run(&mut g, &mut p, SimTime::ZERO, &mut events),
            ModuleAction::Pass
        );
        assert!(g.set_module_enabled(0, true));
        let mut p = mk_pkt(Proto::Udp);
        assert!(matches!(
            run(&mut g, &mut p, SimTime::ZERO, &mut events),
            ModuleAction::Drop(_)
        ));
        assert!(!g.set_module_enabled(9, true));
    }

    #[test]
    fn query_digest_none_without_backlog() {
        let g = ServiceGraph::from_spec(&drop_udp_spec());
        assert_eq!(g.query_digest(1, SimTime::ZERO, SimTime::ZERO), None);
    }

    #[test]
    fn drain_logs_collects_from_loggers() {
        let spec = ServiceSpec::chain(
            "log",
            vec![ModuleSpec::Logger {
                capacity: 8,
                sample_one_in: 1,
            }],
        );
        let mut g = ServiceGraph::from_spec(&spec);
        let mut events = Vec::new();
        for _ in 0..5 {
            let mut p = mk_pkt(Proto::Udp);
            run(&mut g, &mut p, SimTime::ZERO, &mut events);
        }
        assert_eq!(g.drain_logs().len(), 5);
        assert_eq!(g.drain_logs().len(), 0);
    }
}
