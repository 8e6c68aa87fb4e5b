//! Ingress filtering's placement, named for the fluid engine.
//!
//! The fluid engine (`dtcs_netsim::fluid`) never carries attack traffic —
//! an attack-class demand always runs as packets — so a defence has no
//! rate to police there: [`crate::ingress::deploy_ingress`] is the whole
//! of ingress filtering under either engine.

use dtcs_netsim::{NodeId, Simulator};

use crate::deploy::{choose_nodes, Placement};

/// The nodes [`crate::ingress::deploy_ingress`] would police at the same
/// `fraction`, `placement` and `seed`; installs nothing.
///
/// A placement-only shim: it exists because the ledger under `benchmark/`
/// still calls it, and ROADMAP item 1 deletes it together with that call.
pub fn deploy_fluid_ingress(
    sim: &mut Simulator,
    fraction: f64,
    placement: Placement,
    seed: u64,
) -> Vec<NodeId> {
    choose_nodes(&sim.topo, fraction, placement, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtcs_netsim::Topology;

    #[test]
    fn deploy_matches_packet_side_placement() {
        let topo = Topology::barabasi_albert(100, 2, 0.1, 3);
        let mut sim = Simulator::new(topo, 1);
        let fluid = deploy_fluid_ingress(&mut sim, 0.25, Placement::TopDegree, 5);
        let packet = choose_nodes(&sim.topo, 0.25, Placement::TopDegree, 5);
        assert_eq!(fluid, packet, "the shim names the packet side's nodes");
    }
}
