//! Deployment placement strategies.
//!
//! Partial deployment is central to the paper's argument: ingress filtering
//! "was only partially applied worldwide" (Sec. 3.2), and the TCS is
//! explicitly designed for incremental roll-out (Sec. 5.1). These helpers
//! choose which ASes host a defense, so experiments can sweep coverage and
//! compare placement policies (DESIGN.md §5 ablation).

use dtcs_netsim::rng::{child_seed, seeded};
use dtcs_netsim::{NodeId, Topology};

/// How deployed nodes are selected.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Placement {
    /// Uniformly random ASes.
    Random,
    /// Highest-degree ASes first ("large ISPs sign up first").
    TopDegree,
}

/// Pick `ceil(fraction * n)` nodes according to a placement policy.
pub fn choose_nodes(
    topo: &Topology,
    fraction: f64,
    placement: Placement,
    seed: u64,
) -> Vec<NodeId> {
    let n = topo.n();
    let k = ((n as f64 * fraction.clamp(0.0, 1.0)).ceil() as usize).min(n);
    if k == 0 {
        return Vec::new();
    }
    match placement {
        Placement::Random => {
            let mut ids: Vec<NodeId> = (0..n).map(NodeId).collect();
            let mut rng = seeded(child_seed(seed, 0xDE91));
            rng.shuffle(&mut ids);
            ids.truncate(k);
            ids
        }
        Placement::TopDegree => topo.top_degree(k),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_sizing() {
        let t = Topology::barabasi_albert(100, 2, 0.1, 3);
        assert_eq!(choose_nodes(&t, 0.0, Placement::Random, 1).len(), 0);
        assert_eq!(choose_nodes(&t, 0.2, Placement::Random, 1).len(), 20);
        assert_eq!(choose_nodes(&t, 1.0, Placement::TopDegree, 1).len(), 100);
    }

    #[test]
    fn random_is_seeded() {
        let t = Topology::barabasi_albert(100, 2, 0.1, 3);
        let a = choose_nodes(&t, 0.3, Placement::Random, 9);
        let b = choose_nodes(&t, 0.3, Placement::Random, 9);
        let c = choose_nodes(&t, 0.3, Placement::Random, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn top_degree_prefers_hubs() {
        let t = Topology::barabasi_albert(200, 2, 0.1, 5);
        let top = choose_nodes(&t, 0.05, Placement::TopDegree, 1);
        let mean = t.mean_degree();
        for id in top {
            assert!(t.nodes[id.0].degree() as f64 >= mean);
        }
    }
}
