//! Nodes: autonomous systems / sites in the simulated internetwork.

/// Index of a node in the topology.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub usize);

/// Index of a link in the topology.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(pub usize);

/// Coarse role of a node in the AS hierarchy.
///
/// The traffic control service cares about *where* in the hierarchy a device
/// sits (Sec. 4.2 of the paper: anti-spoofing is only sound at the customer
/// edge, not on transit paths), so topology generators label each node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeRole {
    /// Backbone / transit provider carrying third-party traffic.
    Transit,
    /// Peripheral (stub) AS: originates and sinks traffic for its own
    /// customers only.
    Stub,
}

/// Static description of one node.
#[derive(Clone, Debug)]
pub struct Node {
    /// This node's id (equal to its index in `Topology::nodes`).
    pub id: NodeId,
    /// Role in the hierarchy.
    pub role: NodeRole,
    /// Links incident to this node.
    pub links: Vec<LinkId>,
}

impl Node {
    /// Degree in the AS graph.
    pub fn degree(&self) -> usize {
        self.links.len()
    }
}
