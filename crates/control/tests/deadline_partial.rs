//! The TCSP's deploy deadline: when an ISP stays silent past
//! `deploy_deadline` — shorter here than the retry budget, so the deadline
//! and not a give-up ends the wait — the TCSP stops chasing it and
//! confirms partially with what it has.

use dtcs_control::{
    partition_by_provider, AuthorityAgent, CatalogService, CpStatsHandle, DeployScope,
    InternetNumberAuthority, NmsAgent, TcspAgent, UserAgent, UserId, TOKEN_REGISTER,
};
use dtcs_device::AdaptiveDevice;
use dtcs_netsim::{
    FaultConfig, FaultPlane, Partition, Prefix, SimDuration, SimTime, Simulator, Topology,
};

const DEADLINE: SimDuration = SimDuration::from_secs(2);

/// Register and deploy as `user` while the TCSP cannot reach one of its
/// three ISPs, and check the partial confirmation the deadline produces.
fn deadline_confirms_partially(user: UserId) {
    let topo = Topology::transit_stub_multihomed(3, 5, 0.2, 7);
    let mut sim = Simulator::new(topo, 3);
    let user_node = sim.topo.stub_nodes()[0];
    let prefix = Prefix::of_node(user_node);
    let mut authority = InternetNumberAuthority::new();
    authority.allocate(prefix, user);
    let isps = partition_by_provider(&sim);
    let transit = sim.topo.transit_nodes();
    let (tcsp_node, authority_node, silent_nms) = (transit[0], transit[1], transit[2]);
    assert!(isps.iter().any(|isp| isp.nms_node == silent_nms));

    let cp = CpStatsHandle::default();
    sim.add_agent(authority_node, Box::new(AuthorityAgent::new(authority)));
    let mut tcsp = TcspAgent::new(0x5EC, authority_node, isps.clone());
    tcsp.deploy_deadline = DEADLINE;
    sim.add_agent(tcsp_node, Box::new(tcsp.with_cp_stats(cp.clone())));
    for isp in &isps {
        let nms = NmsAgent::new(0x5EC, isp.managed.clone(), Vec::new()).with_cp_stats(cp.clone());
        sim.add_agent(isp.nms_node, Box::new(nms));
        for &node in &isp.managed {
            let (device, _handle) = AdaptiveDevice::new(node, Some(isp.nms_node));
            sim.add_agent(node, Box::new(device));
        }
    }
    let (agent, record) = UserAgent::new(
        user,
        vec![prefix],
        tcsp_node,
        CatalogService::AntiSpoofing,
        DeployScope::AllManaged,
        SimTime::from_millis(100),
    );
    let idx = sim.add_agent(user_node, Box::new(agent.with_cp_stats(cp.clone())));
    sim.schedule_agent_timer(user_node, idx, SimTime::from_millis(100), TOKEN_REGISTER);
    sim.install_fault_plane(FaultPlane::new(FaultConfig {
        seed: 1,
        drop_prob: 0.0,
        dup_prob: 0.0,
        jitter_max: SimDuration::ZERO,
        outages: Vec::new(),
        partitions: vec![Partition {
            src: vec![tcsp_node],
            dst: vec![silent_nms],
            from: SimTime::ZERO,
            until: SimTime::MAX,
        }],
    }));
    sim.run_until(SimTime::from_secs(30));

    let r = record.lock();
    let registered = r.registered_at.expect("registration completes");
    let confirmed = r.deploy_confirmed_at.expect("deployment confirms");
    // The other two ISPs ack within milliseconds; the confirmation waits
    // for the deadline and no longer. A give-up on the silent leg would
    // come after the whole retry budget, 7.75 s at the least.
    let waited = confirmed.saturating_since(registered);
    assert!(
        waited >= DEADLINE && waited < DEADLINE + SimDuration::from_secs(1),
        "the deadline, not the retry budget, ends the wait: {waited:?}"
    );
    assert_eq!(r.isps_missing, 1, "{r:?}");
    assert!(r.devices_configured > 0, "{r:?}");
    let cp = cp.lock();
    assert_eq!(cp.partial_confirms, 1);
    assert_eq!(
        cp.give_ups, 0,
        "the deadline also stops the silent leg's retransmits: {cp:?}"
    );
}

#[test]
fn silent_isp_is_confirmed_missing_at_the_deadline() {
    deadline_confirms_partially(UserId(7));
}

/// A user id above 2^32 puts transaction-id bits where a timer token keeps
/// its family; the deadline is armed by slot, not by txn, and still fires.
#[test]
fn deadline_fires_for_user_ids_above_32_bits() {
    deadline_confirms_partially(UserId(1 << 33));
}

#[test]
#[should_panic(expected = "leaves no room")]
fn user_ids_that_would_lose_bits_are_refused() {
    UserAgent::new(
        UserId(1 << 48),
        Vec::new(),
        dtcs_netsim::NodeId(0),
        CatalogService::AntiSpoofing,
        DeployScope::AllManaged,
        SimTime::ZERO,
    );
}
