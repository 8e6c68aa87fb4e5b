//! A user holds one goal: its service deployed from registration until it
//! withdraws, nothing after. Each step sends what its record still lacks,
//! and a leg that gives up steps again one retry budget later under a
//! fresh transaction. So an owner cut from the TCSP for longer than a
//! budget registers and deploys once the cut heals, and a withdrawal asked
//! for before anything was deployed is never overtaken by a deploy.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use dtcs_control::{
    partition_by_provider, CatalogService, ControlPlane, DeployScope, InternetNumberAuthority,
    RetryPolicy, UserHandle, UserId,
};
use dtcs_netsim::{
    CpFlightRecorder, CpOutcome, CpTraceEvent, FaultConfig, FaultPlane, Partition, Prefix,
    SimDuration, SimTime, Simulator, Topology,
};

/// [`dtcs_control::CpMsg::kind_id`] of a `RegisterRequest`.
const REGISTER_REQUEST: u8 = 1;
/// [`dtcs_control::CpMsg::kind_id`] of a `DeployRequest`.
const DEPLOY_REQUEST: u8 = 5;

/// One user's run, finished.
struct Run {
    cp: ControlPlane,
    nodes: usize,
    record: UserHandle,
    user: UserId,
    rec: Arc<Mutex<CpFlightRecorder>>,
}

impl Run {
    /// Terminals traced per `(origin, txn)`.
    fn terminals(&self) -> BTreeMap<(u64, u64), Vec<CpOutcome>> {
        let mut terminals: BTreeMap<_, Vec<_>> = BTreeMap::new();
        for e in self.rec.lock().unwrap().events() {
            if let CpTraceEvent::Terminal {
                origin,
                txn,
                outcome,
                ..
            } = e
            {
                terminals.entry((*origin, *txn)).or_default().push(*outcome);
            }
        }
        terminals
    }

    /// `(send instant, txn)` of every message of `kind` the user sent.
    fn sends(&self, kind: u8) -> Vec<(u64, u64)> {
        let rec = self.rec.lock().unwrap();
        let sent = rec.events().filter_map(|e| match e {
            CpTraceEvent::Send {
                t, meta: Some(m), ..
            } if m.origin == self.user.0 && m.kind == kind => Some((*t, m.txn)),
            _ => None,
        });
        sent.collect()
    }

    /// The user's transaction `n`: registration 1, first deploy 2.
    fn txn(&self, n: u64) -> (u64, u64) {
        (self.user.0, self.user.0 << 16 | n)
    }
}

/// One user registers at 100 ms and deploys `AntiSpoofing` everywhere
/// `deploy_delay` after its certificate arrives, withdrawing at
/// `withdraw_at` if given, while the channel between it and the TCSP is
/// cut both ways from `cut.0` until `cut.1`. Runs until `end`.
fn run(
    deploy_delay: SimDuration,
    withdraw_at: Option<SimTime>,
    cut: (SimTime, SimTime),
    end: SimTime,
) -> Run {
    let topo = Topology::transit_stub_multihomed(3, 5, 0.2, 7);
    let mut sim = Simulator::new(topo, 3);
    let user_node = sim.topo.stub_nodes()[0];
    let prefix = Prefix::of_node(user_node);
    let mut authority = InternetNumberAuthority::new();
    // `ControlPlane::add_user*` hands out this id first.
    authority.allocate(prefix, UserId(0xAA01));
    let isps = partition_by_provider(&sim);
    let transit = sim.topo.transit_nodes();
    let tcsp_node = transit[0];
    let mut cp = ControlPlane::install(&mut sim, authority, 0x5EC, tcsp_node, transit[1], isps);
    let (claim, service, scope) = (
        vec![prefix],
        CatalogService::AntiSpoofing,
        DeployScope::AllManaged,
    );
    let register_at = SimTime::from_millis(100);
    let delay = |a: dtcs_control::UserAgent| a.with_deploy_delay(deploy_delay);
    let (user, record) = match withdraw_at {
        Some(at) => cp.add_user_withdrawing(
            &mut sim,
            user_node,
            claim,
            service,
            scope,
            register_at,
            at,
            false,
            delay,
        ),
        None => cp.add_user_with(
            &mut sim,
            user_node,
            claim,
            service,
            scope,
            register_at,
            false,
            delay,
        ),
    };
    let (from, until) = cut;
    let partitions = [(user_node, tcsp_node), (tcsp_node, user_node)].map(|(src, dst)| Partition {
        src: vec![src],
        dst: vec![dst],
        from,
        until,
    });
    sim.install_fault_plane(FaultPlane::new(FaultConfig {
        seed: 1,
        drop_prob: 0.0,
        dup_prob: 0.0,
        jitter_max: SimDuration::ZERO,
        outages: Vec::new(),
        partitions: partitions.to_vec(),
    }));
    let rec = Arc::new(Mutex::new(CpFlightRecorder::new(1 << 16)));
    sim.set_cp_trace_sink(Box::new(rec.clone()), 1);
    sim.run_until(end);
    sim.take_cp_trace_sink();
    assert_eq!(rec.lock().unwrap().evicted(), 0);
    Run {
        nodes: sim.topo.n(),
        cp,
        record,
        user,
        rec,
    }
}

/// The registration is cut for a second more than its retry budget: its
/// leg gives up, the user registers again under a fresh transaction one
/// budget later, and deploys on every device.
#[test]
fn a_registration_cut_past_its_budget_registers_and_deploys_after_the_heal() {
    let heal =
        SimTime::from_millis(100) + RetryPolicy::default().budget() + SimDuration::from_secs(1);
    let run = run(
        SimDuration::ZERO,
        None,
        (SimTime::ZERO, heal),
        SimTime::from_secs(40),
    );
    let r = run.record.lock();
    assert!(r.registered_at.is_some_and(|t| t > heal), "{r:?}");
    assert!(r.deploy_confirmed_at.is_some(), "{r:?}");
    drop(r);
    assert_eq!(run.cp.devices_configured(), run.nodes);
    let registrations = run.sends(REGISTER_REQUEST);
    assert!(registrations.iter().any(|&(_, txn)| txn != run.txn(1).1));
    let terminals = run.terminals();
    assert_eq!(terminals[&run.txn(1)], [CpOutcome::GaveUp]);
    assert!(terminals.values().all(|t| t.len() == 1), "{terminals:?}");
}

/// The same for the deployment: the certificate arrives before the cut,
/// the deploy goes out into it and gives up, and the deploy sent one
/// budget later confirms.
#[test]
fn a_deployment_cut_past_its_budget_deploys_after_the_heal() {
    let (cut, delay) = (SimTime::from_secs(1), SimDuration::from_secs(2));
    let heal = cut + delay + RetryPolicy::default().budget() + SimDuration::from_secs(1);
    let run = run(delay, None, (cut, heal), SimTime::from_secs(40));
    let r = run.record.lock();
    assert!(r.registered_at.is_some_and(|t| t < cut), "{r:?}");
    assert!(r.deploy_confirmed_at.is_some_and(|t| t > heal), "{r:?}");
    drop(r);
    assert_eq!(run.cp.devices_configured(), run.nodes);
    let terminals = run.terminals();
    assert_eq!(terminals[&run.txn(2)], [CpOutcome::GaveUp]);
    assert!(terminals.values().all(|t| t.len() == 1), "{terminals:?}");
}

/// An owner that withdraws before any deploy went out, before its
/// certificate arrived or while it waited out the deploy delay, never
/// deploys: nothing stands at the end and no deploy request is sent after
/// the withdrawal.
#[test]
fn a_withdrawal_before_any_deploy_is_never_overtaken_by_one() {
    let never = (SimTime::ZERO, SimTime::ZERO);
    for (delay, withdraw_at) in [
        // The certificate is still on its way back.
        (SimDuration::ZERO, SimTime::from_millis(101)),
        // The certificate arrived; the deploy waits out its delay.
        (SimDuration::from_secs(1), SimTime::from_millis(600)),
    ] {
        let run = run(delay, Some(withdraw_at), never, SimTime::from_secs(20));
        let r = run.record.lock();
        assert!(r.registered_at.is_some(), "{r:?}");
        assert!(r.deploy_confirmed_at.is_none(), "{r:?}");
        drop(r);
        let late: Vec<_> = run
            .sends(DEPLOY_REQUEST)
            .into_iter()
            .filter(|&(t, _)| t >= withdraw_at.as_nanos())
            .collect();
        assert_eq!(late, [], "deployed after withdrawing at {withdraw_at:?}");
        assert_eq!(run.cp.total_rules(), 0, "withdrawn at {withdraw_at:?}");
    }
}
