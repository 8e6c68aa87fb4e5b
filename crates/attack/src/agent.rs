//! DDoS agent (zombie) application.
//!
//! An agent is a compromised host (Fig. 1) that, once triggered — either at
//! a recruitment time from the SI model or by a command packet relayed
//! through a master — emits attack traffic at a configured rate until its
//! stop time. Three firing modes cover the paper's attack taxonomy
//! (Sec. 2): direct flooding (optionally spoofed), reflector bouncing
//! (spoofed SYN/DNS/ICMP requests carrying the victim's source address),
//! and protocol misuse (forged TCP RSTs tearing down third-party
//! connections).

use dtcs_netsim::{
    Addr, App, AppApi, Disposition, Packet, PacketBuilder, Proto, SimDuration, SimTime,
    TrafficClass,
};

/// Payload tag of the "start attacking" command (Fig. 1 control packets).
pub const CMD_START: u64 = 0xA77A_C000_0000_0001;
/// Payload tag of the "stop attacking" command.
pub const CMD_STOP: u64 = 0xA77A_C000_0000_0002;

/// How source addresses are forged in direct mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpoofMode {
    /// Honest source (agent's own address).
    None,
    /// Uniformly random 32-bit source per packet.
    Random,
    /// Fixed forged source.
    Fixed(Addr),
}

/// What the agent sends when active.
#[derive(Clone, Debug)]
pub enum AgentMode {
    /// UDP flood straight at the victim.
    Direct {
        /// Target address.
        victim: Addr,
        /// Source forging policy.
        spoof: SpoofMode,
    },
    /// Reflector attack: requests to innocent servers with the victim's
    /// address as the spoofed source (Fig. 1).
    Reflector {
        /// Address written into the source field (the victim).
        victim: Addr,
        /// Reflector pool; one is drawn per packet.
        reflectors: Vec<Addr>,
        /// Request protocol (`TcpSyn`, `DnsQuery` or `IcmpEcho`).
        proto: Proto,
    },
    /// Protocol misuse: forged RSTs against `(client, server)` pairs
    /// (Sec. 2.1 "sending … TCP reset packets").
    MisuseRst {
        /// Connections to tear down; the RST claims `server` as source and
        /// is delivered to `client`.
        connections: Vec<(Addr, Addr)>,
    },
}

/// When the agent starts firing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AgentTrigger {
    /// At an absolute time (recruitment time from the SI model).
    AtTime(SimTime),
    /// On receiving a [`CMD_START`] control packet from a master.
    OnCommand,
}

const TICK: u64 = 1;

/// A DDoS agent bound to one compromised host address.
pub struct AgentApp {
    /// Firing mode.
    pub mode: AgentMode,
    /// Activation trigger.
    pub trigger: AgentTrigger,
    /// Attack packets per second.
    pub rate_pps: f64,
    /// Attack packet size in bytes.
    pub pkt_size: u32,
    /// Stop emitting at this time (`SimTime::MAX` = never).
    pub stop_at: SimTime,
    active: bool,
    seq: u64,
}

impl AgentApp {
    /// New agent; inert until its trigger.
    pub fn new(mode: AgentMode, trigger: AgentTrigger, rate_pps: f64, pkt_size: u32) -> AgentApp {
        AgentApp {
            mode,
            trigger,
            rate_pps: rate_pps.max(0.001),
            pkt_size,
            stop_at: SimTime::MAX,
            active: false,
            seq: 0,
        }
    }

    /// Builder: stop time.
    pub fn until(mut self, stop_at: SimTime) -> AgentApp {
        self.stop_at = stop_at;
        self
    }

    fn interval(&self, api: &mut AppApi<'_>) -> SimDuration {
        // Exponential-ish jitter (±50%) desynchronises agents while the
        // mean rate stays `rate_pps`.
        let base = 1.0 / self.rate_pps;
        let jitter: f64 = api.rng.gen_range(0.5..1.5);
        SimDuration::from_secs_f64(base * jitter)
    }

    fn fire(&mut self, api: &mut AppApi<'_>) {
        self.seq += 1;
        let seq = self.seq;
        match &self.mode {
            AgentMode::Direct { victim, spoof } => {
                let src = match spoof {
                    SpoofMode::None => api.self_addr,
                    SpoofMode::Random => Addr(api.rng.gen()),
                    SpoofMode::Fixed(a) => *a,
                };
                let b = PacketBuilder::new(src, *victim, Proto::Udp, TrafficClass::AttackDirect)
                    .size(self.pkt_size)
                    .flow(seq)
                    .tag(seq);
                api.send(b);
            }
            AgentMode::Reflector {
                victim,
                reflectors,
                proto,
            } => {
                if let Some(&refl) = api.rng.choose(reflectors) {
                    // Spoofed source: the victim. The reflector's reply
                    // will therefore flood the victim.
                    let b = PacketBuilder::new(*victim, refl, *proto, TrafficClass::AttackDirect)
                        .size(self.pkt_size)
                        .flow(seq)
                        .tag(seq);
                    api.send(b);
                }
            }
            AgentMode::MisuseRst { connections } => {
                if let Some(&(client, server)) = api.rng.choose(connections) {
                    let b = PacketBuilder::new(
                        server, // forged: pretends to be the server
                        client,
                        Proto::TcpRst,
                        TrafficClass::AttackDirect,
                    )
                    .size(40)
                    .flow(seq);
                    api.send(b);
                }
            }
        }
    }
}

impl App for AgentApp {
    fn on_start(&mut self, api: &mut AppApi<'_>) {
        if let AgentTrigger::AtTime(t) = self.trigger {
            let delay = t.saturating_since(api.now);
            api.set_timer(delay, TICK);
        }
    }

    fn on_packet(&mut self, api: &mut AppApi<'_>, pkt: &Packet) -> Disposition {
        if self.trigger == AgentTrigger::OnCommand && pkt.proto == Proto::Control {
            match pkt.payload_tag {
                CMD_START if !self.active => {
                    self.active = true;
                    api.set_timer(SimDuration::ZERO, TICK);
                }
                CMD_STOP => {
                    self.active = false;
                }
                _ => {}
            }
        }
        Disposition::Consumed
    }

    fn on_timer(&mut self, api: &mut AppApi<'_>, token: u64) {
        if token != TICK {
            return;
        }
        match self.trigger {
            AgentTrigger::AtTime(_) => {
                self.active = true;
            }
            AgentTrigger::OnCommand => {
                if !self.active {
                    return;
                }
            }
        }
        if api.now >= self.stop_at {
            self.active = false;
            return;
        }
        self.fire(api);
        let next = self.interval(api);
        api.set_timer(next, TICK);
    }
}

/// Master host (Fig. 1): relays attacker commands to its agent group.
pub struct MasterApp {
    /// Agents this master controls.
    pub agents: Vec<Addr>,
}

impl App for MasterApp {
    fn on_packet(&mut self, api: &mut AppApi<'_>, pkt: &Packet) -> Disposition {
        if pkt.proto == Proto::Control
            && (pkt.payload_tag == CMD_START || pkt.payload_tag == CMD_STOP)
        {
            for &agent in &self.agents {
                let b = PacketBuilder::new(
                    api.self_addr,
                    agent,
                    Proto::Control,
                    TrafficClass::AttackControl,
                )
                .size(64)
                .tag(pkt.payload_tag);
                api.send(b);
            }
        }
        Disposition::Consumed
    }
}

/// The attacker: sends start/stop commands to the master tier at
/// configured instants (the top of the amplifying hierarchy in Fig. 1).
pub struct AttackerApp {
    /// Master addresses.
    pub masters: Vec<Addr>,
    /// When to issue [`CMD_START`].
    pub start_at: SimTime,
    /// When to issue [`CMD_STOP`] (`SimTime::MAX` = never).
    pub stop_at: SimTime,
}

const SEND_START: u64 = 10;
const SEND_STOP: u64 = 11;

impl App for AttackerApp {
    fn on_start(&mut self, api: &mut AppApi<'_>) {
        api.set_timer(self.start_at.saturating_since(api.now), SEND_START);
        if self.stop_at != SimTime::MAX {
            api.set_timer(self.stop_at.saturating_since(api.now), SEND_STOP);
        }
    }

    fn on_packet(&mut self, _api: &mut AppApi<'_>, _pkt: &Packet) -> Disposition {
        Disposition::Consumed
    }

    fn on_timer(&mut self, api: &mut AppApi<'_>, token: u64) {
        let cmd = match token {
            SEND_START => CMD_START,
            SEND_STOP => CMD_STOP,
            _ => return,
        };
        for &m in &self.masters {
            let b = PacketBuilder::new(
                api.self_addr,
                m,
                Proto::Control,
                TrafficClass::AttackControl,
            )
            .size(64)
            .tag(cmd);
            api.send(b);
        }
    }
}
