//! The simulated switch: control-plane agent + data-plane install pipeline.
//!
//! A [`SimSwitch`] is a passive state machine; the [`crate::Network`] event
//! loop drives it and translates returned [`Effect`]s into scheduled events.
//! `monocle_net::sim::SwitchSim` drives the same model over TCP, one switch
//! per datapath id. The split mirrors a real OpenFlow switch:
//!
//! * the **agent** (switch CPU) decodes controller messages and processes
//!   them serially, each message type with its profile-derived cost — this
//!   is where the Fig. 6/7 contention between FlowMods, PacketOuts and
//!   PacketIns arises;
//! * the **install pipeline** commits processed FlowMods into the data
//!   plane one at a time (TCAM update latency); truthful switches answer
//!   barriers only after every prior commit, premature-ack switches answer
//!   as soon as the agent has seen the barrier (\[16\]); Pica8-style switches
//!   additionally commit pending rules highest-priority-first instead of in
//!   arrival order;
//! * the **data plane** is a [`FlowTable`] processing real frames, from
//!   links or from a `PacketOut` that outputs to `PORT_TABLE` (submitted
//!   on the PacketOut's `in_port`, as OpenFlow 1.0 specifies).

use crate::profile::SwitchProfile;
use crate::SimTime;
use monocle_openflow::flowmatch::{headervec_to_packet, packet_to_headervec};
use monocle_openflow::messages::PORT_TABLE;
use monocle_openflow::{action, FlowMod, FlowTable, HeaderVec, OfMessage, PortNo, RuleId};
use monocle_packet::{parse_packet, validate_packet};

/// Effects a switch asks the network to carry out.
#[derive(Debug)]
pub enum Effect {
    /// Deliver a message to the controller at `at` (channel latency is added
    /// by the network).
    ToController {
        /// The message.
        msg: OfMessage,
        /// Transaction id to echo.
        xid: u32,
        /// Emission time.
        at: SimTime,
    },
    /// Emit a frame on a data-plane port at `at`.
    EmitFrame {
        /// Output port.
        port: PortNo,
        /// Raw frame bytes.
        frame: Vec<u8>,
        /// Emission time.
        at: SimTime,
    },
    /// Re-invoke [`SimSwitch::agent_step`] at the given time.
    WakeAgentAt(SimTime),
    /// Invoke [`SimSwitch::install_tick`] at the given time.
    InstallTickAt(SimTime),
}

/// Counters exposed for the overhead experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchStats {
    /// FlowMods fully processed by the agent.
    pub flowmods_processed: u64,
    /// FlowMods committed to the data plane.
    pub installs_committed: u64,
    /// PacketOuts executed.
    pub packetouts: u64,
    /// PacketIns delivered toward the controller.
    pub packetins_sent: u64,
    /// PacketIns dropped due to queue overflow.
    pub packetins_dropped: u64,
    /// Data-plane frames processed.
    pub frames_processed: u64,
    /// Frames dropped by validity checks or table miss.
    pub frames_dropped: u64,
}

#[derive(Debug)]
struct PendingInstall {
    op: u64,
    flow_mod: FlowMod,
}

#[derive(Debug)]
struct PendingBarrier {
    xid: u32,
    /// All ops with id < boundary must commit before the reply.
    boundary: u64,
}

/// One simulated OpenFlow switch.
#[derive(Debug)]
pub struct SimSwitch {
    /// Network-wide switch index.
    pub id: usize,
    /// OpenFlow datapath id.
    pub datapath_id: u64,
    profile: SwitchProfile,
    ports: Vec<PortNo>,
    dataplane: FlowTable,
    // Agent state.
    inbox: std::collections::VecDeque<(OfMessage, u32)>,
    agent_busy_until: SimTime,
    // Install pipeline.
    pending: Vec<PendingInstall>,
    pending_ops: std::collections::BTreeSet<u64>,
    next_op: u64,
    install_tick_scheduled: bool,
    barriers: Vec<PendingBarrier>,
    // PacketIn path.
    pi_busy_until: SimTime,
    /// Fault injection: number of upcoming installs to silently swallow.
    swallow_installs: u32,
    /// Counters.
    pub stats: SwitchStats,
}

impl SimSwitch {
    /// Creates a switch with the given ports.
    pub fn new(id: usize, profile: SwitchProfile, ports: Vec<PortNo>) -> SimSwitch {
        SimSwitch {
            id,
            datapath_id: 0x6d6e_0000 + id as u64,
            profile,
            ports,
            dataplane: FlowTable::new(),
            inbox: std::collections::VecDeque::new(),
            agent_busy_until: 0,
            pending: Vec::new(),
            pending_ops: std::collections::BTreeSet::new(),
            next_op: 0,
            install_tick_scheduled: false,
            barriers: Vec::new(),
            pi_busy_until: 0,
            swallow_installs: 0,
            stats: SwitchStats::default(),
        }
    }

    /// The behavior profile.
    pub fn profile(&self) -> &SwitchProfile {
        &self.profile
    }

    /// Read access to the installed data plane.
    pub fn dataplane(&self) -> &FlowTable {
        &self.dataplane
    }

    /// Number of processed-but-uncommitted FlowMods.
    pub fn pending_installs(&self) -> usize {
        self.pending.len()
    }

    /// Fault injection: silently remove a rule from the data plane (§8.1.1
    /// failure model — control plane still believes the rule exists).
    pub fn fail_rule(&mut self, id: RuleId) -> bool {
        self.dataplane.remove_by_id(id).is_some()
    }

    /// Fault injection: the next `n` FlowMods are acknowledged and consumed
    /// by the install pipeline but never reach the data plane (the
    /// swallowed-update failure that motivates §4.3's reliable drop-rule
    /// monitoring).
    pub fn swallow_next_installs(&mut self, n: u32) {
        self.swallow_installs += n;
    }

    /// Direct data-plane mutation for test setup (bypasses the agent).
    pub fn dataplane_mut(&mut self) -> &mut FlowTable {
        &mut self.dataplane
    }

    /// Queues a decoded controller message; returns effects (the agent wake).
    pub fn enqueue_ctrl(&mut self, now: SimTime, msg: OfMessage, xid: u32) -> Vec<Effect> {
        self.inbox.push_back((msg, xid));
        vec![Effect::WakeAgentAt(now.max(self.agent_busy_until))]
    }

    fn dataplane_is_flat_priority(&self) -> bool {
        let rules = self.dataplane.rules();
        match rules.first() {
            None => true,
            Some(first) => rules.iter().all(|r| r.priority == first.priority),
        }
    }

    /// Processes the next inbox message if the agent is free at `now`.
    pub fn agent_step(&mut self, now: SimTime) -> Vec<Effect> {
        let mut effects = Vec::new();
        if now < self.agent_busy_until {
            // Early wake (e.g. PacketIn interference pushed the busy horizon
            // out after this wake was scheduled): re-arm at the new horizon.
            if !self.inbox.is_empty() {
                effects.push(Effect::WakeAgentAt(self.agent_busy_until));
            }
            return effects;
        }
        let Some((msg, xid)) = self.inbox.pop_front() else {
            return effects;
        };
        let start = now;
        let finish;
        match msg {
            OfMessage::FlowMod(fm) => {
                let cost = self
                    .profile
                    .flowmod_cost_for(self.dataplane_is_flat_priority());
                finish = start + cost;
                self.stats.flowmods_processed += 1;
                let op = self.next_op;
                self.next_op += 1;
                self.pending.push(PendingInstall { op, flow_mod: fm });
                self.pending_ops.insert(op);
                if !self.install_tick_scheduled {
                    self.install_tick_scheduled = true;
                    effects.push(Effect::InstallTickAt(
                        finish + self.profile.dataplane_install_time,
                    ));
                }
            }
            OfMessage::BarrierRequest => {
                finish = start + crate::time::us(10);
                if self.profile.premature_ack || self.pending_ops.is_empty() {
                    // Premature (or genuinely nothing outstanding): reply now.
                    effects.push(Effect::ToController {
                        msg: OfMessage::BarrierReply,
                        xid,
                        at: finish,
                    });
                } else {
                    self.barriers.push(PendingBarrier {
                        xid,
                        boundary: self.next_op,
                    });
                }
            }
            OfMessage::PacketOut {
                in_port,
                actions,
                data,
            } => {
                finish = start + self.profile.packetout_cost;
                self.stats.packetouts += 1;
                // Apply the action list to the frame (probes use a single
                // Output; rewrites are honored for completeness). An output
                // to `PORT_TABLE` submits the frame to this switch's own
                // data plane as if it had arrived on the PacketOut's
                // `in_port` (OpenFlow 1.0); it sees the table as it stands
                // when the agent takes the PacketOut.
                match parse_packet(&data) {
                    Ok((fields, payload)) => {
                        let hdr = packet_to_headervec(0, &fields);
                        if let Ok(fwd) = action::Forwarding::compile(&actions) {
                            for leg in &fwd.legs {
                                let out_hdr = leg.rewrite.apply(&hdr);
                                let Some(frame) = reframe(&data, &hdr, &out_hdr, &payload) else {
                                    continue;
                                };
                                if leg.port == PORT_TABLE {
                                    effects.extend(self.handle_frame(finish, in_port, &frame, 0));
                                } else {
                                    effects.push(Effect::EmitFrame {
                                        port: leg.port,
                                        frame,
                                        at: finish,
                                    });
                                }
                            }
                        }
                    }
                    Err(_) => {
                        self.stats.frames_dropped += 1;
                    }
                }
            }
            OfMessage::EchoRequest(data) => {
                finish = start + crate::time::us(5);
                effects.push(Effect::ToController {
                    msg: OfMessage::EchoReply(data),
                    xid,
                    at: finish,
                });
            }
            OfMessage::FeaturesRequest => {
                finish = start + crate::time::us(5);
                effects.push(Effect::ToController {
                    msg: OfMessage::FeaturesReply {
                        datapath_id: self.datapath_id,
                        n_tables: 1,
                        ports: self.ports.clone(),
                    },
                    xid,
                    at: finish,
                });
            }
            OfMessage::Hello => {
                finish = start + crate::time::us(1);
            }
            other => {
                // Controller-bound messages arriving at a switch are a
                // harness bug.
                panic!("switch {} received unexpected {}", self.id, other.kind());
            }
        }
        // `max`: a PacketOut run through the data plane may have stalled the
        // agent past `finish` (PacketIn interference).
        self.agent_busy_until = self.agent_busy_until.max(finish);
        if !self.inbox.is_empty() {
            effects.push(Effect::WakeAgentAt(finish));
        }
        effects
    }

    /// Index in `pending` of the install the next tick commits.
    fn next_install(&self) -> usize {
        if !self.profile.reorders_installs {
            return 0;
        }
        // Pica8: highest priority first (\[16\]); ties by arrival.
        let mut best = 0;
        for i in 1..self.pending.len() {
            let (bp, bo) = (self.pending[best].flow_mod.priority, self.pending[best].op);
            let (ip, io) = (self.pending[i].flow_mod.priority, self.pending[i].op);
            if (ip, std::cmp::Reverse(io)) > (bp, std::cmp::Reverse(bo)) {
                best = i;
            }
        }
        best
    }

    /// The FlowMod the next [`SimSwitch::install_tick`] commits, if any.
    pub fn next_commit(&self) -> Option<&FlowMod> {
        self.pending.get(self.next_install()).map(|p| &p.flow_mod)
    }

    /// Commits one pending install (ordering per profile) and reschedules.
    pub fn install_tick(&mut self, now: SimTime) -> Vec<Effect> {
        let mut effects = Vec::new();
        self.install_tick_scheduled = false;
        if self.pending.is_empty() {
            return effects;
        }
        let PendingInstall { op, flow_mod } = self.pending.remove(self.next_install());
        if self.swallow_installs > 0 {
            // Swallowed: the pipeline "completes" (barriers fire) but the
            // data plane never changes.
            self.swallow_installs -= 1;
        } else {
            // A malformed flow_mod is simply not installed (the agent would
            // have raised an OF error; Monocle's tracker mirrors table state
            // anyway).
            let _ = self.dataplane.apply(&flow_mod);
        }
        self.stats.installs_committed += 1;
        self.pending_ops.remove(&op);
        // Barriers whose boundary is now fully committed get their reply.
        let pending_ops = &self.pending_ops;
        let mut replies = Vec::new();
        self.barriers.retain(|b| {
            let done = pending_ops
                .iter()
                .next()
                .is_none_or(|&lowest| lowest >= b.boundary);
            if done {
                replies.push(b.xid);
            }
            !done
        });
        for xid in replies {
            effects.push(Effect::ToController {
                msg: OfMessage::BarrierReply,
                xid,
                at: now,
            });
        }
        if !self.pending.is_empty() {
            self.install_tick_scheduled = true;
            effects.push(Effect::InstallTickAt(
                now + self.profile.dataplane_install_time,
            ));
        }
        effects
    }

    /// Data-plane processing of a frame arriving on `in_port`.
    ///
    /// `ecmp_salt` seeds the flow-hash used to pick ECMP legs so different
    /// networks can diversify deterministically.
    pub fn handle_frame(
        &mut self,
        now: SimTime,
        in_port: PortNo,
        frame: &[u8],
        ecmp_salt: u64,
    ) -> Vec<Effect> {
        let mut effects = Vec::new();
        self.stats.frames_processed += 1;
        // Pre-lookup validity checks (§5.1).
        if validate_packet(frame).is_err() {
            self.stats.frames_dropped += 1;
            return effects;
        }
        let Ok((fields, payload)) = parse_packet(frame) else {
            self.stats.frames_dropped += 1;
            return effects;
        };
        let hdr = packet_to_headervec(in_port, &fields);
        let ecmp_choice = flow_hash(&hdr, ecmp_salt) as usize;
        let outputs = self.dataplane.process(&hdr, ecmp_choice);
        if outputs.is_empty() {
            self.stats.frames_dropped += 1;
            return effects;
        }
        for (port, out_hdr) in outputs {
            if port == action::PORT_CONTROLLER {
                // PacketIn path with its own capacity.
                let ready = now.max(self.pi_busy_until);
                let queued = (ready - now) / self.profile.packetin_cost.max(1);
                if queued as usize >= self.profile.packetin_queue_cap {
                    self.stats.packetins_dropped += 1;
                    continue;
                }
                let done = ready + self.profile.packetin_cost;
                self.pi_busy_until = done;
                // Interference with the FlowMod/PacketOut CPU (Fig. 7).
                let stall = (self.profile.packetin_cost as f64 * self.profile.packetin_interference)
                    as SimTime;
                self.agent_busy_until = self.agent_busy_until.max(now) + stall;
                if let Some(frame) = reframe(frame, &hdr, &out_hdr, &payload) {
                    self.stats.packetins_sent += 1;
                    effects.push(Effect::ToController {
                        msg: OfMessage::PacketIn {
                            buffer_id: 0xffff_ffff,
                            in_port,
                            reason: monocle_openflow::messages::PacketInReason::Action,
                            data: frame,
                        },
                        xid: 0,
                        at: done,
                    });
                }
            } else if let Some(frame) = reframe(frame, &hdr, &out_hdr, &payload) {
                effects.push(Effect::EmitFrame {
                    port,
                    frame,
                    at: now,
                });
            } else {
                self.stats.frames_dropped += 1;
            }
        }
        effects
    }
}

/// Rebuilds the wire frame after header-space processing: reuses the
/// original bytes when the header is unchanged, otherwise re-crafts from the
/// rewritten abstract header (checksums recomputed).
fn reframe(
    original: &[u8],
    in_hdr: &HeaderVec,
    out_hdr: &HeaderVec,
    payload: &[u8],
) -> Option<Vec<u8>> {
    // in_port bits may differ (metadata); compare wire-visible fields via
    // the abstract packet views.
    let in_fields = headervec_to_packet(in_hdr);
    let out_fields = headervec_to_packet(out_hdr);
    if in_fields == out_fields {
        return Some(original.to_vec());
    }
    monocle_packet::craft_packet(&out_fields, payload).ok()
}

/// Deterministic per-flow hash (FNV-1a over the header words + salt).
fn flow_hash(hdr: &HeaderVec, salt: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ salt;
    for w in hdr.0 {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use monocle_openflow::{Action, Match};
    use monocle_packet::{craft_packet, PacketFields};

    fn mk_switch(profile: SwitchProfile) -> SimSwitch {
        SimSwitch::new(0, profile, vec![1, 2, 3, 4])
    }

    fn flowmod(prio: u16, dst: [u8; 4], port: PortNo) -> OfMessage {
        OfMessage::FlowMod(FlowMod::add(
            prio,
            Match::any().with_nw_dst(dst, 32),
            vec![Action::Output(port)],
        ))
    }

    fn frame(dst: [u8; 4]) -> Vec<u8> {
        craft_packet(
            &PacketFields {
                nw_dst: dst,
                ..Default::default()
            },
            b"test payload",
        )
        .unwrap()
    }

    /// Drives agent/install events locally until quiescent; returns
    /// controller-bound messages with timestamps.
    fn drain(sw: &mut SimSwitch, mut effects: Vec<Effect>) -> Vec<(SimTime, OfMessage)> {
        let mut out = Vec::new();
        let mut queue: Vec<Effect> = Vec::new();
        queue.append(&mut effects);
        // Simple time-ordered processing.
        while !queue.is_empty() {
            // Find earliest actionable effect.
            let mut idx = 0;
            let mut best = SimTime::MAX;
            for (i, e) in queue.iter().enumerate() {
                let t = match e {
                    Effect::WakeAgentAt(t) | Effect::InstallTickAt(t) => *t,
                    Effect::ToController { at, .. } => *at,
                    Effect::EmitFrame { at, .. } => *at,
                };
                if t < best {
                    best = t;
                    idx = i;
                }
            }
            match queue.remove(idx) {
                Effect::WakeAgentAt(t) => queue.extend(sw.agent_step(t)),
                Effect::InstallTickAt(t) => queue.extend(sw.install_tick(t)),
                Effect::ToController { msg, at, .. } => out.push((at, msg)),
                Effect::EmitFrame { .. } => {}
            }
        }
        out
    }

    #[test]
    fn flowmod_reaches_dataplane_after_install_latency() {
        let mut sw = mk_switch(SwitchProfile::ideal());
        let fx = sw.enqueue_ctrl(0, flowmod(5, [10, 0, 0, 1], 2), 1);
        drain(&mut sw, fx);
        assert_eq!(sw.dataplane().len(), 1);
        assert_eq!(sw.stats.flowmods_processed, 1);
        assert_eq!(sw.stats.installs_committed, 1);
        assert_eq!(sw.pending_installs(), 0);
    }

    #[test]
    fn truthful_barrier_waits_for_install() {
        let mut sw = mk_switch(SwitchProfile::dell_s4810());
        let mut fx = sw.enqueue_ctrl(0, flowmod(5, [10, 0, 0, 1], 2), 1);
        fx.extend(sw.enqueue_ctrl(0, OfMessage::BarrierRequest, 2));
        let replies = drain(&mut sw, fx);
        let barrier_at = replies
            .iter()
            .find(|(_, m)| matches!(m, OfMessage::BarrierReply))
            .map(|(t, _)| *t)
            .expect("barrier answered");
        // Must be after flowmod agent cost + dataplane install time.
        // Empty table counts as flat-priority, so the fast FlowMod path
        // applies; the barrier still must wait for the data-plane commit.
        let min = SwitchProfile::dell_s4810().flowmod_cost_for(true)
            + SwitchProfile::dell_s4810().dataplane_install_time;
        assert!(barrier_at >= min, "barrier at {barrier_at} < {min}");
        assert_eq!(sw.dataplane().len(), 1, "install committed before reply");
    }

    #[test]
    fn premature_barrier_lies() {
        let mut sw = mk_switch(SwitchProfile::hp5406zl());
        let mut fx = sw.enqueue_ctrl(0, flowmod(5, [10, 0, 0, 1], 2), 1);
        fx.extend(sw.enqueue_ctrl(0, OfMessage::BarrierRequest, 2));
        // Manually walk: agent processes flowmod, then barrier. The barrier
        // reply must be emitted while the install is still pending.
        let mut all = Vec::new();
        let mut pending_reply_at = None;
        let mut queue = fx;
        while let Some(e) = queue.pop() {
            match e {
                Effect::WakeAgentAt(t) => queue.extend(sw.agent_step(t)),
                Effect::ToController { msg, at, .. } => {
                    if matches!(msg, OfMessage::BarrierReply) && pending_reply_at.is_none() {
                        pending_reply_at = Some(at);
                        // At reply time, the data plane must NOT yet have the
                        // rule (that is the HP bug).
                        assert_eq!(sw.dataplane().len(), 0);
                        assert_eq!(sw.pending_installs(), 1);
                    }
                    all.push((at, msg));
                }
                Effect::InstallTickAt(t) => {
                    // Delay install processing until after we've seen reply.
                    if pending_reply_at.is_some() {
                        queue.extend(sw.install_tick(t));
                    } else {
                        queue.insert(0, Effect::InstallTickAt(t));
                    }
                }
                Effect::EmitFrame { .. } => {}
            }
        }
        assert!(pending_reply_at.is_some());
        assert_eq!(sw.dataplane().len(), 1, "install eventually commits");
    }

    #[test]
    fn pica8_reorders_installs_by_priority() {
        let mut sw = mk_switch(SwitchProfile::pica8());
        // Low-priority first, then high-priority: Pica8 commits high first.
        let mut fx = sw.enqueue_ctrl(0, flowmod(1, [10, 0, 0, 1], 1), 1);
        fx.extend(sw.enqueue_ctrl(0, flowmod(9, [10, 0, 0, 2], 2), 2));
        // Process agent completely first.
        let mut install_ticks = Vec::new();
        let mut queue = fx;
        while let Some(e) = queue.pop() {
            match e {
                Effect::WakeAgentAt(t) => queue.extend(sw.agent_step(t)),
                Effect::InstallTickAt(t) => install_ticks.push(t),
                _ => {}
            }
        }
        assert_eq!(sw.pending_installs(), 2);
        // First commit: the high-priority rule.
        let fx = sw.install_tick(install_ticks[0]);
        assert_eq!(sw.dataplane().len(), 1);
        assert_eq!(sw.dataplane().rules()[0].priority, 9);
        // Second commit.
        for e in fx {
            if let Effect::InstallTickAt(t) = e {
                sw.install_tick(t);
            }
        }
        assert_eq!(sw.dataplane().len(), 2);
    }

    #[test]
    fn fifo_install_order_for_honest_switches() {
        let mut sw = mk_switch(SwitchProfile::dell_s4810());
        let mut fx = sw.enqueue_ctrl(0, flowmod(1, [10, 0, 0, 1], 1), 1);
        fx.extend(sw.enqueue_ctrl(0, flowmod(9, [10, 0, 0, 2], 2), 2));
        let mut queue = fx;
        let mut first_commit_done = false;
        while let Some(e) = queue.pop() {
            match e {
                Effect::WakeAgentAt(t) => queue.extend(sw.agent_step(t)),
                Effect::InstallTickAt(t) => {
                    queue.extend(sw.install_tick(t));
                    if !first_commit_done {
                        first_commit_done = true;
                        // FIFO: the low-priority (first-sent) rule commits first.
                        assert_eq!(sw.dataplane().len(), 1);
                        assert_eq!(sw.dataplane().rules()[0].priority, 1);
                    }
                }
                _ => {}
            }
        }
        assert_eq!(sw.dataplane().len(), 2);
    }

    #[test]
    fn packet_out_to_table_runs_the_dataplane_at_its_in_port() {
        let mut sw = mk_switch(SwitchProfile::ideal());
        sw.dataplane_mut()
            .add_rule(5, Match::any().with_in_port(2), vec![Action::Output(3)])
            .unwrap();
        let probe = |in_port| OfMessage::PacketOut {
            in_port,
            actions: vec![Action::Output(PORT_TABLE)],
            data: frame([10, 0, 0, 1]),
        };
        sw.enqueue_ctrl(0, probe(2), 1);
        let fx = sw.agent_step(0);
        assert!(
            matches!(&fx[..], [Effect::EmitFrame { port: 3, .. }]),
            "{fx:?}"
        );
        // Another ingress port misses the rule: nothing leaves.
        let fx = sw.enqueue_ctrl(1_000_000, probe(1), 2);
        assert!(drain(&mut sw, fx).is_empty());
        assert_eq!(sw.stats.packetouts, 2);
        assert_eq!(sw.stats.frames_processed, 2);
        assert_eq!(sw.stats.frames_dropped, 1);
    }

    #[test]
    fn dataplane_forwards_and_drops() {
        let mut sw = mk_switch(SwitchProfile::ideal());
        sw.dataplane_mut()
            .add_rule(
                5,
                Match::any().with_nw_dst([10, 0, 0, 1], 32),
                vec![Action::Output(3)],
            )
            .unwrap();
        let fx = sw.handle_frame(100, 1, &frame([10, 0, 0, 1]), 0);
        assert_eq!(fx.len(), 1);
        assert!(matches!(&fx[0], Effect::EmitFrame { port: 3, .. }));
        // Table miss drops.
        let fx = sw.handle_frame(100, 1, &frame([9, 9, 9, 9]), 0);
        assert!(fx.is_empty());
        assert_eq!(sw.stats.frames_dropped, 1);
    }

    #[test]
    fn controller_output_becomes_packetin() {
        let mut sw = mk_switch(SwitchProfile::ideal());
        sw.dataplane_mut()
            .add_rule(
                5,
                Match::any(),
                vec![Action::Output(action::PORT_CONTROLLER)],
            )
            .unwrap();
        let fx = sw.handle_frame(0, 2, &frame([10, 0, 0, 1]), 0);
        assert_eq!(fx.len(), 1);
        match &fx[0] {
            Effect::ToController {
                msg: OfMessage::PacketIn { in_port, data, .. },
                ..
            } => {
                assert_eq!(*in_port, 2);
                assert_eq!(data, &frame([10, 0, 0, 1]));
            }
            other => panic!("expected PacketIn, got {other:?}"),
        }
        assert_eq!(sw.stats.packetins_sent, 1);
    }

    #[test]
    fn packetin_queue_overflow_drops() {
        let mut profile = SwitchProfile::dell_s4810();
        profile.packetin_queue_cap = 2;
        let mut sw = mk_switch(profile);
        sw.dataplane_mut()
            .add_rule(
                5,
                Match::any(),
                vec![Action::Output(action::PORT_CONTROLLER)],
            )
            .unwrap();
        // Burst at t=0: capacity 2 queued, rest dropped.
        for _ in 0..10 {
            sw.handle_frame(0, 1, &frame([10, 0, 0, 1]), 0);
        }
        assert!(sw.stats.packetins_dropped >= 7, "{:?}", sw.stats);
    }

    #[test]
    fn rewrite_rule_recrafts_frame() {
        let mut sw = mk_switch(SwitchProfile::ideal());
        sw.dataplane_mut()
            .add_rule(
                5,
                Match::any(),
                vec![Action::SetNwDst([99, 99, 99, 99]), Action::Output(2)],
            )
            .unwrap();
        let fx = sw.handle_frame(0, 1, &frame([10, 0, 0, 1]), 0);
        match &fx[0] {
            Effect::EmitFrame { frame, .. } => {
                let (fields, payload) = parse_packet(frame).unwrap();
                assert_eq!(fields.nw_dst, [99, 99, 99, 99]);
                assert_eq!(payload, b"test payload");
                validate_packet(frame).unwrap();
            }
            other => panic!("expected frame, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_frame_dropped_pre_lookup() {
        let mut sw = mk_switch(SwitchProfile::ideal());
        sw.dataplane_mut()
            .add_rule(5, Match::any(), vec![Action::Output(2)])
            .unwrap();
        let mut f = frame([10, 0, 0, 1]);
        f[20] ^= 0xff; // break the IP header checksum
        let fx = sw.handle_frame(0, 1, &f, 0);
        assert!(fx.is_empty());
        assert_eq!(sw.stats.frames_dropped, 1);
    }

    #[test]
    fn ecmp_stable_per_flow() {
        let mut sw = mk_switch(SwitchProfile::ideal());
        sw.dataplane_mut()
            .add_rule(5, Match::any(), vec![Action::SelectOutput(vec![2, 3, 4])])
            .unwrap();
        let f1 = frame([10, 0, 0, 1]);
        let port_of = |sw: &mut SimSwitch, f: &[u8]| match &sw.handle_frame(0, 1, f, 7)[0] {
            Effect::EmitFrame { port, .. } => *port,
            _ => unreachable!(),
        };
        let p1 = port_of(&mut sw, &f1);
        assert_eq!(p1, port_of(&mut sw, &f1), "same flow, same leg");
        // Different flows eventually use a different leg.
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..20u8 {
            seen.insert(port_of(&mut sw, &frame([10, 0, 1, i])));
        }
        assert!(seen.len() >= 2, "ECMP spreads flows: {seen:?}");
    }

    #[test]
    fn swallowed_install_never_reaches_dataplane() {
        let mut sw = mk_switch(SwitchProfile::ideal());
        sw.swallow_next_installs(1);
        let fx = sw.enqueue_ctrl(0, flowmod(5, [10, 0, 0, 1], 2), 1);
        drain(&mut sw, fx);
        assert_eq!(sw.dataplane().len(), 0, "install swallowed");
        assert_eq!(sw.pending_installs(), 0);
        // The next one goes through.
        let fx = sw.enqueue_ctrl(1_000_000, flowmod(6, [10, 0, 0, 2], 2), 2);
        drain(&mut sw, fx);
        assert_eq!(sw.dataplane().len(), 1);
    }

    #[test]
    fn agent_serializes_messages() {
        let mut sw = mk_switch(SwitchProfile::dell_s4810());
        let t_fm = SwitchProfile::dell_s4810().flowmod_cost_for(true);
        let mut fx = sw.enqueue_ctrl(0, flowmod(1, [1, 1, 1, 1], 1), 1);
        fx.extend(sw.enqueue_ctrl(0, flowmod(2, [2, 2, 2, 2], 1), 2));
        // Step the agent at t=0: first message only.
        let mut wakes = Vec::new();
        for e in fx {
            if let Effect::WakeAgentAt(t) = e {
                wakes.push(t);
            }
        }
        let fx = sw.agent_step(wakes[0]);
        assert_eq!(sw.stats.flowmods_processed, 1);
        // Second message wakes at t_fm, not earlier.
        let next_wake = fx
            .iter()
            .find_map(|e| match e {
                Effect::WakeAgentAt(t) => Some(*t),
                _ => None,
            })
            .expect("second message scheduled");
        assert_eq!(next_wake, t_fm);
        // Stepping too early is a no-op.
        sw.agent_step(next_wake - 1);
        assert_eq!(sw.stats.flowmods_processed, 1);
        sw.agent_step(next_wake);
        assert_eq!(sw.stats.flowmods_processed, 2);
    }
}
