//! `detect_breakage`: injected breakage → alarm, the second end-to-end
//! number the ROADMAP asks for.
//!
//! A sans-IO `MonitorProxy` with inline planning and the adaptive steady
//! scheduler runs on a virtual clock (1 ms tick, 1 ms install, 1 ms probe
//! round trip) against a benchmark-owned `FlowTable` acting as the actual
//! datapath. Detection latencies are in virtual time, so they depend on the
//! seed only; wall time prices steady refresh plus the scheduler.
//!
//! Why not the other drivers: `ProxyApp` drops `ProxyOutput::RuleFailed`
//! (`proxy_app.rs`, `RuleFailed | RuleRecovered => {}`), so detection cannot
//! be seen over sockets, and `MonocleApp` + `switchsim` is far too slow to
//! be the vehicle (`fig4_failure_detection --trials 2` did not finish in
//! 12 minutes).

use std::collections::{HashMap, HashSet, VecDeque};
use std::time::Instant;

use monocle::plan::{outcomes_distinguishable, ConcreteOutcome};
use monocle::proxy::{MonitorProxy, ProbeInjection, ProxyConfig, ProxyOutput};
use monocle::steady::SteadyConfig;
use monocle::CatchSpec;
use monocle_openflow::flowmatch::packet_to_headervec;
use monocle_openflow::{ActionProgram, FlowMod, FlowTable, Match, RuleId, Ternary};
use monocle_packet::PacketFields;
use monocle_sched::SchedConfig;

use crate::inputs::{self, answer_probe, table_content, Dataset, OpStream, Rng, TableSpec};
use crate::json::Json;
use crate::loadgen::{STEADY_SEQ_BIT, TRACE_SLICES};
use crate::stats::{quiet_each, quiet_min, summarize};
use crate::tcp;
use crate::trace::Trace;
use crate::workload::{Outcome, RunArgs};

const TICK_NS: u64 = 1_000_000;
const INSTALL_NS: u64 = 1_000_000;
const PROBE_RTT_NS: u64 = 1_000_000;
const MODIFY_EVERY_NS: u64 = 100_000_000;
const BREAK_EVERY_NS: u64 = 200_000_000;
/// Virtual seconds simulated per `--seconds` second. 15 s → 120 s virtual.
const VIRTUAL_PER_SECOND: f64 = 8.0;
/// Preload pacing.
const PRELOAD_WINDOW: usize = 16;
/// The whole run, set-up included, is replayed this many times on fresh
/// proxies. Virtual time makes the replays identical, so every piece of wall
/// time reads as its quickest replay (`stats::quiet_min`).
const REPLAYS: usize = 2;
/// Wall time is read in this many slices of virtual time per trace slice
/// (one virtual second each at 15 s).
const SLICES_PER_TRACE_SLICE: u64 = 15;

enum Event {
    Install(FlowMod),
    Probe(ProbeInjection),
}

struct Broken {
    at_ns: u64,
    priority: u16,
    match_: Match,
    actions: ActionProgram,
}

struct World {
    proxy: MonitorProxy,
    datapath: FlowTable,
    now: u64,
    /// Install and probe latencies are equal, so arrival order is due order.
    events: VecDeque<(u64, Event)>,
    /// Latest steady probe seen per rule id, and when: what the monitor is
    /// actually sending, which decides whether a removal is positively
    /// observable.
    last_probe: HashMap<u64, (u64, u16, PacketFields)>,
    probed_rules: Vec<u64>,
    broken: HashMap<u64, Broken>,
    /// Every rule is broken at most once: a drop rule that failed never
    /// reports `RuleRecovered` under this churn (README, known oddities), so
    /// a second failure of it could not be told from the first.
    ever_broken: HashSet<u64>,
    /// Controller updates of the last few seconds: `(time, match)`. An
    /// update overlapping a rule makes the next refresh re-plan it, so a
    /// probe seen before the update no longer says what the monitor sends.
    recent_updates: VecDeque<(u64, Ternary)>,
    /// How far back `recent_updates` reaches: two full sweeps.
    update_memory_ns: u64,
    confirmed: u64,
    alarms: u64,
    probes_classified: u64,
    detect_ms: Vec<f64>,
    false_alarms: u64,
    recovered: u64,
    breakages: u64,
    skipped_silent: u64,
}

impl World {
    fn new(update_memory_ns: u64) -> World {
        let steady = SteadyConfig {
            adaptive: Some(SchedConfig::default()),
            ..Default::default()
        };
        World {
            proxy: MonitorProxy::new(ProxyConfig::new(1, CatchSpec::default()).with_steady(steady)),
            datapath: FlowTable::new(),
            now: 0,
            events: VecDeque::new(),
            last_probe: HashMap::new(),
            probed_rules: Vec::new(),
            broken: HashMap::new(),
            ever_broken: HashSet::new(),
            recent_updates: VecDeque::new(),
            update_memory_ns,
            confirmed: 0,
            alarms: 0,
            probes_classified: 0,
            detect_ms: Vec::new(),
            false_alarms: 0,
            recovered: 0,
            breakages: 0,
            skipped_silent: 0,
        }
    }

    fn handle(&mut self, outputs: Vec<ProxyOutput>) {
        for o in outputs {
            match o {
                ProxyOutput::ToSwitch(fm) => {
                    self.events
                        .push_back((self.now + INSTALL_NS, Event::Install(fm)));
                }
                ProxyOutput::Inject(inj) => {
                    if inj.meta.seq & STEADY_SEQ_BIT != 0
                        && self
                            .last_probe
                            .insert(inj.meta.rule_id, (self.now, inj.in_port, inj.fields))
                            .is_none()
                    {
                        self.probed_rules.push(inj.meta.rule_id);
                    }
                    self.events
                        .push_back((self.now + PROBE_RTT_NS, Event::Probe(inj)));
                }
                ProxyOutput::Confirmed { .. } => self.confirmed += 1,
                ProxyOutput::Alarm { .. } => self.alarms += 1,
                ProxyOutput::RuleFailed { rule_id, at } => self.on_rule_failed(rule_id, at),
                ProxyOutput::RuleRecovered { .. } => self.recovered += 1,
            }
        }
    }

    fn on_rule_failed(&mut self, rule_id: RuleId, at: u64) {
        match self.broken.remove(&rule_id.0) {
            Some(b) => {
                self.detect_ms.push(at.saturating_sub(b.at_ns) as f64 / 1e6);
                // Repair at once, so breakages never pile up under one probe.
                let _ = self.datapath.add_rule(b.priority, b.match_, b.actions);
            }
            None => self.false_alarms += 1,
        }
    }

    fn flowmod(&mut self, trace: &mut Trace, token: u64, fm: FlowMod) {
        let now = self.now;
        let outputs = trace.time("proxy.on_flowmod", token, || {
            self.proxy.on_controller_flowmod(now, token, fm)
        });
        self.handle(outputs);
    }

    /// Delivers everything due at `self.now`, then ticks the proxy.
    fn tick(&mut self, trace: &mut Trace) {
        let now = self.now;
        while self.events.front().is_some_and(|(due, _)| *due <= now) {
            match self.events.pop_front() {
                Some((_, Event::Install(fm))) => {
                    let _ = self.datapath.apply(&fm);
                }
                Some((_, Event::Probe(inj))) => {
                    for (port, fields) in answer_probe(&self.datapath, inj.in_port, &inj.fields) {
                        self.probes_classified += 1;
                        let outputs = trace.time("proxy.on_probe_return", 0, || {
                            self.proxy.on_probe_return(now, &inj.meta, port, &fields)
                        });
                        self.handle(outputs);
                    }
                }
                None => {}
            }
        }
        let outputs = trace.time("proxy.on_tick", 0, || self.proxy.on_tick(now));
        self.handle(outputs);
        self.now += TICK_NS;
    }

    /// Brings the table up through the proxy, `PRELOAD_WINDOW` outstanding,
    /// and runs on until the first steady refresh has happened.
    fn preload(&mut self, table: &TableSpec, trace: &mut Trace) {
        let mut sent = 0u64;
        let mut order = table.preload_order();
        let total = table.rules.len() as u64;
        while self.confirmed < total {
            while sent - self.confirmed < PRELOAD_WINDOW as u64 {
                let Some(r) = order.next() else { break };
                sent += 1;
                self.flowmod(
                    trace,
                    sent,
                    FlowMod::add(r.priority, r.match_, r.actions.clone()),
                );
            }
            self.tick(trace);
        }
        // in_flight is now 0: the next tick refreshes the steady plans.
        self.tick(trace);
    }

    fn tables_agree(&self) -> bool {
        table_content(&self.datapath) == table_content(self.proxy.expected())
    }

    /// Breakages never reported, false alarms, update alarms, and a datapath
    /// that differs from the expected table once everything is repaired.
    fn violations(&self) -> u64 {
        let never_reported = self.broken.len() as u64;
        never_reported
            + self.false_alarms
            + self.alarms
            + u64::from(never_reported == 0 && !self.tables_agree())
    }

    /// Silently removes one rule from the datapath only. Candidates are
    /// rules whose current steady probe would come back observably
    /// different without the rule; removals that turn the probe into silence
    /// are skipped and counted (see the README's known oddities).
    fn break_one(&mut self, rng: &mut Rng) {
        for _ in 0..200 {
            let id = self.probed_rules[rng.below(self.probed_rules.len())];
            let Some(rule) = self.proxy.expected().get(RuleId(id)) else {
                continue;
            };
            if rule.priority <= 1 || self.ever_broken.contains(&id) {
                continue;
            }
            let (probed_at, in_port, fields) = self.last_probe[&id];
            // A rule not probed for two sweeps has lost its plan (it became
            // unmonitorable); one updated since its last probe has a new one.
            let stale = probed_at + self.update_memory_ns < self.now
                || self
                    .recent_updates
                    .iter()
                    .any(|(at, tern)| *at >= probed_at && tern.overlaps(&rule.tern));
            if stale {
                continue;
            }
            // Judged on the expected table, which is what the plan's
            // present/absent outcomes were computed from.
            let expected = self.proxy.expected();
            let hdr = packet_to_headervec(in_port, &fields);
            let Some(hit) = expected.lookup(&hdr) else {
                continue;
            };
            if hit.id != rule.id {
                continue;
            }
            let Some(fallback) = expected.lookup_excluding(&hdr, hit.id) else {
                continue;
            };
            // A fall-through rule that is itself missing right now would
            // make the probe inconclusive until it is repaired.
            if self
                .broken
                .values()
                .any(|b| b.priority == fallback.priority)
            {
                continue;
            }
            let present = ConcreteOutcome::of(&hit.fwd, &hdr);
            let absent = ConcreteOutcome::of(&fallback.fwd, &hdr);
            if absent.is_drop() {
                self.skipped_silent += 1;
                continue;
            }
            if !outcomes_distinguishable(&present, &absent) {
                continue;
            }
            let (priority, match_, actions) = (rule.priority, rule.match_, rule.actions.clone());
            let _ = self
                .datapath
                .apply(&FlowMod::delete_strict(priority, match_));
            self.broken.insert(
                id,
                Broken {
                    at_ns: self.now,
                    priority,
                    match_,
                    actions,
                },
            );
            self.ever_broken.insert(id);
            self.breakages += 1;
            return;
        }
    }
}

/// One replay: a fresh proxy brought up, then the churn-and-breakage horizon.
struct Replay {
    world: World,
    setup_s: f64,
    /// Per slice of virtual time, wall seconds; spans off and on (the traced
    /// run alternates the two over the trace slices).
    slice_wall_s: [Vec<f64>; 2],
}

fn replay(args: &RunArgs, table: &TableSpec, virtual_ns: u64, trace: &mut Trace) -> Replay {
    // One full sweep at 500 probes/s: no breakage before the first sweep has
    // shown which probe each rule gets, none so late that two sweeps plus
    // the 150 ms timeout could not report it.
    let sweep_ns = table.rules.len() as u64 * 2_000_000;
    let break_from = sweep_ns;
    let break_until = virtual_ns.saturating_sub(2 * sweep_ns + 1_000_000_000);

    let tracing = trace.is_on();
    trace.set_on(false);
    let mut world = World::new(2 * sweep_ns);
    let t0 = Instant::now();
    world.preload(table, trace);
    let setup_s = t0.elapsed().as_secs_f64();

    let mut rng = Rng::new(args.seed ^ 0x6272_6561_6b73); // "breaks"
    let mut modifies = OpStream::modifies_only(table, args.seed, 8);
    let t_start = world.now;
    let mut next_token = table.rules.len() as u64;
    let slices = TRACE_SLICES * SLICES_PER_TRACE_SLICE;
    let mut slice_wall_s: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut wall = Instant::now();
    let mut slice = 0;
    while world.now - t_start < virtual_ns {
        let t = world.now - t_start;
        let now_slice = t * slices / virtual_ns;
        if now_slice != slice {
            let spans_on = slice / SLICES_PER_TRACE_SLICE % 2 == 1;
            slice_wall_s[usize::from(spans_on)].push(wall.elapsed().as_secs_f64());
            slice = now_slice;
            trace.set_on(tracing && slice / SLICES_PER_TRACE_SLICE % 2 == 1);
            wall = Instant::now();
        }
        if t.is_multiple_of(MODIFY_EVERY_NS) {
            // Updates that overlap a rule missing from the datapath are
            // drawn again. One on the rule itself would re-add it there and
            // silently repair the breakage; one on a neighbour makes the
            // refresh re-plan the missing rule, and a new probe that falls
            // through to a drop is silence, which this churn never lets time
            // out (README, known oddities).
            for _ in 0..32 {
                let op = modifies.next_op();
                let tern = op.fm.match_.ternary();
                let entangled = world
                    .broken
                    .values()
                    .any(|b| b.match_.ternary().overlaps(&tern));
                if !entangled {
                    next_token += 1;
                    world.recent_updates.push_back((world.now, tern));
                    while world
                        .recent_updates
                        .front()
                        .is_some_and(|(at, _)| *at + world.update_memory_ns < world.now)
                    {
                        world.recent_updates.pop_front();
                    }
                    world.flowmod(trace, next_token, op.fm);
                    break;
                }
            }
        }
        // Offset from the modifies, so the datapath has settled (installs
        // take 1 ms) when the candidate's fall-through is judged.
        if t % BREAK_EVERY_NS == BREAK_EVERY_NS / 4 && (break_from..break_until).contains(&t) {
            world.break_one(&mut rng);
        }
        world.tick(trace);
    }
    slice_wall_s[usize::from(slice / SLICES_PER_TRACE_SLICE % 2 == 1)]
        .push(wall.elapsed().as_secs_f64());
    trace.set_on(tracing);
    Replay {
        world,
        setup_s,
        slice_wall_s,
    }
}

pub fn run(args: &RunArgs, trace: &mut Trace) -> std::io::Result<Outcome> {
    let table = if args.smoke {
        inputs::load_small(Dataset::Stanford, 60)
    } else {
        inputs::load(Dataset::Stanford, &args.out_dir)
    };
    let virtual_ns = if args.smoke {
        3_000_000_000
    } else {
        (args.seconds * VIRTUAL_PER_SECOND * 1e9) as u64
    };
    let replays = if args.trace { 1 } else { REPLAYS };
    let mut setup_samples = Vec::new();
    let mut slice_wall_s: [Vec<Vec<f64>>; 2] = [Vec::new(), Vec::new()];
    let mut last = None;
    // Every replay is checked; the counts reported are the last one's.
    let (mut attempted, mut failed) = (0u64, 0u64);
    for _ in 0..replays {
        drop(last.take()); // the previous proxy goes before the next one comes
        let r = replay(args, &table, virtual_ns, trace);
        attempted += r.world.breakages;
        failed += r.world.violations();
        setup_samples.push(r.setup_s);
        let [off, on] = r.slice_wall_s;
        slice_wall_s[0].push(off);
        slice_wall_s[1].push(on);
        last = Some(r.world);
    }
    let world = last.expect("at least one replay");

    let never_reported = world.broken.len() as u64;
    let tables_agree = world.tables_agree();
    let latency = summarize(world.detect_ms.clone());
    let virtual_s = virtual_ns as f64 / 1e9;
    // Wall time with spans off (the traced run's reference) and on.
    let [off, on] = slice_wall_s.map(|replays| quiet_each(&replays).iter().sum::<f64>());
    let (wall_s, measured_virtual_s) = if args.trace {
        (off, virtual_s / 2.0)
    } else {
        (off + on, virtual_s)
    };
    let realtime_factor = measured_virtual_s / wall_s;
    let probes_per_s = world.probes_classified as f64 * (measured_virtual_s / virtual_s) / wall_s;

    let mut info = Json::obj();
    info.set("inputgen_s", table.inputgen_s)
        .set("table_rules", world.datapath.len())
        .set("virtual_s", virtual_s)
        .set("realtime_factor", realtime_factor)
        .set("replays", replays)
        .set("detect_p50_ms", latency.p50)
        .set("detect_tail_ms", latency.tail)
        .set("detect_tail_percentile", latency.tail_p)
        .set("breakages", world.breakages)
        .set("detected", world.detect_ms.len())
        .set("never_reported", never_reported)
        .set("false_alarms", world.false_alarms)
        .set("recovered", world.recovered)
        .set("silent_candidates_skipped", world.skipped_silent)
        .set("update_alarms", world.alarms)
        .set("tables_agree", tables_agree)
        .set("probes_classified", world.probes_classified)
        .set("unmonitorable_rules", world.proxy.unmonitorable.len())
        .set(
            "setup_samples_s",
            Json::Arr(setup_samples.iter().map(|&s| s.into()).collect()),
        );
    if let Some(s) = world.proxy.steady_sched_stats() {
        info.set("sched_released", s.released)
            .set("sched_throttled", s.throttled);
    }

    let mut layer_rows = Vec::new();
    if args.trace {
        let traced_factor = (virtual_s / 2.0) / on;
        layer_rows.push((
            "trace_overhead_share",
            1.0 - traced_factor / realtime_factor,
            "share",
        ));
        layer_rows.extend(tcp::probe_session_layer_rows(args, &table, &table, trace)?);
    }

    Ok(Outcome {
        attempted: attempted.max(1),
        failed,
        correct: failed == 0 && world.breakages > 0,
        setup_s: quiet_min(&setup_samples),
        latency,
        throughput_per_s: probes_per_s,
        verified_share: world.detect_ms.len() as f64 / world.breakages.max(1) as f64,
        info,
        layers: layer_rows,
    })
}
