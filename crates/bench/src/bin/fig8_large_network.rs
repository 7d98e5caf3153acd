//! **Figure 8**: batched path installation in a larger network.
//!
//! Topology: k=4 FatTree of 20 Pica8-like switches, plus one "hypervisor"
//! edge switch (ideal, reliable acks) under each of the 8 ToRs — the
//! paper's 28-switch setup. The controller installs 2000 random paths in
//! two phases (everything but the ingress rule, then the ingress rule),
//! starting 40 new paths every 10 ms. Baseline: the same FatTree built of
//! ideal switches with truthful barriers.
//!
//! Paper reference: Monocle's completion trails the ideal network by only
//! ~350 ms over a ~3.5 s update.
//!
//! Usage: `fig8_large_network [--paths N] [--batch N] [--interval-ms N] [--horizon-s N]`

use monocle::harness::{ExpIo, Experiment, HarnessConfig, MonocleApp};
use monocle_netgraph::generators::{fattree, fattree_edge_switches};
use monocle_netgraph::paths::random_paths;
use monocle_openflow::{FlowMod, Match, PortNo};
use monocle_switchsim::{
    time, ControlApp, Network, NetworkConfig, NodeRef, SimTime, SwitchProfile,
};
use std::collections::HashMap;

struct PathInstall {
    /// Paths as switch sequences (hypervisor endpoints included).
    paths: Vec<Vec<usize>>,
    /// Port maps: (sw, next_sw) -> out port.
    ports: HashMap<(usize, usize), PortNo>,
    batch: usize,
    interval: SimTime,
    next_path: usize,
    /// Outstanding phase-1 confirmations per path.
    pending: Vec<usize>,
    /// Completion time per path.
    pub done_at: Vec<Option<SimTime>>,
    flow_of_token: HashMap<u64, usize>,
    next_token: u64,
}

impl PathInstall {
    fn rule_for(&self, path_id: usize, sw: usize, next: usize) -> FlowMod {
        let i = path_id as u32;
        let m = Match::any()
            .with_nw_src([10, 2, (i >> 8) as u8, i as u8], 32)
            .with_nw_dst([10, 3, (i >> 8) as u8, i as u8], 32);
        FlowMod::add(
            100,
            m,
            vec![monocle_openflow::Action::Output(self.ports[&(sw, next)])],
        )
    }

    fn launch_batch(&mut self, io: &mut ExpIo) {
        let end = (self.next_path + self.batch).min(self.paths.len());
        for p in self.next_path..end {
            let path = self.paths[p].clone();
            // Phase 1: all rules except the ingress switch's.
            let mut outstanding = 0;
            for w in 1..path.len() - 1 {
                let sw = path[w];
                let next = path[w + 1];
                let fm = self.rule_for(p, sw, next);
                let token = self.next_token;
                self.next_token += 1;
                self.flow_of_token.insert(token, p);
                io.send_flowmod(sw, token, fm);
                outstanding += 1;
            }
            self.pending[p] = outstanding;
            if outstanding == 0 {
                self.finish_phase1(io, p);
            }
        }
        self.next_path = end;
        if self.next_path < self.paths.len() {
            io.timer_at(io.now + self.interval, 1);
        }
    }

    fn finish_phase1(&mut self, io: &mut ExpIo, p: usize) {
        // Phase 2: ingress rule at the first (hypervisor) switch.
        let path = &self.paths[p];
        let fm = self.rule_for(p, path[0], path[1]);
        let token = self.next_token;
        self.next_token += 1;
        self.flow_of_token.insert(token, p);
        // Mark phase 2 with pending = usize::MAX sentinel.
        self.pending[p] = usize::MAX;
        io.send_flowmod(path[0], token, fm);
    }
}

impl Experiment for PathInstall {
    fn on_start(&mut self, io: &mut ExpIo) {
        self.launch_batch(io);
    }

    fn on_timer(&mut self, io: &mut ExpIo, _token: u64) {
        self.launch_batch(io);
    }

    fn on_confirmed(&mut self, io: &mut ExpIo, _sw: usize, token: u64, _verified: bool) {
        let Some(p) = self.flow_of_token.remove(&token) else {
            return;
        };
        if self.pending[p] == usize::MAX {
            // Phase-2 confirmation: path complete.
            self.done_at[p] = Some(io.now);
        } else {
            self.pending[p] -= 1;
            if self.pending[p] == 0 {
                self.finish_phase1(io, p);
            }
        }
    }
}

fn build(
    paths_n: usize,
    batch: usize,
    interval: SimTime,
    ideal: bool,
) -> (Network, PathInstall, Vec<usize>) {
    let g = fattree(4);
    let edges = fattree_edge_switches(4);
    let mut net = Network::new(NetworkConfig::default());
    // Core switches: Pica8-like (or ideal for the baseline).
    let profile = if ideal {
        SwitchProfile::ideal()
    } else {
        SwitchProfile::pica8()
    };
    for _ in 0..g.len() {
        net.add_switch(profile.clone());
    }
    let mut ports: HashMap<(usize, usize), PortNo> = HashMap::new();
    for (a, b) in g.edges() {
        net.connect(NodeRef::Switch(a), NodeRef::Switch(b));
    }
    // Hypervisor switches under each ToR (ideal: "reliable acks").
    let mut hypervisors = Vec::new();
    for &tor in &edges {
        let h = net.add_switch(SwitchProfile::ideal());
        net.connect(NodeRef::Switch(tor), NodeRef::Switch(h));
        hypervisors.push(h);
    }
    // Build port map from the network's links.
    for (na, pa, nb, pb) in net.links() {
        if let (NodeRef::Switch(a), NodeRef::Switch(b)) = (na, nb) {
            ports.insert((a, b), pa);
            ports.insert((b, a), pb);
        }
    }
    // Random paths between hypervisors: hypervisor -> ToR -> ... -> ToR ->
    // hypervisor.
    let tor_paths = random_paths(&g, &edges, paths_n, 0xF18);
    let tor_to_h: HashMap<usize, usize> = edges
        .iter()
        .copied()
        .zip(hypervisors.iter().copied())
        .collect();
    let full_paths: Vec<Vec<usize>> = tor_paths
        .into_iter()
        .map(|p| {
            let mut v = vec![tor_to_h[&p[0]]];
            v.extend(&p);
            v.push(tor_to_h[p.last().unwrap()]);
            v
        })
        .collect();
    let exp = PathInstall {
        done_at: vec![None; full_paths.len()],
        pending: vec![0; full_paths.len()],
        paths: full_paths,
        ports,
        batch,
        interval,
        next_path: 0,
        flow_of_token: HashMap::new(),
        next_token: 0,
    };
    let core: Vec<usize> = (0..20).collect();
    (net, exp, core)
}

fn summarize(label: &str, done: &[Option<SimTime>]) -> f64 {
    let mut times: Vec<f64> = done.iter().flatten().map(|&t| time::to_secs(t)).collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = times.len();
    let last = times.last().copied().unwrap_or(f64::NAN);
    println!(
        "{label}\t{n} done\tp50={:.2}s\tp90={:.2}s\tlast={last:.2}s",
        times.get(n / 2).copied().unwrap_or(f64::NAN),
        times.get(n * 9 / 10).copied().unwrap_or(f64::NAN),
    );
    // Series for plotting: completion time of every 100th path.
    let series: Vec<String> = done
        .iter()
        .enumerate()
        .step_by((done.len() / 20).max(1))
        .map(|(i, t)| format!("{i}:{:.2}", t.map(time::to_secs).unwrap_or(f64::NAN)))
        .collect();
    println!("series[{label}]\t{}", series.join(" "));
    last
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut paths_n = 2000usize;
    let mut batch = 40usize;
    let mut interval_ms = 10u64;
    let mut horizon_s = 60u64;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--paths" => {
                paths_n = args[i + 1].parse().unwrap();
                i += 2;
            }
            "--batch" => {
                batch = args[i + 1].parse().unwrap();
                i += 2;
            }
            "--interval-ms" => {
                interval_ms = args[i + 1].parse().unwrap();
                i += 2;
            }
            "--horizon-s" => {
                horizon_s = args[i + 1].parse().unwrap();
                i += 2;
            }
            other => panic!("unknown arg {other}"),
        }
    }
    println!(
        "== Figure 8: batched update of {paths_n} paths (batch {batch} per {interval_ms} ms) =="
    );
    println!("(paper: Monocle ~350 ms behind the ideal network over the full update)");
    println!("mode\tprogress");

    // Ideal baseline: truthful barriers everywhere, no Monocle.
    let (mut net, exp, _) = build(paths_n, batch, time::ms(interval_ms), true);
    let mut app = MonocleApp::unmonitored(exp);
    net.start(&mut app);
    net.run_until(&mut app, time::s(horizon_s));
    let t_ideal = summarize("ideal", &app.experiment.done_at);

    // Monocle over Pica8-like switches.
    let (mut net, exp, core) = build(paths_n, batch, time::ms(interval_ms), false);
    let mut app = MonocleApp::build(exp, &net, &core, HarnessConfig::default());
    net.start(&mut app);
    net.run_until(&mut app, time::s(horizon_s));
    let t_mon = summarize("monocle", &app.experiment.done_at);

    println!(
        "monocle finishes {:.0} ms after the ideal network",
        (t_mon - t_ideal) * 1e3
    );
    let gs = app.probe_engine_stats();
    println!(
        "probe engines: {} solves, {} fast-path, {} cache hits / {} misses, \
         {} instances built",
        gs.solver_calls, gs.fast_path_hits, gs.cache_hits, gs.cache_misses, gs.instances_built
    );
}

#[allow(unused)]
fn _assert(x: &dyn ControlApp) {}
