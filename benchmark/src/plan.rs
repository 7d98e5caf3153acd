//! `plan_tables`: probe planning at paper scale, in process, no sockets.
//!
//! Isolates `sat` + `core::{encode, engine}` + the classifier on the
//! Campus-like (10 958 rules) and Stanford-like (2755) tables. A round
//! starts from fresh tables and fresh engines, plans every rule cold, then
//! churns: it writes to the same engines and reads them back the way a steady
//! refresh does (`note_flowmod`, apply, re-plan the full id set), so a
//! cold-path gain that is paid for on the churn path shows up here.
//!
//! Every round replays the same work, so each piece of it is timed several
//! times over the run and reads as its quickest replay (`stats::quiet_min`):
//! the host's slow spells last seconds and would otherwise decide the run.
//!
//! Which number goes where: a cold pass is what it takes to bring the
//! engines up, so its wall time is `setup_s` (and `plan_cold_probes_per_s`
//! in the report); per-probe planning time within a cold pass is the latency
//! sample (p50 is the fast path, the tail is SAT); churn updates per second
//! is the throughput. The time of one churn step is *not* the latency
//! sample: it has three far-apart modes (no, some, thousands of plans
//! invalidated) with the median in the gap between the first two, where a
//! handful of steps moves it by a factor of two.

use std::time::Instant;

use monocle::plan::verify_probe;
use monocle::pool::monitorable_ids;
use monocle::{CatchSpec, EngineConfig, ProbeEngine, ProbePlan};
use monocle_openflow::{FlowTable, RuleId};

use crate::inputs::{self, Dataset, OpStream, TableSpec};
use crate::json::Json;
use crate::stats::{quiet_each, quiet_min, summarize};
use crate::tcp;
use crate::trace::Trace;
use crate::workload::{Outcome, RunArgs};

/// Rounds per run. The traced run records spans in the odd ones.
const ROUNDS: usize = 2;
/// Cold passes per round: one on the round's own engines, the others on
/// engines of their own at even distances through its churn.
const COLD_PASSES_PER_ROUND: u64 = 3;
/// Churn steps of one round per `--seconds` second: 144 at 15 s, where the
/// op stream's walk has covered the overlap-degree order evenly enough that
/// seeds differ by 3 % in work (10 % at 45 steps). Counts, not deadlines: the
/// sample sizes (and with them the tail percentile) and the exact updates
/// replayed are then the same on every commit, and a faster product simply
/// finishes sooner. On this commit a round takes about 15 s.
const CHURN_STEPS_PER_SECOND: f64 = 9.6;
/// Every this many churn steps the full plan set is checked (always at the
/// end as well); checking each step would double the run for no new
/// information, since unchanged plans are cache hits.
const VERIFY_EVERY: u64 = 25;

struct Side {
    name: &'static str,
    table: FlowTable,
    engine: ProbeEngine,
    ops: OpStream,
}

/// Counts plans the benchmark's own oracle rejects: the probe must hit the
/// probed rule in `table` and its present/absent outcomes must be the ones
/// the plan promises.
fn rejected(
    table: &FlowTable,
    ids: &[RuleId],
    plans: &[Option<ProbePlan>],
    catch: &CatchSpec,
) -> u64 {
    let pins = catch.all_pins();
    ids.iter()
        .zip(plans)
        .filter_map(|(id, p)| p.as_ref().map(|p| (id, p)))
        .filter(|(id, p)| {
            p.rule_id != **id
                || verify_probe(table, **id, &p.header, &pins)
                    .is_none_or(|(present, absent)| present != p.present || absent != p.absent)
        })
        .count() as u64
}

/// Plans every monitorable rule of `table`. With `probe_ms`, each probe's
/// own planning time is appended to it.
fn plan_all(
    engine: &mut ProbeEngine,
    table: &FlowTable,
    catch: &CatchSpec,
    probe_ms: Option<&mut Vec<f64>>,
) -> (Vec<RuleId>, Vec<Option<ProbePlan>>) {
    let ids = monitorable_ids(table);
    let results = match probe_ms {
        Some(out) => {
            let (results, times, _) = engine.generate_batch_timed(table, &ids, catch);
            out.extend(times.iter().map(|d| d.as_secs_f64() * 1e3));
            results
        }
        None => engine.generate_batch(table, &ids, catch),
    };
    let plans = results.into_iter().map(Result::ok).collect();
    (ids, plans)
}

/// The cold passes of a run, spread over the whole of it.
#[derive(Default)]
struct ColdPasses {
    pass_s: Vec<f64>,
    /// What each pass took beyond its probes (engine sync).
    overhead_s: Vec<f64>,
    /// Per pass, the planning time of each probe.
    probe_ms: Vec<Vec<f64>>,
    /// Of the last pass.
    found: usize,
    checked: u64,
    rejected: u64,
}

impl ColdPasses {
    /// Plans every rule of every side's table on its engine, which is fresh.
    fn run(&mut self, sides: &mut [Side], catch: &CatchSpec, trace: &mut Trace) {
        let mut pass_s = 0.0;
        let mut probe_ms = Vec::new();
        self.found = 0;
        for side in sides {
            let span = trace.begin("engine.cold_pass", 0);
            let t0 = Instant::now();
            let (ids, plans) = plan_all(&mut side.engine, &side.table, catch, Some(&mut probe_ms));
            pass_s += t0.elapsed().as_secs_f64();
            trace.end(span);
            self.found += plans.iter().flatten().count();
            self.checked += plans.iter().flatten().count() as u64;
            self.rejected += rejected(&side.table, &ids, &plans, catch);
        }
        self.pass_s.push(pass_s);
        self.overhead_s
            .push(pass_s - probe_ms.iter().sum::<f64>() / 1e3);
        self.probe_ms.push(probe_ms);
    }
}

pub fn run(args: &RunArgs, trace: &mut Trace) -> std::io::Result<Outcome> {
    let catch = CatchSpec::default();
    let load = |d| {
        if args.smoke {
            inputs::load_small(d, 150)
        } else {
            inputs::load(d, &args.out_dir)
        }
    };
    let specs: [(&'static str, TableSpec); 2] = [
        ("campus", load(Dataset::Campus)),
        ("stanford", load(Dataset::Stanford)),
    ];
    let inputgen_s: f64 = specs.iter().map(|(_, s)| s.inputgen_s).sum();
    let streams: Vec<OpStream> = specs
        .iter()
        .enumerate()
        .map(|(i, (_, spec))| OpStream::new(spec, args.seed.wrapping_add(i as u64), 16))
        .collect();
    let (rounds, churn_steps) = if args.smoke {
        (2, 8)
    } else {
        (
            ROUNDS,
            ((args.seconds * CHURN_STEPS_PER_SECOND).round() as usize).max(8),
        )
    };

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut total_rules = 0;
    let mut cold = ColdPasses::default();
    // Per round, the time of each churn step; spans are on in odd rounds of
    // the traced run, whose even rounds are its like-for-like reference.
    let mut step_ms: [Vec<Vec<f64>>; 2] = [Vec::new(), Vec::new()];
    let tracing = trace.is_on();
    let fresh_sides = || -> Vec<Side> {
        specs
            .iter()
            .zip(&streams)
            .map(|((name, spec), ops)| Side {
                name,
                table: spec.build(),
                engine: ProbeEngine::new(EngineConfig::default()),
                ops: ops.clone(),
            })
            .collect()
    };
    let mut sides: Vec<Side> = Vec::new();
    for round in 0..rounds {
        let spans_on = tracing && round % 2 == 1;
        trace.set_on(spans_on);
        // The previous round's engines go before the new ones come.
        sides.clear();
        sides = fresh_sides();
        total_rules = sides.iter().map(|s| s.table.len()).sum();
        cold.run(&mut sides, &catch, trace);

        // Churn on the now-warm engines. One step is one update on each
        // table followed by a full re-plan of both.
        let mut this_round = Vec::with_capacity(churn_steps);
        for step in 0..churn_steps as u64 {
            // The first step past each further third of the round.
            if step > 0
                && step * COLD_PASSES_PER_ROUND % (churn_steps as u64) < COLD_PASSES_PER_ROUND
            {
                cold.run(&mut fresh_sides(), &catch, trace);
            }
            let check = step % VERIFY_EVERY == 0;
            let mut this_step = 0.0;
            let mut to_check = Vec::new();
            for side in &mut sides {
                let op = side.ops.next_op();
                let outer = trace.begin("plan.step", op.index + 1);
                let t0 = Instant::now();
                trace.time("engine.note_flowmod", op.index + 1, || {
                    side.engine.note_flowmod(&op.fm)
                });
                let applied = trace.time("table.apply", op.index + 1, || side.table.apply(&op.fm));
                let span = trace.begin("engine.replan_all", op.index + 1);
                let (ids, plans) = plan_all(&mut side.engine, &side.table, &catch, None);
                trace.end(span);
                this_step += t0.elapsed().as_secs_f64() * 1e3;
                trace.end(outer);
                failed += u64::from(applied.is_err());
                if check {
                    to_check.push((ids, plans));
                }
            }
            for (side, (ids, plans)) in sides.iter().zip(to_check) {
                attempted += plans.iter().flatten().count() as u64;
                failed += rejected(&side.table, &ids, &plans, &catch);
            }
            this_round.push(this_step);
        }
        step_ms[usize::from(spans_on)].push(this_round);
        // Final state: every plan the engines now hold must still verify.
        trace.set_on(false);
        for side in &mut sides {
            let (ids, plans) = plan_all(&mut side.engine, &side.table, &catch, None);
            attempted += plans.iter().flatten().count() as u64;
            failed += rejected(&side.table, &ids, &plans, &catch);
        }
    }
    trace.set_on(tracing);

    // Each probe and each churn step as its quickest replay over the rounds.
    attempted += cold.checked;
    failed += cold.rejected;
    let found = cold.found;
    let probes = quiet_each(&cold.probe_ms);
    let cold_pass_quiet_s = probes.iter().sum::<f64>() / 1e3 + quiet_min(&cold.overhead_s);
    let cold_probes_per_s = total_rules as f64 / cold_pass_quiet_s;
    let latency = summarize(probes);
    let rate = |steps: &[f64]| 2.0 * steps.len() as f64 / (steps.iter().sum::<f64>() / 1e3);
    let steps = quiet_each(&step_ms[0]);
    let churn_updates_per_s = rate(&steps);
    let step = summarize(steps);

    let mut info = Json::obj();
    info.set("inputgen_s", inputgen_s)
        .set("rules_total", total_rules)
        .set("rounds", rounds)
        .set(
            "cold_pass_samples_s",
            Json::Arr(cold.pass_s.iter().map(|&s| s.into()).collect()),
        )
        .set("cold_pass_s", cold_pass_quiet_s)
        .set("probe_p50_ms", latency.p50)
        .set("probe_tail_ms", latency.tail)
        .set("probe_tail_percentile", latency.tail_p)
        .set("plan_cold_probes_per_s", cold_probes_per_s)
        .set("plan_churn_updates_per_s", churn_updates_per_s)
        .set("churn_steps", churn_steps)
        .set("churn_step_p50_ms", step.p50)
        .set("churn_step_tail_ms", step.tail)
        .set("churn_step_tail_percentile", step.tail_p)
        .set("probes_found", found)
        .set("probes_found_share", found as f64 / total_rules as f64)
        .set("plans_checked", attempted)
        .set("plans_rejected", failed);
    // Counters of the last round: one cold pass and its churn.
    for side in &sides {
        let st = side.engine.stats();
        let mut e = Json::obj();
        e.set("rules", side.table.len())
            .set("solver_calls", st.solver_calls)
            .set("fast_path_hits", st.fast_path_hits)
            .set("cache_hits", st.cache_hits)
            .set("cache_misses", st.cache_misses)
            .set(
                "plans_invalidated",
                side.engine.engine_stats().plans_invalidated,
            );
        info.set(side.name, e);
    }

    let mut layer_rows = Vec::new();
    if args.trace {
        let traced_rate = rate(&quiet_each(&step_ms[1]));
        layer_rows.push((
            "trace_overhead_share",
            1.0 - traced_rate / churn_updates_per_s,
            "share",
        ));
        // Sockets play no part in this workload; the net/stage rows and the
        // frame mix come from a short traced session on the Stanford table,
        // the in-process layer replays run at Campus size.
        layer_rows.extend(tcp::probe_session_layer_rows(
            args,
            &specs[1].1,
            &specs[0].1,
            trace,
        )?);
    }

    Ok(Outcome {
        attempted,
        failed,
        correct: failed == 0,
        setup_s: cold_pass_quiet_s,
        latency,
        throughput_per_s: churn_updates_per_s,
        verified_share: found as f64 / total_rules as f64,
        info,
        layers: layer_rows,
    })
}
