//! One warm planner per switch: dynamic monitoring's probe planning and the
//! steady refresh as functions of the switch's expected table (§2, §3, §4.1,
//! §7).
//!
//! A planner is a flow table, the one warm engine that plans on it and the
//! switch's catch pins. A switch's dynamic monitor describes all
//! its planning work as an ordered stream of [`Step`]s, pushed in the order
//! its expected table changes: the table as it stood when the stream began,
//! every FlowMod applied to it since (controller updates and Monocle's own
//! alike), one plan request per monitorable update, and one refresh request
//! whenever the proxy's steady plans are due. A delete's request comes
//! *before* its FlowMod (the victim must still be there to be probed for
//! absence), an add's or a modify's *after* it, and a refresh is answered on
//! the table as of the FlowMods before it.
//!
//! One function, [`answer`], answers a plan or a refresh request on a
//! planner, and every planner answers with it. Inline, the monitor *is* the
//! planner: its expected table, engine and pins are one, and each request
//! is answered on them the moment it is pushed — when the table stands at
//! exactly that point of the stream. Deferred, the monitor keeps the table
//! and the pins but no engine, and whoever replays the stream in order on a
//! [`Replica`] of its own ([`Replica::step`]; `monocle_net`'s planner
//! threads keep one per switch) answers each request on the replica at the
//! same point. Either way every update is planned on exactly the table §4.1
//! prescribes and every refresh on the table the proxy asked about, and the
//! plan answers reach the monitor after the call that asked, in request
//! order: the proxy hands inline ones back at the end of each call, where a
//! deferred planner that keeps up hands its own back. A planner without the
//! table — no replica yet, or one lost — answers too: no plan, and the table
//! lost to a refresh.
//!
//! Either way one engine follows one table through its own change log, so
//! it synchronizes in O(delta) and its plan cache stays warm across updates
//! and refreshes: a delete of a rule planned before is a cache hit.

use crate::encode::CatchSpec;
use crate::engine::ProbeEngine;
use crate::generator::{GeneratorConfig, ProbeError};
use crate::plan::ProbePlan;
use crate::pool::monitorable;
use monocle_openflow::{FlowMod, FlowTable, Rule, RuleId};

/// What an update's probe must show, and so what it is planned on.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanKind {
    /// An add (or a MODIFY that acts as one): the new rule, on the table
    /// after the change, awaited on the present outcome.
    Present,
    /// A delete: the victim, on the table before the change, awaited on the
    /// absent outcome.
    Absent,
    /// A modify of `old`: the new version told apart from `old` on the §4.1
    /// construction (lower priorities dropped, `old` re-inserted just below
    /// the new version).
    Modify {
        /// The version the modify replaced.
        old: Box<Rule>,
    },
}

/// One step of a switch's planning stream (module docs).
#[derive(Debug, Clone)]
pub enum Step {
    /// The stream begins: the expected table at this point, and the catch
    /// pins every probe of this switch is planned with (they also set how its
    /// probes are generated).
    Start {
        /// A copy of the expected table.
        table: FlowTable,
        /// The monitor's collection pins.
        catch: CatchSpec,
    },
    /// A FlowMod applied to the expected table (whether or not it applied
    /// cleanly: a replica fails it the same way).
    Apply(FlowMod),
    /// Plan the probe that proves update `token`.
    Plan {
        /// The update.
        token: u64,
        /// Its rule, an id of the table at this point of the stream.
        rule_id: RuleId,
        /// What the probe must show.
        kind: PlanKind,
    },
    /// Re-plan the steady probes of `work` and of the rules whose cached
    /// result the engine evicted since the last refresh, answered with a
    /// [`Refreshed`] on the table at this point of the stream.
    Refresh {
        /// What the proxy knows changed since its last refresh: the rules
        /// the expected table's change log names (or, past its reach, every
        /// rule planned, failed or in the table), and the rules whose last
        /// failure is never cached ([`ProbeError::RepairFailed`]).
        work: Vec<RuleId>,
    },
}

/// A planner's answer to a step that asks for one.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// A [`Step::Plan`]'s: the probe for update `token`, or why there is
    /// none.
    Plan {
        /// The update.
        token: u64,
        /// Its probe.
        plan: Result<ProbePlan, ProbeError>,
    },
    /// A [`Step::Refresh`]'s; `None` from a planner without the switch's
    /// table.
    Refresh(Option<Refreshed>),
}

/// The steady plans a refresh asked for, at one version of the table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Refreshed {
    /// The [`FlowTable::version`] of the table they were planned on.
    pub version: u64,
    /// The monitorable rules of the work, in table order, each with its
    /// plan or the reason there is none.
    pub results: Vec<(RuleId, Result<ProbePlan, ProbeError>)>,
    /// The rules of the work no longer in the table.
    pub gone: Vec<RuleId>,
}

/// The §4.1 table for a modify of `old`, built from the neighborhood of its
/// match in the post-delta `table`, and the new version's id in it.
fn modify_table(table: &FlowTable, old: &Rule) -> Option<(FlowTable, RuleId)> {
    build_synthetic(&table.neighborhood(&old.tern), old)
}

/// §4.1 synthetic table for a modify of `old` (whose new version keeps its
/// priority and match), built from a post-delta table: all rules of lower
/// priority removed, the old version re-inserted just below the modified
/// rule. The probe then always hits either version and must tell them
/// apart. Rules are re-added in order, so ids are renumbered; returns the
/// table and the modified rule's id *within it* (`None` at priority 0, which
/// has nothing below it).
pub(crate) fn build_synthetic(table: &FlowTable, old: &Rule) -> Option<(FlowTable, RuleId)> {
    let below = old.priority.checked_sub(1)?;
    let mut synth = FlowTable::new();
    for r in table.rules() {
        if r.priority >= old.priority {
            let _ = synth.add_rule(r.priority, r.match_, r.actions.clone());
        }
    }
    let _ = synth.add_rule(below, old.match_, old.actions.clone());
    let synth_id = synth
        .rules()
        .iter()
        .find(|r| r.priority == old.priority && r.match_ == old.match_)
        .map(|r| r.id)?;
    Some((synth, synth_id))
}

/// The table and rule a stateless planner is handed for a [`Step::Plan`] on
/// `table` ([`crate::dynamic::PlanRequest`]): the probed rule's overlap
/// neighborhood for an add or a delete, the §4.1 table for a modify; an
/// empty table when the rule is not there (planning it then fails, as
/// `plan` does).
pub(crate) fn request_table(
    table: &FlowTable,
    rule_id: RuleId,
    kind: &PlanKind,
) -> (FlowTable, RuleId) {
    let request = match kind {
        PlanKind::Modify { old } => modify_table(table, old),
        PlanKind::Present | PlanKind::Absent => table
            .get(rule_id)
            .map(|r| (table.neighborhood(&r.tern), rule_id)),
    };
    request.unwrap_or_else(|| (FlowTable::new(), rule_id))
}

/// Plans the probe for `rule_id` of `table` as `kind` asks: through
/// `engine` on the table itself for an add or a delete, and for a modify on
/// the §4.1 construction built from the modified match's neighborhood — a
/// table of its own, used once, so it gets a short-lived engine with
/// `engine`'s settings (the fast path included) rather than its cache.
pub(crate) fn plan(
    table: &FlowTable,
    engine: &mut ProbeEngine,
    catch: &CatchSpec,
    rule_id: RuleId,
    kind: &PlanKind,
) -> Result<ProbePlan, ProbeError> {
    match kind {
        PlanKind::Present | PlanKind::Absent => engine.generate(table, rule_id, catch),
        PlanKind::Modify { old } => {
            let (synth, synth_id) =
                modify_table(table, old).ok_or(ProbeError::NoSuchRule(rule_id))?;
            ProbeEngine::with_gen(engine.gen_config().clone()).generate(&synth, synth_id, catch)
        }
    }
}

/// Answers a [`Step::Refresh`] on `table`, inline or on a [`Replica`]:
/// `work`, plus the rules whose
/// cached result `engine` evicted since the last refresh
/// ([`ProbeEngine::take_evicted`]: a changed rule covers the plan's probe
/// header, a rule that hid this one left or moved, or a changed rule
/// overlaps a rule no probe was found for for another reason), goes through
/// [`ProbeEngine::generate_batch`] again where it is monitorable — in table
/// order, as a sweep of the whole table would reach it — and is reported
/// gone where it left the table. What still reads the table is one pass
/// putting the work in table order: a comparison per rule, nothing hashed
/// or copied.
pub(crate) fn refresh(
    table: &FlowTable,
    engine: &mut ProbeEngine,
    catch: &CatchSpec,
    work: &[RuleId],
) -> Refreshed {
    let mut work = work.to_vec();
    work.extend(engine.take_evicted(table));
    work.sort_unstable();
    work.dedup();
    let ids: Vec<RuleId> = monitorable(table)
        .map(|r| r.id)
        .filter(|id| work.binary_search(id).is_ok())
        .collect();
    let results = engine.generate_batch(table, &ids, catch);
    Refreshed {
        version: table.version(),
        results: ids.into_iter().zip(results).collect(),
        gone: work
            .into_iter()
            .filter(|id| table.get(*id).is_none())
            .collect(),
    }
}

/// The one warm engine of a switch's planner: it generates with the
/// settings `catch` implies — probes enter on the pinned injection port, or
/// on port 1.
pub(crate) fn engine(catch: &CatchSpec) -> ProbeEngine {
    ProbeEngine::with_gen(GeneratorConfig {
        default_in_port: catch.in_port.unwrap_or(1),
    })
}

/// Answers `step` on a planner — a [`Step::Plan`] with the update's probe
/// and a [`Step::Refresh`] with the steady plans — on `planner`'s table,
/// engine and pins, inline and on a [`Replica`] alike. Without them
/// (`None`: no replica yet, or one lost) a plan request is answered with no
/// plan and a refresh with the table lost. A [`Step::Start`] or a
/// [`Step::Apply`] asks for no answer.
pub fn answer(
    planner: Option<(&FlowTable, &mut ProbeEngine, &CatchSpec)>,
    step: &Step,
) -> Option<Answer> {
    Some(match step {
        Step::Start { .. } | Step::Apply(_) => return None,
        Step::Plan {
            token,
            rule_id,
            kind,
        } => Answer::Plan {
            token: *token,
            plan: match planner {
                Some((table, engine, catch)) => plan(table, engine, catch, *rule_id, kind),
                None => Err(ProbeError::NoSuchRule(*rule_id)),
            },
        },
        Step::Refresh { work } => Answer::Refresh(
            planner.map(|(table, engine, catch)| refresh(table, engine, catch, work)),
        ),
    })
}

/// A planner's mirror of one switch's expected table, with the one warm
/// engine that plans on it and the catch pins its probes carry: built by a
/// [`Step::Start`] and advanced by the steps after it, it holds the same
/// rules under the same ids as the expected table at the same point of the
/// stream.
#[derive(Debug)]
pub struct Replica {
    pub(crate) table: FlowTable,
    pub(crate) engine: ProbeEngine,
    pub(crate) catch: CatchSpec,
}

impl Replica {
    /// Advances a switch's replica by one step: a [`Step::Start`] builds it
    /// (anew), a [`Step::Apply`] applies, and a [`Step::Plan`] or a
    /// [`Step::Refresh`] is answered on the table as it stands, as every
    /// planner answers it. Before the first `Start` there is nothing to
    /// apply to, and a request is answered as a lost replica answers it.
    pub fn step(replica: &mut Option<Replica>, step: Step) -> Option<Answer> {
        match (step, replica.as_mut()) {
            (Step::Start { table, catch }, _) => {
                let engine = engine(&catch);
                *replica = Some(Replica {
                    table,
                    engine,
                    catch,
                });
                None
            }
            (Step::Apply(fm), Some(r)) => {
                let _ = r.table.apply(&fm);
                None
            }
            (step, r) => answer(r.map(|r| (&r.table, &mut r.engine, &r.catch)), &step),
        }
    }
}
