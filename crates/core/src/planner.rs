//! One warm planner per switch: dynamic monitoring's probe planning as a
//! function of the switch's expected table (§2, §4.1, §7).
//!
//! A [`crate::dynamic::DynamicMonitor`] describes its planning work as an
//! ordered stream of [`Step`]s, pushed in the order its expected table
//! changes: the table as it stood when the stream began, every FlowMod
//! applied to it since (controller updates and Monocle's own alike), and one
//! plan request per monitorable update. A delete's request comes *before*
//! its FlowMod (the victim must still be there to be probed for absence), an
//! add's or a modify's *after* it. So whoever replays the stream in order
//! plans every update on exactly the table §4.1 prescribes, and one function
//! (`plan`) answers a request, wherever it runs:
//!
//! * inline, on the monitor's own engine and expected table, the moment the
//!   request is pushed;
//! * deferred, on a [`Replica`] — a copy of the expected table advanced by
//!   the same stream, plus one engine — kept by whichever thread owns the
//!   switch (`monocle_net`'s planner threads).
//!
//! Either way one engine follows one table through its own change log, so
//! it synchronizes in O(delta) and its plan cache stays warm across updates:
//! a delete of a rule planned before is a cache hit.

use crate::encode::CatchSpec;
use crate::engine::ProbeEngine;
use crate::generator::{GeneratorConfig, ProbeError};
use crate::plan::ProbePlan;
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
    /// construction ([`build_synthetic`]).
    Modify {
        /// The version the modify replaced.
        old: Box<Rule>,
    },
}

/// One step of a switch's planning stream (module docs).
#[derive(Debug, Clone)]
pub enum Step {
    /// The stream begins: the expected table at this point, and the catch
    /// pins and generator settings every probe of this switch is planned
    /// with.
    Start {
        /// A copy of the expected table.
        table: FlowTable,
        /// The monitor's collection pins.
        catch: CatchSpec,
        /// The monitor's generator settings.
        gen: GeneratorConfig,
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
}

/// Plans the probe for `rule_id` of `table` as `kind` asks: through `engine`
/// on the table itself for an add or a delete, and for a modify on the §4.1
/// construction built from the modified match's neighborhood — a table of
/// its own, used once, so it gets a short-lived engine with `engine`'s
/// settings (the fast path included) rather than `engine`'s cache.
pub(crate) fn plan(
    engine: &mut ProbeEngine,
    table: &FlowTable,
    rule_id: RuleId,
    kind: &PlanKind,
    catch: &CatchSpec,
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

/// A planner's mirror of one switch's expected table and the one warm
/// engine that plans on it. Built by a [`Step::Start`] and advanced by the
/// steps after it, it holds the same rules under the same ids as the
/// expected table at the same point of the stream.
#[derive(Debug)]
pub struct Replica {
    pub(crate) table: FlowTable,
    pub(crate) engine: ProbeEngine,
    catch: CatchSpec,
}

impl Replica {
    /// Advances a switch's replica by one step: a [`Step::Start`] builds it
    /// (anew), a [`Step::Apply`] applies, and a [`Step::Plan`] is answered,
    /// `(token, plan)`, on the table as it stands. Before the first `Start`
    /// there is nothing to apply to or plan on.
    pub fn step(
        replica: &mut Option<Replica>,
        step: Step,
    ) -> Option<(u64, Result<ProbePlan, ProbeError>)> {
        match step {
            Step::Start { table, catch, gen } => {
                let engine = ProbeEngine::with_gen(gen);
                *replica = Some(Replica {
                    table,
                    engine,
                    catch,
                });
                None
            }
            Step::Apply(fm) => {
                let _ = replica.as_mut()?.table.apply(&fm);
                None
            }
            Step::Plan {
                token,
                rule_id,
                kind,
            } => {
                let r = replica.as_mut()?;
                Some((
                    token,
                    plan(&mut r.engine, &r.table, rule_id, &kind, &r.catch),
                ))
            }
        }
    }
}
