//! One warm planner per switch: dynamic monitoring's probe planning as a
//! function of the switch's expected table (§2, §4.1, §7).
//!
//! A [`Replica`] is a flow table, the one warm engine that plans on it and
//! the switch's catch pins, and `Replica::plan` answers a plan request on
//! it. A [`crate::dynamic::DynamicMonitor`] *is* such a replica: its
//! expected table, engine and pins are one, and inline it plans each update
//! on itself the moment the update starts.
//!
//! Deferred, it describes its planning work instead as an ordered stream of
//! [`Step`]s, pushed in the order its expected table changes: the table as it
//! stood when the stream began, every FlowMod applied to it since
//! (controller updates and Monocle's own alike), and one plan request per
//! monitorable update. A delete's request comes *before* its FlowMod (the
//! victim must still be there to be probed for absence), an add's or a
//! modify's *after* it. Whoever replays the stream in order on a replica of
//! its own ([`Replica::step`]; `monocle_net`'s planner threads keep one per
//! switch) therefore plans every update on exactly the table §4.1
//! prescribes, with the same `Replica::plan`.
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
/// `Replica::plan` does).
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

/// One switch's flow table, the one warm engine that plans on it and the
/// catch pins its probes carry: the dynamic monitor's expected table, or a
/// planner's mirror of it — built by a [`Step::Start`] and advanced by the
/// steps after it, it holds the same rules under the same ids as the
/// expected table at the same point of the stream.
#[derive(Debug)]
pub struct Replica {
    pub(crate) table: FlowTable,
    pub(crate) engine: ProbeEngine,
    pub(crate) catch: CatchSpec,
}

impl Replica {
    /// A replica of `table`, planning with the `catch` pins and the `gen`
    /// settings.
    pub(crate) fn new(table: FlowTable, catch: CatchSpec, gen: GeneratorConfig) -> Replica {
        Replica {
            table,
            engine: ProbeEngine::with_gen(gen),
            catch,
        }
    }

    /// Plans the probe for `rule_id` as `kind` asks: through the engine on
    /// the table itself for an add or a delete, and for a modify on the §4.1
    /// construction built from the modified match's neighborhood — a table
    /// of its own, used once, so it gets a short-lived engine with this
    /// one's settings (the fast path included) rather than this one's cache.
    pub(crate) fn plan(
        &mut self,
        rule_id: RuleId,
        kind: &PlanKind,
    ) -> Result<ProbePlan, ProbeError> {
        match kind {
            PlanKind::Present | PlanKind::Absent => {
                self.engine.generate(&self.table, rule_id, &self.catch)
            }
            PlanKind::Modify { old } => {
                let (synth, synth_id) =
                    modify_table(&self.table, old).ok_or(ProbeError::NoSuchRule(rule_id))?;
                ProbeEngine::with_gen(self.engine.gen_config().clone()).generate(
                    &synth,
                    synth_id,
                    &self.catch,
                )
            }
        }
    }

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
                *replica = Some(Replica::new(table, catch, gen));
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
            } => Some((token, replica.as_mut()?.plan(rule_id, &kind))),
        }
    }
}
