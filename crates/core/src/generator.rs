//! The probe generator: SAT instance → model → valid raw-craftable probe →
//! semantically verified [`ProbePlan`] (§5 end to end).
//!
//! The §5.2 pipeline is followed faithfully, with one engineering upgrade:
//! after the spare-value repair and conditionally-excluded-field
//! normalization, the candidate probe is run through the *semantic verifier*
//! ([`crate::plan::verify_probe`]). The paper proves the repair lemmas for
//! the `Matches` predicate; rewrite-based distinguishing can in principle
//! depend on repaired bits, so instead of trusting the lemma everywhere we
//! check the final packet outright and, on the (rare) failure, re-solve once
//! with explicit domain constraints (§5.2's "must be one of following
//! values" alternative). The result is sound by construction.

use crate::encode::{self, BuildError, CatchSpec};
use crate::plan::{header_to_probe, verify_rule_probe, ConcreteOutcome, ProbePlan};
use monocle_openflow::flowmatch::{packet_to_headervec, VLAN_NONE};
use monocle_openflow::headerspace::HEADER_BITS;
use monocle_openflow::{Field, FlowTable, ForwardingKind, HeaderVec, Rule, RuleId};
use monocle_packet::ethertype;
use monocle_sat::{CdclSolver, Cnf, Lit, SatResult};

/// Why probe generation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeError {
    /// Rule id not present in the table.
    NoSuchRule(RuleId),
    /// Rule fully covered by higher-priority rules (§3.5) or unreachable
    /// under the catch pins.
    Hidden,
    /// A probe can hit the rule but no observable difference exists (§3.5's
    /// "does not change the forwarding behavior").
    Indistinguishable,
    /// The rule's match conflicts with the catch pins.
    CatchConflict(Field),
    /// The rule rewrites a reserved probing field (§3.2).
    RewritesReserved(Field),
    /// Solver conflict budget exhausted.
    SolverBudget,
    /// The SAT model could not be turned into a valid verified packet even
    /// after domain strengthening (should not happen; kept as a honest
    /// error instead of a panic).
    RepairFailed,
}

impl std::fmt::Display for ProbeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProbeError::NoSuchRule(id) => write!(f, "no rule {id}"),
            ProbeError::Hidden => write!(f, "rule hidden by higher-priority rules"),
            ProbeError::Indistinguishable => write!(f, "no distinguishing probe exists"),
            ProbeError::CatchConflict(fl) => write!(f, "catch pin conflicts on {}", fl.name()),
            ProbeError::RewritesReserved(fl) => {
                write!(f, "rule rewrites reserved field {}", fl.name())
            }
            ProbeError::SolverBudget => write!(f, "solver budget exhausted"),
            ProbeError::RepairFailed => write!(f, "model repair failed"),
        }
    }
}

impl std::error::Error for ProbeError {}

/// Solver conflict budget per solve (instances are tiny; this is a safety
/// net).
const CONFLICT_BUDGET: u64 = 200_000;

/// A solver for probe instances: [`CONFLICT_BUDGET`] per solve. Stateless
/// generation makes one per call; a [`crate::engine::ProbeEngine`] keeps one
/// and solves every instance on it.
pub(crate) fn probe_solver() -> CdclSolver {
    CdclSolver::new().with_conflict_budget(CONFLICT_BUDGET)
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Ingress port used when nothing pins `in_port` (the physical port the
    /// prober injects on).
    pub default_in_port: u16,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig { default_in_port: 1 }
    }
}

/// Statistics from one generation call (Table 2 bookkeeping). Also used as
/// an *aggregate* by [`crate::engine::ProbeEngine`] via [`GenStats::merge`],
/// so benches can report cache behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GenStats {
    /// Rules surviving the §5.4 pre-filter (solver path: the engine's fast
    /// path builds no instance and filters nothing).
    pub relevant_rules: usize,
    /// CNF size actually solved.
    pub clauses: usize,
    /// Solver conflicts.
    pub conflicts: u64,
    /// True when the domain-strengthened second solve was needed.
    pub strengthened: bool,
    /// SAT solver invocations (0 when a cache or fast-path hit answered).
    pub solver_calls: u64,
    /// Engine plan-cache hits (steady-state re-probe of unchanged rules).
    pub cache_hits: u64,
    /// Engine plan-cache misses (generation actually ran).
    pub cache_misses: u64,
    /// Guess-and-verify fast-path successes (solver skipped entirely).
    pub fast_path_hits: u64,
    /// SAT instances encoded for a first solve (one per generation that
    /// reaches the solver).
    pub instances_built: u64,
    /// Unit propagations performed by the solver, summed over all solves.
    pub solver_propagations: u64,
    /// High-water clause-arena footprint in bytes: the clauses of three or
    /// more literals, binary ones having no slot (a *gauge*: merged by max,
    /// not summed — the interesting number is the biggest solver seen).
    pub arena_bytes: u64,
    /// Clause-arena backing-buffer reallocations (growth events), summed.
    pub arena_reallocs: u64,
}

impl GenStats {
    /// Accumulates `other` into `self` (sums counters, ORs flags) so
    /// per-call stats can be rolled up into batch/engine aggregates.
    pub fn merge(&mut self, other: &GenStats) {
        self.relevant_rules += other.relevant_rules;
        self.clauses += other.clauses;
        self.conflicts += other.conflicts;
        self.strengthened |= other.strengthened;
        self.solver_calls += other.solver_calls;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.fast_path_hits += other.fast_path_hits;
        self.instances_built += other.instances_built;
        self.solver_propagations += other.solver_propagations;
        self.arena_bytes = self.arena_bytes.max(other.arena_bytes);
        self.arena_reallocs += other.arena_reallocs;
    }
}

impl std::ops::AddAssign for GenStats {
    fn add_assign(&mut self, other: GenStats) {
        self.merge(&other);
    }
}

impl std::ops::AddAssign<&GenStats> for GenStats {
    fn add_assign(&mut self, other: &GenStats) {
        self.merge(other);
    }
}

impl std::ops::Add for GenStats {
    type Output = GenStats;
    fn add(mut self, other: GenStats) -> GenStats {
        self += other;
        self
    }
}

/// Generates a verified probe plan for `probed_id` in `table`.
pub fn generate_probe(
    table: &FlowTable,
    probed_id: RuleId,
    catch: &CatchSpec,
    cfg: &GeneratorConfig,
) -> Result<ProbePlan, ProbeError> {
    generate_probe_with_stats(table, probed_id, catch, cfg).map(|(p, _)| p)
}

/// As [`generate_probe`], also returning statistics.
pub fn generate_probe_with_stats(
    table: &FlowTable,
    probed_id: RuleId,
    catch: &CatchSpec,
    cfg: &GeneratorConfig,
) -> Result<(ProbePlan, GenStats), ProbeError> {
    let probed = table
        .get(probed_id)
        .ok_or(ProbeError::NoSuchRule(probed_id))?;
    let mut stats = GenStats::default();
    let plan = generate_for_rule(
        table,
        probed,
        catch,
        &catch.all_pins(),
        cfg,
        &mut probe_solver(),
        &mut stats,
    )?;
    Ok((plan, stats))
}

/// The solver path for one rule: encode one instance, hand it to
/// [`solve_and_finish`] on `solver` (from [`probe_solver`]). Stateless
/// generation is this on a solver of its own; [`crate::engine::ProbeEngine`]
/// puts its plan cache and fast path in front of the same call on the
/// solver it keeps. A solver carries nothing of one solve into the next, so
/// both get the same answer. `pins` is `catch.all_pins()`, built once by the
/// caller.
pub(crate) fn generate_for_rule(
    table: &FlowTable,
    probed: &Rule,
    catch: &CatchSpec,
    pins: &[(Field, u64)],
    cfg: &GeneratorConfig,
    solver: &mut CdclSolver,
    stats: &mut GenStats,
) -> Result<ProbePlan, ProbeError> {
    let inst = encode::build_instance(table, probed, catch).map_err(|e| match e {
        BuildError::Shadowed { .. } => ProbeError::Hidden,
        BuildError::CatchConflict(f) => ProbeError::CatchConflict(f),
        BuildError::RewritesReserved(f) => ProbeError::RewritesReserved(f),
    })?;
    stats.instances_built += 1;
    solve_and_finish(table, probed, pins, cfg, inst, solver, stats)
}

/// The post-encoding half of the §5.2 pipeline: solve `inst`, repair and
/// verify the model, and fall back to the domain-strengthened re-solve.
/// Every solve of it is of `inst` itself: its Hit + Collect prefix to
/// classify an UNSAT answer, or the whole of it under domain constraints.
fn solve_and_finish(
    table: &FlowTable,
    probed: &Rule,
    pins: &[(Field, u64)],
    cfg: &GeneratorConfig,
    inst: encode::Instance,
    solver: &mut CdclSolver,
    stats: &mut GenStats,
) -> Result<ProbePlan, ProbeError> {
    // Accumulate (don't assign): batch callers thread one GenStats through
    // many instances.
    stats.relevant_rules += inst.relevant_rules;
    stats.clauses += inst.cnf.num_clauses();
    let mut cnf = inst.cnf;
    let model = match solve_counted(solver, &cnf, stats) {
        SatResult::Sat(m) => m,
        SatResult::Unknown => return Err(ProbeError::SolverBudget),
        SatResult::Unsat => {
            // Classify: can the rule be hit at all?
            cnf.truncate(inst.hit_end);
            return Err(match solve_counted(solver, &cnf, stats) {
                SatResult::Sat(_) => ProbeError::Indistinguishable,
                SatResult::Unsat => ProbeError::Hidden,
                SatResult::Unknown => ProbeError::SolverBudget,
            });
        }
    };

    let raw = model_to_header(&model);

    // Attempt 1: spare-value repair + normalization, then verify.
    let repaired = repair_header(table, pins, cfg, raw);
    if let Some((plan, _)) = finish(table, probed, pins, repaired) {
        return Ok(plan);
    }
    // Attempt 2: the unrepaired model (repair may have been the problem).
    if let Some((plan, _)) = finish(table, probed, pins, raw) {
        return Ok(plan);
    }
    // Attempt 3: re-solve with explicit domain constraints (§5.2's
    // small-domain alternative), then verify again.
    stats.strengthened = true;
    add_domain_constraints(&mut cnf, table, pins, cfg);
    match solve_counted(solver, &cnf, stats) {
        SatResult::Sat(m) => finish(table, probed, pins, model_to_header(&m))
            .map(|(plan, _)| plan)
            .ok_or(ProbeError::RepairFailed),
        SatResult::Unknown => Err(ProbeError::SolverBudget),
        SatResult::Unsat => Err(ProbeError::Indistinguishable),
    }
}

/// One solve, counted into `stats` whatever the answer: per-solve averages
/// must cover UNSAT and budget-exhausted solves.
fn solve_counted(solver: &mut CdclSolver, cnf: &Cnf, stats: &mut GenStats) -> SatResult {
    let out = solver.solve_with_stats(cnf);
    stats.solver_calls += 1;
    stats.conflicts += out.stats.conflicts;
    stats.solver_propagations += out.stats.propagations;
    stats.arena_bytes = stats.arena_bytes.max(out.stats.arena_bytes);
    stats.arena_reallocs += out.stats.arena_reallocs;
    out.result
}

/// Normalizes + verifies a candidate header; builds the plan on success,
/// together with the priority of the rule that takes the probe when the
/// probed rule is absent (`None`: a table miss), as the verifier found it.
pub(crate) fn finish(
    table: &FlowTable,
    probed: &Rule,
    pins: &[(Field, u64)],
    header: HeaderVec,
) -> Option<(ProbePlan, Option<u16>)> {
    // Round-trip through the abstract packet view: this applies the
    // conditionally-excluded-field elimination (Lemma 2) exactly as the
    // wire crafter will, so we verify what the switch will actually see.
    let (in_port, fields) = header_to_probe(&header);
    let wire_view = packet_to_headervec(in_port, &fields);
    let (present, absent, absent_priority) = verify_rule_probe(table, probed, &wire_view, pins)?;
    // The plan classifies against the *concrete* absent outcome, so only
    // the concrete pair decides whether counting is needed (the SAT-level
    // flag in `Instance` is conservative over unreachable alternatives).
    let uses_counting = concrete_needs_counting(&present, &absent);
    let plan = ProbePlan {
        rule_id: probed.id,
        priority: probed.priority,
        fields,
        header: wire_view,
        in_port,
        present,
        absent,
        uses_counting,
    };
    Some((plan, absent_priority))
}

fn concrete_needs_counting(a: &ConcreteOutcome, b: &ConcreteOutcome) -> bool {
    let mixed = |m: &ConcreteOutcome, e: &ConcreteOutcome| {
        m.observations.iter().all(|o| e.observations.contains(o)) && m.observations.len() != 1
    };
    match (a.kind, b.kind) {
        (ForwardingKind::Multicast, ForwardingKind::Ecmp) => mixed(a, b),
        (ForwardingKind::Ecmp, ForwardingKind::Multicast) => mixed(b, a),
        _ => false,
    }
}

/// Reads header bits out of the SAT model.
fn model_to_header(model: &monocle_sat::Model) -> HeaderVec {
    let mut h = HeaderVec::ZERO;
    for bit in 0..HEADER_BITS {
        h.set(bit, model.value((bit + 1) as u32));
    }
    h
}

/// §5.2 spare-value repair for limited-domain fields. Only substitutes when
/// the current value is invalid on the wire; the substitute is a valid value
/// no rule uses (the lemma's precondition). Fields in `pins` (the catch
/// spec's) are left alone.
///
/// Whether any rule cares about a field is read off the table's maintained
/// [`FlowTable::rules_caring`] count, so a repair reads no rule unless some
/// rule does constrain `dl_type` or `dl_vlan` and the model's value there
/// needs replacing ([`spare_value`]).
pub(crate) fn repair_header(
    table: &FlowTable,
    pins: &[(Field, u64)],
    cfg: &GeneratorConfig,
    mut h: HeaderVec,
) -> HeaderVec {
    let pinned = |f: Field| pins.iter().any(|&(p, _)| p == f);
    // in_port: pin to the injection port when nothing constrained it and no
    // rule cares about it.
    if !pinned(Field::InPort) && table.rules_caring(Field::InPort) == 0 {
        h.set_field(Field::InPort, u64::from(cfg.default_in_port));
    }
    // dl_type: must be a real EtherType (>= 0x600) and not the VLAN TPID.
    if !pinned(Field::DlType) {
        let v = h.field(Field::DlType);
        if v < 0x600 || v == 0x8100 {
            if let Some(spare) = spare_value(table, Field::DlType, spare_dl_types()) {
                h.set_field(Field::DlType, spare);
            }
        }
    }
    // dl_vlan: 0..=0xfff or VLAN_NONE.
    if !pinned(Field::DlVlan) {
        let v = h.field(Field::DlVlan);
        if v > 0x0fff && v != u64::from(VLAN_NONE) {
            if let Some(spare) = spare_value(table, Field::DlVlan, spare_vlans()) {
                h.set_field(Field::DlVlan, spare);
            }
        }
    }
    h
}

/// The EtherTypes a repair may substitute, in order of preference.
fn spare_dl_types() -> impl Iterator<Item = u64> {
    [ethertype::IPV4, 0x88b5, 0x88b6, 0x9000, ethertype::ARP]
        .into_iter()
        .map(u64::from)
}

/// The VLAN ids a repair may substitute, in order of preference: untagged,
/// then 0xf00..=0xfff.
fn spare_vlans() -> impl Iterator<Item = u64> {
    std::iter::once(u64::from(VLAN_NONE)).chain(0xf00..0x1000u64)
}

/// First candidate value not used by any rule's match on `f` (also accepts
/// values that *are* used only as full-field wildcards, per the lemma).
/// When no rule cares about `f` ([`FlowTable::rules_caring`]) no value is
/// used, and the first candidate is the answer without reading a rule.
fn spare_value(
    table: &FlowTable,
    f: Field,
    mut candidates: impl Iterator<Item = u64>,
) -> Option<u64> {
    if table.rules_caring(f) == 0 {
        return candidates.next();
    }
    let used = used_values(table, f);
    candidates.find(|v| used.binary_search(v).is_err())
}

/// Adds "must be one of" domain constraints for the small-domain fields
/// (strengthened second solve).
fn add_domain_constraints(
    cnf: &mut Cnf,
    table: &FlowTable,
    pins: &[(Field, u64)],
    cfg: &GeneratorConfig,
) {
    let pinned = |f: Field| pins.iter().any(|&(p, _)| p == f);
    if !pinned(Field::InPort) {
        add_field_equals(cnf, Field::InPort, u64::from(cfg.default_in_port));
    }
    if !pinned(Field::DlType) {
        let mut values: Vec<u64> = used_values(table, Field::DlType)
            .into_iter()
            .filter(|&v| v >= 0x600 && v != 0x8100)
            .collect();
        for extra in [u64::from(ethertype::IPV4), 0x88b5] {
            if !values.contains(&extra) {
                values.push(extra);
            }
        }
        add_domain(cnf, Field::DlType, &values);
    }
    if !pinned(Field::DlVlan) {
        let mut values: Vec<u64> = used_values(table, Field::DlVlan)
            .into_iter()
            .filter(|&v| v <= 0x0fff || v == u64::from(VLAN_NONE))
            .collect();
        for extra in [u64::from(VLAN_NONE), 0xf00, 0xf01] {
            if !values.contains(&extra) {
                values.push(extra);
            }
        }
        add_domain(cnf, Field::DlVlan, &values);
    }
    // Ill-formed tables (transport matches without a protocol pin, which
    // OF 1.0.1 forbids but a defensive implementation must survive): when
    // any rule cares about transport bits, force a wire shape under which
    // those bits actually exist.
    if (table.rules_caring(Field::TpSrc) > 0 || table.rules_caring(Field::TpDst) > 0)
        && !pinned(Field::NwProto)
    {
        if !pinned(Field::DlType) {
            add_field_equals(cnf, Field::DlType, u64::from(ethertype::IPV4));
        }
        add_domain(cnf, Field::NwProto, &[1, 6, 17]);
    }
    // ICMP carries 8-bit type/code in the transport slots: when nw_proto is
    // ICMP, the upper tp bits do not exist on the wire and must be zero
    // (otherwise the solver could "avoid" a rule via bits that normalization
    // will erase).
    let proto_off = Field::NwProto.offset();
    // Antecedent !(proto == 1): proto==1 means bit0 set, bits 1..7 clear.
    let mut not_icmp: Vec<Lit> = vec![-((proto_off + 1) as Lit)];
    for i in 1..Field::NwProto.width() {
        not_icmp.push((proto_off + i + 1) as Lit);
    }
    for f in [Field::TpSrc, Field::TpDst] {
        let off = f.offset();
        for i in 8..f.width() {
            let mut clause = not_icmp.clone();
            clause.push(-((off + i + 1) as Lit));
            cnf.add_clause(&clause);
        }
    }
}

/// The distinct values of `f` in the matches of the rules that care about
/// it, sorted.
fn used_values(table: &FlowTable, f: Field) -> Vec<u64> {
    let mut vals: Vec<u64> = table
        .rules()
        .iter()
        .filter(|r| r.tern.care.intersects(f.mask()))
        .map(|r| r.tern.value.field(f))
        .collect();
    vals.sort_unstable();
    vals.dedup();
    vals
}

fn add_field_equals(cnf: &mut Cnf, f: Field, value: u64) {
    let off = f.offset();
    for i in 0..f.width() {
        let var = (off + i + 1) as Lit;
        cnf.add_clause(&[if value >> i & 1 == 1 { var } else { -var }]);
    }
}

/// One-hot selector encoding of `field ∈ values`.
fn add_domain(cnf: &mut Cnf, f: Field, values: &[u64]) {
    assert!(!values.is_empty());
    let off = f.offset();
    let mut selectors = Vec::with_capacity(values.len());
    for &v in values {
        let s = cnf.fresh_var() as Lit;
        selectors.push(s);
        for i in 0..f.width() {
            let var = (off + i + 1) as Lit;
            let lit = if v >> i & 1 == 1 { var } else { -var };
            cnf.add_clause(&[-s, lit]);
        }
    }
    cnf.add_clause(&selectors);
}

#[cfg(test)]
mod tests {
    use super::*;
    use monocle_openflow::{Action, FlowMod, FlowModCommand, Match};

    #[test]
    fn genstats_default_is_identity_for_merge() {
        let mut a = GenStats {
            relevant_rules: 3,
            clauses: 40,
            conflicts: 2,
            strengthened: true,
            solver_calls: 1,
            cache_hits: 5,
            cache_misses: 6,
            fast_path_hits: 7,
            instances_built: 8,
            solver_propagations: 12,
            arena_bytes: 13,
            arena_reallocs: 14,
        };
        let before = a;
        a += GenStats::default();
        assert_eq!(a, before, "default must be the additive identity");
        let mut zero = GenStats::default();
        zero += &before;
        assert_eq!(zero, before);
    }

    #[test]
    fn genstats_accumulation_sums_counters_and_ors_flags() {
        let a = GenStats {
            relevant_rules: 1,
            clauses: 10,
            conflicts: 2,
            strengthened: false,
            solver_calls: 3,
            cache_hits: 4,
            cache_misses: 5,
            fast_path_hits: 6,
            instances_built: 7,
            solver_propagations: 11,
            arena_bytes: 12,
            arena_reallocs: 13,
        };
        let b = GenStats {
            relevant_rules: 10,
            clauses: 100,
            conflicts: 20,
            strengthened: true,
            solver_calls: 30,
            cache_hits: 40,
            cache_misses: 50,
            fast_path_hits: 60,
            instances_built: 70,
            solver_propagations: 110,
            arena_bytes: 120,
            arena_reallocs: 130,
        };
        let sum = a + b;
        assert_eq!(sum.relevant_rules, 11);
        assert_eq!(sum.clauses, 110);
        assert_eq!(sum.conflicts, 22);
        assert!(sum.strengthened, "flags are ORed");
        assert_eq!(sum.solver_calls, 33);
        assert_eq!(sum.cache_hits, 44);
        assert_eq!(sum.cache_misses, 55);
        assert_eq!(sum.fast_path_hits, 66);
        assert_eq!(sum.instances_built, 77);
        assert_eq!(sum.solver_propagations, 121);
        assert_eq!(sum.arena_bytes, 120, "arena_bytes is a gauge: max, not sum");
        assert_eq!(sum.arena_reallocs, 143);
        // += agrees with merge and is order-insensitive on sums.
        let mut via_merge = b;
        via_merge.merge(&a);
        assert_eq!(sum, via_merge);
    }

    fn table_from(rules: Vec<(u16, Match, Vec<Action>)>) -> FlowTable {
        let mut t = FlowTable::new();
        for (p, m, a) in rules {
            t.add_rule(p, m, a).unwrap();
        }
        t
    }

    fn cfg() -> GeneratorConfig {
        GeneratorConfig::default()
    }

    #[test]
    fn figure1_probe() {
        // Figure 1: rule 1 = (10.0.0.1, *) -> A, rule 2 = (*, *) -> B.
        let t = table_from(vec![
            (
                10,
                Match::any().with_nw_src([10, 0, 0, 1], 32),
                vec![Action::Output(1)],
            ),
            (1, Match::any(), vec![Action::Output(2)]),
        ]);
        let probed = t.rules()[0].id;
        let plan = generate_probe(&t, probed, &CatchSpec::default(), &cfg()).unwrap();
        assert_eq!(plan.fields.nw_src, [10, 0, 0, 1]);
        assert_eq!(plan.present.observations[0].0, 1, "outcome A");
        assert_eq!(plan.absent.observations[0].0, 2, "outcome B");
        assert!(!plan.is_negative());
        assert!(!plan.uses_counting);
    }

    #[test]
    fn generated_probe_is_wire_craftable() {
        let t = table_from(vec![
            (
                10,
                Match::any().with_nw_dst([10, 1, 0, 0], 16).with_nw_proto(6),
                vec![Action::Output(3)],
            ),
            (1, Match::any(), vec![Action::Output(2)]),
        ]);
        let plan = generate_probe(&t, t.rules()[0].id, &CatchSpec::default(), &cfg()).unwrap();
        let raw = monocle_packet::craft_packet(&plan.fields, b"meta").unwrap();
        monocle_packet::validate_packet(&raw).unwrap();
        // Parsing back yields the same header-space point at the in_port.
        let (fields, _) = monocle_packet::parse_packet(&raw).unwrap();
        assert_eq!(packet_to_headervec(plan.in_port, &fields), plan.header);
    }

    #[test]
    fn catch_pins_respected() {
        let t = table_from(vec![
            (
                10,
                Match::any().with_nw_src([10, 0, 0, 1], 32),
                vec![Action::Output(1)],
            ),
            (1, Match::any(), vec![Action::Output(2)]),
        ]);
        let catch = CatchSpec::tag(Field::DlVlan, 0xf03).with_in_port(4);
        let plan = generate_probe(&t, t.rules()[0].id, &catch, &cfg()).unwrap();
        assert_eq!(plan.header.field(Field::DlVlan), 0xf03);
        assert_eq!(plan.in_port, 4);
        assert_eq!(plan.fields.vlan, Some((0xf03, plan.fields.vlan.unwrap().1)));
    }

    #[test]
    fn hidden_rule_errors() {
        let t = table_from(vec![
            (
                20,
                Match::any().with_nw_src([10, 0, 0, 0], 24),
                vec![Action::Output(1)],
            ),
            (
                10,
                Match::any().with_nw_src([10, 0, 0, 7], 32),
                vec![Action::Output(2)],
            ),
        ]);
        let hidden = t.rules()[1].id;
        assert_eq!(
            generate_probe(&t, hidden, &CatchSpec::default(), &cfg()).unwrap_err(),
            ProbeError::Hidden
        );
    }

    #[test]
    fn indistinguishable_rule_errors() {
        let t = table_from(vec![
            (
                20,
                Match::any().with_nw_src([10, 0, 0, 1], 32),
                vec![Action::Output(1)],
            ),
            (10, Match::any(), vec![Action::Output(1)]),
        ]);
        let (probed, catch) = (&t.rules()[0], CatchSpec::default());
        assert_eq!(
            generate_probe(&t, probed.id, &catch, &cfg()).unwrap_err(),
            ProbeError::Indistinguishable
        );
        // Both solves behind it, of the instance and then of its Hit +
        // Collect prefix, are counted with the work they did.
        let inst = encode::build_instance(&t, probed, &catch).unwrap();
        let mut stats = GenStats::default();
        let res = solve_and_finish(
            &t,
            probed,
            &[],
            &cfg(),
            inst,
            &mut probe_solver(),
            &mut stats,
        );
        assert_eq!(res.unwrap_err(), ProbeError::Indistinguishable);
        assert_eq!(stats.solver_calls, 2);
        assert!(stats.solver_propagations > 0);
    }

    /// §5.2's third attempt. A port match with no protocol pin (which OF
    /// 1.0.1 forbids, and a table may hold anyway) solves to a model whose
    /// port is not on the wire: the raw header has no EtherType, and the
    /// repaired one IPv4 but no protocol with ports, so both verifications
    /// fail. The domain-strengthened re-solve of the same instance forces
    /// IPv4 and TCP, UDP or ICMP, and its probe verifies.
    #[test]
    fn a_port_match_without_a_protocol_verifies_on_the_strengthened_re_solve() {
        let t = table_from(vec![
            (20, Match::any().with_tp_dst(80), vec![Action::Output(1)]),
            (10, Match::any(), vec![Action::Output(2)]),
        ]);
        let probed = &t.rules()[0];
        let catch = CatchSpec::default();
        let (plan, stats) = generate_probe_with_stats(&t, probed.id, &catch, &cfg()).unwrap();
        assert!(stats.strengthened);
        assert_eq!((stats.instances_built, stats.solver_calls), (1, 2));
        assert_eq!(plan.fields.dl_type, ethertype::IPV4);
        assert!(matches!(plan.fields.nw_proto, 1 | 6 | 17));
        assert_eq!(plan.fields.tp_dst, 80);
        assert!(crate::plan::verify_probe(&t, probed.id, &plan.header, &[]).is_some());
        let raw = monocle_packet::craft_packet(&plan.fields, b"x").unwrap();
        monocle_packet::validate_packet(&raw).unwrap();
    }

    #[test]
    fn drop_rule_negative_probe() {
        let t = table_from(vec![
            (20, Match::any().with_tp_dst(23).with_nw_proto(6), vec![]),
            (10, Match::any(), vec![Action::Output(1)]),
        ]);
        let plan = generate_probe(&t, t.rules()[0].id, &CatchSpec::default(), &cfg()).unwrap();
        assert!(plan.is_negative());
        assert!(plan.present.is_drop());
        assert_eq!(plan.absent.observations[0].0, 1);
        // The crafted probe is a valid TCP packet to port 23.
        assert_eq!(plan.fields.tp_dst, 23);
        assert_eq!(plan.fields.nw_proto, 6);
        let raw = monocle_packet::craft_packet(&plan.fields, b"x").unwrap();
        monocle_packet::validate_packet(&raw).unwrap();
    }

    #[test]
    fn deleted_lower_rule_affects_probe() {
        // With an intermediate rule the probe may use it to distinguish;
        // without it the pair becomes indistinguishable.
        let mut t = table_from(vec![
            (
                30,
                Match::any()
                    .with_nw_src([10, 0, 0, 1], 32)
                    .with_nw_dst([10, 0, 0, 2], 32),
                vec![Action::Output(1)],
            ),
            (
                20,
                Match::any().with_nw_src([10, 0, 0, 1], 32),
                vec![Action::Output(2)],
            ),
            (10, Match::any(), vec![Action::Output(1)]),
        ]);
        let probed = t.rules()[0].id;
        assert!(generate_probe(&t, probed, &CatchSpec::default(), &cfg()).is_ok());
        let mid = t.rules()[1].id;
        t.remove_by_id(mid);
        assert_eq!(
            generate_probe(&t, probed, &CatchSpec::default(), &cfg()).unwrap_err(),
            ProbeError::Indistinguishable
        );
    }

    #[test]
    fn ecmp_rule_probe() {
        let t = table_from(vec![
            (
                20,
                Match::any().with_nw_dst([10, 9, 0, 0], 16),
                vec![Action::SelectOutput(vec![3, 4])],
            ),
            (10, Match::any(), vec![Action::Output(1)]),
        ]);
        let plan = generate_probe(&t, t.rules()[0].id, &CatchSpec::default(), &cfg()).unwrap();
        assert_eq!(plan.present.kind, ForwardingKind::Ecmp);
        // ECMP {3,4} vs unicast {1}: disjoint, port observation suffices.
        assert!(!plan.uses_counting);
    }

    #[test]
    fn vlan_field_repair_produces_valid_tag() {
        // Rules don't touch VLAN; the solver may emit garbage VLAN bits; the
        // repaired probe must be wire-valid.
        let t = table_from(vec![
            (
                20,
                Match::any().with_nw_src([10, 0, 0, 1], 32),
                vec![Action::Output(1)],
            ),
            (10, Match::any(), vec![Action::Output(2)]),
        ]);
        let plan = generate_probe(&t, t.rules()[0].id, &CatchSpec::default(), &cfg()).unwrap();
        match plan.fields.vlan {
            None => {}
            Some((vid, _)) => assert!(vid <= 0xfff),
        }
        let raw = monocle_packet::craft_packet(&plan.fields, b"x").unwrap();
        monocle_packet::validate_packet(&raw).unwrap();
    }

    /// Whether any rule cares about `f`, read off every rule bit by bit: the
    /// scan the repair made before the table kept care counts.
    fn cares_by_scan(table: &FlowTable, f: Field) -> bool {
        let off = f.offset();
        table
            .rules()
            .iter()
            .any(|r| (0..f.width()).any(|i| r.tern.care.get(off + i)))
    }

    /// `spare_value` by that scan: collect every used value, then take the
    /// first candidate outside them.
    fn spare_by_scan(
        table: &FlowTable,
        f: Field,
        candidates: impl Iterator<Item = u64>,
    ) -> Option<u64> {
        let off = f.offset();
        let used: std::collections::BTreeSet<u64> = table
            .rules()
            .iter()
            .filter(|r| (0..f.width()).any(|i| r.tern.care.get(off + i)))
            .map(|r| r.tern.value.get_bits(off, f.width()))
            .collect();
        candidates.into_iter().find(|v| !used.contains(v))
    }

    /// `repair_header` by that scan, for an empty catch spec.
    fn repair_by_scan(table: &FlowTable, mut h: HeaderVec) -> HeaderVec {
        if !cares_by_scan(table, Field::InPort) {
            h.set_field(Field::InPort, u64::from(cfg().default_in_port));
        }
        let v = h.field(Field::DlType);
        if v < 0x600 || v == 0x8100 {
            if let Some(spare) = spare_by_scan(table, Field::DlType, spare_dl_types()) {
                h.set_field(Field::DlType, spare);
            }
        }
        let v = h.field(Field::DlVlan);
        if v > 0x0fff && v != u64::from(VLAN_NONE) {
            if let Some(spare) = spare_by_scan(table, Field::DlVlan, spare_vlans()) {
                h.set_field(Field::DlVlan, spare);
            }
        }
        h
    }

    /// A model no switch could be sent as is: in_port 7, an EtherType below
    /// 0x600 and a VLAN id past 0xfff.
    fn unrepaired() -> HeaderVec {
        let mut h = packet_to_headervec(7, &Default::default());
        h.set_field(Field::DlType, 0x42);
        h.set_field(Field::DlVlan, 0x2000);
        h
    }

    #[test]
    fn repair_header_gives_what_the_rule_scan_gave() {
        let in_port_3 = Match::any().with_in_port(3);
        let mut t = table_from(vec![
            (
                10,
                Match::any().with_nw_src([10, 0, 0, 1], 32),
                vec![Action::Output(1)],
            ),
            (1, Match::any(), vec![Action::Output(2)]),
        ]);
        let h = unrepaired();
        let check = |t: &FlowTable, pinned: bool| {
            let repaired = repair_header(t, &[], &cfg(), h);
            assert_eq!(repaired, repair_by_scan(t, h));
            let want = if pinned { cfg().default_in_port } else { 7 };
            assert_eq!(repaired.field(Field::InPort), u64::from(want));
            assert_eq!(repaired.field(Field::DlVlan), u64::from(VLAN_NONE));
        };
        // No rule matches in_port: the probe is pinned to the injection port.
        assert_eq!(t.rules_caring(Field::InPort), 0);
        check(&t, true);
        // A rule matching in_port = 3: the model's in_port stays.
        t.add_rule(5, in_port_3, vec![Action::Output(3)]).unwrap();
        check(&t, false);
        // A neighborhood that leaves that rule out pins again.
        let nb = t.neighborhood(&Match::any().with_in_port(4).ternary());
        assert_eq!(nb.len(), 2);
        check(&nb, true);
        // Strict-deleting the rule pins again.
        let removed = t
            .apply(&FlowMod {
                command: FlowModCommand::DeleteStrict,
                priority: 5,
                match_: in_port_3,
                actions: vec![],
                cookie: 0,
                idle_timeout: 0,
                hard_timeout: 0,
                check_overlap: false,
            })
            .unwrap()
            .removed;
        assert_eq!(removed.len(), 1);
        check(&t, true);
    }

    #[test]
    fn spare_value_gives_what_the_rule_scan_gave() {
        let mut t = table_from(vec![(1, Match::any(), vec![Action::Output(2)])]);
        let spare = |t: &FlowTable| {
            let v = spare_value(t, Field::DlType, spare_dl_types());
            assert_eq!(v, spare_by_scan(t, Field::DlType, spare_dl_types()));
            v
        };
        // No rule matches dl_type: the first candidate, no rule read.
        assert_eq!(t.rules_caring(Field::DlType), 0);
        assert_eq!(spare(&t), Some(u64::from(ethertype::IPV4)));
        // A rule matching dl_type = IPv4 takes that value out.
        t.add_rule(
            10,
            Match::any().with_dl_type(ethertype::IPV4),
            vec![Action::Output(1)],
        )
        .unwrap();
        assert_eq!(t.rules_caring(Field::DlType), 1);
        assert_eq!(spare(&t), Some(0x88b5));
        // As a repaired probe: the spare EtherType lands in the header.
        assert_eq!(
            repair_header(&t, &[], &cfg(), unrepaired()).field(Field::DlType),
            0x88b5
        );
    }

    #[test]
    fn stats_reported() {
        let t = table_from(vec![
            (
                10,
                Match::any().with_nw_src([10, 0, 0, 1], 32),
                vec![Action::Output(1)],
            ),
            (1, Match::any(), vec![Action::Output(2)]),
        ]);
        let (_, stats) =
            generate_probe_with_stats(&t, t.rules()[0].id, &CatchSpec::default(), &cfg()).unwrap();
        assert_eq!(stats.relevant_rules, 1);
        assert!(stats.clauses > 0);
    }
}
