//! Cache-aware probe generation: the [`ProbeEngine`].
//!
//! §5.3 makes probe generation the hot path of network-wide verification
//! (Table 2, Fig. 8): the stateless [`crate::generator::generate_probe`]
//! encodes and solves a SAT instance on every call, so steady-state
//! re-probing (§3) and large sweeps pay that cost even when the table has
//! not changed. The engine puts two layers in front of the same generator:
//!
//! 1. **Plan cache** — keyed by `(rule, catch-spec)` and invalidated by
//!    table deltas, a plan only when a delta reaches its probe. A
//!    steady-state re-probe of such a rule is a pure lookup: *zero* SAT
//!    solves, zero encoding work.
//! 2. **Guess-and-verify fast path** — the probed rule's own sample packet
//!    (pins applied, §5.2-repaired) is checked against the semantic oracle
//!    ([`crate::plan::verify_probe`]) before any SAT instance is built.
//!    Acceptance is deliberately restricted to cases provably equivalent to
//!    the SAT formulation (see [`ProbeEngine`] invariants below), so the
//!    engine's answers match stateless generation; the common ACL case
//!    (unicast/drop rules distinguished by output port) never hits the
//!    solver.
//!
//! A rule neither layer answers goes through exactly the call stateless
//! generation makes — one small pre-filtered instance, encoded from scratch,
//! as in the paper (§5.3–5.4) — so on that path the engine's answer *is*
//! the stateless one, header included. The engine solves every such
//! instance on the one solver it keeps: a solve resets the search and loads
//! its formula anew, so a reused solver answers exactly as the fresh one
//! stateless generation makes per call, but its buffers stay. Within one
//! call (a cold pass is one batch) they grow to the largest instance and are
//! reused by every other; at the end of the call they are trimmed to about
//! what the last instance took, so an idle engine holds little.
//!
//! ## Fingerprints and invalidation
//!
//! The engine never owns the flow table — every call takes `&FlowTable` and
//! the engine lazily synchronizes to it. Synchronization is driven by the
//! table's own [`FlowTable::fingerprint`], which the table maintains under
//! every mutation from per-rule signatures hashed once, so an unchanged
//! table costs one comparison. When the fingerprint has moved, the engine
//! diffs its id-keyed snapshot (signature and ternary per rule) against the
//! table: first only the ids the table itself logged since the engine last
//! read it ([`FlowTable::changes_since`]) — work proportional to the delta,
//! and nobody has to announce anything — and, if those do not account for
//! the new fingerprint (the log no longer reaches back that far, or this is
//! a different table altogether, as a pool engine sees between jobs), every
//! rule, reading the stored signatures ([`EngineStats::syncs_fallback`]
//! counts these). The log only makes the diff cheap; the fingerprint decides
//! when it is complete. Either way the diff identifies exactly the
//! added/removed/modified rules, and their old and new sides — id, ternary,
//! priority — are the *changed footprints* the cache is held against. A
//! footprint is *removed* when its rule no longer covers that ternary at
//! that priority: the rule left, or this is the old side of a modify that
//! moved its match or priority. An action-only modify removes nothing, and a
//! removed cover that a rule changed in the same synchronization puts back —
//! the same ternary at the same priority, as an ADD that replaces its entry
//! or a delete and a re-add leave it — is no loss.
//!
//! One invariant holds after every synchronization: **every cached `Ok`
//! plan verifies on the synced table with the outcomes it promises, and
//! every cached `Err` is what stateless generation returns there.** What
//! keeps it is what each kind of result depends on:
//!
//! * A plan reads the table only through the rules its probe *packet*
//!   matches: Hit, Distinguish (§3) and [`crate::plan::verify_probe`] are
//!   lookups of the one point `plan.header`. If no changed footprint
//!   contains that point, the rules matching it — ids, priorities, actions,
//!   tie-break order — are the same before and after, so both outcomes
//!   stand and the header is still a model of the new SAT instance (every
//!   clause about a rule it does not match is vacuous). The plan is dropped
//!   only when a footprint contains its header; a change to the probed rule
//!   itself always does. Rules that overlap the probed *rule* elsewhere may
//!   change which probe fresh generation would pick, never the validity of
//!   the cached one.
//! * `Hidden` is a certificate: Hit + Collect is UNSAT, i.e. the rule minus
//!   the union of the rules of priority ≥ its own that overlap it is empty
//!   under the catch pins (§3.5). Adding a rule, of any priority, can only
//!   add avoid clauses; an action change adds none; a lower rule is not in
//!   Hit at all. Only a covering rule that leaves or moves can un-hide the
//!   rule, so the entry is dropped when a footprint carries its own id, or
//!   is removed, of priority ≥ its own, overlaps it and is not put back by
//!   the same change. (This assumes the solver finishes; a budget-exhausted
//!   solve is `SolverBudget`, which is not a certificate.)
//! * Every other failure (Indistinguishable, SolverBudget, …) has no
//!   witness point and no certificate: it depends on the probed rule's
//!   whole overlap neighborhood — an `Indistinguishable` becomes `Hidden`
//!   when a higher rule arrives — and is dropped when a footprint overlaps
//!   the rule at all.
//!
//! [`EngineStats::plans_kept`] counts the plans the first rule saves: their
//! rule overlapped a footprint, their header lay outside it;
//! [`EngineStats::hidden_kept`] the `Hidden` entries the second one does.
//!
//! Every eviction records the rule id it dropped; a consumer that keeps
//! plans of its own (the proxy's steady cycle) drains them with
//! [`ProbeEngine::take_evicted`] and regenerates only those.
//!
//! A cache hit hands out a clone of the cached result, which shares the
//! plan's observation slices ([`crate::plan::ConcreteOutcome`]) instead of
//! copying them: a warm re-plan of an unchanged table allocates nothing but
//! the output vector.

use crate::encode::{self, CatchSpec};
use crate::generator::{self, GenStats, GeneratorConfig, ProbeError};
use crate::plan::ProbePlan;
use monocle_openflow::table::{fingerprint_term, IdHashMap, IdHashSet};
use monocle_openflow::{Field, FlowMod, FlowTable, PortNo, Rule, RuleId, Ternary};
use monocle_sat::CdclSolver;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Engine configuration.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Generator settings (solver budget, injection port) for the rules
    /// that reach the solver.
    pub gen: GeneratorConfig,
}

/// One cached generation result with what a change must touch to invalidate
/// it: a plan's footprint is its own `header`; a `Hidden` certificate's is a
/// removed rule of priority ≥ `priority` overlapping `tern`, or the rule
/// itself; any other failure's — no witness point to go by — anything
/// overlapping the probed rule's ternary. The probed rule's ternary and
/// priority are kept here so that no table is consulted (and so that the
/// survivors can be counted).
#[derive(Debug, Clone)]
struct CacheEntry {
    tern: Ternary,
    priority: u16,
    result: Result<ProbePlan, ProbeError>,
}

/// Snapshot of one rule at last synchronization.
#[derive(Debug, Clone, Copy)]
struct RuleSnap {
    tern: Ternary,
    priority: u16,
    sig: u64,
}

/// One side of a rule that differs between two synchronizations (module
/// docs, "Fingerprints and invalidation").
#[derive(Debug, Clone, Copy)]
struct Footprint {
    id: RuleId,
    tern: Ternary,
    priority: u16,
    /// This rule no longer covers `tern` at `priority`: it left the table,
    /// or this is the old side of a modify that moved its match or priority.
    removed: bool,
}

/// Engine-level lifecycle counters (plan-cache and invalidation behavior);
/// per-call solver/encoding counters live in [`GenStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Table synchronizations that found an unchanged fingerprint.
    pub syncs_clean: u64,
    /// Delta synchronizations (snapshot diff + overlap invalidation).
    pub syncs_delta: u64,
    /// Full resynchronizations: the first sync, and the first after
    /// [`ProbeEngine::clear`].
    pub syncs_full: u64,
    /// Delta synchronizations the table's change log could not complete,
    /// which fell back to diffing every rule: the log no longer reached back
    /// to the engine's last read, or the table is not the one the engine
    /// read last. An engine that follows one table — a monitor's, or a
    /// planner's replica of it ([`crate::planner::Replica`]) — stays at 0;
    /// an [`crate::pool::EnginePool`] switch's engine falls back on every
    /// job with a new table, because each job brings a table of its own (no
    /// shared history).
    pub syncs_fallback: u64,
    /// Plan-cache entries evicted by invalidation.
    pub plans_invalidated: u64,
    /// Cached plans whose rule overlapped a changed footprint and that
    /// survived because their probe header lies outside it.
    pub plans_kept: u64,
    /// Cached `Hidden` verdicts whose rule overlapped a changed footprint
    /// and that survived on their certificate: the rule itself did not
    /// change, and no rule of priority ≥ its own that overlapped it left or
    /// moved without the same cover being put back.
    pub hidden_kept: u64,
}

/// Stateful, cache-aware probe generator for one switch's flow table.
///
/// Construct one per monitored table (e.g. per [`crate::proxy::MonitorProxy`])
/// and route all generation through it; [`crate::generator::generate_probe`]
/// remains as the stateless path (a solver of its own per call) and the
/// engine's reference semantics.
///
/// ## Equivalence invariant
///
/// For any table state, [`ProbeEngine::generate`] and the stateless
/// [`crate::generator::generate_probe`] agree on success/failure and error
/// classification, and every plan the engine returns — generated now or
/// kept from an earlier table — passes the semantic oracle on the table it
/// was asked about with exactly the outcomes it carries (the module docs
/// say why a kept plan does). Probe *packets* may differ: both paths verify
/// their candidate against [`crate::plan::verify_probe`], and a kept plan
/// is a probe fresh generation might no longer pick. The fast path is the
/// only place the two can pick differently on the same table: a rule it does
/// not answer is generated by the stateless generator's own code. The
/// property tests in `tests/prop_engine.rs` exercise all of this across
/// randomized FlowMod edit sequences, together with the converse: nothing
/// is evicted that the edit did not reach.
#[derive(Debug)]
pub struct ProbeEngine {
    cfg: EngineConfig,
    /// The table as of the last synchronization, its fingerprint, and its
    /// [`FlowTable::version`].
    snapshot: IdHashMap<RuleId, RuleSnap>,
    table_fp: u64,
    table_version: u64,
    synced: bool,
    plan_cache: IdHashMap<(RuleId, u64), CacheEntry>,
    /// Rules whose cached plan was dropped and not yet reported by
    /// [`Self::take_evicted`]; pruned to the table at every synchronization.
    evicted: IdHashSet<RuleId>,
    total: GenStats,
    engine_stats: EngineStats,
    /// The solver every instance of this engine is solved on.
    solver: CdclSolver,
}

impl Default for ProbeEngine {
    fn default() -> Self {
        ProbeEngine::new(EngineConfig::default())
    }
}

impl ProbeEngine {
    /// Creates an engine.
    pub fn new(cfg: EngineConfig) -> ProbeEngine {
        ProbeEngine {
            cfg,
            snapshot: IdHashMap::default(),
            table_fp: 0,
            table_version: 0,
            synced: false,
            plan_cache: IdHashMap::default(),
            evicted: IdHashSet::default(),
            total: GenStats::default(),
            engine_stats: EngineStats::default(),
            solver: generator::probe_solver(),
        }
    }

    /// Engine wrapping the given generator settings.
    pub fn with_gen(gen: GeneratorConfig) -> ProbeEngine {
        ProbeEngine::new(EngineConfig { gen })
    }

    /// The generator configuration in use.
    pub fn gen_config(&self) -> &GeneratorConfig {
        &self.cfg.gen
    }

    /// Aggregate generation statistics since construction.
    pub fn stats(&self) -> GenStats {
        self.total
    }

    /// Engine lifecycle counters.
    pub fn engine_stats(&self) -> EngineStats {
        self.engine_stats
    }

    /// Number of cached plans (success and failure entries).
    pub fn cached_plans(&self) -> usize {
        self.plan_cache.len()
    }

    /// Drops all cached state; the next call resynchronizes from scratch.
    pub fn clear(&mut self) {
        self.engine_stats.plans_invalidated += self.plan_cache.len() as u64;
        self.evicted
            .extend(self.plan_cache.drain().map(|((id, _), _)| id));
        self.snapshot.clear();
        self.table_fp = 0;
        self.synced = false;
    }

    /// Does nothing: the table logs its own changes, and the next
    /// synchronization evicts by their exact footprints. Kept only because
    /// `benchmark/` calls it.
    pub fn note_flowmod(&mut self, _fm: &FlowMod) {}

    /// Synchronizes to `table` and drains the ids of the rules whose cached
    /// plan was evicted since the last call (by a synchronization, this one
    /// included) and that are still in `table`. A consumer holding plans
    /// from earlier calls regenerates exactly these, plus whatever it never
    /// had a cacheable result for.
    pub fn take_evicted(&mut self, table: &FlowTable) -> Vec<RuleId> {
        self.sync(table);
        self.evicted.drain().collect()
    }

    /// Generates (or retrieves) the probe plan for `id` in `table`.
    pub fn generate(
        &mut self,
        table: &FlowTable,
        id: RuleId,
        catch: &CatchSpec,
    ) -> Result<ProbePlan, ProbeError> {
        self.generate_with_stats(table, id, catch).0
    }

    /// As [`Self::generate`], also returning this call's statistics.
    pub fn generate_with_stats(
        &mut self,
        table: &FlowTable,
        id: RuleId,
        catch: &CatchSpec,
    ) -> (Result<ProbePlan, ProbeError>, GenStats) {
        self.sync(table);
        let pins = catch.all_pins();
        let catch_k = catch_key(&pins);
        let mut st = GenStats::default();
        let res = self.generate_inner(table, id, catch, &pins, catch_k, &mut st);
        self.end_call(&st);
        (res, st)
    }

    /// Batch generation: one synchronization for all `ids`. Returns results
    /// in input order.
    pub fn generate_batch(
        &mut self,
        table: &FlowTable,
        ids: &[RuleId],
        catch: &CatchSpec,
    ) -> Vec<Result<ProbePlan, ProbeError>> {
        self.generate_batch_with_stats(table, ids, catch).0
    }

    /// As [`Self::generate_batch`], also returning the batch's aggregate
    /// statistics.
    pub fn generate_batch_with_stats(
        &mut self,
        table: &FlowTable,
        ids: &[RuleId],
        catch: &CatchSpec,
    ) -> (Vec<Result<ProbePlan, ProbeError>>, GenStats) {
        self.sync(table);
        let pins = catch.all_pins();
        let catch_k = catch_key(&pins);
        let mut st = GenStats::default();
        let out = ids
            .iter()
            .map(|&id| self.generate_inner(table, id, catch, &pins, catch_k, &mut st))
            .collect();
        self.end_call(&st);
        (out, st)
    }

    /// As [`Self::generate_batch_with_stats`], additionally returning each
    /// probe's true wall-clock generation latency (measured around the
    /// per-rule work only — the one-off table synchronization is excluded,
    /// matching what a per-probe latency distribution means). This is the
    /// bench instrumentation path: per-item timing without a
    /// synchronization per call.
    pub fn generate_batch_timed(
        &mut self,
        table: &FlowTable,
        ids: &[RuleId],
        catch: &CatchSpec,
    ) -> (
        Vec<Result<ProbePlan, ProbeError>>,
        Vec<std::time::Duration>,
        GenStats,
    ) {
        self.sync(table);
        let pins = catch.all_pins();
        let catch_k = catch_key(&pins);
        let mut st = GenStats::default();
        let mut times = Vec::with_capacity(ids.len());
        let mut out = Vec::with_capacity(ids.len());
        for &id in ids {
            let t0 = std::time::Instant::now();
            out.push(self.generate_inner(table, id, catch, &pins, catch_k, &mut st));
            times.push(t0.elapsed());
        }
        self.end_call(&st);
        (out, times, st)
    }

    // ---- internals -----------------------------------------------------

    /// Ends a public call: adds its statistics to the engine's and trims the
    /// solver. The instances of one call share the solver's buffers at their
    /// largest; between calls it holds about what the last one took (a call
    /// that solved nothing finds it trimmed already).
    fn end_call(&mut self, st: &GenStats) {
        self.total.merge(st);
        if st.solver_calls > 0 {
            self.solver.trim();
        }
    }

    /// One rule's plan: from the cache, else generated and cached. `pins`
    /// is `catch.all_pins()` and `catch_k` its [`catch_key`], both built
    /// once per public call.
    fn generate_inner(
        &mut self,
        table: &FlowTable,
        id: RuleId,
        catch: &CatchSpec,
        pins: &[(Field, u64)],
        catch_k: u64,
        st: &mut GenStats,
    ) -> Result<ProbePlan, ProbeError> {
        if let Some(entry) = self.plan_cache.get(&(id, catch_k)) {
            st.cache_hits += 1;
            return entry.result.clone();
        }
        st.cache_misses += 1;
        let Some(probed) = table.get(id) else {
            // Not cached: there is no ternary to invalidate by.
            return Err(ProbeError::NoSuchRule(id));
        };
        let result = self.generate_uncached(table, probed, catch, pins, st);
        // Cacheability: a plan stays valid while the rules matching its
        // header do, Hidden while its cover does, and the Indistinguishable/
        // CatchConflict/RewritesReserved/SolverBudget errors are fully
        // determined by the rule's overlap neighborhood + pins, so
        // `evict_changed` keeps all three exact. RepairFailed is the one
        // outcome that also depends on *disjoint* rules (spare-value /
        // domain selection reads every rule of the table), so caching it
        // could pin a stale failure — regenerate it every time instead (it
        // is rare by construction).
        if !matches!(result, Err(ProbeError::RepairFailed)) {
            self.plan_cache.insert(
                (id, catch_k),
                CacheEntry {
                    tern: probed.tern,
                    priority: probed.priority,
                    result: result.clone(),
                },
            );
        }
        result
    }

    fn generate_uncached(
        &mut self,
        table: &FlowTable,
        probed: &Rule,
        catch: &CatchSpec,
        pins: &[(Field, u64)],
        st: &mut GenStats,
    ) -> Result<ProbePlan, ProbeError> {
        if let Some(plan) = self.try_fast_path(table, probed, pins) {
            st.fast_path_hits += 1;
            return Ok(plan);
        }
        generator::generate_for_rule(
            table,
            probed,
            catch,
            pins,
            &self.cfg.gen,
            &mut self.solver,
            st,
        )
    }

    /// Guess-and-verify: repair the probed rule's sample packet and check it
    /// semantically. Accepts only candidates that are *provably also models
    /// of the SAT instance*, keeping the engine equivalent to stateless
    /// generation:
    ///
    /// * the (normalized) probe matches the probed rule and no other rule of
    ///   priority ≥ it — exactly the conservative Hit constraint;
    /// * catch pins hold (checked by the oracle);
    /// * present/absent outcomes are unicast-or-drop and differ in *output
    ///   port sets* — the one distinguishing condition whose SAT encoding
    ///   ([`crate::outcome::OutcomeDiff`]) is unconditionally true, so the
    ///   candidate satisfies Distinguish under any lower-rule chain.
    ///
    /// Anything subtler (rewrite-only differences, ECMP/multicast,
    /// counting) falls through to the solver.
    ///
    /// The table is read through classifier lookups and, in the repair, its
    /// [`FlowTable::rules_caring`] counts; rules are scanned only for a
    /// spare `dl_type` or `dl_vlan` value when the sample's is not valid on
    /// the wire and some rule matches that field.
    fn try_fast_path(
        &self,
        table: &FlowTable,
        probed: &Rule,
        pins: &[(Field, u64)],
    ) -> Option<ProbePlan> {
        encode::check_catch_pins(probed, pins).ok()?;
        let mut sample = probed.tern.sample_packet();
        for &(f, v) in pins {
            sample.set_field(f, v);
        }
        let repaired = generator::repair_header(table, pins, &self.cfg.gen, sample);
        let candidates: &[_] = if repaired == sample {
            &[sample]
        } else {
            &[repaired, sample]
        };
        for &cand in candidates {
            let Some((plan, absent_priority)) = generator::finish(table, probed, pins, cand) else {
                continue;
            };
            // Conservative Hit on the *normalized* header: no rule of equal
            // or higher priority (other than the probed one) may match. The
            // verifier's absent-side lookup was the best other match for
            // this very header, so its priority answers this with no query
            // of its own.
            if absent_priority.is_some_and(|p| p >= probed.priority) {
                continue;
            }
            // Port-set distinguishing over simple outcomes only.
            if plan.present.observations.len() > 1 || plan.absent.observations.len() > 1 {
                continue;
            }
            let p_port: Option<PortNo> = plan.present.observations.first().map(|o| o.0);
            let a_port: Option<PortNo> = plan.absent.observations.first().map(|o| o.0);
            if p_port != a_port {
                return Some(plan);
            }
        }
        None
    }

    /// Lazily synchronizes cached state to `table`: O(1) when the table's
    /// fingerprint has not moved, O(delta) when the ids the table logged
    /// since the last synchronization account for the move, a diff of the
    /// whole snapshot otherwise.
    fn sync(&mut self, table: &FlowTable) {
        let fp = table.fingerprint();
        if self.synced && fp == self.table_fp {
            self.engine_stats.syncs_clean += 1;
            self.table_version = table.version();
            return;
        }
        let mut changed: Vec<Footprint> = Vec::new();
        if self.synced {
            self.engine_stats.syncs_delta += 1;
            for &id in table.changes_since(self.table_version).unwrap_or_default() {
                self.resnap(id, table.get(id), &mut changed);
            }
            if self.table_fp != fp {
                self.engine_stats.syncs_fallback += 1;
            }
        } else {
            self.engine_stats.syncs_full += 1;
            self.clear();
            self.synced = true;
        }
        if self.table_fp != fp {
            // The log did not account for the change (a first sync, a log
            // that no longer reaches back this far, another table
            // altogether): diff every rule by id and stored signature.
            for r in table.rules() {
                self.resnap(r.id, Some(r), &mut changed);
            }
            if self.snapshot.len() > table.len() {
                let gone: Vec<RuleId> = self
                    .snapshot
                    .keys()
                    .filter(|&&id| table.get(id).is_none())
                    .copied()
                    .collect();
                for id in gone {
                    self.resnap(id, None, &mut changed);
                }
            }
        }
        // Rule order is a function of the rule set, so the fingerprint moves
        // exactly when a rule does: the snapshot now hashes to the table's.
        debug_assert_eq!(self.table_fp, fp);
        debug_assert!(!changed.is_empty() || table.is_empty());
        self.table_version = table.version();
        self.evict_changed(&changed);
        self.evicted.retain(|id| self.snapshot.contains_key(id));
    }

    /// Brings the snapshot entry of rule `id` (and the snapshot's
    /// fingerprint) up to `new`, the rule as the table has it now. If it
    /// differs, both its footprints — a modified rule has two, an added or
    /// removed one its only one — join the `changed` neighborhood, the old
    /// side marked removed unless the rule still has its match and priority.
    /// An unchanged rule costs one lookup.
    fn resnap(&mut self, id: RuleId, new: Option<&Rule>, changed: &mut Vec<Footprint>) {
        let snap = new.map(|r| RuleSnap {
            tern: r.tern,
            priority: r.priority,
            sig: r.sig(),
        });
        if self.snapshot.get(&id).map(|o| o.sig) == snap.map(|s| s.sig) {
            return;
        }
        let old = match snap {
            Some(s) => self.snapshot.insert(id, s),
            None => self.snapshot.remove(&id),
        };
        if let Some(o) = old {
            self.table_fp = self.table_fp.wrapping_sub(fingerprint_term(id, o.sig));
            changed.push(Footprint {
                id,
                tern: o.tern,
                priority: o.priority,
                removed: snap.is_none_or(|s| (s.tern, s.priority) != (o.tern, o.priority)),
            });
        }
        if let Some(s) = snap {
            self.table_fp = self.table_fp.wrapping_add(fingerprint_term(id, s.sig));
            changed.push(Footprint {
                id,
                tern: s.tern,
                priority: s.priority,
                removed: false,
            });
        }
    }

    /// Evicts, recording the rule ids, what a change described by
    /// `footprints` can invalidate (module docs, "Fingerprints and
    /// invalidation"): a plan when a footprint contains its header, a
    /// `Hidden` when a footprint is the rule itself or a removed cover of
    /// it that no changed rule puts back, any other failure when a
    /// footprint overlaps its rule.
    fn evict_changed(&mut self, footprints: &[Footprint]) {
        let (evicted, stats) = (&mut self.evicted, &mut self.engine_stats);
        // A removed cover is lost unless a side not removed — a rule the
        // table has now — has the same priority and ternary.
        let lost = |f: &Footprint| {
            !footprints
                .iter()
                .any(|g| !g.removed && g.priority == f.priority && g.tern == f.tern)
        };
        self.plan_cache.retain(|(id, _), e| {
            if !footprints.iter().any(|f| f.tern.overlaps(&e.tern)) {
                return true;
            }
            let keep = match &e.result {
                Ok(plan) => !footprints.iter().any(|f| f.tern.matches(&plan.header)),
                Err(ProbeError::Hidden) => !footprints.iter().any(|f| {
                    f.id == *id
                        || (f.removed
                            && f.priority >= e.priority
                            && f.tern.overlaps(&e.tern)
                            && lost(f))
                }),
                Err(_) => false,
            };
            if keep {
                match e.result {
                    Ok(_) => stats.plans_kept += 1,
                    Err(_) => stats.hidden_kept += 1,
                }
            } else {
                stats.plans_invalidated += 1;
                evicted.insert(*id);
            }
            keep
        });
    }
}

/// Cache key component for a catch spec, from its `all_pins()` (field
/// offsets are unique, so this is collision-free across distinct pin sets in
/// practice).
fn catch_key(pins: &[(Field, u64)]) -> u64 {
    let mut h = DefaultHasher::new();
    for &(f, v) in pins {
        f.offset().hash(&mut h);
        v.hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate_probe;
    use monocle_openflow::{Action, Field, Match};

    fn table_from(rules: Vec<(u16, Match, Vec<Action>)>) -> FlowTable {
        let mut t = FlowTable::new();
        for (p, m, a) in rules {
            t.add_rule(p, m, a).unwrap();
        }
        t
    }

    fn fig1_table() -> FlowTable {
        table_from(vec![
            (
                10,
                Match::any().with_nw_src([10, 0, 0, 1], 32),
                vec![Action::Output(1)],
            ),
            (1, Match::any(), vec![Action::Output(2)]),
        ])
    }

    /// A default engine that has planned every rule of `t`, with the ids
    /// and the results in table order.
    fn plan_all(t: &FlowTable) -> (Vec<RuleId>, ProbeEngine, Vec<Result<ProbePlan, ProbeError>>) {
        let ids: Vec<RuleId> = t.rules().iter().map(|r| r.id).collect();
        let mut eng = ProbeEngine::default();
        let plans = eng.generate_batch(t, &ids, &CatchSpec::default());
        (ids, eng, plans)
    }

    #[test]
    fn engine_matches_stateless_on_fig1() {
        let t = fig1_table();
        let id = t.rules()[0].id;
        let catch = CatchSpec::default();
        let mut eng = ProbeEngine::default();
        let plan = eng.generate(&t, id, &catch).unwrap();
        let reference = generate_probe(&t, id, &catch, &GeneratorConfig::default()).unwrap();
        assert_eq!(
            plan.present.observations[0].0,
            reference.present.observations[0].0
        );
        assert_eq!(
            plan.absent.observations[0].0,
            reference.absent.observations[0].0
        );
        // The engine's plan independently passes the oracle.
        let oracle = crate::plan::verify_probe(&t, id, &plan.header, &catch.all_pins());
        assert!(oracle.is_some());
    }

    #[test]
    fn unchanged_table_reprobe_is_pure_cache_hit() {
        // The top rule differs from the default route only by its rewrite,
        // which the fast path does not accept: the first pass must use the
        // solver, proving the second pass's zero solver calls come from the
        // cache alone.
        let t = table_from(vec![
            (
                20,
                Match::any().with_nw_src([10, 0, 0, 1], 32),
                vec![Action::SetNwTos(0x2e), Action::Output(1)],
            ),
            (10, Match::any(), vec![Action::Output(1)]),
        ]);
        let ids: Vec<RuleId> = t.rules().iter().map(|r| r.id).collect();
        let catch = CatchSpec::default();
        let mut eng = ProbeEngine::default();
        let (first, st1) = eng.generate_batch_with_stats(&t, &ids, &catch);
        assert!(st1.solver_calls > 0, "cold pass must solve");
        assert_eq!(st1.cache_misses, ids.len() as u64);
        let (second, st2) = eng.generate_batch_with_stats(&t, &ids, &catch);
        assert_eq!(st2.solver_calls, 0, "warm re-probe must not touch SAT");
        assert_eq!(st2.cache_hits, ids.len() as u64);
        assert_eq!(st2.cache_misses, 0);
        assert_eq!(st2.instances_built, 0);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a, b, "cached result must be identical");
        }
    }

    #[test]
    fn a_solve_reuses_the_buffers_of_the_calls_earlier_ones() {
        // Two rules the fast path cannot answer (rewrite-only differences
        // from the default route) whose instances are of one size.
        let tos = |i: u8| {
            (
                20,
                Match::any().with_nw_src([10, 0, 0, i], 32),
                vec![Action::SetNwTos(0x2e), Action::Output(1)],
            )
        };
        let t = table_from(vec![
            tos(1),
            tos(2),
            (10, Match::any(), vec![Action::Output(1)]),
        ]);
        let ids: Vec<RuleId> = t.rules()[..2].iter().map(|r| r.id).collect();
        let catch = CatchSpec::default();
        let (_, one) = ProbeEngine::default().generate_batch_with_stats(&t, &ids[..1], &catch);
        let (_, both) = ProbeEngine::default().generate_batch_with_stats(&t, &ids, &catch);
        assert_eq!(one.solver_calls, 1);
        assert_eq!(both.solver_calls, 2);
        assert!(one.arena_reallocs > 0, "a fresh engine grows its arena");
        assert_eq!(
            both.arena_reallocs, one.arena_reallocs,
            "the second solve grows nothing"
        );
    }

    #[test]
    fn fast_path_skips_solver_and_verifies() {
        let t = fig1_table();
        let id = t.rules()[0].id;
        let catch = CatchSpec::default();
        let mut eng = ProbeEngine::default();
        let (res, st) = eng.generate_with_stats(&t, id, &catch);
        let plan = res.unwrap();
        assert_eq!(st.fast_path_hits, 1);
        assert_eq!(st.solver_calls, 0);
        assert!(crate::plan::verify_probe(&t, id, &plan.header, &[]).is_some());
    }

    #[test]
    fn flowmod_delta_invalidates_only_neighborhood() {
        // Two disjoint specific rules over a default route.
        let dst1 = Match::any().with_nw_dst([10, 0, 0, 1], 32);
        let mut t = table_from(vec![
            (10, dst1, vec![Action::Output(1)]),
            (
                10,
                Match::any().with_nw_dst([10, 0, 0, 2], 32),
                vec![Action::Output(3)],
            ),
            (1, Match::any(), vec![Action::Output(2)]),
        ]);
        let catch = CatchSpec::default();
        let (ids, mut eng, plans) = plan_all(&t);
        assert_eq!(eng.cached_plans(), 3);
        let h1 = plans[0].as_ref().unwrap().header;
        // A rule above part of the first rule, away from its probe: the rule
        // and the default route overlap it, neither probe can reach it, and
        // every plan survives — the two neighbors counted as kept.
        let beside = dst1.with_nw_proto(6);
        assert!(!beside.ternary().matches(&h1));
        let fm = FlowMod::add(20, beside, vec![Action::Output(4)]);
        t.apply(&fm).unwrap();
        assert!(eng.take_evicted(&t).is_empty());
        assert_eq!(eng.engine_stats().plans_kept, 2);
        assert_eq!(eng.cached_plans(), 3);
        assert_eq!(eng.engine_stats().plans_invalidated, 0);
        // The same rule across the whole first rule takes its probe: that
        // plan goes, the default route's (probing elsewhere) stays.
        assert!(dst1.ternary().matches(&h1));
        let fm = FlowMod::add(30, dst1, vec![Action::Output(4)]);
        t.apply(&fm).unwrap();
        assert_eq!(eng.take_evicted(&t), vec![ids[0]]);
        assert_eq!(eng.cached_plans(), 2);
        let (res, st) = eng.generate_batch_with_stats(&t, &ids, &catch);
        assert_eq!((st.cache_hits, st.cache_misses), (2, 1));
        assert_eq!(res[0], Err(ProbeError::Hidden));
        assert_eq!(res[1..], plans[1..], "kept plans are the cached ones");
        assert_eq!(eng.engine_stats().syncs_delta, 2);
    }

    #[test]
    fn modify_as_add_invalidates_and_creates_plan_cache_entry() {
        // OF1.0 MODIFY with no matching entry behaves as ADD; the engine's
        // synchronization must agree: a cached plan goes exactly when the
        // new rule matches its probe, and the new rule gets a fresh plan
        // identical to stateless generation.
        use monocle_openflow::FlowModCommand;
        let mut t = fig1_table();
        let catch = CatchSpec::default();
        let (ids, mut eng, plans) = plan_all(&t);
        assert_eq!(eng.cached_plans(), 2);
        let default_plan = plans[1].clone().unwrap();
        let modify_as_add = |m: Match| FlowMod {
            command: FlowModCommand::Modify,
            ..FlowMod::add(20, m, vec![Action::Output(7)])
        };
        // MODIFY that matches nothing: acts as ADD of a new specific rule.
        let fm = modify_as_add(Match::any().with_nw_src([10, 0, 0, 2], 32));
        assert!(!fm.match_.ternary().matches(&default_plan.header));
        let res = t.apply(&fm).unwrap();
        assert_eq!(res.added.len(), 1, "table reports an Add");
        assert!(res.modified.is_empty());
        let new_id = res.added[0];
        // The new rule overlaps the default route, whose probe it cannot
        // match (the plan survives), and not the 10.0.0.1/32 rule.
        assert!(eng.take_evicted(&t).is_empty());
        assert_eq!(eng.cached_plans(), 2);
        assert_eq!(eng.engine_stats().plans_kept, 1);
        let (engine_plan, st) = eng.generate_with_stats(&t, new_id, &catch);
        assert_eq!(st.cache_misses, 1, "new rule's plan is freshly created");
        let fresh = generate_probe(&t, new_id, &catch, &GeneratorConfig::default());
        assert_eq!(engine_plan.is_ok(), fresh.is_ok());
        let plan = engine_plan.unwrap();
        assert!(crate::plan::verify_probe(&t, new_id, &plan.header, &[]).is_some());
        // And it is now cached: the re-probe is a pure hit.
        let (_, st) = eng.generate_with_stats(&t, new_id, &catch);
        assert_eq!(st.cache_hits, 1);
        assert_eq!(eng.engine_stats().plans_invalidated, 0);
        // The other side: the same kind of rule right where the default
        // route is probed takes that plan and no other.
        let fm = modify_as_add(Match::any().with_dl_type(default_plan.fields.dl_type));
        assert!(fm.match_.ternary().matches(&default_plan.header));
        t.apply(&fm).unwrap();
        assert_eq!(eng.take_evicted(&t), vec![ids[1]]);
        assert_eq!(eng.cached_plans(), 2);
        let moved = eng.generate(&t, ids[1], &catch).unwrap();
        assert_ne!(moved.header, default_plan.header);
        assert!(crate::plan::verify_probe(&t, ids[1], &moved.header, &[]).is_some());
    }

    #[test]
    fn unannounced_rule_over_a_cached_header_evicts_it() {
        // A higher-priority rule nobody announced evicts the plans whose
        // header it matches and only those.
        let src = |i: u8| Match::any().with_nw_src([10, 0, 0, i], 32);
        let mut t = table_from(vec![
            (10, src(1), vec![Action::Output(1)]),
            (10, src(2), vec![Action::Output(3)]),
            (1, Match::any(), vec![Action::Output(2)]),
        ]);
        let (ids, mut eng, plans) = plan_all(&t);
        let h1 = plans[0].as_ref().unwrap().header;
        let over = Match::any().with_nw_src([10, 0, 0, 0], 30);
        assert!(over.ternary().matches(&h1));
        t.add_rule(20, over, vec![Action::Output(4)]).unwrap();
        let mut evicted = eng.take_evicted(&t);
        evicted.sort_unstable();
        assert_eq!(evicted, vec![ids[0], ids[1]]);
        assert_eq!(
            eng.cached_plans(),
            1,
            "the default route is probed elsewhere"
        );
        assert_eq!(eng.engine_stats().plans_kept, 1);
        assert_matches_stateless(&mut eng, &t);
    }

    #[test]
    fn deleting_the_shadow_of_a_hidden_rule_evicts_the_error() {
        let src = Match::any().with_nw_src([10, 0, 0, 1], 32);
        let mut t = table_from(vec![
            (20, src, vec![Action::Output(1)]),
            (10, src.with_nw_proto(6), vec![Action::Output(3)]),
            (1, Match::any(), vec![Action::Output(2)]),
        ]);
        let catch = CatchSpec::default();
        let (ids, mut eng, first) = plan_all(&t);
        assert_eq!(first[1], Err(ProbeError::Hidden));
        t.apply(&FlowMod::delete_strict(20, src)).unwrap();
        // The failure has no header to go by: it goes with its neighborhood.
        // The removed rule's own entry goes (and is not reported: the rule
        // is gone); the default route's plan never depended on either.
        assert_eq!(eng.take_evicted(&t), vec![ids[1]]);
        assert_eq!(eng.cached_plans(), 1);
        assert_eq!(eng.engine_stats().plans_kept, 1);
        let (plan, st) = eng.generate_with_stats(&t, ids[1], &catch);
        assert_eq!(st.cache_misses, 1);
        let plan = plan.expect("no longer hidden");
        assert!(crate::plan::verify_probe(&t, ids[1], &plan.header, &[]).is_some());
    }

    /// A covered rule under its cover, over the default route: the Hidden
    /// entry under test is `ids[1]`.
    fn hidden_under_cover() -> (Match, FlowTable) {
        let src = Match::any().with_nw_src([10, 0, 0, 1], 32);
        let t = table_from(vec![
            (20, src, vec![Action::Output(1)]),
            (10, src.with_nw_proto(6), vec![Action::Output(3)]),
            (1, Match::any(), vec![Action::Output(2)]),
        ]);
        (src, t)
    }

    /// `id`'s cached answer is served again: one hit, no miss.
    fn assert_served_from_cache(eng: &mut ProbeEngine, t: &FlowTable, id: RuleId) {
        let (res, st) = eng.generate_with_stats(t, id, &CatchSpec::default());
        assert_eq!(res, Err(ProbeError::Hidden));
        assert_eq!((st.cache_hits, st.cache_misses), (1, 0));
    }

    #[test]
    fn a_hidden_verdict_outlives_changes_that_keep_its_cover() {
        let (src, mut t) = hidden_under_cover();
        let (ids, mut eng, first) = plan_all(&t);
        assert_eq!(first[1], Err(ProbeError::Hidden));
        // A strict modify of the cover: its probe goes, the certificate and
        // the default route's plan (probed outside the cover) stay.
        t.apply(&FlowMod::modify_strict(20, src, vec![Action::Output(5)]))
            .unwrap();
        assert_eq!(eng.take_evicted(&t), vec![ids[0]]);
        assert_eq!(eng.engine_stats().hidden_kept, 1);
        assert_eq!(eng.engine_stats().plans_kept, 1);
        assert_served_from_cache(&mut eng, &t, ids[1]);
        // An ADD that replaces the cover, then a delete and a re-add of it
        // between two syncs: a new id each time, the same cover throughout.
        t.apply(&FlowMod::add(20, src, vec![Action::Output(6)]))
            .unwrap();
        assert!(eng.take_evicted(&t).is_empty(), "the old id is gone");
        assert_served_from_cache(&mut eng, &t, ids[1]);
        t.apply(&FlowMod::delete_strict(20, src)).unwrap();
        t.apply(&FlowMod::add(20, src, vec![Action::Output(1)]))
            .unwrap();
        assert!(eng.take_evicted(&t).is_empty());
        assert_served_from_cache(&mut eng, &t, ids[1]);
        assert_eq!(eng.engine_stats().hidden_kept, 3);
        assert_matches_stateless(&mut eng, &t);
    }

    #[test]
    fn a_hidden_verdict_outlives_a_new_rule_over_it_and_a_lower_one_leaving() {
        let (src, mut t) = hidden_under_cover();
        let (ids, mut eng, _) = plan_all(&t);
        // A second, higher cover only adds avoid clauses.
        t.add_rule(30, src.with_nw_proto(6), vec![Action::Output(4)])
            .unwrap();
        assert!(!eng.take_evicted(&t).contains(&ids[1]));
        assert_served_from_cache(&mut eng, &t, ids[1]);
        // A lower rule is not in Hit at all: the default route leaving takes
        // the plans probed through it, not the certificate.
        t.remove_by_id(ids[2]).unwrap();
        assert!(!eng.take_evicted(&t).contains(&ids[1]));
        assert_served_from_cache(&mut eng, &t, ids[1]);
        assert_eq!(eng.engine_stats().hidden_kept, 2);
        assert_matches_stateless(&mut eng, &t);
    }

    #[test]
    fn modifying_the_hidden_rule_itself_evicts_it() {
        let (src, mut t) = hidden_under_cover();
        let catch = CatchSpec::default();
        let (ids, mut eng, _) = plan_all(&t);
        t.apply(&FlowMod::modify_strict(
            10,
            src.with_nw_proto(6),
            vec![Action::Output(7)],
        ))
        .unwrap();
        assert_eq!(eng.take_evicted(&t), vec![ids[1]]);
        assert_eq!(eng.engine_stats().hidden_kept, 0);
        let (res, st) = eng.generate_with_stats(&t, ids[1], &catch);
        assert_eq!(res, Err(ProbeError::Hidden));
        assert_eq!(st.cache_misses, 1);
    }

    #[test]
    fn removed_rules_own_entry_always_goes() {
        // Whatever the cached result: a plan's header lies inside its own
        // rule, a failure's rule overlaps itself.
        let src = Match::any().with_nw_src([10, 0, 0, 1], 32);
        let mut t = table_from(vec![
            (20, src, vec![Action::Output(1)]),
            (10, src.with_nw_proto(6), vec![Action::Output(3)]),
            (10, Match::any().with_nw_src([10, 0, 0, 2], 32), vec![]),
            (1, Match::any(), vec![Action::Output(2)]),
        ]);
        let catch = CatchSpec::default();
        let (ids, mut eng, first) = plan_all(&t);
        assert!(first[1].is_err() && first[2].is_ok());
        // The hidden rule deleted by a FlowMod, the planned one by id.
        t.apply(&FlowMod::delete_strict(10, src.with_nw_proto(6)))
            .unwrap();
        t.remove_by_id(ids[2]).unwrap();
        assert!(
            eng.take_evicted(&t).is_empty(),
            "gone rules are not reported"
        );
        assert_eq!(eng.cached_plans(), 2);
        for gone in [ids[1], ids[2]] {
            assert_eq!(
                eng.generate(&t, gone, &catch),
                Err(ProbeError::NoSuchRule(gone))
            );
        }
    }

    #[test]
    fn modify_restored_before_a_sync_leaves_the_cache_untouched() {
        let mut t = fig1_table();
        let catch = CatchSpec::default();
        let (ids, mut eng, first) = plan_all(&t);
        let m = Match::any().with_nw_src([10, 0, 0, 1], 32);
        for out in [5, 1] {
            let fm = FlowMod::modify_strict(10, m, vec![Action::Output(out)]);
            let res = t.apply(&fm).unwrap();
            assert_eq!(res.modified, vec![ids[0]]);
        }
        assert!(eng.take_evicted(&t).is_empty());
        let (again, st) = eng.generate_batch_with_stats(&t, &ids, &catch);
        assert_eq!((st.cache_hits, st.cache_misses), (2, 0));
        assert_eq!(again, first);
        let stats = eng.engine_stats();
        assert_eq!((stats.plans_invalidated, stats.plans_kept), (0, 0));
        assert_eq!(stats.syncs_delta, 0, "the fingerprint never moved");
    }

    #[test]
    fn engine_tracks_table_edits_without_notification() {
        let mut t = fig1_table();
        let id = t.rules()[0].id;
        let catch = CatchSpec::default();
        let mut eng = ProbeEngine::default();
        assert!(eng.generate(&t, id, &catch).is_ok());
        // An edit nobody tells the engine about: a higher-priority shadow.
        t.add_rule(
            20,
            Match::any().with_nw_src([10, 0, 0, 1], 32),
            vec![Action::Output(1)],
        )
        .unwrap();
        // The fingerprint safety net must invalidate and re-answer
        // consistently with stateless generation.
        assert_matches_stateless(&mut eng, &t);
    }

    #[test]
    fn announced_deltas_sync_like_unannounced_ones() {
        // Two engines over one churning table: `logged` reads the table
        // itself and learns each delta from its change log, `unlogged` reads
        // a copy without history (the whole table as a neighborhood) and
        // must diff every rule. Same answers, same evictions — and a log
        // that no longer reaches back to the last sync falls back to the
        // full diff.
        let src = |i: u8| Match::any().with_nw_src([10, 0, 0, i], 32);
        let mut t = table_from(vec![
            (30, src(1).with_nw_proto(6), vec![Action::Output(1)]),
            (20, src(1), vec![Action::Output(2)]),
            (20, src(2), vec![Action::Output(3)]),
            (1, Match::any(), vec![Action::Output(2)]),
        ]);
        let copy = |t: &FlowTable| t.neighborhood(&Match::any().ternary());
        let (mut logged, mut unlogged) = (ProbeEngine::default(), ProbeEngine::default());
        assert_matches_stateless(&mut logged, &t);
        assert_matches_stateless(&mut unlogged, &copy(&t));
        let mods = [
            FlowMod::modify_strict(20, src(1), vec![Action::Output(5)]),
            FlowMod::delete_strict(20, src(2)),
            FlowMod::add(25, src(3), vec![Action::Output(6)]),
            FlowMod::add(20, src(1), vec![Action::Output(7)]), // replaces
        ];
        for round in 0..3 {
            // Round 0 syncs after every FlowMod, round 1 after all four,
            // round 2 after the same four thirty times over: more ids than
            // the table keeps.
            for fm in mods.iter().cycle().take(if round == 2 { 120 } else { 4 }) {
                t.apply(fm).unwrap();
                if round == 0 {
                    assert_matches_stateless(&mut logged, &t);
                    assert_matches_stateless(&mut unlogged, &copy(&t));
                    assert_eq!(logged.cached_plans(), unlogged.cached_plans());
                }
            }
            assert_matches_stateless(&mut logged, &t);
            assert_matches_stateless(&mut unlogged, &copy(&t));
            assert_eq!(logged.cached_plans(), unlogged.cached_plans());
        }
        let (l, u) = (logged.engine_stats(), unlogged.engine_stats());
        assert_eq!(l.syncs_full, 1);
        assert_eq!(l.syncs_delta, u.syncs_delta);
        assert_eq!(l.syncs_fallback, 1, "only the overflowed log falls back");
        assert_eq!(u.syncs_fallback, u.syncs_delta);
        assert_eq!(l.plans_invalidated, u.plans_invalidated);
        // Every eviction was recorded; rules no longer in the table are not
        // reported, and a drained log stays drained.
        let evicted = logged.take_evicted(&t);
        assert!(!evicted.is_empty());
        assert!(evicted.iter().all(|id| t.get(*id).is_some()));
        assert!(logged.take_evicted(&t).is_empty());
    }

    #[test]
    fn catch_specs_cached_independently() {
        let t = fig1_table();
        let id = t.rules()[0].id;
        let mut eng = ProbeEngine::default();
        let default_plan = eng.generate(&t, id, &CatchSpec::default()).unwrap();
        let pinned = CatchSpec::tag(Field::DlVlan, 0xf03);
        let pinned_plan = eng.generate(&t, id, &pinned).unwrap();
        assert_eq!(pinned_plan.header.field(Field::DlVlan), 0xf03);
        assert_eq!(eng.cached_plans(), 2);
        // Both stay warm.
        let (_, st) = eng.generate_with_stats(&t, id, &CatchSpec::default());
        assert_eq!(st.cache_hits, 1);
        let _ = default_plan;
    }

    /// Engine ≡ stateless on every rule of `t` (error class + oracle).
    fn assert_matches_stateless(eng: &mut ProbeEngine, t: &FlowTable) {
        let catch = CatchSpec::default();
        for r in t.rules() {
            let fresh = generate_probe(t, r.id, &catch, &GeneratorConfig::default());
            let engine = eng.generate(t, r.id, &catch);
            assert_eq!(engine.as_ref().err(), fresh.as_ref().err(), "rule {}", r.id);
            if let Ok(plan) = engine {
                assert!(crate::plan::verify_probe(t, r.id, &plan.header, &[]).is_some());
            }
        }
    }

    #[test]
    fn error_results_are_cached_too() {
        let t = table_from(vec![
            (
                20,
                Match::any().with_nw_src([10, 0, 0, 1], 32),
                vec![Action::Output(1)],
            ),
            (10, Match::any(), vec![Action::Output(1)]),
        ]);
        let id = t.rules()[0].id;
        let mut eng = ProbeEngine::default();
        let catch = CatchSpec::default();
        assert_eq!(
            eng.generate(&t, id, &catch).unwrap_err(),
            ProbeError::Indistinguishable
        );
        let (res, st) = eng.generate_with_stats(&t, id, &catch);
        assert_eq!(res.unwrap_err(), ProbeError::Indistinguishable);
        assert_eq!(st.cache_hits, 1);
        assert_eq!(st.solver_calls, 0);
    }
}
