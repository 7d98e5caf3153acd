//! Batches of planning jobs, each with a table of its own, planned serially
//! on one warm [`ProbeEngine`] per switch; and the sweep set,
//! [`monitorable`] / [`monitorable_ids`].
//!
//! [`EnginePool`] is not the product's planner: the TCP proxy plans every
//! update on a replica of the switch's expected table ([`crate::planner`]).
//! It is a shim that keeps the names `benchmark/` drives for its `pool.*`
//! rows, and it goes when those rows are re-pointed at replica requests. It
//! spawns no thread: [`EnginePool::run_batch`] runs the jobs in order on the
//! caller's thread.
//!
//! A [`ProbeJob`] is one small, pre-filtered instance (§5.3–5.4): rules of a
//! table **owned by the job**, immutable from the moment it is built and
//! dropped with it, so a job plans exactly once and its result cannot go
//! out of date against its own table. A switch's engine delta-syncs between
//! consecutive tables and serves an unchanged one from its plan cache; a
//! job's table carries no change history the engine has read, so each job
//! with a new table counts one
//! [`crate::engine::EngineStats::syncs_fallback`]. A job that panics costs
//! only its switch's engine; see [`JobResult::panicked`].

use crate::catching::{CATCH_PRIORITY, FILTER_PRIORITY};
use crate::droppost::DROP_TAG_PRIORITY;
use crate::encode::CatchSpec;
use crate::engine::ProbeEngine;
use crate::generator::{GenStats, ProbeError};
use crate::plan::ProbePlan;
use monocle_openflow::{FlowTable, Rule, RuleId, SharedTable};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

/// Pool configuration.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Planner threads of `monocle_net::ProxyApp`. [`EnginePool`] plans on
    /// the caller's thread and does not read it.
    pub workers: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig::with_workers(1)
    }
}

impl PoolConfig {
    /// Config with `workers` planner threads.
    pub fn with_workers(workers: usize) -> PoolConfig {
        PoolConfig { workers }
    }
}

/// Which rules of its table a job plans probes for.
#[derive(Debug, Clone)]
pub enum JobSpec {
    /// Every monitorable production rule: priority below the drop-tag band
    /// and not a catching/filter rule — the same set a
    /// [`crate::proxy::MonitorProxy`] steady-state sweep covers.
    All,
    /// Exactly these rules, in this order.
    Rules(Vec<RuleId>),
}

/// One unit of work: plan probes for (a subset of) one switch's table.
#[derive(Debug, Clone)]
pub struct ProbeJob {
    /// The switch the plans target (selects the engine).
    pub switch_id: u32,
    /// The table to plan against, owned by the job.
    pub table: Arc<SharedTable>,
    /// Collection pins for this switch's probes.
    pub catch: CatchSpec,
    /// Rule selection.
    pub spec: JobSpec,
}

/// The outcome of one [`ProbeJob`].
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The switch.
    pub switch_id: u32,
    /// The rules planned for, in result order.
    pub ids: Vec<RuleId>,
    /// Per-rule plans (aligned with `ids`).
    pub results: Vec<Result<ProbePlan, ProbeError>>,
    /// Generation statistics of this job.
    pub stats: GenStats,
    /// Set together with `panicked`, never otherwise: a job's table cannot
    /// change under it. The field survives because `benchmark/` reads it
    /// for its `pool.stale_share` row.
    pub stale: bool,
    /// True when planning panicked. The pool caught the panic, discarded
    /// the switch's engine (its state may be mid-mutation), and returned
    /// this placeholder so the batch still completes: `ids`/`results` are
    /// empty.
    pub panicked: bool,
}

/// The serial planning shim. See the module docs.
#[derive(Debug)]
pub struct EnginePool {
    state: Mutex<PoolState>,
}

/// Everything a batch reads and leaves behind, behind one lock so the pool
/// stays `Sync` (concurrent `run_batch` calls are serialized).
#[derive(Debug, Default)]
struct PoolState {
    engines: HashMap<u32, ProbeEngine>,
    stats: GenStats,
}

impl EnginePool {
    /// An empty pool; `cfg` is not read (see [`PoolConfig::workers`]).
    pub fn new(_cfg: PoolConfig) -> EnginePool {
        EnginePool {
            state: Mutex::default(),
        }
    }

    /// Runs `jobs` in order on the calling thread and returns their results
    /// in the same order. Each switch's engine stays warm across batches.
    pub fn run_batch(&self, jobs: Vec<ProbeJob>) -> Vec<JobResult> {
        let mut state = self.state.lock().expect("no panic escapes a job");
        jobs.into_iter()
            .map(|job| {
                // Caught inside the lock, so the mutex is never poisoned.
                let planned = catch_unwind(AssertUnwindSafe(|| {
                    plan_job(state.engines.entry(job.switch_id).or_default(), &job)
                }));
                match planned {
                    Ok(result) => {
                        state.stats += result.stats;
                        result
                    }
                    Err(_) => {
                        state.engines.remove(&job.switch_id);
                        JobResult {
                            switch_id: job.switch_id,
                            ids: Vec::new(),
                            results: Vec::new(),
                            stats: GenStats::default(),
                            stale: true,
                            panicked: true,
                        }
                    }
                }
            })
            .collect()
    }

    /// Aggregate statistics of every job planned since the pool was created.
    pub fn stats(&self) -> GenStats {
        self.state.lock().expect("no panic escapes a job").stats
    }
}

/// The monitorable production rules of `table`: priority below the
/// drop-tag band and not a catching/filter rule. This is the single source
/// of truth for the sweep set — both [`JobSpec::All`] and
/// [`crate::proxy::MonitorProxy::refresh_steady_plans`] resolve through it,
/// so the two cannot drift if the infrastructure-rule bands change.
pub fn monitorable_ids(table: &FlowTable) -> Vec<RuleId> {
    monitorable(table).map(|r| r.id).collect()
}

/// The rules behind [`monitorable_ids`], in table order.
pub fn monitorable(table: &FlowTable) -> impl Iterator<Item = &Rule> {
    table.rules().iter().filter(|r| {
        r.priority < DROP_TAG_PRIORITY
            && r.priority != CATCH_PRIORITY
            && r.priority != FILTER_PRIORITY
    })
}

/// Plans one job on `engine`, against the job's own table.
fn plan_job(engine: &mut ProbeEngine, job: &ProbeJob) -> JobResult {
    #[cfg(test)]
    assert_ne!(job.switch_id, tests::PANIC_SWITCH, "injected job panic");
    let table = &job.table.snapshot().table;
    let ids = match &job.spec {
        JobSpec::All => monitorable_ids(table),
        JobSpec::Rules(ids) => ids.clone(),
    };
    let (results, stats) = engine.generate_batch_with_stats(table, &ids, &job.catch);
    JobResult {
        switch_id: job.switch_id,
        ids,
        results,
        stats,
        stale: false,
        panicked: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monocle_openflow::{Action, Match};

    /// Test-only fault injection: `plan_job` panics for a job on this switch.
    pub(super) const PANIC_SWITCH: u32 = u32::MAX;

    fn table(n_specific: u16) -> FlowTable {
        let mut t = FlowTable::new();
        for i in 0..n_specific {
            t.add_rule(
                10,
                Match::any().with_nw_dst([10, 0, (i / 251) as u8, (i % 251) as u8], 32),
                vec![Action::Output(1 + i % 3)],
            )
            .unwrap();
        }
        t.add_rule(1, Match::any(), vec![Action::Output(9)])
            .unwrap();
        t
    }

    fn job(sw: u32, t: &Arc<SharedTable>) -> ProbeJob {
        ProbeJob {
            switch_id: sw,
            table: Arc::clone(t),
            catch: CatchSpec::default(),
            spec: JobSpec::All,
        }
    }

    #[test]
    fn pool_results_match_serial_engine() {
        let shared = Arc::new(SharedTable::new(table(8)));
        let pool = EnginePool::new(PoolConfig::default());
        let res = pool.run_batch(vec![job(7, &shared)]);
        assert_eq!(res.len(), 1);
        assert!(!res[0].stale);
        // Serial reference: a cold engine over the same table.
        let snap = shared.snapshot();
        let ids = monitorable_ids(&snap.table);
        let mut eng = ProbeEngine::default();
        let (serial, stats) =
            eng.generate_batch_with_stats(&snap.table, &ids, &CatchSpec::default());
        assert_eq!(res[0].ids, ids);
        assert_eq!(res[0].results, serial);
        assert_eq!((res[0].stats, pool.stats()), (stats, stats));
    }

    #[test]
    fn warm_engine_affinity_makes_resweeps_cache_hits() {
        let shared = Arc::new(SharedTable::new(table(6)));
        let other = Arc::new(SharedTable::new(table(3)));
        let pool = EnginePool::new(PoolConfig::default());
        let cold = pool.run_batch(vec![job(4, &shared), job(5, &other)]);
        assert_eq!(cold[0].stats.cache_hits, 0);
        // Switch 5's job in between does not cool switch 4's engine.
        let warm = pool.run_batch(vec![job(4, &shared)]);
        assert_eq!(
            warm[0].stats.cache_hits,
            warm[0].ids.len() as u64,
            "the switch's engine must stay warm across batches"
        );
        assert_eq!(warm[0].stats.solver_calls, 0);
        assert_eq!(cold[0].results, warm[0].results);
    }

    #[test]
    fn job_panic_completes_batch_and_pool_survives() {
        // A panic inside a job must not take the batch down: the pool
        // catches it, drops that switch's engine, and answers the job with a
        // `panicked` placeholder.
        let pool = EnginePool::new(PoolConfig::default());
        let shared = Arc::new(SharedTable::new(table(3)));
        let res = pool.run_batch(vec![
            job(0, &shared),
            job(PANIC_SWITCH, &shared),
            job(2, &shared),
        ]);
        assert_eq!(res.len(), 3, "batch completes despite the panic");
        let switches: Vec<u32> = res.iter().map(|r| r.switch_id).collect();
        assert_eq!(switches, [0, PANIC_SWITCH, 2], "results in job order");
        for r in &res {
            if r.switch_id == PANIC_SWITCH {
                assert!(r.panicked && r.stale, "crashed job reported honestly");
                assert!(r.ids.is_empty() && r.results.is_empty());
            } else {
                assert!(!r.panicked && !r.stale);
            }
        }
        // The next batch plans: the surviving engines are still warm.
        let again = pool.run_batch(vec![job(0, &shared), job(2, &shared)]);
        assert!(again.iter().all(|r| !r.panicked && !r.stale));
        assert!(again
            .iter()
            .all(|r| r.stats.cache_hits == r.ids.len() as u64 && !r.ids.is_empty()));
    }
}
