//! Sharded [`ProbeEngine`] worker pool for batches of planning jobs, each
//! with a table of its own.
//!
//! No longer the product's planner: the TCP proxy plans every update on a
//! replica of the switch's expected table ([`crate::planner`]). The pool is
//! kept because `benchmark/` (its `pool.*` rows) and the property tests
//! still drive it; [`monitorable`] / [`monitorable_ids`] are the product's
//! sweep set and stay either way.
//!
//! A [`ProbeJob`] is one small, pre-filtered instance (§5.3–5.4): rules of a
//! table **owned by the job**, immutable from the moment it is built and
//! dropped with it, so a job plans exactly once and its result cannot go
//! out of date against its own table.
//!
//! [`EnginePool`] shards the engines across OS threads:
//!
//! * **Engine affinity** — each worker owns a private
//!   `switch → ProbeEngine` map. Jobs hash to a *home* worker
//!   (`switch % workers`), so a switch's jobs land on one engine, which
//!   delta-syncs between consecutive tables (and serves an unchanged table
//!   from its plan cache). A job's table is its own and carries no change
//!   history the engine has read, so that sync diffs every rule of it: each
//!   job with a new table counts one
//!   [`crate::engine::EngineStats::syncs_fallback`]. Engines are never
//!   shared, so there is no engine lock at all.
//! * **No lock across planning** — the only locks in the pool are the queue
//!   mutex (released before a job runs) and the per-worker stats cell
//!   (touched after generation finishes).
//! * **A panicking job does not take the batch down** — each job runs under
//!   `catch_unwind`; see [`JobResult::panicked`].
//!
//! Results are aggregated per worker into [`GenStats`] via `+=`
//! accumulation ([`EnginePool::stats`]).

use crate::catching::{CATCH_PRIORITY, FILTER_PRIORITY};
use crate::droppost::DROP_TAG_PRIORITY;
use crate::encode::CatchSpec;
use crate::engine::{EngineConfig, ProbeEngine};
use crate::generator::{GenStats, ProbeError};
use crate::plan::ProbePlan;
use monocle_openflow::{FlowTable, Rule, RuleId, SharedTable};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Pool configuration.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Number of worker threads (clamped to ≥ 1).
    pub workers: usize,
    /// Template for per-switch engines (each worker instantiates its own).
    pub engine: EngineConfig,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig::with_workers(1)
    }
}

impl PoolConfig {
    /// Config with `workers` threads and defaults otherwise.
    pub fn with_workers(workers: usize) -> PoolConfig {
        PoolConfig {
            workers,
            engine: EngineConfig::default(),
        }
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
    /// The switch the plans target (selects the home worker/engine).
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
    /// Index of the worker that ran the job.
    pub worker: usize,
    /// Set together with `panicked`, never otherwise: a job's table cannot
    /// change under it. The field survives because `benchmark/` reads it
    /// for its `pool.stale_share` row.
    pub stale: bool,
    /// True when planning panicked. The worker caught the panic, discarded
    /// its engine for this switch (its state may be mid-mutation), and
    /// returned this placeholder so the batch still completes:
    /// `ids`/`results` are empty.
    pub panicked: bool,
}

struct QueueState {
    queues: Vec<VecDeque<(u64, ProbeJob)>>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<QueueState>,
    cv: Condvar,
    /// Per-worker aggregate stats, `+=`-accumulated after each job.
    stats: Vec<Mutex<GenStats>>,
}

/// The worker pool. See the module docs for the design.
///
/// [`EnginePool::run_batch`] is the entry point: submit a batch of jobs,
/// block until all complete, get results back in submission order. Workers
/// and their warm engines persist across batches; the pool shuts its
/// threads down on drop.
pub struct EnginePool {
    cfg: PoolConfig,
    shared: Arc<PoolShared>,
    receiver: Mutex<Receiver<(u64, JobResult)>>,
    next_seq: AtomicU64,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for EnginePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnginePool")
            .field("workers", &self.handles.len())
            .field("cfg", &self.cfg)
            .finish()
    }
}

impl EnginePool {
    /// Spawns the worker threads.
    pub fn new(cfg: PoolConfig) -> EnginePool {
        let workers = cfg.workers.max(1);
        let (tx, rx) = channel();
        let shared = Arc::new(PoolShared {
            state: Mutex::new(QueueState {
                queues: (0..workers).map(|_| VecDeque::new()).collect(),
                shutdown: false,
            }),
            cv: Condvar::new(),
            stats: (0..workers)
                .map(|_| Mutex::new(GenStats::default()))
                .collect(),
        });
        // Each worker owns a clone of the result Sender (the pool itself
        // keeps none), so if every worker dies — e.g. a panic poisons the
        // queue mutex — the channel disconnects and `run_batch` fails fast
        // instead of blocking forever on results that will never arrive.
        let handles = (0..workers)
            .map(|me| {
                let shared = Arc::clone(&shared);
                let cfg = cfg.clone();
                let tx = tx.clone();
                std::thread::spawn(move || worker_loop(me, &cfg, &shared, &tx))
            })
            .collect();
        EnginePool {
            cfg: PoolConfig { workers, ..cfg },
            shared,
            receiver: Mutex::new(rx),
            next_seq: AtomicU64::new(0),
            handles,
        }
    }

    /// Runs `jobs` to completion and returns their results in input order.
    ///
    /// Jobs are enqueued on their home worker (`switch_id % workers`). The
    /// calling thread blocks until every job finishes —
    /// concurrent `run_batch` calls from different threads are serialized.
    pub fn run_batch(&self, jobs: Vec<ProbeJob>) -> Vec<JobResult> {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        // Hold the receiver for the whole batch so results cannot be
        // stolen by a concurrent caller.
        let rx = self.receiver.lock().unwrap();
        let first_seq = self.next_seq.fetch_add(n as u64, Ordering::Relaxed);
        {
            let mut st = self.shared.state.lock().unwrap();
            let workers = st.queues.len();
            for (i, job) in jobs.into_iter().enumerate() {
                let home = job.switch_id as usize % workers;
                st.queues[home].push_back((first_seq + i as u64, job));
            }
        }
        self.shared.cv.notify_all();
        let mut out: Vec<Option<JobResult>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            // Disconnects only if every worker thread has exited (each owns
            // a Sender clone); per-job panics are caught in the worker and
            // come back as `panicked` results, so this recv cannot hang on
            // a single crashed job.
            let (seq, res) = rx
                .recv()
                .expect("all engine pool workers exited before the batch completed");
            out[(seq - first_seq) as usize] = Some(res);
        }
        out.into_iter()
            .map(|r| r.expect("all results in"))
            .collect()
    }

    /// Pool-wide aggregate statistics since pool creation (the per-worker
    /// stats merged).
    pub fn stats(&self) -> GenStats {
        let mut total = GenStats::default();
        for s in &self.shared.stats {
            total += *s.lock().unwrap();
        }
        total
    }
}

impl Drop for EnginePool {
    fn drop(&mut self) {
        // Tolerate a poisoned queue mutex (a worker died while holding it):
        // the shutdown flag must still reach any survivors, and panicking
        // here would abort if we are already unwinding.
        self.shared
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .shutdown = true;
        self.shared.cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
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

fn worker_loop(
    me: usize,
    cfg: &PoolConfig,
    shared: &PoolShared,
    results: &Sender<(u64, JobResult)>,
) {
    let mut engines: HashMap<u32, ProbeEngine> = HashMap::new();
    loop {
        let task = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if let Some(t) = st.queues[me].pop_front() {
                    break Some(t);
                }
                if st.shutdown {
                    break None;
                }
                st = shared.cv.wait(st).unwrap();
            }
        };
        let Some((seq, job)) = task else {
            return;
        };
        // A panic anywhere in the job must not kill the worker: its seq
        // would never be answered and `run_batch` would block forever. Catch
        // it, discard the possibly half-mutated engine, and answer with a
        // `panicked` placeholder.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let engine = engines
                .entry(job.switch_id)
                .or_insert_with(|| ProbeEngine::new(cfg.engine.clone()));
            let result = plan_job(me, engine, &job);
            *shared.stats[me].lock().unwrap() += result.stats;
            result
        }))
        .unwrap_or_else(|_| {
            engines.remove(&job.switch_id);
            JobResult {
                switch_id: job.switch_id,
                ids: Vec::new(),
                results: Vec::new(),
                stats: GenStats::default(),
                worker: me,
                stale: true,
                panicked: true,
            }
        });
        if results.send((seq, result)).is_err() {
            return; // pool dropped mid-flight
        }
    }
}

/// Plans one job on `engine`, against the job's own table. Runs with no
/// lock held.
fn plan_job(me: usize, engine: &mut ProbeEngine, job: &ProbeJob) -> JobResult {
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
        worker: me,
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
        let pool = EnginePool::new(PoolConfig::with_workers(3));
        let res = pool.run_batch(vec![job(7, &shared)]);
        assert_eq!(res.len(), 1);
        assert!(!res[0].stale);
        // Serial reference: a cold engine over the same table.
        let snap = shared.snapshot();
        let ids = monitorable_ids(&snap.table);
        let mut eng = ProbeEngine::default();
        let serial = eng.generate_batch(&snap.table, &ids, &CatchSpec::default());
        assert_eq!(res[0].ids, ids);
        assert_eq!(res[0].results, serial);
    }

    #[test]
    fn batch_returns_in_submission_order_across_workers() {
        let tables: Vec<Arc<SharedTable>> = (0..16)
            .map(|i| Arc::new(SharedTable::new(table(3 + i as u16))))
            .collect();
        let pool = EnginePool::new(PoolConfig::with_workers(4));
        let jobs: Vec<ProbeJob> = tables
            .iter()
            .enumerate()
            .map(|(sw, t)| job(sw as u32, t))
            .collect();
        let res = pool.run_batch(jobs);
        assert_eq!(res.len(), 16);
        for (sw, r) in res.iter().enumerate() {
            assert_eq!(r.switch_id, sw as u32, "result order = submission order");
            assert_eq!(r.ids.len(), 4 + sw);
        }
        // Every rule planned exactly once, pool-wide stats agree.
        let planned: u64 = res.iter().map(|r| r.stats.cache_misses).sum();
        assert_eq!(pool.stats().cache_misses, planned);
    }

    #[test]
    fn warm_engine_affinity_makes_resweeps_cache_hits() {
        let shared = Arc::new(SharedTable::new(table(6)));
        let pool = EnginePool::new(PoolConfig::with_workers(1));
        let cold = pool.run_batch(vec![job(4, &shared)]);
        assert_eq!(cold[0].stats.cache_hits, 0);
        let warm = pool.run_batch(vec![job(4, &shared)]);
        assert_eq!(
            warm[0].stats.cache_hits,
            warm[0].ids.len() as u64,
            "home-worker engine must stay warm across batches"
        );
        assert_eq!(warm[0].worker, cold[0].worker, "same home worker");
        assert_eq!(cold[0].results, warm[0].results);
    }

    #[test]
    fn job_panic_completes_batch_and_pool_survives() {
        // A panic inside a job must not hang run_batch or kill the pool —
        // the worker catches it and answers the seq with a `panicked`
        // placeholder.
        let pool = EnginePool::new(PoolConfig::with_workers(2));
        let shared = Arc::new(SharedTable::new(table(3)));
        let res = pool.run_batch(vec![
            job(0, &shared),
            job(PANIC_SWITCH, &shared),
            job(2, &shared),
        ]);
        assert_eq!(res.len(), 3, "batch completes despite the panic");
        for r in &res {
            if r.switch_id == PANIC_SWITCH {
                assert!(r.panicked && r.stale, "crashed job reported honestly");
                assert!(r.ids.is_empty() && r.results.is_empty());
            } else {
                assert!(!r.panicked && !r.stale);
            }
        }
        // Workers (and their engines for unaffected switches) are still
        // alive for the next batch.
        let again = pool.run_batch(vec![job(0, &shared), job(2, &shared)]);
        assert!(again.iter().all(|r| !r.panicked && !r.stale));
    }
}
