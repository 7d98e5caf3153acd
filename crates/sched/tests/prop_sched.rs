//! Property tests for the adaptive scheduler's hard invariant:
//!
//! 1. **Staleness SLO**: with a caller that polls, no rule's gap between
//!    consecutive releases exceeds the SLO plus the poll granularity —
//!    however the urgency scores are skewed by random churn.
//!
//! And for its round-robin configuration, the fixed steady sweep:
//!
//! 2. **Queue**: every release is the one a plain queue of the keys
//!    predicts, whatever else the caller does.
//!
//! The probe budget is the caller's pacing, not the scheduler's: it is
//! checked on `monocle::steady::SteadyMonitor` (`steady::tests::props`).

use monocle_sched::{AdaptiveScheduler, RuleKey, SchedConfig};
use proptest::prelude::*;
use std::collections::VecDeque;

const MS: u64 = 1_000_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SLO invariant: when the caller polls every 5 ms and takes every due
    /// rule, every rule is re-released within the SLO (plus one poll period
    /// of slack), no matter how churn skews priorities.
    #[test]
    fn slo_met_under_random_churn(
        n_rules in 1usize..16,
        churn in prop::collection::vec((0usize..100, any::<u64>(), any::<bool>()), 0..200),
    ) {
        let slo = 500 * MS;
        let cfg = SchedConfig {
            slo_ns: slo,
            min_interval_ns: 50 * MS,
        };
        let mut s = AdaptiveScheduler::new(cfg);
        let keys: Vec<RuleKey> = (0..n_rules as u64).collect();
        s.sync(&keys, 0);
        let mut last_release: Vec<u64> = vec![0; n_rules];
        let poll = 5 * MS;
        let horizon = 2_000 * MS;
        let mut step = 0usize;
        let mut now = 0u64;
        while now <= horizon {
            // Random churn events interleave with the poll cadence.
            if let Some(&(_, r, ok)) = churn.get(step % churn.len().max(1)) {
                let key = r % n_rules as u64;
                match step % 3 {
                    0 => s.note_modified(key, now),
                    1 => s.note_verdict(key, now, ok),
                    _ => {}
                }
            }
            while let Some(k) = s.next_due(now) {
                let gap = now - last_release[k as usize];
                prop_assert!(
                    gap <= slo + poll,
                    "rule {} went {}ms without a probe (slo {}ms)",
                    k, gap / MS, slo / MS
                );
                last_release[k as usize] = now;
            }
            now += poll;
            step += 1;
        }
        // Nothing starved at the horizon either.
        for (k, &t) in last_release.iter().enumerate() {
            prop_assert!(
                now - t <= slo + 2 * poll,
                "rule {} stale at end: {}ms", k, (now - t) / MS
            );
        }
    }

    /// The round-robin configuration (`slo_ns = 0`, `min_interval_ns = 0`)
    /// checked release by release against a `VecDeque` model on a monotone
    /// clock: a release pops the front and pushes it to the back; `sync`
    /// removes the keys that leave and appends those that join, in `sync`
    /// order. Modifications, verdicts and cost changes, backpressured or
    /// not, must not reorder it, and a poll comes back empty exactly when
    /// the model is empty.
    #[test]
    fn round_robin_configuration_is_a_queue(
        ops in prop::collection::vec(
            (0u64..4 * MS, 0u8..6, prop::collection::vec(0u64..16, 0..12), any::<u64>()),
            1..200,
        ),
    ) {
        let mut s = AdaptiveScheduler::new(SchedConfig {
            slo_ns: 0,
            min_interval_ns: 0,
        });
        let mut model: VecDeque<RuleKey> = VecDeque::new();
        let mut now = 0u64;
        for (dt, op, keys, r) in ops {
            now += dt;
            let key = keys.first().copied().unwrap_or(r % 16);
            match op {
                0 => {
                    s.sync(&keys, now);
                    model.retain(|k| keys.contains(k));
                    for &k in &keys {
                        if !model.contains(&k) {
                            model.push_back(k);
                        }
                    }
                }
                1 => s.note_modified(key, now),
                2 => s.note_verdict(key, now, r % 2 == 0),
                3 => s.set_switch_cost(1.0 + (r % 10) as f64, r % 3 == 0),
                _ => {
                    let k = s.next_due(now);
                    prop_assert_eq!(k, model.pop_front());
                    if let Some(k) = k {
                        model.push_back(k);
                    }
                }
            }
            prop_assert_eq!(s.len(), model.len());
        }
    }
}
