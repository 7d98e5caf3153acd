#!/usr/bin/env bash
# CI entry point: build, test, lint, and refresh the probe-generation
# perf baseline. Run from the repo root. Fully offline — all third-party
# deps are vendored under crates/vendor/.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release) =="
cargo build --release --workspace --all-targets

echo "== tests =="
cargo test -q --workspace

echo "== deeper property pass: engine eviction, the Hidden oracle, the encoding oracle =="
# Tier-1 runs these properties at 40-128 cases; the eviction predicate, the
# header-space oracle for Hidden and the ITE-chain encoding the encoder must
# agree with get a thousand here (a few seconds in release).
PROPTEST_CASES=1000 cargo test --release -q --test prop_engine --test prop_probe
PROPTEST_CASES=1000 cargo test --release -q -p monocle --lib encode::tests

echo "== deeper property pass: dynamic monitoring (replica mirror, drain, order) =="
# Tier-1 runs these at 64 cases: a replica fed the monitor's planning steps
# is the expected table and its plans verify, inline and deferred planning
# emit the same actions and keep the script's order, and every update drains
# verified, optimistic or alarmed.
PROPTEST_CASES=1000 cargo test --release -q -p monocle --lib dynamic::tests::props

echo "== deeper differential: the steady refresh, inline and deferred =="
# Tier-1 runs 40 random scripts: the incremental refresh matches the
# whole-table oracle, and a deferred twin whose refresh answers land up to
# three calls late holds valid plans at every landing and, once quiet, what a
# fresh whole-table plan of its table finds.
PROPTEST_CASES=1000 cargo test --release -q -p monocle --lib \
    proxy::tests::incremental_refresh_matches_whole_table_oracle_on_random_scripts

echo "== deeper property pass: the steady scheduler (budget, SLO, round-robin queue) =="
# Tier-1 runs these at 64 cases. The budget invariant is checked on
# SteadyMonitor, the scheduler's caller: in both configurations no two new
# probes go out closer than the probe interval under random refreshes,
# modifications, verdicts and jittered ticks, and no planned rule waits past
# its SLO plus one slot per rule. On the scheduler itself, every rule meets
# the staleness SLO, and the round-robin configuration — the fixed steady
# sweep — releases exactly what a queue of the rules predicts.
PROPTEST_CASES=1000 cargo test --release -q -p monocle --lib steady::tests::props
PROPTEST_CASES=1000 cargo test --release -q -p monocle_sched --test prop_sched

echo "== rustfmt =="
cargo fmt --check

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (deny warnings) =="
# A doc link to an item that was deleted or made private fails here instead
# of rotting.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== benchmark package: build, unit tests, smoke of every workload =="
# benchmark/ is a workspace of its own that compiles against crates/*; an API
# deletion there that breaks it must fail here, not in the driver.
# Cargo rewrites the stale benchmark/Cargo.lock on every build, and nothing
# under benchmark/ may change outside a benchmark PR: it is put back below.
lock_snapshot=$(mktemp)
cp benchmark/Cargo.lock "$lock_snapshot"
cargo test --release --offline --manifest-path benchmark/Cargo.toml
# The binary exits 0 whatever its checks found; the verdict is the result
# line, the last line of stdout.
bench_checked() {
    local result
    result=$(cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
        "$@" | tail -n 1)
    echo "$result"
    if [[ "$result" != *'"correct": true'* || "$result" != *'"failed": 0,'* ]]; then
        echo "benchmark run '$*' failed its checks" >&2
        exit 1
    fi
}
for w in tcp_large_table tcp_small_table plan_tables detect_breakage; do
    bench_checked --workload "$w" --smoke
done
# Once at full size (~15 s, plus ~12 s the first time for the input cache):
# the 150-rule smoke has no neighbourhoods to speak of, so only here does the
# engine keep plans across updates that overlap their rule — and the
# benchmark's own oracle re-verifies every plan handed out (~258 k).
bench_checked --workload plan_tables --seed 1 --seconds 15 --trace 0
# The proxy's steady engine learns each update from the expected table's
# change log; only a full-size detection run drives that path through enough
# churn for a missed log entry to show as a stale plan or a wrong verdict.
bench_checked --workload detect_breakage --seed 1 --seconds 15 --trace 0
# The proxy's own barrier replies race its acks: each reply re-probes the
# updates it covers and opens their silence window. The smoke run has too few
# updates for that race to show; at full size (64 outstanding, ~50 k updates)
# the run's checks see any ack before its install (early_acks), a missing,
# duplicate or stray ack, and any datapath/model mismatch.
bench_checked --workload tcp_small_table --seed 1 --seconds 15 --trace 0
mv "$lock_snapshot" benchmark/Cargo.lock

echo "== perf baseline: Table 2 probe generation =="
# Capped rule count keeps CI fast while staying above the 500-rule floor the
# engine-vs-stateless comparison is measured at; the binary asserts engine and
# stateless find the same probes and that the re-probe arm never solves.
./target/release/table2_probe_generation --rules 600 --json BENCH_probe_generation.json

echo "== perf baseline: flow-table lookup (trie vs linear) =="
# 600 rules is the floor the trie-vs-linear acceptance criterion (>=2x on
# the Fig. 8 workload) is measured at; the binary also cross-checks trie
# answers against the linear reference before timing.
./target/release/table_lookup --rules 600 --json BENCH_table_lookup.json

echo "== smoke: TCP transport loopback (small) =="
# End-to-end smoke of the event-driven runtime: controller -> proxy -> 8
# simulated switches over real loopback TCP, probe-verified confirmations,
# switch-pinned planner threads. The binary asserts zero alarms and no
# deadline.
./target/release/transport_loopback --small

echo "== perf baseline: TCP transport loopback (full sweep) =="
# The committed baseline: proxied flow_mods/sec and confirmation RTT as the
# switch-connection count grows 1..64 on one proxy event loop. Installs are
# serial, so up to 8 switches the sweep is install-bound. An update is
# re-probed at once when the switch answers the proxy's barrier and with
# backoff before that, but from 32 switches on (16 in some runs) the 2 ms
# re-probes after a reply still saturate the loops and those arms take tens
# of seconds (see the JSON's notes).
./target/release/transport_loopback --json BENCH_transport.json

echo "== smoke: adaptive scheduler (small) =="
# Quick sanity run of the adaptive-vs-fixed detection-latency comparison;
# the binary asserts adaptive beats the fixed sweep on the churn workload.
./target/release/scheduler --small

echo "== perf baseline: adaptive scheduler vs fixed sweep =="
# The committed baseline: detection latency of injected rule breakage under
# churn/correlated/storm workloads, adaptive vs fixed at equal probe budget
# (500/s) and equal worst-case revisit (SLO = fixed cycle time).
./target/release/scheduler --json BENCH_scheduler.json

echo "== smoke: Fig. 8 large-network simulation =="
# Small-size end-to-end run of the packet-level simulator over the trie-
# backed data plane (the full 2000-path figure takes minutes).
./target/release/fig8_large_network --paths 100 --batch 25 --interval-ms 10 --horizon-s 20

echo "== the benchmark is untouched =="
# A product PR that dirties benchmark/ or BENCHMARK.json fails here, not in
# the driver.
git diff --quiet -- benchmark BENCHMARK.json

echo "CI OK"
