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

echo "== deeper property pass: engine eviction, the Hidden oracle, the encoding oracles, the solver, table upkeep, the wire codec =="
# Tier-1 runs these properties at 40-256 cases; the eviction predicate, the
# header-space oracle for Hidden, the ITE-chain encoding and the full
# Tseitin definitions the encoder must agree with get a thousand here (a few
# seconds in release).
PROPTEST_CASES=1000 cargo test --release -q --test prop_engine --test prop_probe
PROPTEST_CASES=1000 cargo test --release -q -p monocle --lib encode::tests
# The solver against DPLL and brute force, on random and on encoder-shaped
# formulas (most clauses binary), and one solver reused across a random run
# of formulas (budget-exhausted ones among them) against a fresh solver per
# formula: the same answers, models and search.
PROPTEST_CASES=1000 cargo test --release -q -p monocle_sat --test prop_sat
# The table's maintained fingerprint, change log and per-field care counts
# against their from-scratch recomputations, after every random mutation.
PROPTEST_CASES=1000 cargo test --release -q -p monocle_openflow --test prop_fingerprint
# The wire codec: every message round-trips, `encode_into` appends exactly
# one frame after whatever the buffer held, and damaged or truncated input
# errors instead of panicking.
PROPTEST_CASES=1000 cargo test --release -q -p monocle_openflow --test prop_wire --test prop_openflow

echo "== deeper property pass: dynamic monitoring (replica and switch mirror, claims, drain, order) =="
# Tier-1 runs these at 64 cases: a replica fed the monitor's planning steps
# is the expected table and its plans verify; after every call the FlowMods
# the monitor sent, applied in the order sent, are the expected table too,
# with drop installs postponed (§4.3 finalizers) in half the cases; inline
# and deferred planning emit the same outputs and keep the script's order;
# and every update drains verified, optimistic or alarmed. The mirror
# scripts run as a claims driver's in half the cases (the announce, then
# claims of random prefixes of the FlowMods sent) and claimless in the
# other: either way every update is answered exactly once, no update holds
# more than two live probes, none is confirmed by silence before two probes
# sent since its claim (and its last contrary return) have each gone the
# probe timeout then in force unanswered, none outlives its claim plus
# UPDATE_DEADLINE by more than a tick (some ticks jump two deadlines), and
# a claimless monitor keeps no rejection record; with probes lost, the
# deadline drains the monitor. And after every call §4.2 holds, checked on
# the FlowMods the monitor was given: no two started, unfinished updates
# overlap, and no update starts while an earlier one it overlaps and does not
# commute with is still queued.
PROPTEST_CASES=1000 cargo test --release -q -p monocle --lib dynamic::tests::props

echo "== the TCP ACL arms: acks and barrier replies before commit, 3 runs =="
# The ideal and hp5406zl arms of e2e_tcp, in release, three times: each run
# prints its acks before commit against the optimistic acks (the arm fails
# if the first exceeds the second), and how many replies to the
# controller's barriers came before the commit of the FlowMod sent just
# before each. The proxy answers those barriers itself, never before the
# acks or alarms of the FlowMods before them and never before the switch
# has answered a barrier of the proxy's sent after them, so on ideal (whose
# barriers are truthful) the arm fails unless that count is 0. With the
# §4.2 queue's ternaries compiled once per update, ideal read 12-32 acks
# before commit against 36-37 optimistic over three runs (the code before
# that read 7-23 against 36-38 over six); on hp5406zl the two are equal
# (37, 11 of them among the silence-confirmed updates), so a change to when
# silence confirms shows here first. One test thread, so the arms do not
# share the CPUs.
for run in 1 2 3; do
    echo "-- run $run"
    cargo test --release -q -p monocle_net --test e2e_tcp -- --exact --test-threads 1 \
        --nocapture acl_table_delete_readd_modify_over_tcp \
        acl_script_over_tcp_on_hp5406zl_acks_do_not_precede_commits 2>&1 |
        grep -E 'acks before commit|barrier replies before commit|test result'
done

echo "== deeper property pass: one OpenFlow session (channel) against the switch model =="
# Tier-1 runs this at 64 cases: random controller scripts of FlowMods (some
# sharing an xid), barriers, echoes and pass-through PacketOuts run through
# one channel to switchsim's ideal, hp5406zl and pica8 switches on a virtual
# clock, the planner answering from a replica after a seeded delay. Every
# update is answered exactly once under its xid, every barrier and echo
# once, no BarrierReply comes before the answers of the FlowMods sent before
# its request, and on ideal none before their commits.
PROPTEST_CASES=1000 cargo test --release -q -p monocle --lib channel::tests::props

echo "== deeper differential: the steady refresh, inline and deferred =="
# Tier-1 runs 40 random scripts of each: the incremental refresh matches the
# whole-table oracle, the switch the proxies' FlowMods drive holds their
# expected table after every call, and a deferred twin whose refresh answers
# land up to three calls late holds valid plans at every landing and, once
# quiet, what a fresh whole-table plan of its table finds. A deferred twin
# whose answers all land at once puts out what the inline proxy does, in the
# same order, and asks for its refresh on the ticks the inline one runs it.
PROPTEST_CASES=1000 cargo test --release -q -p monocle --lib -- \
    proxy::tests::incremental_refresh_matches_whole_table_oracle_on_random_scripts \
    proxy::tests::a_deferred_refresh_is_asked_for_on_the_ticks_an_inline_one_runs

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

echo "== product lines (informational, not gated) =="
scripts/product_lines.sh
# The scheduler crate too, so its simplifications show.
scripts/product_lines.sh crates/sched/src/*.rs
# And the wire codec every proxied frame passes through.
scripts/product_lines.sh crates/openflow/src/wire.rs

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
# updates it covers and starts their silence count, and a drop-confirmed
# update is acked two probe timeouts later (the timeout follows the session's
# probe round trip: about 2 ms on loopback). The smoke run has too few updates
# for that race to show; at full size (64 outstanding, ~100 k updates) the
# run's checks see any ack before its install (early_acks), a missing,
# duplicate or stray ack, and any datapath/model mismatch.
bench_checked --workload tcp_small_table --seed 1 --seconds 15 --trace 0
mv "$lock_snapshot" benchmark/Cargo.lock

echo "== perf baseline: Table 2 probe generation =="
# Capped rule count keeps CI fast while staying above the 500-rule floor the
# engine-vs-stateless comparison is measured at; the binary asserts engine and
# stateless find the same probes and that the re-probe arm never solves.
# Which probes are found and the search that finds them are deterministic:
# the run fails unless those fields come out as committed (the timings and
# arena gauges may move). A change that means to move them commits the new
# file and says why.
search_fields() {
    grep -o '"\(name\|label\|found\|solver_calls\|instances_built\|clauses\|solver_propagations\|conflicts\)": [^,}]*' "$1"
}
committed_probe_generation=$(mktemp)
search_fields BENCH_probe_generation.json > "$committed_probe_generation"
./target/release/table2_probe_generation --rules 600 --json BENCH_probe_generation.json
search_fields BENCH_probe_generation.json | diff "$committed_probe_generation" -
rm "$committed_probe_generation"

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
# probed when its plan lands, re-probed at once when the switch answers the
# proxy's barrier and not before that, and after it again each time its
# last probe returns with the old state or times out; the timeout follows
# each session's probe round trip, so a saturated loop whose returns lag
# probes less often (see the JSON's notes for what the rows still show).
# 300 updates per switch, so that even the shortest row lasts about 0.6 s:
# at 30 the rows lasted 0.06-0.46 s and from 16 switches on spread beyond
# +-25 % of their mean from sweep to sweep.
./target/release/transport_loopback --updates 300 --json BENCH_transport.json

echo "== smoke: adaptive scheduler (small) =="
# Quick sanity run of the adaptive-vs-fixed detection-latency comparison;
# the binary asserts adaptive beats the fixed sweep on the churn workload.
./target/release/scheduler --small

echo "== perf baseline: adaptive scheduler vs fixed sweep =="
# The committed baseline: detection latency of injected rule breakage under
# churn/correlated/storm workloads, adaptive vs fixed at equal probe budget
# (500/s) and equal worst-case revisit (SLO = fixed cycle time).
./target/release/scheduler --json BENCH_scheduler.json
# The run is in virtual time, so the file comes out byte-identical: it pins
# the steady monitor's behaviour (sweep order, pacing, retries, verdicts). A
# change that means to move it commits the new file and says why.
git diff --quiet -- BENCH_scheduler.json

echo "== smoke: Fig. 8 large-network simulation, twice =="
# Small-size end-to-end run of the packet-level simulator over the trie-
# backed data plane (the full 2000-path figure takes minutes). The
# simulator runs on a virtual clock and ticks its proxies in switch order,
# so two runs of one build print the same thing.
fig8_runs=$(mktemp -d)
for run in 1 2; do
    ./target/release/fig8_large_network --paths 100 --batch 25 --interval-ms 10 --horizon-s 20 |
        tee "$fig8_runs/$run"
done
diff "$fig8_runs/1" "$fig8_runs/2"
rm -r "$fig8_runs"

echo "== the benchmark is untouched =="
# A product PR that dirties benchmark/ or BENCHMARK.json fails here, not in
# the driver.
git diff --quiet -- benchmark BENCHMARK.json

echo "CI OK"
