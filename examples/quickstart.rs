//! Quickstart: generate a probe for the paper's Figure 1 scenario.
//!
//! A switch holds two rules:
//!   1. (src=10.0.0.1, dst=*) -> port A   (the rule we want to verify)
//!   2. (*, *)               -> port B   (default route)
//!
//! Monocle synthesizes a probe packet whose observable outcome differs
//! depending on whether rule 1 is installed, then crafts it into a real
//! wire packet.
//!
//! Run: `cargo run --example quickstart`

use monocle::generator::{generate_probe, GeneratorConfig};
use monocle::CatchSpec;
use monocle_openflow::{Action, FlowTable, Match};
use monocle_packet::{craft_packet, validate_packet, ProbeMeta};

fn main() {
    // Build the expected flow table (what Monocle's proxy would have
    // tracked from the controller's FlowMods).
    let mut table = FlowTable::new();
    let rule_1 = table
        .add_rule(
            10,
            Match::any().with_nw_src([10, 0, 0, 1], 32),
            vec![Action::Output(1)], // port A
        )
        .unwrap();
    table
        .add_rule(1, Match::any(), vec![Action::Output(2)]) // port B
        .unwrap();

    // Ask the SAT-based generator for a probe plan.
    let plan = generate_probe(
        &table,
        rule_1,
        &CatchSpec::default(),
        &GeneratorConfig::default(),
    )
    .expect("rule 1 is monitorable");

    println!("probe header (abstract): {:?}", plan.fields);
    println!(
        "present  => output ports {:?}",
        plan.present
            .observations
            .iter()
            .map(|o| o.0)
            .collect::<Vec<_>>()
    );
    println!(
        "absent   => output ports {:?}",
        plan.absent
            .observations
            .iter()
            .map(|o| o.0)
            .collect::<Vec<_>>()
    );
    assert_eq!(plan.fields.nw_src, [10, 0, 0, 1], "probe must hit rule 1");

    // Craft the real packet, with probe metadata in the payload (§4.2).
    let meta = ProbeMeta {
        switch_id: 1,
        rule_id: rule_1.0,
        seq: 1,
    };
    let frame = craft_packet(&plan.fields, &meta.encode()).unwrap();
    validate_packet(&frame).unwrap();
    println!("crafted {} wire bytes; checksums valid", frame.len());
    println!("outcome check: probe on port A ⇒ rule OK; on port B ⇒ raise alarm (Figure 1)");

    // Steady-state monitoring re-probes the same rules continuously; the
    // ProbeEngine's plan cache makes that cheap. The first pass generates
    // (here without SAT, via its guess-and-verify fast path); the re-probe
    // of the unchanged table is a pure cache hit — zero solver calls.
    let mut engine = monocle::ProbeEngine::default();
    let ids: Vec<_> = table.rules().iter().map(|r| r.id).collect();
    let (_, cold) = engine.generate_batch_with_stats(&table, &ids, &CatchSpec::default());
    let (_, warm) = engine.generate_batch_with_stats(&table, &ids, &CatchSpec::default());
    println!(
        "engine: cold batch used {} SAT solves ({} fast-path); warm re-probe: {} solves, {} cache hits",
        cold.solver_calls, cold.fast_path_hits, warm.solver_calls, warm.cache_hits
    );
}
