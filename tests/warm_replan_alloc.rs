//! A warm re-plan of an unchanged table is a lookup: the engine hands out its
//! cached plans without copying them, so the only allocation a warm
//! `generate_batch` makes is its output vector. A cold plan that the fast
//! path answers allocates a fixed handful, whatever the table and the pins.
//! Counted by a global allocator wrapping `System`, per thread, so that the
//! test harness's own threads do not count.

use monocle::encode::CatchSpec;
use monocle::engine::ProbeEngine;
use monocle::generator::ProbeError;
use monocle_datasets::acl::{generate, AclConfig};
use monocle_openflow::{Action, Field, FlowTable, Match};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while its thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter beside it is a
// const-initialized thread-local without a destructor, so counting neither
// allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, that is from `System`, with
        // `layout`; the caller upholds the rest of `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f()` and the allocations this thread made while running it.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn warm_generate_batch_allocates_only_its_output() {
    let mut table = FlowTable::new();
    let rules = generate(&AclConfig {
        rules: 1000,
        ..AclConfig::stanford_like()
    });
    for r in rules {
        table.add_rule(r.priority, r.match_, r.actions).unwrap();
    }
    let ids: Vec<_> = table.rules().iter().map(|r| r.id).collect();
    let catch = CatchSpec::default();
    let mut engine = ProbeEngine::default();
    let cold = engine.generate_batch(&table, &ids, &catch);
    assert!(
        !cold.contains(&Err(ProbeError::RepairFailed)),
        "every result is cached"
    );
    assert!(cold.iter().filter(|r| r.is_ok()).count() > ids.len() / 2);
    let (warm, allocated) = allocations(|| engine.generate_batch(&table, &ids, &catch));
    assert_eq!(warm, cold);
    assert_eq!(engine.stats().cache_hits, ids.len() as u64);
    assert_eq!(allocated, 1, "the output Vec and nothing per hit");
}

#[test]
fn cold_fast_path_plan_allocates_a_fixed_count() {
    let mut table = FlowTable::new();
    let probed = table
        .add_rule(
            10,
            Match::any().with_nw_src([10, 0, 0, 1], 32),
            vec![Action::Output(1)],
        )
        .unwrap();
    table
        .add_rule(1, Match::any(), vec![Action::Output(2)])
        .unwrap();
    let catch = CatchSpec::tag(Field::DlVlan, 0xf03);
    let mut engine = ProbeEngine::default();
    // The first synchronization reads the whole table; it is not planning.
    assert!(engine.take_evicted(&table).is_empty());
    let (plan, allocated) = allocations(|| engine.generate(&table, probed, &catch));
    assert!(plan.is_ok());
    assert_eq!(engine.stats().fast_path_hits, 1);
    // One pin list for the call; the verifier's two outcomes, which it
    // compares in place; the plan cache's first entry.
    assert_eq!(allocated, 4, "the pin list is built once per call");
}
