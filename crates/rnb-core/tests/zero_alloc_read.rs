//! Proof of the read-round engine's zero-steady-state-allocation
//! guarantee (the read-side sibling of `tests/zero_alloc_write.rs`):
//! after one warm-up request per shape, driving a
//! [`rnb_core::ReadSession`] through every round — round 1 with
//! hitchhikers, the distinguished round, the survivor sweep and the
//! write-back list — performs zero allocator calls.
//!
//! Kept to a single test function so no sibling test thread muddies the
//! warm-up ordering.

use alloc_counter::{count_alloc, AllocCounterSystem};
use rnb_core::{Bundler, FetchPlan, ItemId, PlanScratch, ReadCounts, ReadSession, RnbConfig};

#[global_allocator]
static ALLOC: AllocCounterSystem = AllocCounterSystem;

/// Server 3 is dead; a live server misses a third of its items, so every
/// round (including the sweep) runs.
fn drive(bundler: &Bundler, session: &mut ReadSession, plan: &FetchPlan) -> (ReadCounts, usize) {
    let placement = bundler.placement();
    session.begin(plan, placement, true);
    while session.next_round(placement).is_some() {
        for t in 0..session.txns().len() {
            let server = session.txns()[t].server;
            if server == 3 {
                session.fail(t);
                continue;
            }
            for pos in 0..session.txns()[t].items.len() {
                let item = session.txns()[t].items[pos];
                session.record(t, pos, !(item + u64::from(server)).is_multiple_of(3));
            }
        }
    }
    (session.counts(), session.writebacks().count())
}

#[test]
fn steady_state_read_rounds_do_not_allocate() {
    let bundler = Bundler::from_config(&RnbConfig::new(16, 4));
    let mut scratch = PlanScratch::new();
    let request: Vec<ItemId> = (0..200u64).map(|i| i * 7 % 331).collect();
    let mut plans = [FetchPlan::default(), FetchPlan::default()];
    bundler.plan_into(&mut scratch, &request, &mut plans[0]);
    bundler.plan_into(&mut scratch, &request[..30], &mut plans[1]);
    let mut session = ReadSession::default();

    // Warm-up: one request per shape grows every pool. (A request of a
    // new shape may still grow a pooled buffer once — pools converge,
    // they are not preallocated to the worst case.)
    let warm: Vec<_> = plans
        .iter()
        .map(|plan| drive(&bundler, &mut session, plan))
        .collect();
    let (big, big_writebacks) = warm[0];
    assert!(big.round2_txns > 0 && big.round3_txns > 0, "{big:?}");
    assert!(big.rescued > 0 && big_writebacks > 0, "{big:?}");

    // Steady state: alternating shapes never touch the allocator.
    for round in 0..20 {
        let which = round % 2;
        let ((allocs, reallocs, deallocs), out) =
            count_alloc(|| drive(&bundler, &mut session, &plans[which]));
        assert_eq!(out, warm[which]);
        assert_eq!(
            (allocs, reallocs, deallocs),
            (0, 0, 0),
            "request {round} touched the allocator"
        );
    }
}
