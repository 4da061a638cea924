//! Proof of the serving path's zero-steady-state-allocation guarantee.
//!
//! A counting global allocator (vendored `alloc-counter` stand-in) wraps
//! the system allocator with thread-local counters. The first pass over
//! a get/set traffic script warms one [`rnb_store::ConnScratch`] — line
//! buffer, data buffer, key ranges, multi-get scratch, response buffer —
//! and the shard-side value storage (same-length `set` overwrites reuse
//! the existing allocation via `Arc::get_mut`). Every later pass of the
//! per-connection command loop must perform **zero** allocator calls,
//! as long as values fit the pooled buffers.
//!
//! The guarantee is checked on an 8-shard store and on a 1-shard store
//! warmed past 64Ki store accesses, so a store whose single shard takes
//! all the traffic for a long run serves exactly like a wide one.
//!
//! Kept to a single `#[test]` so no sibling test thread muddies the
//! warm-up ordering.

use alloc_counter::{count_alloc, AllocCounterSystem};
use rnb_store::{serve_connection, ConnScratch, Store};
use std::io::Cursor;

#[global_allocator]
static ALLOC: AllocCounterSystem = AllocCounterSystem;

const VALUE_LEN: usize = 16;

/// `(shard count, warm-up passes)`. One pass makes 100 store accesses
/// (a 20-key multi-get, then a 2-key get and two sets per key), so 700
/// passes carry the 1-shard store past 64Ki accesses.
const SHARD_CASES: [(usize, usize); 2] = [(8, 2), (1, 700)];

/// A pipelined traffic script: multi-gets of several shapes interleaved
/// with same-length `set` overwrites of existing keys — the steady-state
/// workload of the paper's load generator.
fn traffic_script(keys: &[String]) -> Vec<u8> {
    let mut script = Vec::new();
    // One big multi-get over every key.
    script.extend_from_slice(b"get");
    for k in keys {
        script.push(b' ');
        script.extend_from_slice(k.as_bytes());
    }
    script.extend_from_slice(b"\r\n");
    // Small gets (hit + miss mixed), then overwriting sets.
    for (i, k) in keys.iter().enumerate() {
        script.extend_from_slice(format!("get {k} missing-{i}\r\n").as_bytes());
        script.extend_from_slice(format!("set {k} 0 0 {VALUE_LEN}\r\n").as_bytes());
        script.extend_from_slice(&[b'v'; VALUE_LEN]);
        script.extend_from_slice(b"\r\n");
        script.extend_from_slice(format!("set {k} 0 0 {VALUE_LEN} noreply\r\n").as_bytes());
        script.extend_from_slice(&[b'w'; VALUE_LEN]);
        script.extend_from_slice(b"\r\n");
    }
    script
}

#[test]
fn steady_state_serving_does_not_allocate() {
    for (shards, warm_passes) in SHARD_CASES {
        let store = Store::with_shards(1 << 22, shards);
        let keys: Vec<String> = (0..20).map(|i| format!("key-{i}")).collect();
        for k in &keys {
            store.set(k.as_bytes(), &[b'0'; VALUE_LEN], 0, false);
        }
        let script = traffic_script(&keys);
        let mut scratch = ConnScratch::new();

        // Warm-up: grows every pooled buffer to the script's steady-state
        // shape (and leaves each value's Arc at refcount 1).
        for _ in 0..warm_passes {
            let mut reader = Cursor::new(&script[..]);
            serve_connection(&store, &mut reader, &mut std::io::sink(), &mut scratch)
                .expect("serve over in-memory transport");
        }
        let warm_stats = store.stats();
        assert!(warm_stats.hits > 0 && warm_stats.misses > 0 && warm_stats.sets > 0);

        // Steady state: replaying the same traffic must not touch the
        // allocator at all — no allocs, no reallocs, no deallocs.
        for round in 0..5 {
            let mut reader = Cursor::new(&script[..]);
            let ((allocs, reallocs, deallocs), result) = count_alloc(|| {
                serve_connection(&store, &mut reader, &mut std::io::sink(), &mut scratch)
            });
            result.expect("serve over in-memory transport");
            assert_eq!(
                (allocs, reallocs, deallocs),
                (0, 0, 0),
                "{shards} shard(s), round {round}: the command loop touched the allocator"
            );
        }

        // The traffic really exercised the store every round.
        let s = store.stats();
        assert!(s.get_txns > warm_stats.get_txns);
        assert!(s.sets > warm_stats.sets);
        assert_eq!(s.curr_items, 20);
    }
}
