//! Per-layer measurements made from outside the client, after a traced
//! pass, on the same fleet and the same requests.

use crate::check::encode;
use crate::clock::{now_ns, wait_until};
use crate::fleet::Fleet;
use crate::workload::{Op, ITEMS};
use rnb_client::{item_key, RnbClient};
use rnb_core::PlanScratch;
use rnb_store::{GetScratch, SetEntry, Store, StoreClient};
use std::hint::black_box;
use std::io;

/// Read requests whose round 1 the wire replay re-sends.
const REPLAY_REQUESTS: usize = 1000;
/// Idle gaps before a poller probe, in ms.
const PROBE_GAPS_MS: [u64; 3] = [0, 5, 50];
/// Probes per gap, spread evenly over the servers.
const PROBES_PER_GAP: usize = 32;
/// Window over which an untouched fleet's CPU is measured.
const IDLE_WINDOW_NS: u64 = 1_000_000_000;
/// Minimum time the in-process store timings repeat for.
const STORE_MIN_NS: u64 = 100_000_000;

#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Median 1-key RTT per entry of [`PROBE_GAPS_MS`], in ns.
    pub probe_rtt_ns: [f64; 3],
    pub idle_cpu_ns_per_s: f64,
    pub txn_rtt_ns: Vec<u64>,
    /// Mean round-1 wire time of a replayed request.
    pub wire_ns_per_req: f64,
    pub store_get_ns_per_key: f64,
    pub store_set_ns_per_key: f64,
}

pub fn measure(fleet: &Fleet, client: &RnbClient, ops: &[Op]) -> io::Result<Layers> {
    let mut conns = fleet
        .addrs()
        .into_iter()
        .map(StoreClient::connect)
        .collect::<io::Result<Vec<_>>>()?;
    let (txn_rtt_ns, wire_ns_per_req, batches) = replay_round1(&mut conns, client, ops)?;
    let probe_rtt_ns = probe_poller(&mut conns)?;
    drop(conns);
    let idle_cpu_ns_per_s = idle_cpu(fleet)?;
    let (store_get_ns_per_key, store_set_ns_per_key) = time_store(&batches);
    Ok(Layers {
        probe_rtt_ns,
        idle_cpu_ns_per_s,
        txn_rtt_ns,
        wire_ns_per_req,
        store_get_ns_per_key,
        store_set_ns_per_key,
    })
}

/// Re-send the round-1 transactions of the first read requests through
/// the benchmark's own connections, pipelined as the client does: every
/// transaction of a request is sent before any reply is read. A
/// transaction's RTT runs from the request's first send to the end of
/// its reply. Hitchhikers are not added. Each request is sent twice and
/// timed the second time, when the servers are awake, so this is the
/// wire's cost without the poller's park.
/// Returns the RTTs, the mean wire time per request and the replayed
/// transactions' item lists.
fn replay_round1(
    conns: &mut [StoreClient],
    client: &RnbClient,
    ops: &[Op],
) -> io::Result<(Vec<u64>, f64, Vec<Vec<u64>>)> {
    let mut scratch = PlanScratch::new();
    let mut rtts = Vec::new();
    let mut batches = Vec::new();
    let mut wire_ns = 0;
    let mut requests = 0;
    for items in ops.iter().filter_map(|op| match op {
        Op::Read(items) => Some(items),
        Op::Write(_) => None,
    }) {
        if requests == REPLAY_REQUESTS {
            break;
        }
        let plan = client.bundler().plan_with(&mut scratch, items);
        let keys: Vec<Vec<Vec<u8>>> = plan
            .transactions
            .iter()
            .map(|t| t.items.iter().map(|&i| item_key(i)).collect())
            .collect();
        let refs: Vec<Vec<&[u8]>> = keys
            .iter()
            .map(|k| k.iter().map(Vec::as_slice).collect())
            .collect();
        // The first round wakes the servers' pollers; the second is timed.
        for (txn, r) in plan.transactions.iter().zip(&refs) {
            conns[txn.server as usize].send_get_multi(r)?;
        }
        for (txn, r) in plan.transactions.iter().zip(&refs) {
            black_box(conns[txn.server as usize].recv_get_multi(r)?);
        }
        let start = now_ns();
        for (txn, r) in plan.transactions.iter().zip(&refs) {
            conns[txn.server as usize].send_get_multi(r)?;
        }
        let mut done = start;
        for (txn, r) in plan.transactions.iter().zip(&refs) {
            black_box(conns[txn.server as usize].recv_get_multi(r)?);
            done = now_ns();
            rtts.push(done - start);
        }
        wire_ns += done - start;
        requests += 1;
        batches.extend(plan.transactions.iter().map(|t| t.items.clone()));
    }
    Ok((rtts, wire_ns as f64 / requests.max(1) as f64, batches))
}

/// Median 1-key `get_multi` RTT after each idle gap. Every server gets
/// a warm-up request first, so each probe's idle time is the gap.
fn probe_poller(conns: &mut [StoreClient]) -> io::Result<[f64; 3]> {
    let key = item_key(0);
    let per_server = (PROBES_PER_GAP / conns.len()).max(1);
    let mut out = [0.0; 3];
    for (slot, gap_ms) in out.iter_mut().zip(PROBE_GAPS_MS) {
        let mut rtts = Vec::new();
        for conn in conns.iter_mut() {
            conn.get_multi(&[&key])?;
            for _ in 0..per_server {
                wait_until(now_ns() + gap_ms * 1_000_000);
                let t = now_ns();
                black_box(conn.get_multi(&[&key])?);
                rtts.push(now_ns() - t);
            }
        }
        *slot = crate::median(&mut rtts);
    }
    Ok(out)
}

/// Fleet CPU per second of wall time with no traffic at all.
fn idle_cpu(fleet: &Fleet) -> io::Result<f64> {
    // Let the last probe's worker linger and park escalation settle.
    wait_until(now_ns() + 100_000_000);
    let (t0, c0) = (now_ns(), fleet.cpu_ns()?);
    wait_until(t0 + IDLE_WINDOW_NS);
    let (t1, c1) = (now_ns(), fleet.cpu_ns()?);
    Ok((c1 - c0) as f64 * 1e9 / (t1 - t0) as f64)
}

/// `Store::get_multi_into` and `Store::set_multi` timed in-process on a
/// store holding every item, with the replayed transactions as batches.
fn time_store(batches: &[Vec<u64>]) -> (f64, f64) {
    let store = Store::new(64 << 20);
    let mut scratch = GetScratch::new();
    let mut outcomes = Vec::new();
    let all: Vec<(Vec<u8>, Vec<u8>)> = (0..ITEMS as u64)
        .map(|i| (item_key(i), encode(i, 0)))
        .collect();
    let entries: Vec<SetEntry<'_>> = all
        .iter()
        .map(|(key, value)| SetEntry {
            key,
            value,
            flags: 0,
            pinned: false,
            ttl: None,
        })
        .collect();
    for chunk in entries.chunks(1024) {
        store.set_multi(&mut scratch, chunk, &mut outcomes);
    }
    let batch_entries: Vec<Vec<SetEntry<'_>>> = batches
        .iter()
        .map(|b| b.iter().map(|&i| entries[i as usize]).collect())
        .collect();
    let batch_keys: Vec<Vec<&[u8]>> = batch_entries
        .iter()
        .map(|b| b.iter().map(|e| e.key).collect())
        .collect();
    let keys: usize = batches.iter().map(Vec::len).sum();
    if keys == 0 {
        return (0.0, 0.0);
    }

    let mut out = Vec::new();
    let get = repeat_for(STORE_MIN_NS, || {
        for k in &batch_keys {
            store.get_multi_into(&mut scratch, k, &mut out);
            black_box(&out);
        }
    });
    let set = repeat_for(STORE_MIN_NS, || {
        for b in &batch_entries {
            store.set_multi(&mut scratch, b, &mut outcomes);
            black_box(&outcomes);
        }
    });
    (get / keys as f64, set / keys as f64)
}

/// Mean ns of one call of `f`, repeating it for at least `min_ns`.
fn repeat_for(min_ns: u64, mut f: impl FnMut()) -> f64 {
    let start = now_ns();
    let mut calls = 0u64;
    loop {
        f();
        calls += 1;
        let spent = now_ns() - start;
        if spent >= min_ns {
            return spent as f64 / calls as f64;
        }
    }
}
