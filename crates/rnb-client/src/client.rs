//! The client proper.

use crate::keys::{item_key, push_item_key};
use crate::stats::ClientStats;
use rnb_core::{
    Bundler, FetchPlan, PlacementStrategy, PlanScratch, ReadSession, RnbConfig, WriteBatchPlanner,
    WriteGroup, WritePlanner, WritePolicy,
};
use rnb_hash::{ItemId, Placement};
use rnb_store::{StorageOp, StoreClient};
use std::io;
use std::net::SocketAddr;

/// Configuration of a deployed RnB client. Reads always bundle,
/// hitchhike, write back recovered misses and pipeline each round.
#[derive(Debug, Clone)]
pub struct RnbClientConfig {
    /// Placement and bundling configuration (server count must match the
    /// address list handed to [`RnbClient::connect`]).
    pub rnb: RnbConfig,
    /// How `set` propagates to replicas (§III-G / §IV).
    pub write_policy: WritePolicy,
}

impl RnbClientConfig {
    /// Defaults matching the paper's evaluated configuration:
    /// 4-way logical replication is the paper's sweet spot; pass your own
    /// [`RnbConfig`] via the field for anything else.
    pub fn new(replication: usize) -> Self {
        RnbClientConfig {
            rnb: RnbConfig::new(1, replication), // server count fixed at connect()
            write_policy: WritePolicy::WriteAll,
        }
    }

    /// Builder-style write-policy override.
    pub fn with_write_policy(mut self, policy: WritePolicy) -> Self {
        self.write_policy = policy;
        self
    }
}

/// One server endpoint with lazy reconnection. After an I/O error the
/// stream may be desynced (a reply of the failed request can still be
/// in flight) or dead — either way it must never be reused, so error
/// paths mark it broken and the next use dials a fresh connection.
struct ServerConn {
    addr: SocketAddr,
    conn: Option<StoreClient>,
}

impl ServerConn {
    fn connect(addr: SocketAddr) -> io::Result<ServerConn> {
        Ok(ServerConn {
            addr,
            conn: Some(StoreClient::connect(addr)?),
        })
    }

    /// The live connection, if any — used by pipelined receive phases,
    /// which must read from the exact connection that sent (a reconnect
    /// there would wait for a reply that was never requested).
    fn active(&mut self) -> Option<&mut StoreClient> {
        self.conn.as_mut()
    }

    /// Never reuse this connection again; the next use reconnects.
    fn mark_broken(&mut self) {
        self.conn = None;
    }
}

/// The connection for `server`, redialed lazily if an error marked it
/// broken (counted in [`ClientStats::reconnects`]). A free function so
/// callers can hold borrows of the other client fields.
fn conn_for<'a>(
    conns: &'a mut [ServerConn],
    stats: &mut ClientStats,
    server: usize,
) -> io::Result<&'a mut StoreClient> {
    let slot = &mut conns[server];
    if slot.conn.is_none() {
        slot.conn = Some(StoreClient::connect(slot.addr)?);
        stats.reconnects += 1;
    }
    let broken = || io::Error::new(io::ErrorKind::NotConnected, "connection unavailable");
    slot.conn.as_mut().ok_or_else(broken)
}

/// Execute one phase of a bundled write batch: send every group's burst
/// before reading any reply (PR 8's read-pipelining shape replayed on
/// the write side, so a phase costs one RTT, not the sum of per-server
/// RTTs). A failed send or receive marks that connection broken, counts
/// a failed transaction, and records the first error; surviving bursts
/// still complete — desync on one server must not corrupt the others.
fn run_write_bursts(
    conns: &mut [ServerConn],
    stats: &mut ClientStats,
    groups: &[WriteGroup],
    ops: &[Vec<StorageOp<'_>>],
    first_err: &mut Option<io::Error>,
) {
    let mut sent = vec![false; groups.len()];
    for (gi, group) in groups.iter().enumerate() {
        let s = group.server as usize;
        stats.write_txns += 1;
        match conn_for(conns, stats, s).and_then(|c| c.send_storage_batch(&ops[gi])) {
            Ok(()) => sent[gi] = true,
            Err(e) => {
                conns[s].mark_broken();
                stats.failed_txns += 1;
                first_err.get_or_insert(e);
            }
        }
    }
    let mut acks = Vec::new();
    for (gi, group) in groups.iter().enumerate() {
        if !sent[gi] {
            continue; // already recorded as failed at send time
        }
        let s = group.server as usize;
        let outcome = match conns[s].active() {
            Some(c) => c.recv_storage_batch(&ops[gi], &mut acks),
            // A later send on the same server broke the conn; the
            // pending replies are lost.
            None => Err(io::Error::new(io::ErrorKind::NotConnected, "conn broken")),
        };
        if let Err(e) = outcome {
            conns[s].mark_broken();
            stats.failed_txns += 1;
            first_err.get_or_insert(e);
        }
    }
}

/// Pooled wire keys of one read round, encoded back to back: key `i`
/// ends at `ends[i]`.
#[derive(Default)]
struct RoundBuf {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

/// Execute the current round of `session` over the wire: send every
/// transaction before reading any reply (a round costs one RTT, not the
/// sum of per-server RTTs), then report each reply and keep every newly
/// delivered value in `values`.
///
/// An I/O error is not fatal: the session routes a failed transaction's
/// items to the next fallback round — RnB's replication doubles as
/// availability (the paper's remark that memcached-tier "data loss … is
/// usually tolerable" becomes "server loss is tolerable" once every item
/// has k homes). The failing connection is marked broken: the stream may
/// be desynced, so later rounds must redial instead of reusing it.
fn run_read_round(
    conns: &mut [ServerConn],
    stats: &mut ClientStats,
    session: &mut ReadSession,
    values: &mut [Option<Vec<u8>>],
    buf: &mut RoundBuf,
) {
    buf.bytes.clear();
    buf.ends.clear();
    for &item in session.txns().iter().flat_map(|t| &t.items) {
        push_item_key(item, &mut buf.bytes);
        buf.ends.push(buf.bytes.len());
    }
    let mut keys: Vec<&[u8]> = Vec::with_capacity(buf.ends.len());
    let mut start = 0;
    for &end in &buf.ends {
        keys.push(buf.bytes.get(start..end).unwrap_or_default());
        start = end;
    }

    // Transaction `t`'s keys start at `first`, the sum of the earlier
    // transactions' lengths.
    let n = session.txns().len();
    let mut first = 0;
    for t in 0..n {
        let txn = &session.txns()[t];
        let (s, len) = (txn.server as usize, txn.items.len());
        let txn_keys = keys.get(first..first + len).unwrap_or_default();
        first += len;
        if conn_for(conns, stats, s)
            .and_then(|c| c.send_get_multi(txn_keys))
            .is_err()
        {
            conns[s].mark_broken();
            session.fail(t);
        }
    }
    first = 0;
    for t in 0..n {
        let txn = &session.txns()[t];
        let (s, len) = (txn.server as usize, txn.items.len());
        let txn_keys = keys.get(first..first + len).unwrap_or_default();
        first += len;
        // A round holds at most one transaction per server, so a broken
        // connection here is one whose send failed and was reported.
        let Some(conn) = conns[s].active() else {
            continue;
        };
        let Ok(reply) = conn.recv_get_multi(txn_keys) else {
            conns[s].mark_broken();
            session.fail(t);
            continue;
        };
        for (pos, value) in reply.into_iter().enumerate() {
            if let Some(slot) = session.record(t, pos, value.is_some()) {
                values[slot] = value.map(|(data, _flags)| data);
            }
        }
    }
}

/// A connected RnB deployment client.
pub struct RnbClient {
    conns: Vec<ServerConn>,
    bundler: Bundler<PlacementStrategy>,
    writer: WritePlanner<PlacementStrategy>,
    stats: ClientStats,
    /// Pooled planning buffers and plan, reused across `multi_get` calls
    /// so the per-request cover computation is allocation-free at steady
    /// state.
    scratch: PlanScratch,
    plan: FetchPlan,
    /// The shared read-round engine (pooled the same way), the value
    /// delivered for each of its slots, and the wire buffers.
    session: ReadSession,
    values: Vec<Option<Vec<u8>>>,
    round: RoundBuf,
    /// Pooled write-batch planner, reused across `multi_set` calls
    /// (same steady-state discipline as `scratch`, on the write side).
    batcher: WriteBatchPlanner,
}

impl RnbClient {
    /// Connect to the server fleet. The placement's server count is set
    /// to `addrs.len()`; every client of the deployment must list the
    /// servers in the same order (this list is RnB's entire shared
    /// configuration, §I-C).
    pub fn connect(addrs: &[SocketAddr], mut config: RnbClientConfig) -> io::Result<RnbClient> {
        assert!(!addrs.is_empty(), "need at least one server");
        config.rnb.servers = addrs.len();
        let conns = addrs
            .iter()
            .map(|&a| ServerConn::connect(a))
            .collect::<io::Result<_>>()?;
        let bundler = Bundler::from_config(&config.rnb);
        let writer = WritePlanner::new(
            PlacementStrategy::from_config(&config.rnb),
            config.write_policy,
        );
        Ok(RnbClient {
            conns,
            bundler,
            writer,
            stats: ClientStats::default(),
            scratch: PlanScratch::new(),
            plan: FetchPlan::default(),
            session: ReadSession::default(),
            values: Vec::new(),
            round: RoundBuf::default(),
            batcher: WriteBatchPlanner::new(),
        })
    }

    /// Number of servers in the deployment.
    pub fn num_servers(&self) -> usize {
        self.conns.len()
    }

    /// Repoint server slot `server` at a new address.
    ///
    /// Placement is keyed by server *index*, not address, so a node that
    /// was restarted on a different port keeps its logical identity: the
    /// deployment updates every client's address list and the slot
    /// reconnects lazily on next use (counted in
    /// [`ClientStats::reconnects`] like any other reconnect). The old
    /// connection, if any, is dropped as broken. Out-of-range indices are
    /// ignored: membership changes (resizing the fleet) require a new
    /// client because they change the placement itself.
    pub fn set_server_addr(&mut self, server: usize, addr: SocketAddr) {
        if let Some(slot) = self.conns.get_mut(server) {
            slot.addr = addr;
            slot.mark_broken();
        }
    }

    /// Accumulated counters.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// The planner (for tests and tooling).
    pub fn bundler(&self) -> &Bundler<PlacementStrategy> {
        &self.bundler
    }

    /// Fetch `items` with full RnB treatment: the bundled plan with
    /// hitchhikers, the distinguished-copy fallback round, the survivor
    /// sweep over dead servers, and write-back of recovered misses, each
    /// round pipelined. Returns one entry per input position; `None`
    /// means no server (including the distinguished copy) holds the item.
    pub fn multi_get(&mut self, items: &[ItemId]) -> io::Result<Vec<Option<Vec<u8>>>> {
        self.bundler
            .plan_into(&mut self.scratch, items, &mut self.plan);
        let placement = self.bundler.placement();
        let (session, stats) = (&mut self.session, &mut self.stats);
        session.begin(&self.plan, placement, true);
        self.values.clear();
        self.values.resize_with(items.len(), || None); // at least one per slot
        while session.next_round(placement).is_some() {
            run_read_round(
                &mut self.conns,
                stats,
                session,
                &mut self.values,
                &mut self.round,
            );
        }

        // Write recovered misses back to their planned replica server.
        // A write error is tolerated (the server may be the dead one)
        // but still marks the connection broken — reusing it would
        // desync the next round's replies.
        for (slot, item, server) in session.writebacks() {
            let Some(Some(data)) = self.values.get(slot) else {
                continue;
            };
            let s = server as usize;
            match conn_for(&mut self.conns, stats, s).and_then(|c| c.set(&item_key(item), data, 0))
            {
                Ok(()) => stats.writebacks += 1,
                Err(_) => self.conns[s].mark_broken(),
            }
        }

        let counts = session.counts();
        stats.requests += 1;
        stats.round1_txns += counts.round1_txns as u64;
        stats.round2_txns += counts.round2_txns as u64;
        stats.round3_txns += counts.round3_txns as u64;
        stats.planned_misses += counts.planned_misses as u64;
        stats.rescued_by_hitchhikers += counts.rescued as u64;
        stats.unavailable_items += counts.unavailable as u64;
        stats.failed_txns += counts.failed_txns as u64;
        Ok(items
            .iter()
            .map(|&item| self.values.get(session.slot_of(item)?)?.clone())
            .collect())
    }

    /// Run `op` on the connection for `server` (reconnecting lazily
    /// first), marking the connection broken if the operation fails so
    /// the next use reconnects instead of reusing a desynced stream.
    fn with_conn<T>(
        &mut self,
        server: usize,
        op: impl FnOnce(&mut StoreClient) -> io::Result<T>,
    ) -> io::Result<T> {
        let out = conn_for(&mut self.conns, &mut self.stats, server).and_then(op);
        if out.is_err() {
            self.conns[server].mark_broken();
        }
        out
    }

    /// Store `item` on all of its replica servers per the write policy.
    /// The distinguished copy is written with `add`-then-`replace`
    /// fallback to plain `set` — rnb-store pins via its in-process API,
    /// so over the wire the distinguished copy is an ordinary entry.
    pub fn set(&mut self, item: ItemId, value: &[u8]) -> io::Result<()> {
        let plan = self.writer.plan_write(item);
        let key = item_key(item);
        for txn in &plan.invalidations {
            self.with_conn(txn.server as usize, |c| c.delete(&key))?;
            self.stats.write_txns += 1;
        }
        for txn in &plan.writes {
            self.with_conn(txn.server as usize, |c| c.set(&key, value, 0))?;
            self.stats.write_txns += 1;
        }
        self.stats.writes += 1;
        Ok(())
    }

    /// Store a whole batch of `(item, value)` pairs with bundled,
    /// pipelined write transactions.
    ///
    /// The pooled [`WriteBatchPlanner`] groups every per-replica
    /// transaction of the batch by server, then each touched server
    /// receives its whole op list as ONE pipelined burst
    /// ([`StoreClient::send_storage_batch`] /
    /// [`StoreClient::recv_storage_batch`]): per batch, a server costs
    /// one round-trip per phase instead of one per item-replica. Under
    /// [`WritePolicy::InvalidateThenWrite`] the invalidation bursts are
    /// fully received before any write burst is sent, so the §IV
    /// ordering invariant holds batch-wide: no stale replica outlives
    /// its item's distinguished write.
    ///
    /// Duplicate items keep batch order (later value wins), so the final
    /// state equals a sequential [`RnbClient::set`] loop — the oracle of
    /// the TCP equivalence proptest. I/O errors follow `multi_get`'s
    /// failure semantics (broken connections are marked and redialed lazily,
    /// failed bursts counted in [`ClientStats::failed_txns`]); the first
    /// error is returned after every burst has completed, so a partial
    /// failure never desyncs the surviving connections.
    pub fn multi_set<V: AsRef<[u8]>>(&mut self, entries: &[(ItemId, V)]) -> io::Result<()> {
        let RnbClient {
            conns,
            writer,
            stats,
            batcher,
            ..
        } = self;
        let plan = batcher.plan_batch(writer, entries.iter().map(|&(item, _)| item));
        let mut first_err = None;

        // Phase 1: invalidation bursts (InvalidateThenWrite only; empty
        // under WriteAll). Fully flushed — sent AND acknowledged —
        // before phase 2 starts.
        let inval_keys: Vec<Vec<Vec<u8>>> = plan
            .invalidations
            .iter()
            .map(|g| g.ops.iter().map(|&(item, _)| item_key(item)).collect())
            .collect();
        let inval_ops: Vec<Vec<StorageOp<'_>>> = inval_keys
            .iter()
            .map(|keys| keys.iter().map(|key| StorageOp::Delete { key }).collect())
            .collect();
        run_write_bursts(conns, stats, plan.invalidations, &inval_ops, &mut first_err);

        // Phase 2: the distinguished writes (every replica's write under
        // WriteAll), one burst per touched server.
        let write_keys: Vec<Vec<Vec<u8>>> = plan
            .writes
            .iter()
            .map(|g| g.ops.iter().map(|&(item, _)| item_key(item)).collect())
            .collect();
        let write_ops: Vec<Vec<StorageOp<'_>>> = plan
            .writes
            .iter()
            .zip(&write_keys)
            .map(|(g, keys)| {
                g.ops
                    .iter()
                    .zip(keys)
                    .map(|(&(_, index), key)| StorageOp::Set {
                        key,
                        value: entries[index].1.as_ref(),
                        flags: 0,
                    })
                    .collect()
            })
            .collect();
        run_write_bursts(conns, stats, plan.writes, &write_ops, &mut first_err);

        self.stats.writes += entries.len() as u64;
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Delete `item` everywhere (all logical replicas).
    pub fn delete(&mut self, item: ItemId) -> io::Result<bool> {
        let key = item_key(item);
        let mut any = false;
        for server in self.bundler.placement().replicas(item) {
            any |= self.with_conn(server as usize, |c| c.delete(&key))?;
            // Each replica delete is a write-side transaction, counted
            // exactly like `set`'s invalidations (mixed-workload
            // accounting used to undercount here).
            self.stats.write_txns += 1;
        }
        self.stats.writes += 1;
        Ok(any)
    }

    /// §IV atomic read-modify-write: invalidate the non-distinguished
    /// replicas, then CAS-loop `f` on the distinguished copy. Returns the
    /// final stored value; errors if the item does not exist.
    pub fn atomic_update(
        &mut self,
        item: ItemId,
        f: impl Fn(&[u8]) -> Vec<u8>,
    ) -> io::Result<Vec<u8>> {
        let key = item_key(item);
        let replicas = self.bundler.placement().replicas(item);
        for &server in &replicas[1..] {
            self.with_conn(server as usize, |c| c.delete(&key))?;
            self.stats.write_txns += 1;
        }
        let d = replicas[0] as usize;
        loop {
            let got = self.with_conn(d, |c| c.gets_multi(&[&key]))?;
            let Some((data, flags, token)) = got.into_iter().next().flatten() else {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("item {item} has no distinguished copy"),
                ));
            };
            let next = f(&data);
            self.stats.write_txns += 1;
            if self.with_conn(d, |c| c.cas(&key, &next, flags, token))? {
                self.stats.writes += 1;
                return Ok(next);
            }
            self.stats.cas_retries += 1;
        }
    }
}

// Exercised end-to-end in `tests/client_over_tcp.rs` (needs running
// servers); unit tests cover config plumbing.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builders() {
        let c = RnbClientConfig::new(3).with_write_policy(WritePolicy::InvalidateThenWrite);
        assert_eq!(c.rnb.replication, 3);
        assert_eq!(c.write_policy, WritePolicy::InvalidateThenWrite);
    }

    #[test]
    fn connect_rejects_empty_fleet() {
        let r = std::panic::catch_unwind(|| RnbClient::connect(&[], RnbClientConfig::new(1)));
        assert!(r.is_err());
    }

    #[test]
    fn cas_outcome_is_reexported_sanely() {
        // Compile-time guard that the store's CAS surface stays public.
        let _ = rnb_store::shard::CasOutcome::Stored;
    }
}
