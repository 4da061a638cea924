//! Write-path planning: replica updates, invalidation, and the paper's
//! atomic-operation scheme (§IV).
//!
//! Reads are RnB's fast path; writes must deal with the replicas:
//!
//! * §III-G: "During write access, RnB requires updating multiple
//!   replicas. However, when replication is required for reasons such as
//!   reliability, RnB does not further increase the write complexity."
//! * §IV: "we proposed schemes for atomic operations in an RnB enabled
//!   memcached system. For example, remove all but the distinguished
//!   copies of an item before modifying it, then let RnB-memcached create
//!   the new copies on demand, after the atomic operation completes."

use crate::plan::Transaction;
use rnb_hash::{ItemId, Placement, ServerId};

/// How a write propagates to an item's replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePolicy {
    /// Update every logical replica in place — one `set` per replica
    /// server. Simple, keeps replicas warm, but a concurrent multi-server
    /// update is not atomic.
    WriteAll,
    /// The §IV atomic scheme: first *delete* the non-distinguished
    /// copies, then update the distinguished copy. Readers can never see
    /// a stale replica (it is gone before the new value lands); the
    /// bundler's miss path recreates replicas on demand via write-back.
    InvalidateThenWrite,
}

/// The server operations one write expands to, in issue order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WritePlan {
    /// The written item.
    pub item: ItemId,
    /// `delete` transactions to issue first (empty for
    /// [`WritePolicy::WriteAll`]).
    pub invalidations: Vec<Transaction>,
    /// `set` transactions to issue after the invalidations complete.
    pub writes: Vec<Transaction>,
}

impl WritePlan {
    /// Total server transactions this write costs.
    ///
    /// ```
    /// use rnb_core::{PlacementStrategy, RnbConfig, WritePlanner, WritePolicy};
    /// let planner = WritePlanner::new(
    ///     PlacementStrategy::from_config(&RnbConfig::new(16, 4)),
    ///     WritePolicy::WriteAll,
    /// );
    /// // Four replicas → four `set` transactions, no invalidations.
    /// assert_eq!(planner.plan_write(7).total_txns(), 4);
    /// ```
    pub fn total_txns(&self) -> usize {
        self.invalidations.len() + self.writes.len()
    }
}

/// Plans writes over a placement. Stateless, like the read-side
/// [`crate::Bundler`].
///
/// ```
/// use rnb_core::{PlacementStrategy, RnbConfig, WritePlanner, WritePolicy};
/// let config = RnbConfig::new(16, 4);
/// let planner = WritePlanner::new(
///     PlacementStrategy::from_config(&config),
///     WritePolicy::InvalidateThenWrite,
/// );
/// let plan = planner.plan_write(7);
/// // The §IV atomic scheme: delete the 3 extra replicas, then write the
/// // distinguished copy.
/// assert_eq!(plan.invalidations.len(), 3);
/// assert_eq!(plan.writes.len(), 1);
/// ```
pub struct WritePlanner<P: Placement> {
    placement: P,
    policy: WritePolicy,
}

impl<P: Placement> WritePlanner<P> {
    /// A planner with the given policy.
    ///
    /// ```
    /// use rnb_core::{PlacementStrategy, RnbConfig, WritePlanner, WritePolicy};
    /// let planner = WritePlanner::new(
    ///     PlacementStrategy::from_config(&RnbConfig::new(8, 2)),
    ///     WritePolicy::WriteAll,
    /// );
    /// assert_eq!(planner.policy(), WritePolicy::WriteAll);
    /// ```
    pub fn new(placement: P, policy: WritePolicy) -> Self {
        WritePlanner { placement, policy }
    }

    /// The policy in force.
    pub fn policy(&self) -> WritePolicy {
        self.policy
    }

    /// The placement in use.
    pub fn placement(&self) -> &P {
        &self.placement
    }

    /// Plan one item write.
    ///
    /// ```
    /// use rnb_core::{PlacementStrategy, RnbConfig, WritePlanner, WritePolicy};
    /// let planner = WritePlanner::new(
    ///     PlacementStrategy::from_config(&RnbConfig::new(16, 4)),
    ///     WritePolicy::InvalidateThenWrite,
    /// );
    /// // §IV atomic scheme: delete the 3 extra replicas, then write the
    /// // distinguished copy.
    /// let plan = planner.plan_write(7);
    /// assert_eq!(plan.invalidations.len(), 3);
    /// assert_eq!(plan.writes.len(), 1);
    /// ```
    pub fn plan_write(&self, item: ItemId) -> WritePlan {
        let replicas = self.placement.replicas(item);
        match self.policy {
            WritePolicy::WriteAll => WritePlan {
                item,
                invalidations: Vec::new(),
                writes: replicas
                    .into_iter()
                    .map(|server| Transaction {
                        server,
                        items: vec![item],
                    })
                    .collect(),
            },
            WritePolicy::InvalidateThenWrite => WritePlan {
                item,
                invalidations: replicas[1..]
                    .iter()
                    .map(|&server| Transaction {
                        server,
                        items: vec![item],
                    })
                    .collect(),
                writes: vec![Transaction {
                    server: replicas[0],
                    items: vec![item],
                }],
            },
        }
    }
}

/// One server's bundled operations within a [`BatchWritePlan`].
///
/// `ops` holds `(item, batch index)` pairs in batch order; the batch
/// index points back into the caller's `(item, value)` slice so a client
/// can recover each op's payload without the planner ever touching
/// values. Duplicate items keep one op per occurrence, still in batch
/// order, so executing a group front to back matches a per-item write
/// loop exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteGroup {
    /// The server every op in this group targets.
    pub server: ServerId,
    /// `(item, index into the planned batch)` pairs in issue order.
    pub ops: Vec<(ItemId, usize)>,
}

/// A borrowed view of one planned write batch, grouped by server — the
/// pooled counterpart of [`WritePlan`], produced by
/// [`WriteBatchPlanner::plan_batch`].
///
/// Ordering invariant (§IV): a client executing this plan must flush
/// every `invalidations` group — send *and* confirm — before issuing any
/// `writes` group. Replicas are gone before any distinguished copy
/// changes, so no reader can observe a stale replica mid-batch.
#[derive(Debug, Clone, Copy)]
pub struct BatchWritePlan<'a> {
    /// `delete` bursts to flush first (empty under
    /// [`WritePolicy::WriteAll`]).
    pub invalidations: &'a [WriteGroup],
    /// `set` bursts to issue after every invalidation group completes.
    pub writes: &'a [WriteGroup],
}

impl BatchWritePlan<'_> {
    /// Total server transactions the batch costs: one pipelined burst
    /// per group.
    ///
    /// ```
    /// use rnb_core::{PlacementStrategy, RnbConfig, WriteBatchPlanner, WritePlanner, WritePolicy};
    /// let writer = WritePlanner::new(
    ///     PlacementStrategy::from_config(&RnbConfig::new(16, 4)),
    ///     WritePolicy::WriteAll,
    /// );
    /// let mut batcher = WriteBatchPlanner::new();
    /// let plan = batcher.plan_batch(&writer, 0..50);
    /// // Bundled: at most one burst per server, never one per replica op.
    /// assert!(plan.total_txns() <= 16);
    /// assert_eq!(plan.total_ops(), 50 * 4);
    /// ```
    pub fn total_txns(&self) -> usize {
        self.invalidations.len() + self.writes.len()
    }

    /// Total per-item server operations across all groups (what an
    /// unbundled client would pay one transaction each for).
    ///
    /// ```
    /// use rnb_core::{PlacementStrategy, RnbConfig, WriteBatchPlanner, WritePlanner, WritePolicy};
    /// let writer = WritePlanner::new(
    ///     PlacementStrategy::from_config(&RnbConfig::new(16, 4)),
    ///     WritePolicy::InvalidateThenWrite,
    /// );
    /// let mut batcher = WriteBatchPlanner::new();
    /// // 3 invalidations + 1 distinguished write per item.
    /// assert_eq!(batcher.plan_batch(&writer, 0..10).total_ops(), 40);
    /// ```
    pub fn total_ops(&self) -> usize {
        let ops = |gs: &[WriteGroup]| gs.iter().map(|g| g.ops.len()).sum::<usize>();
        ops(self.invalidations) + ops(self.writes)
    }
}

/// Epoch-stamped per-server group accumulator — the `LabelInterner`
/// discipline from `rnb-cover` applied to server ids. `begin` is an O(1)
/// logical reset; groups and their op vectors keep their capacity across
/// batches, so steady-state planning never allocates.
#[derive(Debug, Default)]
struct GroupSet {
    epoch: u32,
    /// `stamp[server] == epoch` ⇔ the server has a group this batch.
    stamp: Vec<u32>,
    /// Valid when stamped: index into `groups` for the server.
    slot: Vec<u32>,
    groups: Vec<WriteGroup>,
    /// Groups live this batch: `groups[..used]`.
    used: usize,
}

impl GroupSet {
    fn begin(&mut self, epoch: u32, wrapped: bool) {
        if wrapped {
            self.stamp.fill(0);
        }
        self.epoch = epoch;
        self.used = 0;
    }

    fn push(&mut self, server: ServerId, item: ItemId, index: usize) {
        let s = server as usize;
        if s >= self.stamp.len() {
            self.stamp.resize(s + 1, 0);
            self.slot.resize(s + 1, 0);
        }
        let g = if self.stamp[s] == self.epoch {
            self.slot[s] as usize
        } else {
            self.stamp[s] = self.epoch;
            self.slot[s] = self.used as u32;
            if self.used == self.groups.len() {
                self.groups.push(WriteGroup {
                    server,
                    ops: Vec::new(),
                });
            } else {
                self.groups[self.used].server = server;
                self.groups[self.used].ops.clear();
            }
            self.used += 1;
            self.used - 1
        };
        self.groups[g].ops.push((item, index));
    }
}

/// Pooled batch write planner: expands each item of a batch through a
/// [`WritePlanner`] and groups the resulting operations by server, so a
/// client can execute the whole batch as one pipelined burst per touched
/// server instead of one blocking round-trip per replica op.
///
/// All scratch (per-server stamps, group lists, the replica buffer) is
/// owned and reused; after the first batch of a given shape, planning is
/// allocation-free at steady state — the write-side analogue of
/// `rnb-cover`'s pooled read planner.
///
/// ```
/// use rnb_core::{PlacementStrategy, RnbConfig, WriteBatchPlanner, WritePlanner, WritePolicy};
/// let writer = WritePlanner::new(
///     PlacementStrategy::from_config(&RnbConfig::new(16, 4)),
///     WritePolicy::WriteAll,
/// );
/// let mut batcher = WriteBatchPlanner::new();
/// let plan = batcher.plan_batch(&writer, 0..50u64);
/// assert!(plan.invalidations.is_empty());
/// // Every (item, replica) pair appears exactly once, bundled by server.
/// assert_eq!(plan.total_ops(), 200);
/// assert!(plan.writes.len() <= 16);
/// ```
#[derive(Debug, Default)]
pub struct WriteBatchPlanner {
    epoch: u32,
    invalidations: GroupSet,
    writes: GroupSet,
    replica_buf: Vec<ServerId>,
}

impl WriteBatchPlanner {
    /// An empty planner; pools grow on first use and are reused for
    /// every later batch.
    ///
    /// ```
    /// use rnb_core::WriteBatchPlanner;
    /// let mut batcher = WriteBatchPlanner::new();
    /// # let _ = &mut batcher;
    /// ```
    pub fn new() -> Self {
        Self::default()
    }

    /// Plan one batch: item `i` of the iterator is batch index `i`
    /// (pointing back into the caller's value slice). Items are *not*
    /// deduplicated — each occurrence becomes one op, in batch order, so
    /// a batch with repeated items leaves exactly the state a sequential
    /// per-item write loop would.
    ///
    /// ```
    /// use rnb_core::{Placement, PlacementStrategy, RnbConfig, WriteBatchPlanner,
    ///                WritePlanner, WritePolicy};
    /// let writer = WritePlanner::new(
    ///     PlacementStrategy::from_config(&RnbConfig::new(16, 4)),
    ///     WritePolicy::InvalidateThenWrite,
    /// );
    /// let mut batcher = WriteBatchPlanner::new();
    /// let plan = batcher.plan_batch(&writer, [7u64, 9]);
    /// // Per item: 3 replica invalidations, then 1 distinguished write.
    /// let inval_ops: usize = plan.invalidations.iter().map(|g| g.ops.len()).sum();
    /// assert_eq!(inval_ops, 6);
    /// let write_servers: Vec<_> = plan.writes.iter().map(|g| g.server).collect();
    /// assert!(write_servers.contains(&writer.placement().replicas(7)[0]));
    /// ```
    pub fn plan_batch<P: Placement>(
        &mut self,
        writer: &WritePlanner<P>,
        items: impl IntoIterator<Item = ItemId>,
    ) -> BatchWritePlan<'_> {
        self.epoch = self.epoch.wrapping_add(1);
        let wrapped = self.epoch == 0;
        if wrapped {
            self.epoch = 1;
        }
        self.invalidations.begin(self.epoch, wrapped);
        self.writes.begin(self.epoch, wrapped);
        for (index, item) in items.into_iter().enumerate() {
            writer
                .placement()
                .replicas_into(item, &mut self.replica_buf);
            match writer.policy() {
                WritePolicy::WriteAll => {
                    for &server in &self.replica_buf {
                        self.writes.push(server, item, index);
                    }
                }
                WritePolicy::InvalidateThenWrite => {
                    for &server in &self.replica_buf[1..] {
                        self.invalidations.push(server, item, index);
                    }
                    self.writes.push(self.replica_buf[0], item, index);
                }
            }
        }
        BatchWritePlan {
            invalidations: &self.invalidations.groups[..self.invalidations.used],
            writes: &self.writes.groups[..self.writes.used],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PlacementStrategy, RnbConfig};

    fn planner(policy: WritePolicy) -> WritePlanner<PlacementStrategy> {
        let config = RnbConfig::new(16, 4);
        WritePlanner::new(PlacementStrategy::from_config(&config), policy)
    }

    #[test]
    fn write_all_touches_every_replica() {
        let p = planner(WritePolicy::WriteAll);
        for item in 0..200u64 {
            let plan = p.plan_write(item);
            assert!(plan.invalidations.is_empty());
            assert_eq!(plan.writes.len(), 4);
            assert_eq!(plan.total_txns(), 4);
            let servers: Vec<_> = plan.writes.iter().map(|t| t.server).collect();
            assert_eq!(servers, p.placement().replicas(item));
        }
    }

    #[test]
    fn invalidate_then_write_preserves_distinguished_copy() {
        let p = planner(WritePolicy::InvalidateThenWrite);
        for item in 0..200u64 {
            let plan = p.plan_write(item);
            let replicas = p.placement().replicas(item);
            // Deletes target exactly the non-distinguished replicas…
            let del: Vec<_> = plan.invalidations.iter().map(|t| t.server).collect();
            assert_eq!(del, replicas[1..].to_vec());
            // …and the single write goes to the distinguished copy.
            assert_eq!(plan.writes.len(), 1);
            assert_eq!(plan.writes[0].server, replicas[0]);
            assert_eq!(plan.total_txns(), 4);
        }
    }

    #[test]
    fn replication_one_writes_once_either_way() {
        for policy in [WritePolicy::WriteAll, WritePolicy::InvalidateThenWrite] {
            let config = RnbConfig::new(16, 1);
            let p = WritePlanner::new(PlacementStrategy::from_config(&config), policy);
            let plan = p.plan_write(42);
            assert_eq!(plan.total_txns(), 1, "{policy:?}");
            assert!(plan.invalidations.is_empty());
        }
    }

    /// The pooled batch planner expands to exactly the per-item
    /// `plan_write` ops, grouped by server, for both policies.
    #[test]
    fn pooled_batch_matches_per_item_plans() {
        for policy in [WritePolicy::WriteAll, WritePolicy::InvalidateThenWrite] {
            let p = planner(policy);
            let mut batcher = WriteBatchPlanner::new();
            let items: Vec<u64> = (0..60).map(|i| i * 13 % 47).collect();
            let plan = batcher.plan_batch(&p, items.iter().copied());

            // Collect (server, item) pairs from the pooled plan.
            let pairs = |groups: &[WriteGroup]| {
                let mut v: Vec<(u32, u64)> = groups
                    .iter()
                    .flat_map(|g| g.ops.iter().map(move |&(item, _)| (g.server, item)))
                    .collect();
                v.sort_unstable();
                v
            };
            let (mut want_inval, mut want_writes) = (Vec::new(), Vec::new());
            for &item in &items {
                let single = p.plan_write(item);
                for t in &single.invalidations {
                    want_inval.push((t.server, item));
                }
                for t in &single.writes {
                    want_writes.push((t.server, item));
                }
            }
            want_inval.sort_unstable();
            want_writes.sort_unstable();
            assert_eq!(pairs(plan.invalidations), want_inval, "{policy:?}");
            assert_eq!(pairs(plan.writes), want_writes, "{policy:?}");
            // Each server appears at most once per group list.
            for groups in [plan.invalidations, plan.writes] {
                let mut servers: Vec<u32> = groups.iter().map(|g| g.server).collect();
                servers.sort_unstable();
                servers.dedup();
                assert_eq!(servers.len(), groups.len(), "{policy:?}: duplicate group");
            }
        }
    }

    /// Batch indices point back at the caller's slice, and duplicate
    /// items keep one op per occurrence in batch order (sequential-loop
    /// semantics — the *later* value must win).
    #[test]
    fn pooled_batch_keeps_duplicate_occurrences_in_order() {
        let p = planner(WritePolicy::WriteAll);
        let mut batcher = WriteBatchPlanner::new();
        let plan = batcher.plan_batch(&p, [7u64, 9, 7]);
        assert_eq!(plan.total_ops(), 3 * 4);
        let mut groups_with_dup = 0;
        for g in plan.writes {
            let dup_indices: Vec<usize> = g
                .ops
                .iter()
                .filter(|&&(item, _)| item == 7)
                .map(|&(_, idx)| idx)
                .collect();
            if !dup_indices.is_empty() {
                groups_with_dup += 1;
                assert_eq!(dup_indices, vec![0, 2], "occurrences must stay ordered");
            }
        }
        assert_eq!(groups_with_dup, 4, "item 7 lives on 4 replica servers");
    }

    /// The pooled planner is reusable across batches of different shapes
    /// (epoch reset, no stale groups), including empty ones.
    #[test]
    fn pooled_batch_reuse_across_shapes() {
        let p = planner(WritePolicy::InvalidateThenWrite);
        let mut batcher = WriteBatchPlanner::new();
        let first = batcher.plan_batch(&p, 0..40u64).total_ops();
        assert_eq!(first, 40 * 4);
        assert_eq!(batcher.plan_batch(&p, std::iter::empty()).total_txns(), 0);
        let small = batcher.plan_batch(&p, [3u64]);
        assert_eq!(small.total_ops(), 4);
        assert_eq!(small.writes.len(), 1);
        let big = batcher.plan_batch(&p, 0..40u64);
        assert_eq!(big.total_ops(), first);
    }
}
