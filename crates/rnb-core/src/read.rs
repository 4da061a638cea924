//! The read path after planning, as one sans-I/O engine that both the
//! simulator and the deployed client drive: hitchhiking and miss
//! write-back (§III-C2), the bundled second round to distinguished
//! copies (§III-D), and a survivor sweep over dead servers.
//!
//! A [`ReadSession`] never talks to a server. Its driver executes each
//! round's transactions however it likes and reports every item's hit or
//! miss, or a whole transaction's failure; the session builds the next
//! round from those reports:
//!
//! 1. [`Round::Planned`]: the plan's transactions in plan order, planned
//!    items first, then (with hitchhiking) each item planned elsewhere
//!    that has a replica on this server.
//! 2. [`Round::Distinguished`]: unrescued round-1 misses and the planned
//!    items of failed transactions, one group per distinguished-copy
//!    server, sorted by server, items in miss order.
//! 3. [`Round::Sweep`]: items of failed round-2 groups, one single-key
//!    probe per round, replica by replica, until one hits.
//!
//! Each round holds at most one transaction per server, so a driver can
//! pipeline a whole round over one connection per server. Buffers are
//! pooled and server lookups epoch-stamped, so a warmed-up session never
//! allocates.
//!
//! ```
//! use rnb_core::{Bundler, ReadSession, RnbConfig};
//! let bundler = Bundler::from_config(&RnbConfig::new(8, 2));
//! let plan = bundler.plan(&[1, 2, 3, 4, 5]);
//! let mut session = ReadSession::default();
//! session.begin(&plan, bundler.placement(), true);
//! let mut hit = false; // round 1 misses everything, later rounds hit
//! while session.next_round(bundler.placement()).is_some() {
//!     for t in 0..session.txns().len() {
//!         for pos in 0..session.txns()[t].items.len() {
//!             session.record(t, pos, hit);
//!         }
//!     }
//!     hit = true;
//! }
//! let counts = session.counts();
//! assert_eq!((counts.round1_txns, counts.planned_misses), (plan.tpr(), 5));
//! assert_eq!(counts.items_delivered, 5);
//! assert_eq!(session.writebacks().count(), 5); // back to the planned servers
//! ```

use crate::plan::FetchPlan;
use rnb_hash::{ItemId, Placement, ServerId};

/// Which step of the read path a round belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Round {
    /// Round 1: the bundled plan plus hitchhikers.
    Planned,
    /// Round 2: misses bundled by distinguished-copy server.
    Distinguished,
    /// Round 3 (failure path): one replica probe per round.
    Sweep,
}

/// One transaction of a round: a multi-get of `items` on `server`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadTxn {
    /// Target server.
    pub server: ServerId,
    /// Items to fetch, in wire order.
    pub items: Vec<ItemId>,
    /// How many leading `items` are planned; the rest (round 1 only) are
    /// hitchhikers, whose misses need no fallback.
    pub planned: usize,
}

/// Counters of one request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadCounts {
    /// Round-1 transactions (the plan's TPR).
    pub round1_txns: usize,
    /// Round-2 transactions (one per distinguished server).
    pub round2_txns: usize,
    /// Round-3 sweep probes.
    pub round3_txns: usize,
    /// Round-1 planned items that missed or whose transaction failed.
    pub planned_misses: usize,
    /// Planned misses a hitchhiker found anyway.
    pub rescued: usize,
    /// Failed round-1 and round-2 transactions (sweep probes expect dead
    /// replicas and are not counted).
    pub failed_txns: usize,
    /// Items no server supplied: a miss on a live distinguished copy, or
    /// a sweep that ran out of replicas.
    pub unavailable: usize,
    /// Planned items some round delivered.
    pub items_delivered: usize,
}

impl ReadCounts {
    /// Transactions over all rounds.
    ///
    /// ```
    /// let c = rnb_core::ReadCounts { round1_txns: 3, round2_txns: 2, ..Default::default() };
    /// assert_eq!(c.total_txns(), 5);
    /// ```
    pub fn total_txns(&self) -> usize {
        self.round1_txns + self.round2_txns + self.round3_txns
    }
}

/// Session progress: `Ready` once `begin` built round 1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Stage {
    #[default]
    Done,
    Ready,
    Running(Round),
}

/// The pooled read-round engine; see the [module docs](self). Before
/// asking for the next round, a driver reports every position of every
/// transaction with [`ReadSession::record`], or the whole transaction
/// with [`ReadSession::fail`].
#[derive(Debug, Default)]
pub struct ReadSession {
    stage: Stage,
    /// Sorted, distinct planned items; an item's slot is its index.
    items: Vec<ItemId>,
    found: Vec<bool>,
    /// Round-1 misses as `(slot, planned server)`, in report order.
    missed: Vec<(usize, ServerId)>,
    /// Round-2 scratch: `(distinguished server, miss index, slot)`.
    by_server: Vec<(ServerId, usize, usize)>,
    /// Slots of failed round-2 transactions, and the sweep's cursor.
    sweep: Vec<usize>,
    sweep_next: usize,
    sweep_replica: usize,
    /// Transaction pool; `txns[..used]` is the current round.
    txns: Vec<ReadTxn>,
    used: usize,
    /// `server_txn[s] == (epoch, t)` iff round-1 transaction `t` is on `s`.
    epoch: u64,
    server_txn: Vec<(u64, usize)>,
    replicas: Vec<ServerId>,
    counts: ReadCounts,
}

impl ReadSession {
    /// Begin a request: reset the session and build round 1 from `plan`,
    /// with hitchhikers if `hitchhiking` is on.
    ///
    /// ```
    /// use rnb_core::{Bundler, ReadSession, RnbConfig};
    /// let bundler = Bundler::from_config(&RnbConfig::new(8, 3));
    /// let plan = bundler.plan(&(0..20).collect::<Vec<u64>>());
    /// let mut session = ReadSession::default();
    /// session.begin(&plan, bundler.placement(), true);
    /// session.next_round(bundler.placement());
    /// let txn = &session.txns()[0]; // planned items first, then hitchhikers
    /// assert_eq!(txn.items[..txn.planned], plan.transactions[0].items[..]);
    /// ```
    pub fn begin<P: Placement>(&mut self, plan: &FetchPlan, placement: &P, hitchhiking: bool) {
        self.counts = ReadCounts::default();
        (self.used, self.sweep_next, self.sweep_replica) = (0, 0, 0);
        self.missed.clear();
        self.sweep.clear();
        self.items.clear();
        for txn in &plan.transactions {
            self.items.extend_from_slice(&txn.items);
        }
        self.items.sort_unstable();
        self.items.dedup();
        self.found.clear();
        self.found.resize(self.items.len(), false);
        self.epoch += 1;
        self.server_txn.resize(placement.num_servers(), (0, 0));
        for txn in &plan.transactions {
            let t = self.open(txn.server);
            if let Some(stamp) = self.server_txn.get_mut(txn.server as usize) {
                *stamp = (self.epoch, t);
            }
            for &item in &txn.items {
                self.push(t, item, true);
            }
        }
        for txn in plan.transactions.iter().filter(|_| hitchhiking) {
            for &item in &txn.items {
                placement.replicas_into(item, &mut self.replicas);
                for r in 0..self.replicas.len() {
                    let s = self.replicas[r];
                    match self.server_txn.get(s as usize) {
                        Some(&(epoch, t)) if epoch == self.epoch && s != txn.server => {
                            self.push(t, item, false)
                        }
                        _ => {}
                    }
                }
            }
        }
        self.stage = Stage::Ready;
    }

    /// Build the next round and return its kind, or `None` once the
    /// request is done. Empty rounds are skipped.
    ///
    /// ```
    /// use rnb_core::{Bundler, ReadSession, RnbConfig, Round};
    /// let bundler = Bundler::from_config(&RnbConfig::new(4, 2));
    /// let mut session = ReadSession::default();
    /// session.begin(&bundler.plan(&[1, 2, 3]), bundler.placement(), false);
    /// assert_eq!(session.next_round(bundler.placement()), Some(Round::Planned));
    /// session.fail(0); // its items fall back to their distinguished copies
    /// assert_eq!(session.next_round(bundler.placement()), Some(Round::Distinguished));
    /// ```
    pub fn next_round<P: Placement>(&mut self, placement: &P) -> Option<Round> {
        loop {
            let stage = self.stage;
            let round = match stage {
                Stage::Done => return None,
                Stage::Ready => Round::Planned,
                Stage::Running(Round::Planned) => {
                    self.build_distinguished(placement);
                    Round::Distinguished
                }
                Stage::Running(_) if self.build_sweep(placement) => Round::Sweep,
                Stage::Running(_) => {
                    self.stage = Stage::Done;
                    return None;
                }
            };
            self.stage = Stage::Running(round);
            let issued = match round {
                Round::Planned => &mut self.counts.round1_txns,
                Round::Distinguished => &mut self.counts.round2_txns,
                Round::Sweep => &mut self.counts.round3_txns,
            };
            *issued += self.used;
            if self.used > 0 {
                return Some(round);
            }
        }
    }

    /// The transactions of the current round.
    ///
    /// ```
    /// assert!(rnb_core::ReadSession::default().txns().is_empty());
    /// ```
    pub fn txns(&self) -> &[ReadTxn] {
        &self.txns[..self.used]
    }

    /// Report the reply at position `pos` of transaction `txn`. Returns
    /// the item's slot when this hit is the first to deliver it, so a
    /// driver keeps exactly one value per item.
    ///
    /// ```
    /// use rnb_core::{Bundler, ReadSession, RnbConfig};
    /// let bundler = Bundler::from_config(&RnbConfig::new(8, 2));
    /// let mut session = ReadSession::default();
    /// session.begin(&bundler.plan(&[7]), bundler.placement(), false);
    /// session.next_round(bundler.placement());
    /// assert_eq!(session.record(0, 0, true), session.slot_of(7));
    /// assert_eq!(session.record(0, 0, true), None); // already delivered
    /// ```
    pub fn record(&mut self, txn: usize, pos: usize, hit: bool) -> Option<usize> {
        let Stage::Running(round) = self.stage else {
            return None;
        };
        let t = self.txns[..self.used].get(txn)?;
        let slot = self.slot_of(*t.items.get(pos)?)?;
        match (hit, round) {
            (true, _) if !self.found[slot] => {
                self.found[slot] = true;
                self.counts.items_delivered += 1;
                return Some(slot);
            }
            (false, Round::Planned) if pos < t.planned => {
                self.missed.push((slot, t.server));
                self.counts.planned_misses += 1;
            }
            (false, Round::Distinguished) => self.counts.unavailable += 1,
            _ => {}
        }
        None
    }

    /// Report that transaction `txn` failed as a whole (dead server,
    /// broken connection): its round-1 items fall back to their
    /// distinguished copies, its round-2 items go to the sweep, and a
    /// failed sweep probe moves on to the next replica.
    ///
    /// ```
    /// use rnb_core::{Bundler, ReadSession, RnbConfig};
    /// let bundler = Bundler::from_config(&RnbConfig::new(8, 2));
    /// let mut session = ReadSession::default();
    /// session.begin(&bundler.plan(&[7]), bundler.placement(), false);
    /// session.next_round(bundler.placement());
    /// session.fail(0);
    /// assert_eq!(session.counts().planned_misses, 1);
    /// ```
    pub fn fail(&mut self, txn: usize) {
        let (Stage::Running(round), Some(t)) = (self.stage, self.txns[..self.used].get(txn)) else {
            return;
        };
        if round == Round::Sweep {
            return; // the sweep simply moves on to the next replica
        }
        self.counts.failed_txns += 1;
        for item in t.items.iter().take(t.planned) {
            if let Ok(slot) = self.items.binary_search(item) {
                if round == Round::Planned {
                    self.counts.planned_misses += 1;
                    self.missed.push((slot, t.server));
                } else {
                    self.sweep.push(slot);
                }
            }
        }
    }

    /// Counters of the current request.
    ///
    /// ```
    /// assert_eq!(rnb_core::ReadSession::default().counts().total_txns(), 0);
    /// ```
    pub fn counts(&self) -> ReadCounts {
        self.counts
    }

    /// The slot of `item` if the plan fetches it. Slots index the
    /// request's distinct planned items in sorted order.
    ///
    /// ```
    /// assert_eq!(rnb_core::ReadSession::default().slot_of(4), None);
    /// ```
    pub fn slot_of(&self, item: ItemId) -> Option<usize> {
        self.items.binary_search(&item).ok()
    }

    /// After the last round: each recovered round-1 miss as `(slot, item,
    /// planned server)`, in miss order, for write-back to the planned
    /// (first-picked) replica, §III-C2's policy.
    ///
    /// ```
    /// assert_eq!(rnb_core::ReadSession::default().writebacks().count(), 0);
    /// ```
    pub fn writebacks(&self) -> impl Iterator<Item = (usize, ItemId, ServerId)> + '_ {
        let recovered = |&&(slot, _): &&(usize, ServerId)| self.found[slot];
        let entry = |&(slot, server): &(usize, ServerId)| (slot, self.items[slot], server);
        self.missed.iter().filter(recovered).map(entry)
    }

    /// Round 2: unrescued misses sorted by `(distinguished server, miss
    /// index)`, so groups open in server order and keep miss order.
    fn build_distinguished<P: Placement>(&mut self, placement: &P) {
        self.used = 0;
        self.by_server.clear();
        for (i, &(slot, _)) in self.missed.iter().enumerate() {
            if self.found[slot] {
                self.counts.rescued += 1;
                continue;
            }
            placement.replicas_into(self.items[slot], &mut self.replicas);
            if let Some(&server) = self.replicas.first() {
                self.by_server.push((server, i, slot));
            }
        }
        self.by_server.sort_unstable();
        for i in 0..self.by_server.len() {
            let (server, _, slot) = self.by_server[i];
            if self.used == 0 || self.txns[self.used - 1].server != server {
                self.open(server);
            }
            self.push(self.used - 1, self.items[slot], true);
        }
    }

    /// Round 3: the next replica probe of the first undelivered sweep
    /// item; false once the sweep is exhausted.
    fn build_sweep<P: Placement>(&mut self, placement: &P) -> bool {
        self.used = 0;
        while let Some(&slot) = self.sweep.get(self.sweep_next) {
            if !self.found[slot] {
                placement.replicas_into(self.items[slot], &mut self.replicas);
                if let Some(&server) = self.replicas.get(self.sweep_replica) {
                    self.sweep_replica += 1;
                    let t = self.open(server);
                    self.push(t, self.items[slot], true);
                    return true;
                }
                self.counts.unavailable += 1;
            }
            self.sweep_next += 1;
            self.sweep_replica = 0;
        }
        false
    }

    /// Open a transaction on `server` in the next pooled buffer.
    fn open(&mut self, server: ServerId) -> usize {
        if self.used == self.txns.len() {
            self.txns.push(ReadTxn::default());
        }
        let txn = &mut self.txns[self.used];
        (txn.server, txn.planned) = (server, 0);
        txn.items.clear();
        self.used += 1;
        self.used - 1
    }

    /// Append `item` to transaction `t`; planned items precede hitchhikers.
    fn push(&mut self, t: usize, item: ItemId, planned: bool) {
        self.txns[t].items.push(item);
        self.txns[t].planned += usize::from(planned);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bundler, RnbConfig};

    /// Drive every round with `reply(round, server, item)`; `None` fails
    /// the whole transaction.
    fn drive(
        session: &mut ReadSession,
        bundler: &Bundler,
        reply: impl Fn(Round, ServerId, ItemId) -> Option<bool>,
    ) -> Vec<Round> {
        let mut rounds = Vec::new();
        while let Some(round) = session.next_round(bundler.placement()) {
            rounds.push(round);
            for t in 0..session.txns().len() {
                let txn = session.txns()[t].clone();
                for (pos, &item) in txn.items.iter().enumerate() {
                    match reply(round, txn.server, item) {
                        Some(hit) => {
                            session.record(t, pos, hit);
                        }
                        None => {
                            session.fail(t);
                            break;
                        }
                    }
                }
            }
        }
        rounds
    }

    #[test]
    fn hitchhikers_follow_planned_items_on_replica_servers() {
        let bundler = Bundler::from_config(&RnbConfig::new(6, 3));
        let plan = bundler.plan(&(0..40).collect::<Vec<_>>());
        let mut session = ReadSession::default();
        session.begin(&plan, bundler.placement(), true);
        session.next_round(bundler.placement());
        let servers: Vec<ServerId> = plan.transactions.iter().map(|t| t.server).collect();
        for (txn, planned) in session.txns().iter().zip(&plan.transactions) {
            assert_eq!(txn.server, planned.server);
            assert_eq!(txn.items[..txn.planned], planned.items[..]);
            for &hh in &txn.items[txn.planned..] {
                assert!(bundler.placement().replicas(hh).contains(&txn.server));
                assert!(!planned.items.contains(&hh));
            }
        }
        // Every replica of every planned item on a planned server shows up.
        let expected: usize = plan
            .transactions
            .iter()
            .flat_map(|t| t.items.iter().map(move |&i| (i, t.server)))
            .map(|(i, home)| {
                bundler
                    .placement()
                    .replicas(i)
                    .iter()
                    .filter(|&&s| s != home && servers.contains(&s))
                    .count()
            })
            .sum();
        let got: usize = session
            .txns()
            .iter()
            .map(|t| t.items.len() - t.planned)
            .sum();
        assert_eq!(got, expected);
    }

    #[test]
    fn misses_regroup_by_distinguished_server_in_miss_order() {
        let bundler = Bundler::from_config(&RnbConfig::new(5, 3));
        let plan = bundler.plan(&(100..160).collect::<Vec<_>>());
        let mut session = ReadSession::default();
        session.begin(&plan, bundler.placement(), false);
        // Round 1 misses everything; round 2 must hold every item once.
        let rounds = drive(&mut session, &bundler, |round, _, _| {
            Some(round == Round::Distinguished)
        });
        assert_eq!(rounds, vec![Round::Planned, Round::Distinguished]);
        let c = session.counts();
        assert_eq!(c.planned_misses, 60);
        assert_eq!(c.items_delivered, 60);
        assert_eq!(c.rescued, 0);
        assert!(c.round2_txns <= 5);
        assert_eq!(session.writebacks().count(), 60);
    }

    #[test]
    fn distinguished_rounds_are_sorted_and_keep_miss_order() {
        let bundler = Bundler::from_config(&RnbConfig::new(5, 3));
        let plan = bundler.plan(&(0..50).collect::<Vec<_>>());
        let mut session = ReadSession::default();
        session.begin(&plan, bundler.placement(), false);
        session.next_round(bundler.placement());
        let mut order = Vec::new();
        for t in 0..session.txns().len() {
            for pos in 0..session.txns()[t].items.len() {
                order.push(session.txns()[t].items[pos]);
                session.record(t, pos, false);
            }
        }
        assert_eq!(
            session.next_round(bundler.placement()),
            Some(Round::Distinguished)
        );
        let servers: Vec<ServerId> = session.txns().iter().map(|t| t.server).collect();
        let mut sorted = servers.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(servers, sorted, "one group per server, sorted by server");
        for txn in session.txns() {
            let expect: Vec<ItemId> = order
                .iter()
                .copied()
                .filter(|&i| bundler.placement().distinguished(i) == txn.server)
                .collect();
            assert_eq!(txn.items, expect);
            assert_eq!(txn.planned, txn.items.len());
        }
    }

    #[test]
    fn sweep_walks_replicas_until_the_first_hit() {
        let bundler = Bundler::from_config(&RnbConfig::new(6, 3));
        let item = 42;
        let reps = bundler.placement().replicas(item);
        let plan = bundler.plan(&[item]);
        let mut session = ReadSession::default();
        session.begin(&plan, bundler.placement(), true);
        // Replicas 0 and 1 are down; replica 2 answers.
        let rounds = drive(&mut session, &bundler, |_, server, _| {
            (server == reps[2]).then_some(true)
        });
        assert_eq!(
            rounds,
            vec![
                Round::Planned,
                Round::Distinguished,
                Round::Sweep,
                Round::Sweep,
                Round::Sweep
            ]
        );
        let c = session.counts();
        assert_eq!((c.round1_txns, c.round2_txns, c.round3_txns), (1, 1, 3));
        assert_eq!((c.failed_txns, c.unavailable, c.items_delivered), (2, 0, 1));
    }

    #[test]
    fn all_replicas_dead_is_unavailable() {
        let bundler = Bundler::from_config(&RnbConfig::new(4, 2));
        let plan = bundler.plan(&[1, 2]);
        let mut session = ReadSession::default();
        session.begin(&plan, bundler.placement(), true);
        drive(&mut session, &bundler, |_, _, _| None);
        let c = session.counts();
        assert_eq!(c.unavailable, 2);
        assert_eq!(c.items_delivered, 0);
        assert_eq!(c.round3_txns, 4, "2 items x 2 dead replicas");
        assert_eq!(session.writebacks().count(), 0);
    }

    #[test]
    fn empty_plan_has_no_rounds() {
        let bundler = Bundler::from_config(&RnbConfig::new(4, 2));
        let mut session = ReadSession::default();
        session.begin(&bundler.plan(&[]), bundler.placement(), true);
        assert_eq!(session.next_round(bundler.placement()), None);
        assert_eq!(session.counts(), ReadCounts::default());
    }

    #[test]
    fn reuse_across_requests_resets_state() {
        let bundler = Bundler::from_config(&RnbConfig::new(6, 2));
        let mut session = ReadSession::default();
        for (n, hit) in [(30u64, false), (5, true), (30, true)] {
            let plan = bundler.plan(&(0..n).collect::<Vec<_>>());
            session.begin(&plan, bundler.placement(), true);
            drive(&mut session, &bundler, |round, _, _| {
                Some(hit || round != Round::Planned)
            });
            let c = session.counts();
            assert_eq!(c.items_delivered, n as usize);
            assert_eq!(c.round1_txns, plan.tpr());
            if hit {
                assert_eq!((c.planned_misses, c.round2_txns), (0, 0));
            }
        }
    }
}
