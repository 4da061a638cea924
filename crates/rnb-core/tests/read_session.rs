//! The read-round engine against a scripted in-memory fleet: per-server
//! item sets plus a set of dead servers, no sockets. The same
//! `ReadSession` drives the simulator and the TCP client, so what holds
//! here holds for both.

use proptest::prelude::*;
use rnb_core::{Bundler, ItemId, Placement, ReadCounts, ReadSession, RnbConfig};
use std::collections::{BTreeSet, HashSet};

/// Per-server contents and liveness.
struct Fleet {
    holds: Vec<HashSet<ItemId>>,
    dead: Vec<bool>,
}

impl Fleet {
    /// Every item of `0..universe` stored on the replicas `keep` accepts.
    fn populated(
        bundler: &Bundler,
        servers: usize,
        universe: ItemId,
        keep: impl Fn(ItemId, usize) -> bool,
    ) -> Fleet {
        let mut holds = vec![HashSet::new(); servers];
        for item in 0..universe {
            for (r, server) in bundler.placement().replicas(item).into_iter().enumerate() {
                if keep(item, r) {
                    holds[server as usize].insert(item);
                }
            }
        }
        Fleet {
            holds,
            dead: vec![false; servers],
        }
    }

    /// Run one request through every round; returns the delivered items
    /// and the session's counters.
    fn read(
        &self,
        bundler: &Bundler,
        session: &mut ReadSession,
        request: &[ItemId],
    ) -> (BTreeSet<ItemId>, ReadCounts) {
        let plan = bundler.plan(request);
        let placement = bundler.placement();
        session.begin(&plan, placement, true);
        let mut delivered = BTreeSet::new();
        while session.next_round(placement).is_some() {
            let servers: BTreeSet<u32> = session.txns().iter().map(|t| t.server).collect();
            assert_eq!(servers.len(), session.txns().len(), "one txn per server");
            for t in 0..session.txns().len() {
                let server = session.txns()[t].server as usize;
                if self.dead[server] {
                    session.fail(t);
                    continue;
                }
                for pos in 0..session.txns()[t].items.len() {
                    let item = session.txns()[t].items[pos];
                    if session
                        .record(t, pos, self.holds[server].contains(&item))
                        .is_some()
                    {
                        delivered.insert(item);
                    }
                }
            }
        }
        (delivered, session.counts())
    }
}

/// The socket-free replay of `rnb-cluster`'s `failover_tcp` case: three
/// servers, two replicas, a request built so the greedy cover plans all
/// 8 items on the victim, and the victim dead.
#[test]
fn failover_replay_without_sockets() {
    const VICTIM: u32 = 1;
    let bundler = Bundler::from_config(&RnbConfig::new(3, 2));
    let mut request = Vec::new();
    for (d, other) in [(VICTIM, 0), (VICTIM, 2), (0, VICTIM), (2, VICTIM)] {
        let pattern: Vec<ItemId> = (0..512u64)
            .filter(|&i| bundler.placement().replicas(i) == [d, other])
            .take(2)
            .collect();
        assert_eq!(pattern.len(), 2, "no 2 items with replicas [{d}, {other}]");
        request.extend(pattern);
    }
    let mut fleet = Fleet::populated(&bundler, 3, 512, |_, _| true);
    let mut session = ReadSession::default();

    let (delivered, c) = fleet.read(&bundler, &mut session, &request);
    assert_eq!(delivered.len(), 8);
    assert_eq!((c.round1_txns, c.round2_txns, c.round3_txns), (1, 0, 0));

    fleet.dead[VICTIM as usize] = true;
    let (delivered, c) = fleet.read(&bundler, &mut session, &request);
    assert_eq!(delivered, request.iter().copied().collect());
    assert_eq!(c.round1_txns, 1, "cover should plan exactly the victim");
    assert_eq!(c.planned_misses, 8, "every planned item missed");
    assert_eq!(
        c.round2_txns, 3,
        "one fallback txn per distinguished server"
    );
    assert_eq!(c.failed_txns, 2, "round-1 txn and the victim's round-2 txn");
    assert_eq!(c.round3_txns, 8, "4 items x (dead replica, live replica)");
    assert_eq!(c.unavailable, 0, "k=2 loses nothing on one crash");
    // Write-back targets the planned (dead) server for all 8 items.
    assert!(session.writebacks().all(|(_, _, s)| s == VICTIM));
    assert_eq!(session.writebacks().count(), 8);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Whatever is dead, an item is delivered iff some live replica
    /// holds it. Distinguished copies are always stored (pinned); other
    /// replicas only sometimes, so misses, hitchhiker rescues, the
    /// distinguished round and the sweep all occur. Round 1 is always
    /// the plan's TPR.
    #[test]
    fn delivers_every_item_a_live_replica_holds(
        servers in 2usize..8,
        replication in 1usize..4,
        request in proptest::collection::vec(0u64..300, 0..40),
        dead in proptest::collection::vec(any::<bool>(), 8),
        salt in any::<u64>(),
    ) {
        let bundler = Bundler::from_config(&RnbConfig::new(servers, replication));
        let keep = |item: ItemId, r: usize| {
            let h = (item ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            r == 0 || !h.rotate_left(r as u32 * 7).is_multiple_of(3)
        };
        let mut fleet = Fleet::populated(&bundler, servers, 300, keep);
        fleet.dead.copy_from_slice(&dead[..servers]);
        let mut session = ReadSession::default();
        let (delivered, c) = fleet.read(&bundler, &mut session, &request);

        let distinct: BTreeSet<ItemId> = request.iter().copied().collect();
        for &item in &distinct {
            let reachable = bundler
                .placement()
                .replicas(item)
                .iter()
                .any(|&s| !fleet.dead[s as usize] && fleet.holds[s as usize].contains(&item));
            prop_assert_eq!(delivered.contains(&item), reachable, "item {}", item);
        }
        prop_assert_eq!(c.round1_txns, bundler.plan(&request).tpr());
        prop_assert_eq!(c.items_delivered, delivered.len());
        prop_assert_eq!(c.unavailable, distinct.len() - delivered.len());
        prop_assert!(c.rescued <= c.planned_misses);
        prop_assert!(c.round2_txns <= servers);
        prop_assert!(c.failed_txns <= c.round1_txns + c.round2_txns);
        // Every write-back refills the planned server of a delivered miss.
        for (_, item, _) in session.writebacks() {
            prop_assert!(delivered.contains(&item));
        }
    }
}
