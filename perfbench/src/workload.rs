//! The three workloads and their operation sequences.
//!
//! Why each exists (see README.md for the layer each one stresses):
//!
//! * `ego_idle`: an open loop slow enough that every server idles for
//!   tens of ms between requests, so latency is set by the poller's
//!   hand-off and park, while planner and store do almost nothing.
//! * `uniform_bulk`: a closed loop of 100-item requests that keeps
//!   every connection in worker linger, so time goes to client rounds,
//!   wire parsing, store batching and a real cover in the planner.
//!   N=4/k=2 keeps it off the park cliff that `ego_idle` measures.
//! * `ego_mixed`: the ego read path on an overbooked fleet with
//!   invalidate-then-write writes, the only workload larger than memory,
//!   so misses, the fallback round, write-back and eviction show. It runs
//!   on N=4/k=2 for the reason `uniform_bulk` does: a closed loop on
//!   N=8/k=4 flips between the park-cliff states from run to run.
//!
//! Closed loops run a fixed sequence of operations rather than a fixed
//! time, so counts such as misses and transactions per request do not
//! depend on how fast the code under test is.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rnb_core::WritePolicy;
use rnb_graph::DiGraph;
use rnb_workload::{RequestStream, UniformRequests};

/// One operation of a sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `multi_get` of the items.
    Read(Vec<u64>),
    /// `multi_set` of a new version of every item.
    Write(Vec<u64>),
}

#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub servers: usize,
    pub replication: usize,
    pub policy: WritePolicy,
    /// `rnb-stored --mem`, per server.
    pub mem_mb: usize,
    /// Open-loop rate in operations per second; `None` is a closed loop.
    pub rate: Option<u32>,
    /// Operations in the sequence one repetition runs.
    pub ops: usize,
    /// Every this-many-th operation is a write (0: reads only).
    pub write_every: usize,
    /// Every replica fits in memory, so a miss is a failure.
    pub fits: bool,
}

/// Items of the Slashdot-like item set, `rnb_graph::datasets::SLASHDOT`.
pub const ITEMS: usize = 82_168;

/// Items per `uniform_bulk` request (§III-F request model).
const BULK_REQUEST: usize = 100;

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "ego_idle",
        servers: 8,
        replication: 4,
        policy: WritePolicy::WriteAll,
        mem_mb: 64,
        rate: Some(40),
        ops: 1000,
        write_every: 0,
        fits: true,
    },
    Spec {
        name: "uniform_bulk",
        servers: 4,
        replication: 2,
        policy: WritePolicy::WriteAll,
        mem_mb: 64,
        rate: None,
        ops: 4000,
        write_every: 0,
        fits: true,
    },
    Spec {
        name: "ego_mixed",
        servers: 4,
        replication: 2,
        policy: WritePolicy::InvalidateThenWrite,
        mem_mb: 2,
        rate: None,
        ops: 12000,
        write_every: 3,
        fits: false,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Seed of the item set. The dataset is fixed, like the paper's
/// Slashdot graph; `--seed` varies the operations drawn from it.
pub const DATASET_SEED: u64 = 0x5e_ed;

/// The operation sequence of `spec` for `seed`: the same seed gives the
/// same sequence.
pub fn generate(spec: &Spec, graph: &DiGraph, seed: u64) -> Vec<Op> {
    if spec.name == "uniform_bulk" {
        let mut requests = UniformRequests::new(ITEMS as u64, BULK_REQUEST, seed);
        return (0..spec.ops)
            .map(|_| Op::Read(requests.next_request()))
            .collect();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    ego_stratified(graph, spec.ops, &mut rng)
        .into_iter()
        .enumerate()
        .map(|(i, items)| {
            if spec.write_every > 0 && i % spec.write_every == spec.write_every - 1 {
                Op::Write(items)
            } else {
                Op::Read(items)
            }
        })
        .collect()
}

/// `count` ego requests (§III-B: the friends of a uniformly random
/// user), stratified by size. Users with friends are sorted by friend
/// count and cut into `count` equal strata; one uniformly random user is
/// taken from each, in random order. Every user is still equally
/// likely, but each sequence has the dataset's request-size
/// distribution almost exactly, which keeps per-operation means steady
/// across seeds despite the heavy tail (up to 2,510 items a request).
fn ego_stratified(graph: &DiGraph, count: usize, rng: &mut StdRng) -> Vec<Vec<u64>> {
    let mut users: Vec<u32> = (0..graph.num_nodes() as u32)
        .filter(|&v| graph.out_degree(v) > 0)
        .collect();
    users.sort_by_key(|&v| (graph.out_degree(v), v));
    let n = users.len();
    let mut picks: Vec<u32> = (0..count)
        .map(|j| {
            let lo = j * n / count;
            users[rng.random_range(lo..((j + 1) * n / count).max(lo + 1))]
        })
        .collect();
    for i in (1..picks.len()).rev() {
        picks.swap(i, rng.random_range(0..=i));
    }
    picks
        .into_iter()
        .map(|v| graph.neighbors(v).iter().map(|&f| u64::from(f)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_repeat_per_seed_and_differ_across_seeds() {
        let graph = rnb_graph::datasets::SLASHDOT.scaled_down(50).generate(1);
        for spec in &WORKLOADS {
            let a = generate(spec, &graph, 7);
            assert_eq!(a.len(), spec.ops);
            assert_eq!(a, generate(spec, &graph, 7), "{}", spec.name);
            assert_ne!(a, generate(spec, &graph, 8), "{}", spec.name);
        }
    }

    #[test]
    fn only_ego_mixed_writes_every_third_op() {
        let graph = rnb_graph::datasets::SLASHDOT.scaled_down(50).generate(1);
        for spec in &WORKLOADS {
            let ops = generate(spec, &graph, 3);
            let writes = ops.iter().filter(|o| matches!(o, Op::Write(_))).count();
            let expect = if spec.write_every == 0 {
                0
            } else {
                ops.len() / 3
            };
            assert_eq!(writes, expect, "{}", spec.name);
        }
    }
}
