//! Workload generation for the RnB experiments.
//!
//! The paper drives everything with two request models:
//!
//! * **Ego requests** (§III-B): pick a user uniformly at random from the
//!   social graph, then request the items of *all* of the user's friends —
//!   [`ego::EgoRequests`].
//! * **Monte-Carlo requests** (§III-F, the "simplified simulator"): each
//!   request is `M` distinct items drawn uniformly and independently from
//!   the universe — [`mc::UniformRequests`].
//! * **Zipf-skewed requests**: the same shape with item popularity
//!   following a Zipf law — [`zipf::ZipfRequests`] — the skewed
//!   workload behind the cluster's hot-key scenarios.
//!
//! Plus two transformations:
//!
//! * **Merging** (§III-E) — combine `g` consecutive requests into one
//!   (re-exported from `rnb-core`, wrapped for streams here).
//! * **LIMIT** (§III-F) — requests of the form "fetch at least X of these
//!   items": [`limit::LimitSpec`] converts a fetched-fraction into a
//!   per-request minimum item count.
//!
//! And a composition layer: [`phases::ScriptedRequests`] switches between
//! inner streams on a declared schedule, the timeline primitive behind
//! the `rnb-cluster` scenario harness (hot-key storms, flash crowds).

pub mod ego;
pub mod limit;
pub mod mc;
pub mod mix;
pub mod phases;
pub mod zipf;

pub use ego::EgoRequests;
pub use limit::LimitSpec;
pub use mc::UniformRequests;
pub use mix::{Op, ReadWriteMix};
pub use phases::ScriptedRequests;
pub use zipf::ZipfRequests;

use rnb_graph::DiGraph;

/// A request: the set of item ids the end user needs. Items are distinct.
pub type Request = Vec<u64>;

/// Anything that produces an endless stream of requests.
///
/// Generators own their RNG (seeded at construction) so experiment runs
/// are reproducible and generators can be freely moved across threads.
pub trait RequestStream {
    /// Produce the next request. Never returns an empty request.
    fn next_request(&mut self) -> Request;

    /// Collect `n` requests.
    fn take_requests(&mut self, n: usize) -> Vec<Request> {
        (0..n).map(|_| self.next_request()).collect()
    }
}

/// Summary statistics of a batch of requests (request-size distribution —
/// the driver of the multi-get hole).
#[derive(Debug, Clone, PartialEq)]
pub struct RequestStats {
    /// Number of requests summarised.
    pub count: usize,
    /// Mean items per request.
    pub mean_size: f64,
    /// Largest request.
    pub max_size: usize,
    /// Smallest request.
    pub min_size: usize,
}

/// Summarise request sizes.
pub fn request_stats(requests: &[Request]) -> RequestStats {
    if requests.is_empty() {
        return RequestStats {
            count: 0,
            mean_size: 0.0,
            max_size: 0,
            min_size: 0,
        };
    }
    let sizes: Vec<usize> = requests.iter().map(|r| r.len()).collect();
    RequestStats {
        count: requests.len(),
        mean_size: sizes.iter().sum::<usize>() as f64 / sizes.len() as f64,
        max_size: *sizes.iter().max().unwrap(),
        min_size: *sizes.iter().min().unwrap(),
    }
}

/// Convenience: a small social graph for tests and doc examples
/// (star + chain: node 0 follows 1..=5, node 6 follows 7, 8).
pub fn tiny_test_graph() -> DiGraph {
    DiGraph::from_edges(9, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (6, 7), (6, 8)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_basics() {
        let reqs = vec![vec![1, 2, 3], vec![4], vec![5, 6]];
        let s = request_stats(&reqs);
        assert_eq!(s.count, 3);
        assert!((s.mean_size - 2.0).abs() < 1e-12);
        assert_eq!(s.max_size, 3);
        assert_eq!(s.min_size, 1);
    }

    #[test]
    fn stats_empty() {
        let s = request_stats(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean_size, 0.0);
    }

    #[test]
    fn tiny_graph_shape() {
        let g = tiny_test_graph();
        assert_eq!(g.num_nodes(), 9);
        assert_eq!(g.out_degree(0), 5);
        assert_eq!(g.out_degree(6), 2);
        assert_eq!(g.isolated_sources(), 7);
    }
}
