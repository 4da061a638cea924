//! Differential test: the same (topology, workload, seed) cell run
//! through `rnb-sim` and through a real process fleet must agree on
//! transactions exactly.
//!
//! Both sides share the planner (`rnb_core::Bundler`), the placement
//! config and the read-round engine (`rnb_core::ReadSession`), and both
//! run with ample memory and a fully resident universe, so neither sees
//! a planned miss: identical requests give identical plans and identical
//! rounds, and the simulator's total transaction count must equal the
//! client's rounds 1–3 total, not merely come close.

use rnb_client::{RnbClient, RnbClientConfig};
use rnb_cluster::{Cluster, NodeConfig};
use rnb_sim::{run_experiment, ExperimentConfig, SimConfig};
use rnb_workload::{RequestStream, UniformRequests};

const SERVERS: usize = 4;
const REPLICATION: usize = 2;
const UNIVERSE: u64 = 512;
const REQUEST_SIZE: usize = 8;
const SEED: u64 = 0xD1FF;
const REQUESTS: usize = 256;

#[test]
fn sim_and_real_cluster_agree_on_tpr() {
    // Simulator side.
    let sim = SimConfig::basic(SERVERS, REPLICATION);
    let rnb = sim.client_config();
    let mut stream = UniformRequests::new(UNIVERSE, REQUEST_SIZE, SEED);
    let metrics = run_experiment(
        &ExperimentConfig::new(sim, 0, REQUESTS),
        UNIVERSE as usize,
        &mut stream,
    );
    assert_eq!(metrics.planned_misses, 0, "unlimited sim memory");

    // Real side: same placement config (server count, hash, seed), same
    // request stream reconstructed from the same seed.
    let mut cluster = Cluster::launch(SERVERS, NodeConfig::default()).expect("fleet up");
    let mut config = RnbClientConfig::new(REPLICATION);
    config.rnb = rnb;
    let mut client = RnbClient::connect(&cluster.addrs(), config).expect("client connects");
    for item in 0..UNIVERSE {
        client.set(item, b"payload").expect("populate");
    }
    let before = client.stats();
    let mut stream = UniformRequests::new(UNIVERSE, REQUEST_SIZE, SEED);
    for _ in 0..REQUESTS {
        client.multi_get(&stream.next_request()).expect("multi_get");
    }
    let d = client.stats().since(&before);
    // Close our connections before the graceful shutdown: a drain waits
    // (bounded) for clients to hang up.
    drop(client);
    cluster.shutdown_all().expect("graceful shutdown");

    assert_eq!(d.requests, REQUESTS as u64);
    assert_eq!(d.unavailable_items, 0, "fully populated fleet");
    assert_eq!(d.failed_txns, 0, "healthy fleet");
    assert_eq!(d.planned_misses, 0, "fully populated fleet");
    assert_eq!(
        metrics.round1_txns + metrics.round2_txns,
        d.round1_txns + d.round2_txns + d.round3_txns,
        "sim/real transaction drift: sim TPR {:.4} vs real {:.4}",
        metrics.tpr(),
        d.tpr()
    );
}
