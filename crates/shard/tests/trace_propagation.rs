//! End-to-end trace propagation: one trace id minted on the client
//! thread must reappear on every hop of a cross-shard operation —
//! the client call site, the server session loop's frame handling, and
//! the shard executor's worker — stitched together by the 8-byte trace
//! field in the wire frame header and the executor's job capture.

use std::collections::BTreeSet;

use hypermodel::config::GenConfig;
use hypermodel::generate::TestDatabase;
use hypermodel::load::load_database;
use hypermodel::store::HyperStore;
use mem_backend::MemStore;

#[test]
fn one_trace_spans_client_loop_and_executor() {
    let shards: Vec<MemStore> = (0..2).map(|_| MemStore::new()).collect();
    let srv = server::serve_multi(shards).expect("serve_multi");
    let mut store = shard::connect_sharded(&srv.addr_strings(), shard::Placement::affinity())
        .expect("connect_sharded");

    let db = TestDatabase::generate(&GenConfig::tiny());
    let report = load_database(&mut store, &db).expect("load");

    // Record spans only for the operation under test, not the bulk load.
    let reg = obs::registry();
    reg.set_record_spans(true);

    let trace = obs::trace::mint();
    {
        let _scope = obs::trace::scope(trace);
        let root = report.oids[0];
        let nodes = store.closure_1n(root).expect("closure");
        assert!(!nodes.is_empty(), "closure must traverse something");
    }

    reg.set_record_spans(false);

    // Workers record their span on job completion; one more round trip
    // through the same server guarantees the earlier completions have
    // been processed before we read the log.
    store.commit().expect("commit");

    let names: BTreeSet<&'static str> = reg
        .spans()
        .iter()
        .filter(|s| s.trace == trace)
        .map(|s| s.name)
        .collect();
    for hop in ["client.call", "loop.frame", "exec.job"] {
        assert!(
            names.contains(hop),
            "trace {trace:#x} never reached `{hop}`; hops seen: {names:?}"
        );
    }
}
