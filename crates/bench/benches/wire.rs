//! Wire-path microbenchmark: what one frame costs over `sharded-tcp`.
//!
//! The paper's measurement protocol reports milliseconds-per-node, so
//! for the small point ops (name/range/reference lookup) fixed
//! per-request wire overhead dominates what `--backend sharded-tcp:N`
//! measures. This bench isolates that overhead: round-trip time for a
//! point op (one request/response frame pair) and for a level-batched
//! closure exchange, plus bytes-per-write-syscall derived from the
//! `net.*` counters the client and server transports maintain.
//!
//! Not a criterion bench: the interesting numbers (frames/sec,
//! bytes/syscall, write syscalls per op) need counter deltas around the
//! timed section, so this binary drives its own loop and prints a JSON
//! summary. CI runs it with `--test` (tiny iteration counts, asserts it
//! completes and the JSON parses; no thresholds — see the perf-smoke
//! job). DESIGN.md §15 quotes before/after numbers from this bench.
//!
//! Usage: `cargo bench -p bench --bench wire [-- --test] [--json PATH]`

use hypermodel::config::GenConfig;
use hypermodel::generate::TestDatabase;
use hypermodel::load::load_database;
use hypermodel::store::HyperStore;
use mem_backend::MemStore;
use std::time::Instant;

const SHARDS: usize = 2;

struct Section {
    ns_per_op: f64,
    ops: u64,
    /// Counter deltas over the timed section, in declaration order:
    /// bytes_sent, bytes_recv, write_batches.
    net: [u64; 3],
}

fn counter(snap: &obs::Snapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

fn net_delta(before: &obs::Snapshot, after: &obs::Snapshot) -> [u64; 3] {
    ["net.bytes_sent", "net.bytes_recv", "net.write_batches"]
        .map(|n| counter(after, n).saturating_sub(counter(before, n)))
}

fn measure<S: HyperStore + ?Sized>(
    store: &mut S,
    iters: u64,
    mut op: impl FnMut(&mut S),
) -> Section {
    // Warm up outside the timed/counted window.
    for _ in 0..(iters / 10).max(1) {
        op(store);
    }
    let before = obs::registry().snapshot();
    let start = Instant::now();
    for _ in 0..iters {
        op(store);
    }
    let elapsed = start.elapsed();
    let after = obs::registry().snapshot();
    Section {
        ns_per_op: elapsed.as_nanos() as f64 / iters as f64,
        ops: iters,
        net: net_delta(&before, &after),
    }
}

fn section_json(name: &str, s: &Section) -> String {
    let [sent, recv, batches] = s.net;
    let bytes_per_syscall = if batches > 0 {
        (sent + recv) as f64 / batches as f64
    } else {
        0.0
    };
    let syscalls_per_op = batches as f64 / s.ops as f64;
    format!(
        "  \"{name}\": {{\n    \"ns_per_op\": {:.0},\n    \"ops\": {},\n    \
         \"frames_per_sec\": {:.0},\n    \"bytes_sent\": {sent},\n    \
         \"bytes_recv\": {recv},\n    \"write_batches\": {batches},\n    \
         \"write_syscalls_per_op\": {syscalls_per_op:.2},\n    \
         \"bytes_per_write_syscall\": {bytes_per_syscall:.1}\n  }}",
        s.ns_per_op,
        s.ops,
        // Two frames (request + response) per round trip.
        2.0e9 / s.ns_per_op,
    )
}

fn main() {
    let mut test_mode = false;
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--test" | "--list" => test_mode = true,
            "--json" => json_path = args.next(),
            _ => {}
        }
    }

    let (point_iters, batch_iters) = if test_mode {
        (200, 20)
    } else {
        (20_000, 2_000)
    };

    // The `sharded-tcp` deployment the harness uses: N mem shards behind
    // `serve_multi`, a router over N TCP connections.
    let db = TestDatabase::generate(&GenConfig::tiny());
    let shards: Vec<MemStore> = (0..SHARDS).map(|_| MemStore::new()).collect();
    let srv = server::serve_multi(shards).expect("serve_multi");
    let mut store =
        shard::connect_sharded(&srv.addr_strings(), shard::Placement::OidHash).expect("connect");
    let report = load_database(&mut store, &db).expect("load");
    let target = report.oids[report.oids.len() / 2];
    let root = report.oids[0];

    // Point op: one request frame, one response frame, tiny payloads —
    // pure per-frame overhead.
    let point = measure(&mut store, point_iters, |s| {
        let _ = s.hundred_of(target).expect("hundred_of");
    });

    // Level-batched closure exchange: one frame pair per BFS level per
    // involved shard, larger payloads.
    let batch = measure(&mut store, batch_iters, |s| {
        let _ = s.closure_1n(root).expect("closure_1n");
    });

    let json = format!(
        "{{\n  \"bench\": \"wire\",\n  \"mode\": \"{}\",\n  \"shards\": {SHARDS},\n{},\n{}\n}}",
        if test_mode { "test" } else { "full" },
        section_json("point_op", &point),
        section_json("closure_batch", &batch),
    );
    println!("{json}");
    if let Some(path) = json_path {
        std::fs::write(&path, &json).expect("write json");
        eprintln!("wire: wrote {path}");
    }

    drop(store);
    srv.stop().expect("stop");
}
