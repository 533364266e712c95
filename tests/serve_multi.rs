//! One process, N shard servers: conformance, concurrency, hostile-frame,
//! poison and shutdown tests for `server::serve_multi`.
//!
//! The first test is the acceptance criterion for the multi-shard
//! server: a *single* `serve_multi` process hosting four shards, with a
//! `connect_sharded` router in front, must answer every operation
//! identically to the oracle — same bar the in-process backends clear in
//! `cross_backend.rs`. The second drives two concurrent clients (one
//! behind a deliberately slow transport) through all 20 operations
//! against one process. The rest check that a hostile client or a
//! panicking store costs only its own connection or shard, and that
//! `MultiServer::stop` closes idle connections and joins every thread.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use harness::protocol::{run_all_ops, RunOptions};
use harness::Workload;
use hypermodel::config::GenConfig;
use hypermodel::error::{HmError, Result};
use hypermodel::generate::TestDatabase;
use hypermodel::load::load_database;
use hypermodel::model::{NodeKind, NodeValue, Oid, RefEdge};
use hypermodel::oracle::Oracle;
use hypermodel::store::HyperStore;
use hypermodel::Bitmap;
use mem_backend::MemStore;
use server::protocol::{Request, Response};
use server::server::MAX_GARBAGE_STREAK;
use server::transport::TRACE_HEADER;
use server::{serve_multi, ClosureMode, RemoteStore, TcpTransport, Transport};
use shard::{connect_sharded, Placement};

fn uid_of(store: &mut dyn HyperStore, oid: Oid) -> u32 {
    (store.unique_id_of(oid).unwrap() - 1) as u32
}

fn uids(store: &mut dyn HyperStore, oids: &[Oid]) -> Vec<u32> {
    oids.iter().map(|&o| uid_of(store, o)).collect()
}

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

/// The full `cross_backend.rs` assertion set, pinned against the oracle,
/// for one store.
fn check_conformance(store: &mut dyn HyperStore, oids: &[Oid], db: &TestDatabase) {
    let oracle = Oracle::new(db);
    let name = store.backend_name();
    let n = db.len() as u32;

    // O1/O2: name lookups for every uid.
    for uid in 1..=n as u64 {
        let oid = store.lookup_unique(uid).unwrap();
        assert_eq!(
            store.hundred_of(oid).unwrap(),
            oracle.hundred(uid as u32 - 1),
            "{name}: hundred of uid {uid}"
        );
    }

    // O3/O4: range lookups at the paper's selectivities.
    for (lo, hi) in [(1u32, 10), (42, 51), (91, 100)] {
        let got = store.range_hundred(lo, hi).unwrap();
        assert_eq!(
            sorted(uids(store, &got)),
            oracle.range_hundred(lo, hi),
            "{name}: O3"
        );
    }
    for (lo, hi) in [(1u32, 10_000), (500_000, 509_999)] {
        let got = store.range_million(lo, hi).unwrap();
        assert_eq!(
            sorted(uids(store, &got)),
            oracle.range_million(lo, hi),
            "{name}: O4"
        );
    }

    // O5-O8 on every node.
    for idx in 0..n {
        let oid = oids[idx as usize];
        let kids = store.children(oid).unwrap();
        assert_eq!(
            uids(store, &kids),
            oracle.children(idx),
            "{name}: children of {idx}"
        );
        let parent = store.parent(oid).unwrap().map(|p| uid_of(store, p));
        assert_eq!(parent, oracle.parent(idx), "{name}: parent of {idx}");
        let parts = store.parts(oid).unwrap();
        assert_eq!(
            uids(store, &parts),
            oracle.parts(idx),
            "{name}: parts of {idx}"
        );
        let owners = store.part_of(oid).unwrap();
        assert_eq!(
            sorted(uids(store, &owners)),
            oracle.part_of(idx),
            "{name}: partOf {idx}"
        );
        let rt = store.refs_to(oid).unwrap();
        let rt_u: Vec<(u32, u8, u8)> = rt
            .iter()
            .map(|e| (uid_of(store, e.target), e.offset_from, e.offset_to))
            .collect();
        assert_eq!(rt_u, oracle.ref_to(idx), "{name}: refsTo {idx}");
        let rf = store.refs_from(oid).unwrap();
        let mut rf_u: Vec<(u32, u8, u8)> = rf
            .iter()
            .map(|e| (uid_of(store, e.target), e.offset_from, e.offset_to))
            .collect();
        rf_u.sort_unstable();
        assert_eq!(rf_u, oracle.ref_from(idx), "{name}: refsFrom {idx}");
    }

    // O9.
    assert_eq!(
        store.seq_scan_ten().unwrap(),
        oracle.seq_scan_count(),
        "{name}: O9"
    );

    // O10-O15, O18 from every closure-start node.
    let start_level = oracle.closure_start_level();
    for idx in db.level_indices(start_level) {
        let start = oids[idx as usize];
        let c = store.closure_1n(start).unwrap();
        assert_eq!(
            uids(store, &c),
            oracle.closure_1n(idx),
            "{name}: O10 from {idx}"
        );
        let (sum, count) = store.closure_1n_att_sum(start).unwrap();
        assert_eq!((sum, count), oracle.closure_1n_att_sum(idx), "{name}: O11");
        let c = store.closure_1n_pred(start, 250_000, 750_000).unwrap();
        assert_eq!(
            uids(store, &c),
            oracle.closure_1n_pred(idx, 250_000, 750_000),
            "{name}: O13"
        );
        let c = store.closure_mn(start).unwrap();
        assert_eq!(uids(store, &c), oracle.closure_mn(idx), "{name}: O14");
        let c = store.closure_mnatt(start, 25).unwrap();
        assert_eq!(
            uids(store, &c),
            oracle.closure_mnatt(idx, 25),
            "{name}: O15"
        );
        let pairs = store.closure_mnatt_linksum(start, 25).unwrap();
        let pairs_u: Vec<(u32, u64)> = pairs.iter().map(|&(o, d)| (uid_of(store, o), d)).collect();
        assert_eq!(
            pairs_u,
            oracle.closure_mnatt_linksum(idx, 25),
            "{name}: O18"
        );
    }

    // O16/O17 round-trip on one text and one form node.
    let ti = db.text_indices()[0];
    let text_oid = oids[ti as usize];
    let before = store.text_of(text_oid).unwrap();
    assert_eq!(before, oracle.text(ti), "{name}: initial text");
    store
        .text_node_edit(text_oid, "version1", "version-2")
        .unwrap();
    store.commit().unwrap();
    store
        .text_node_edit(text_oid, "version-2", "version1")
        .unwrap();
    store.commit().unwrap();
    assert_eq!(
        store.text_of(text_oid).unwrap(),
        before,
        "{name}: O16 round trip"
    );

    let fi = db.form_indices()[0];
    let form_oid = oids[fi as usize];
    store.form_node_edit(form_oid, 25, 25, 50, 50).unwrap();
    store.form_node_edit(form_oid, 25, 25, 50, 50).unwrap();
    store.commit().unwrap();
    assert!(
        store.form_of(form_oid).unwrap().is_all_white(),
        "{name}: O17 round trip"
    );
}

/// Acceptance: one `serve_multi` process hosting four mem shards, fronted
/// by `connect_sharded`, passes the cross-backend conformance suite end
/// to end over real TCP.
#[test]
fn one_process_four_shards_matches_oracle() {
    let db = TestDatabase::generate(&GenConfig::level(3));
    let shards: Vec<MemStore> = (0..4).map(|_| MemStore::new()).collect();
    let ms = serve_multi(shards).unwrap();
    assert_eq!(ms.addrs().len(), 4);

    let mut s = connect_sharded(&ms.addr_strings(), Placement::OidHash).unwrap();
    let r = load_database(&mut s, &db).unwrap();
    check_conformance(&mut s, &r.oids, &db);
    drop(s);

    let stats = ms.stop().unwrap();
    assert_eq!(stats.accepted, 4, "one connection per shard");
    assert!(stats.requests > 0);
    assert_eq!(stats.errors, 0, "conformance run must be error-free");
    assert_eq!(stats.frames, stats.replies, "every frame answered");
}

/// A transport that dawdles before reading each response, simulating a
/// slow reader. Correctness-neutral; only pacing changes.
struct SlowTransport {
    inner: TcpTransport,
    delay: Duration,
}

impl Transport for SlowTransport {
    fn send(&mut self, frame: &[u8]) -> Result<()> {
        self.inner.send(frame)
    }
    fn recv(&mut self) -> Result<Option<Vec<u8>>> {
        std::thread::sleep(self.delay);
        self.inner.recv()
    }
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>> {
        std::thread::sleep(self.delay);
        self.inner.recv_timeout(timeout)
    }
}

/// Two concurrent clients against one two-shard `serve_multi` process,
/// each driving the full 20-operation benchmark protocol on its own
/// shard. One client reads its responses slowly: the server must keep
/// serving the fast client at full speed regardless.
#[test]
fn two_concurrent_clients_one_slow_run_all_20_ops() {
    let db = TestDatabase::generate(&GenConfig::tiny());
    let opts = RunOptions {
        reps: 2,
        input_seed: 7,
    };

    // Local baseline: node counts are the correctness yardstick.
    let mut local = MemStore::new();
    let local_report = load_database(&mut local, &db).unwrap();
    let mut workload = Workload::new(db.clone(), local_report.oids, 7);
    let baseline = run_all_ops(&mut local, &mut workload, opts).unwrap();

    let ms = serve_multi(vec![MemStore::new(), MemStore::new()]).unwrap();
    let addrs = ms.addrs().to_vec();

    let clients: Vec<_> = [false, true]
        .into_iter()
        .zip(addrs)
        .map(|(slow, addr)| {
            let db = db.clone();
            std::thread::spawn(move || {
                let stream = std::net::TcpStream::connect(addr).unwrap();
                let tcp = TcpTransport::new(stream).unwrap();
                // The slow client also runs closures server-side, so both
                // dispatch paths see concurrent traffic.
                let (transport, mode): (Box<dyn Transport>, _) = if slow {
                    (
                        Box::new(SlowTransport {
                            inner: tcp,
                            delay: Duration::from_millis(1),
                        }),
                        ClosureMode::ServerSide,
                    )
                } else {
                    (Box::new(tcp), ClosureMode::ClientSide)
                };
                let mut remote = RemoteStore::new(transport, mode);
                let report = load_database(&mut remote, &db).unwrap();
                let mut workload = Workload::new(db, report.oids, 7);
                let measured = run_all_ops(&mut remote, &mut workload, opts).unwrap();
                remote.shutdown().unwrap();
                measured
            })
        })
        .collect();

    for handle in clients {
        let measured = handle.join().unwrap();
        assert_eq!(measured.len(), 20, "all 20 operations must complete");
        for (m, b) in measured.iter().zip(&baseline) {
            assert_eq!(m.op, b.op);
            assert_eq!(
                (m.cold_nodes, m.warm_nodes),
                (b.cold_nodes, b.warm_nodes),
                "{}: serve_multi run returned different nodes than local",
                m.op
            );
        }
    }

    let stats = ms.stop().unwrap();
    assert_eq!(stats.accepted, 2);
    assert!(stats.requests > 0);
    assert_eq!(stats.errors, 0);
}

/// Send one request over `t` and decode the reply.
fn call(t: &mut TcpTransport, req: &Request) -> Response {
    t.send(&req.encode()).unwrap();
    Response::decode(&t.recv().unwrap().expect("reply")).unwrap()
}

/// A raw client socket whose reads fail after a while instead of hanging
/// the test when the server never answers or hangs up.
fn dial(addr: std::net::SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    s
}

fn connect(addr: std::net::SocketAddr) -> TcpTransport {
    TcpTransport::new(dial(addr)).unwrap()
}

/// Write `bytes` in one call, then expect the server to hang up without
/// a reply.
fn expect_hangup(addr: std::net::SocketAddr, bytes: &[u8]) {
    let mut c = dial(addr);
    c.write_all(bytes).unwrap();
    let mut probe = [0u8; 1];
    assert_eq!(c.read(&mut probe).unwrap(), 0, "server hung up");
}

#[test]
fn oversized_frame_drops_the_connection() {
    let ms = serve_multi(vec![MemStore::new()]).unwrap();
    // A length prefix claiming 1 GiB: unframeable, connection dropped.
    let mut bytes = (1u32 << 30).to_le_bytes().to_vec();
    bytes.extend_from_slice(b"junk");
    expect_hangup(ms.addrs()[0], &bytes);
    let stats = ms.stop().unwrap();
    assert_eq!(stats.accepted, 1);
    assert_eq!(stats.frames, 0);
}

#[test]
fn length_prefix_below_trace_header_drops_the_connection() {
    let ms = serve_multi(vec![MemStore::new()]).unwrap();
    // Too short to hold even the trace id.
    let short = TRACE_HEADER - 1;
    let mut bytes = (short as u32).to_le_bytes().to_vec();
    bytes.extend_from_slice(&vec![0u8; short]);
    expect_hangup(ms.addrs()[0], &bytes);
    let stats = ms.stop().unwrap();
    assert_eq!(stats.accepted, 1);
    assert_eq!(stats.frames, 0);
}

/// A garbage firehose closes only its own connection: a second client of
/// the same shard is answered before, during and after.
#[test]
fn garbage_streak_closes_only_that_connection() {
    let ms = serve_multi(vec![MemStore::new()]).unwrap();
    let addr = ms.addrs()[0];
    let mut bad = connect(addr);
    let mut good = connect(addr);
    let garbage = [255u8, 0, 1];
    for i in 1..=MAX_GARBAGE_STREAK {
        bad.send(&garbage).unwrap();
        if i < MAX_GARBAGE_STREAK {
            let resp = Response::decode(&bad.recv().unwrap().unwrap()).unwrap();
            assert!(matches!(resp, Response::Err(_)), "frame {i}: {resp:?}");
        }
        assert_eq!(call(&mut good, &Request::SeqScanTen), Response::U64(0));
    }
    assert_eq!(bad.recv().unwrap(), None, "server hung up on the firehose");
    assert_eq!(call(&mut good, &Request::SeqScanTen), Response::U64(0));
    drop(good);

    let stats = ms.stop().unwrap();
    let streak = u64::from(MAX_GARBAGE_STREAK);
    assert_eq!(stats.accepted, 2);
    assert_eq!(stats.errors, streak);
    assert_eq!(stats.requests, streak + 1);
    assert_eq!(stats.frames, 2 * streak + 1);
    assert_eq!(
        stats.replies,
        stats.frames - 1,
        "the last garbage frame is not answered"
    );
}

/// A store holding no data, for the poison and shutdown tests: every
/// primitive fails, except `seq_scan_ten`, which panics or answers 7.
/// `_live` counts the stores still alive.
struct Probe {
    panics: bool,
    _live: Arc<()>,
}

macro_rules! no_data {
    ($(fn $name:ident(&mut self $(, $arg:ident: $ty:ty)*) -> $ret:ty;)*) => {$(
        fn $name(&mut self $(, $arg: $ty)*) -> $ret {
            Err(HmError::Backend("probe store holds no data".into()))
        }
    )*};
}

impl HyperStore for Probe {
    no_data! {
        fn lookup_unique(&mut self, _uid: u64) -> Result<Oid>;
        fn unique_id_of(&mut self, _o: Oid) -> Result<u64>;
        fn kind_of(&mut self, _o: Oid) -> Result<NodeKind>;
        fn ten_of(&mut self, _o: Oid) -> Result<u32>;
        fn hundred_of(&mut self, _o: Oid) -> Result<u32>;
        fn million_of(&mut self, _o: Oid) -> Result<u32>;
        fn set_hundred(&mut self, _o: Oid, _v: u32) -> Result<()>;
        fn range_hundred(&mut self, _lo: u32, _hi: u32) -> Result<Vec<Oid>>;
        fn range_million(&mut self, _lo: u32, _hi: u32) -> Result<Vec<Oid>>;
        fn children(&mut self, _o: Oid) -> Result<Vec<Oid>>;
        fn parent(&mut self, _o: Oid) -> Result<Option<Oid>>;
        fn parts(&mut self, _o: Oid) -> Result<Vec<Oid>>;
        fn part_of(&mut self, _o: Oid) -> Result<Vec<Oid>>;
        fn refs_to(&mut self, _o: Oid) -> Result<Vec<RefEdge>>;
        fn refs_from(&mut self, _o: Oid) -> Result<Vec<RefEdge>>;
        fn text_of(&mut self, _o: Oid) -> Result<String>;
        fn set_text(&mut self, _o: Oid, _t: &str) -> Result<()>;
        fn form_of(&mut self, _o: Oid) -> Result<Bitmap>;
        fn set_form(&mut self, _o: Oid, _b: &Bitmap) -> Result<()>;
        fn create_node(&mut self, _v: &NodeValue) -> Result<Oid>;
        fn add_child(&mut self, _p: Oid, _c: Oid) -> Result<()>;
        fn add_part(&mut self, _o: Oid, _p: Oid) -> Result<()>;
        fn add_ref(&mut self, _f: Oid, _t: Oid, _of: u8, _ot: u8) -> Result<()>;
        fn insert_extra_node(&mut self, _v: &NodeValue) -> Result<Oid>;
        fn commit(&mut self) -> Result<()>;
        fn cold_restart(&mut self) -> Result<()>;
    }

    fn seq_scan_ten(&mut self) -> Result<u64> {
        assert!(!self.panics, "probe store panics on request");
        Ok(7)
    }

    fn backend_name(&self) -> &'static str {
        "probe"
    }
}

fn probes(panics: &[bool], live: &Arc<()>) -> Vec<Probe> {
    panics
        .iter()
        .map(|&panics| Probe {
            panics,
            _live: Arc::clone(live),
        })
        .collect()
}

fn is_poisoned(resp: &Response) -> bool {
    matches!(resp, Response::Err(m) if m.contains("shard 0 unavailable") && m.contains("poisoned"))
}

#[test]
fn panicking_request_poisons_only_its_shard() {
    let live = Arc::new(());
    let ms = serve_multi(probes(&[true, false], &live)).unwrap();
    let mut c0 = connect(ms.addrs()[0]);
    let mut c1 = connect(ms.addrs()[1]);

    // The panicking request itself is answered, with the structured error.
    let resp = call(&mut c0, &Request::SeqScanTen);
    assert!(is_poisoned(&resp), "{resp:?}");
    // Later requests to shard 0 never reach the store, on any connection.
    let resp = call(&mut c0, &Request::TenOf(Oid(1)));
    assert!(is_poisoned(&resp), "{resp:?}");
    let resp = call(&mut connect(ms.addrs()[0]), &Request::TenOf(Oid(1)));
    assert!(is_poisoned(&resp), "{resp:?}");
    // Shard 1 still answers.
    assert_eq!(call(&mut c1, &Request::SeqScanTen), Response::U64(7));
    drop((c0, c1));

    let stats = ms.stop().unwrap();
    assert_eq!(stats.accepted, 3);
    assert_eq!(stats.requests, 4);
    assert_eq!(stats.errors, 3);
    assert_eq!(stats.frames, stats.replies);
}

/// `stop` with idle clients still connected closes their connections,
/// joins every thread and drops every store, promptly.
#[test]
fn stop_with_idle_connections_joins_every_thread() {
    let live = Arc::new(());
    let ms = serve_multi(probes(&[false, false], &live)).unwrap();
    let mut idle: Vec<TcpStream> = [0, 0, 1].iter().map(|&i| dial(ms.addrs()[i])).collect();
    // One client mid-session: served once, then idle.
    let mut busy = connect(ms.addrs()[1]);
    assert_eq!(call(&mut busy, &Request::SeqScanTen), Response::U64(7));

    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(ms.stop()).unwrap());
    let stats = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("stop returned promptly")
        .unwrap();
    assert_eq!(stats.accepted, 4);
    assert_eq!(stats.requests, 1);
    assert_eq!(Arc::strong_count(&live), 1, "every store dropped");
    for c in &mut idle {
        let mut probe = [0u8; 1];
        assert_eq!(
            c.read(&mut probe).unwrap(),
            0,
            "server closed the idle client"
        );
    }
    assert_eq!(busy.recv().unwrap(), None);
}
