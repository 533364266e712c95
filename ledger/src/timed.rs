//! The traced run's timing wrapper.
//!
//! [`Timed`] sits between a layer and the stores it calls (each member of
//! a `ShardedStore` or of a server, the disk store) and
//! records, per *layer* (all wrappers sharing one [`Layer`]):
//!
//! * calls per `HyperStore` method,
//! * busy time summed over calls, and *covered* time — the union of the
//!   intervals during which at least one member call was in flight, so a
//!   parent's self time is its span minus what its children cover even
//!   when the children ran in parallel,
//! * optionally every call's duration (the client round-trip histogram),
//! * commit-family calls: duration plus the storage I/O they caused,
//! * a sample of request/response frames for timing the wire codec.
//!
//! The wrapper forwards **every** trait method, including those with
//! default bodies, so a wrapped deployment takes exactly the code paths of
//! a bare one; `tests/wrapper.rs` checks this by nesting two wrappers and
//! comparing per-method call counts.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use hypermodel::error::Result;
use hypermodel::migrate::NodeExport;
use hypermodel::model::{NodeKind, NodeValue, Oid, RefEdge};
use hypermodel::{Bitmap, HyperStore, ShardLoad};
use server::protocol::{Request, Response};

/// Cap on captured codec frames per layer.
const FRAME_CAP: usize = 4096;

/// Storage I/O counters a wrapped store can report. Stores without a page
/// file report zeros.
#[derive(Debug, Clone, Copy, Default)]
pub struct Io {
    /// Pages read from the database file.
    pub page_reads: u64,
    /// Pages written to the database file.
    pub page_writes: u64,
    /// Current length of the write-ahead log file in bytes.
    pub wal_len: u64,
}

/// Read a store's I/O counters.
pub trait Probe {
    /// The counters now (they may reset on `cold_restart`).
    fn io(&self) -> Io {
        Io::default()
    }
}

impl Probe for mem_backend::MemStore {}
impl Probe for server::RemoteStore {}

impl Probe for disk_backend::DiskStore {
    fn io(&self) -> Io {
        let stats = self.engine().pool_ref().io_stats();
        Io {
            page_reads: stats.reads,
            page_writes: stats.writes,
            wal_len: std::fs::metadata(self.engine().wal_path())
                .map(|m| m.len())
                .unwrap_or(0),
        }
    }
}

/// Commit-family calls (`commit`, `prepare_commit`, `commit_prepared`).
#[derive(Debug, Clone, Default)]
pub struct Commits {
    /// Duration of each call in nanoseconds.
    pub ns: Vec<u64>,
    /// Database pages written by those calls.
    pub page_writes: u64,
    /// Bytes appended to the write-ahead log by those calls.
    pub wal_bytes: u64,
    /// `storage.wal.fsyncs` counted during those calls.
    pub wal_fsyncs: u64,
}

/// What one layer's wrappers recorded.
#[derive(Debug, Default)]
pub struct LayerState {
    /// Calls per method name.
    pub calls: BTreeMap<&'static str, u64>,
    /// Sum of call durations (ns).
    pub busy_ns: u64,
    /// Union of in-flight call intervals (ns).
    pub covered_ns: u64,
    active: u32,
    cover_start: Option<Instant>,
    /// Every call's duration (ns), when the layer keeps them.
    pub call_ns: Vec<u64>,
    /// Commit-family calls.
    pub commits: Commits,
    /// Storage page reads, accumulated across `cold_restart` resets.
    pub page_reads: u64,
    /// Sampled request/response frames for codec timing.
    pub frames: Vec<(Request, Response)>,
}

impl LayerState {
    /// Total calls over all methods.
    pub fn total_calls(&self) -> u64 {
        self.calls.values().sum()
    }
}

/// Shared recorder for every wrapper of one layer.
#[derive(Debug, Default)]
pub struct Layer {
    state: Mutex<LayerState>,
    keep_call_ns: bool,
}

impl Layer {
    /// A recorder; `keep_call_ns` keeps every call's duration.
    pub fn new(keep_call_ns: bool) -> Arc<Layer> {
        Arc::new(Layer {
            state: Mutex::default(),
            keep_call_ns,
        })
    }

    /// Lock the recorded state.
    pub fn state(&self) -> MutexGuard<'_, LayerState> {
        self.state.lock().expect("layer recorder poisoned")
    }

    /// (total calls, covered ns): cheap enough to read around every op.
    pub fn totals(&self) -> (u64, u64) {
        let s = self.state();
        (s.total_calls(), s.covered_ns)
    }

    fn enter(&self) -> Instant {
        let now = Instant::now();
        let mut s = self.state();
        if s.active == 0 {
            s.cover_start = Some(now);
        }
        s.active += 1;
        now
    }

    fn exit(&self, method: &'static str, start: Instant) -> u64 {
        let now = Instant::now();
        let ns = now.duration_since(start).as_nanos() as u64;
        let mut s = self.state();
        *s.calls.entry(method).or_insert(0) += 1;
        s.busy_ns += ns;
        s.active -= 1;
        if s.active == 0 {
            if let Some(from) = s.cover_start.take() {
                s.covered_ns += now.duration_since(from).as_nanos() as u64;
            }
        }
        if self.keep_call_ns {
            s.call_ns.push(ns);
        }
        ns
    }

    fn capture(&self, frame: impl FnOnce() -> (Request, Response)) {
        let mut s = self.state();
        if s.frames.len() < FRAME_CAP {
            s.frames.push(frame());
        }
    }
}

/// A `HyperStore` that times every call into `inner` on a shared [`Layer`].
pub struct Timed<S> {
    inner: S,
    layer: Arc<Layer>,
}

impl<S: HyperStore + Probe> Timed<S> {
    /// Wrap `inner`, recording into `layer`.
    pub fn new(inner: S, layer: Arc<Layer>) -> Timed<S> {
        Timed { inner, layer }
    }

    fn timed<T>(&mut self, method: &'static str, f: impl FnOnce(&mut S) -> T) -> T {
        let start = self.layer.enter();
        let out = f(&mut self.inner);
        self.layer.exit(method, start);
        out
    }

    fn commit_family(
        &mut self,
        method: &'static str,
        f: impl FnOnce(&mut S) -> Result<()>,
    ) -> Result<()> {
        let fsyncs = obs::registry().counter("storage.wal.fsyncs");
        let (io0, f0) = (self.inner.io(), fsyncs.get());
        let start = self.layer.enter();
        let out = f(&mut self.inner);
        let ns = self.layer.exit(method, start);
        let (io1, f1) = (self.inner.io(), fsyncs.get());
        let mut s = self.layer.state();
        s.commits.ns.push(ns);
        s.commits.page_writes += io1.page_writes.saturating_sub(io0.page_writes);
        s.commits.wal_bytes += io1.wal_len.saturating_sub(io0.wal_len);
        s.commits.wal_fsyncs += f1.saturating_sub(f0);
        out
    }
}

impl<S: Probe> Probe for Timed<S> {
    fn io(&self) -> Io {
        self.inner.io()
    }
}

/// Forward methods that need nothing beyond timing.
macro_rules! forward {
    ($( fn $m:ident(&mut self $(, $a:ident: $t:ty)*) -> $r:ty; )*) => {
        $(
            fn $m(&mut self $(, $a: $t)*) -> $r {
                self.timed(stringify!($m), |s| s.$m($($a),*))
            }
        )*
    };
}

/// Forward methods whose request and answer are sampled for the codec.
macro_rules! forward_framed {
    ($( fn $m:ident(&mut self, $a:ident: $t:ty) -> $r:ty => $req:expr, $resp:expr; )*) => {
        $(
            fn $m(&mut self, $a: $t) -> $r {
                let out = self.timed(stringify!($m), |s| s.$m($a));
                if let Ok(v) = &out {
                    self.layer.capture(|| ($req, $resp(v)));
                }
                out
            }
        )*
    };
}

impl<S: HyperStore + Probe> HyperStore for Timed<S> {
    forward_framed! {
        fn lookup_unique(&mut self, uid: u64) -> Result<Oid>
            => Request::LookupUnique(uid), |v: &Oid| Response::Oid(*v);
        fn hundred_of(&mut self, oid: Oid) -> Result<u32>
            => Request::HundredOf(oid), |v: &u32| Response::U32(*v);
        fn children(&mut self, oid: Oid) -> Result<Vec<Oid>>
            => Request::Children(oid), |v: &Vec<Oid>| Response::Oids(v.clone());
        fn parent(&mut self, oid: Oid) -> Result<Option<Oid>>
            => Request::Parent(oid), |v: &Option<Oid>| Response::OptOid(*v);
        fn parts(&mut self, oid: Oid) -> Result<Vec<Oid>>
            => Request::Parts(oid), |v: &Vec<Oid>| Response::Oids(v.clone());
        fn part_of(&mut self, oid: Oid) -> Result<Vec<Oid>>
            => Request::PartOf(oid), |v: &Vec<Oid>| Response::Oids(v.clone());
        fn refs_to(&mut self, oid: Oid) -> Result<Vec<RefEdge>>
            => Request::RefsTo(oid), |v: &Vec<RefEdge>| Response::Edges(v.clone());
        fn refs_from(&mut self, oid: Oid) -> Result<Vec<RefEdge>>
            => Request::RefsFrom(oid), |v: &Vec<RefEdge>| Response::Edges(v.clone());
        fn text_of(&mut self, oid: Oid) -> Result<String>
            => Request::TextOf(oid), |v: &String| Response::Text(v.clone());
        fn children_batch(&mut self, oids: &[Oid]) -> Result<Vec<Vec<Oid>>>
            => Request::ChildrenBatch(oids.to_vec()), |v: &Vec<Vec<Oid>>| Response::OidLists(v.clone());
        fn parts_batch(&mut self, oids: &[Oid]) -> Result<Vec<Vec<Oid>>>
            => Request::PartsBatch(oids.to_vec()), |v: &Vec<Vec<Oid>>| Response::OidLists(v.clone());
        fn refs_to_batch(&mut self, oids: &[Oid]) -> Result<Vec<Vec<RefEdge>>>
            => Request::RefsToBatch(oids.to_vec()), |v: &Vec<Vec<RefEdge>>| Response::EdgeLists(v.clone());
        fn hundred_batch(&mut self, oids: &[Oid]) -> Result<Vec<u32>>
            => Request::HundredBatch(oids.to_vec()), |v: &Vec<u32>| Response::U32s(v.clone());
        fn million_batch(&mut self, oids: &[Oid]) -> Result<Vec<u32>>
            => Request::MillionBatch(oids.to_vec()), |v: &Vec<u32>| Response::U32s(v.clone());
    }

    forward! {
        fn unique_id_of(&mut self, oid: Oid) -> Result<u64>;
        fn kind_of(&mut self, oid: Oid) -> Result<NodeKind>;
        fn ten_of(&mut self, oid: Oid) -> Result<u32>;
        fn million_of(&mut self, oid: Oid) -> Result<u32>;
        fn set_hundred(&mut self, oid: Oid, value: u32) -> Result<()>;
        fn range_hundred(&mut self, lo: u32, hi: u32) -> Result<Vec<Oid>>;
        fn range_million(&mut self, lo: u32, hi: u32) -> Result<Vec<Oid>>;
        fn seq_scan_ten(&mut self) -> Result<u64>;
        fn set_text(&mut self, oid: Oid, text: &str) -> Result<()>;
        fn form_of(&mut self, oid: Oid) -> Result<Bitmap>;
        fn set_form(&mut self, oid: Oid, bitmap: &Bitmap) -> Result<()>;
        fn create_node(&mut self, value: &NodeValue) -> Result<Oid>;
        fn create_node_clustered(&mut self, value: &NodeValue, near: Option<Oid>) -> Result<Oid>;
        fn add_child(&mut self, parent: Oid, child: Oid) -> Result<()>;
        fn add_part(&mut self, owner: Oid, part: Oid) -> Result<()>;
        fn add_ref(&mut self, from: Oid, to: Oid, offset_from: u8, offset_to: u8) -> Result<()>;
        fn insert_extra_node(&mut self, value: &NodeValue) -> Result<Oid>;
        fn abort_prepared(&mut self, txid: u64) -> Result<()>;
        fn sync_export(&mut self) -> Result<Vec<u8>>;
        fn sync_import(&mut self, snapshot: &[u8]) -> Result<()>;
        fn export_nodes(&mut self, oids: &[Oid]) -> Result<Vec<NodeExport>>;
        fn install_nodes(&mut self, batch: &[NodeExport]) -> Result<Vec<Oid>>;
        fn activate_nodes(&mut self, oids: &[Oid]) -> Result<()>;
        fn retire_nodes(&mut self, oids: &[Oid], moved_to: u16, epoch: u64) -> Result<()>;
        fn moved_hint(&mut self, oid: Oid) -> Option<(u16, u64)>;
        fn set_hundred_batch(&mut self, updates: &[(Oid, u32)]) -> Result<()>;
        fn closure_1n(&mut self, start: Oid) -> Result<Vec<Oid>>;
        fn closure_1n_att_sum(&mut self, start: Oid) -> Result<(u64, usize)>;
        fn closure_1n_att_set(&mut self, start: Oid) -> Result<usize>;
        fn closure_1n_pred(&mut self, start: Oid, lo: u32, hi: u32) -> Result<Vec<Oid>>;
        fn closure_mn(&mut self, start: Oid) -> Result<Vec<Oid>>;
        fn closure_mnatt(&mut self, start: Oid, depth: u32) -> Result<Vec<Oid>>;
        fn closure_mnatt_linksum(&mut self, start: Oid, depth: u32) -> Result<Vec<(Oid, u64)>>;
        fn text_node_edit(&mut self, oid: Oid, from: &str, to: &str) -> Result<usize>;
        fn form_node_edit(&mut self, oid: Oid, x0: u16, y0: u16, x1: u16, y1: u16) -> Result<()>;
    }

    fn commit(&mut self) -> Result<()> {
        self.commit_family("commit", |s| s.commit())
    }

    fn prepare_commit(&mut self, txid: u64) -> Result<()> {
        self.commit_family("prepare_commit", |s| s.prepare_commit(txid))
    }

    fn commit_prepared(&mut self, txid: u64) -> Result<()> {
        self.commit_family("commit_prepared", |s| s.commit_prepared(txid))
    }

    fn cold_restart(&mut self) -> Result<()> {
        // The store resets its I/O counters on restart: fold them first.
        let reads = self.inner.io().page_reads;
        self.layer.state().page_reads += reads;
        self.timed("cold_restart", |s| s.cold_restart())
    }

    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }

    fn shard_balance(&self) -> Option<Vec<ShardLoad>> {
        self.inner.shard_balance()
    }

    fn resilience_summary(&self) -> Option<String> {
        self.inner.resilience_summary()
    }
}
