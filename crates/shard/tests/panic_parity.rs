//! A panic inside a member's backend is contained the same way for every
//! replication factor: it poisons that member, never unwinds into the
//! caller, and the logical shard degrades like any other member failure —
//! it answers from a healthy mirror if one is left, and reports
//! `ShardUnavailable` naming itself if not. The other shard keeps
//! serving, and `replace_shard` brings the member back.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use hypermodel::config::GenConfig;
use hypermodel::error::{HmError, Result};
use hypermodel::generate::TestDatabase;
use hypermodel::load::load_database;
use hypermodel::model::{NodeKind, NodeValue, Oid, RefEdge};
use hypermodel::store::HyperStore;
use hypermodel::Bitmap;
use mem_backend::MemStore;
use shard::{Placement, ShardedStore};

/// A `MemStore` whose `hundred_of` panics once `trap` is armed. The trap
/// is one-shot: the panicking call disarms it.
struct Trapped {
    inner: MemStore,
    trap: Arc<AtomicBool>,
}

macro_rules! delegate {
    ($(fn $name:ident(&mut self $(, $arg:ident: $ty:ty)*) -> $ret:ty;)*) => {$(
        fn $name(&mut self $(, $arg: $ty)*) -> $ret {
            self.inner.$name($($arg),*)
        }
    )*};
}

impl HyperStore for Trapped {
    delegate! {
        fn lookup_unique(&mut self, uid: u64) -> Result<Oid>;
        fn unique_id_of(&mut self, o: Oid) -> Result<u64>;
        fn kind_of(&mut self, o: Oid) -> Result<NodeKind>;
        fn ten_of(&mut self, o: Oid) -> Result<u32>;
        fn million_of(&mut self, o: Oid) -> Result<u32>;
        fn set_hundred(&mut self, o: Oid, v: u32) -> Result<()>;
        fn range_hundred(&mut self, lo: u32, hi: u32) -> Result<Vec<Oid>>;
        fn range_million(&mut self, lo: u32, hi: u32) -> Result<Vec<Oid>>;
        fn children(&mut self, o: Oid) -> Result<Vec<Oid>>;
        fn parent(&mut self, o: Oid) -> Result<Option<Oid>>;
        fn parts(&mut self, o: Oid) -> Result<Vec<Oid>>;
        fn part_of(&mut self, o: Oid) -> Result<Vec<Oid>>;
        fn refs_to(&mut self, o: Oid) -> Result<Vec<RefEdge>>;
        fn refs_from(&mut self, o: Oid) -> Result<Vec<RefEdge>>;
        fn seq_scan_ten(&mut self) -> Result<u64>;
        fn text_of(&mut self, o: Oid) -> Result<String>;
        fn set_text(&mut self, o: Oid, t: &str) -> Result<()>;
        fn form_of(&mut self, o: Oid) -> Result<Bitmap>;
        fn set_form(&mut self, o: Oid, b: &Bitmap) -> Result<()>;
        fn create_node(&mut self, v: &NodeValue) -> Result<Oid>;
        fn create_node_clustered(&mut self, v: &NodeValue, near: Option<Oid>) -> Result<Oid>;
        fn add_child(&mut self, p: Oid, c: Oid) -> Result<()>;
        fn add_part(&mut self, o: Oid, p: Oid) -> Result<()>;
        fn add_ref(&mut self, f: Oid, t: Oid, of: u8, ot: u8) -> Result<()>;
        fn insert_extra_node(&mut self, v: &NodeValue) -> Result<Oid>;
        fn commit(&mut self) -> Result<()>;
        fn cold_restart(&mut self) -> Result<()>;
        fn sync_export(&mut self) -> Result<Vec<u8>>;
        fn sync_import(&mut self, snapshot: &[u8]) -> Result<()>;
    }

    fn hundred_of(&mut self, o: Oid) -> Result<u32> {
        if self.trap.swap(false, Ordering::SeqCst) {
            panic!("injected backend panic");
        }
        self.inner.hundred_of(o)
    }

    fn backend_name(&self) -> &'static str {
        "trapped-mem"
    }
}

/// Two logical shards, `k` mirrors each; every member of shard 0 shares
/// `trap`, so whichever member serves shard 0's next `hundred_of` panics.
fn panic_parity(k: usize) {
    // Level 3: the affinity cut (depth 2) leaves subtrees with children.
    let db = TestDatabase::generate(&GenConfig::level(3));
    let trap = Arc::new(AtomicBool::new(false));
    let members = (0..2 * k)
        .map(|m| Trapped {
            inner: MemStore::new(),
            trap: if m < k {
                Arc::clone(&trap)
            } else {
                Arc::new(AtomicBool::new(false))
            },
        })
        .collect();
    let mut s = ShardedStore::new_replicated(members, k, Placement::affinity(), "trapped-mem");
    let oids = load_database(&mut s, &db).unwrap().oids;
    let on = |shard| -> Vec<Oid> {
        oids.iter()
            .copied()
            .filter(|&o| s.owner_of(o) == Some(shard))
            .collect()
    };
    let (on_0, on_1) = (on(0), on(1));
    let (x, y) = (on_0[0], on_1[0]);
    // A closure that stays on shard 1 and crosses more than one node.
    let mut found = None;
    for &o in &on_1 {
        let c = s.closure_1n(o).unwrap();
        if c.len() > 1 && c.iter().all(|g| on_1.contains(g)) {
            found = Some((o, c));
            break;
        }
    }
    let (start, closure) = found.expect("affinity placement keeps some subtree on shard 1");
    let (x_before, y_before) = (s.hundred_of(x).unwrap(), s.hundred_of(y).unwrap());

    // The panic poisons the member that served the read and never
    // reaches the caller. A mirror left healthy answers instead; a group
    // with none left reports itself unavailable.
    trap.store(true, Ordering::SeqCst);
    let read = s.hundred_of(x);
    assert!(!trap.load(Ordering::SeqCst), "the trap fired");
    let dead: Vec<usize> = (0..k).filter(|&m| !s.health()[m]).collect();
    assert_eq!(dead.len(), 1, "exactly the panicking member is out");
    let victim = dead[0];
    if k == 1 {
        match read {
            Err(HmError::ShardUnavailable { shard: 0, msg }) => {
                assert!(msg.contains("poisoned"), "unexpected message: {msg}")
            }
            other => panic!("expected shard 0 unavailable, got {other:?}"),
        }
    } else {
        assert_eq!(read.unwrap(), x_before, "a healthy mirror answered");
    }

    // The other shard is untouched: point reads and closures still work.
    assert_eq!(s.hundred_of(y).unwrap(), y_before);
    assert_eq!(s.closure_1n(start).unwrap(), closure);

    // Swap in a backend holding the member's data (the panic happened in
    // a read, so the old state is intact). A group of one re-admits it at
    // once; a replicated group resyncs it from a sibling first.
    let snapshot = s.with_shard(victim, |t| t.inner.sync_export()).unwrap();
    let mut restored = MemStore::new();
    restored.sync_import(&snapshot).unwrap();
    s.replace_shard(
        victim,
        Trapped {
            inner: restored,
            trap: Arc::clone(&trap),
        },
    );
    s.repair_replicas();
    assert!(s.health().iter().all(|&h| h), "every member is back");
    // Force the read onto the replaced member.
    for m in (0..k).filter(|&m| m != victim) {
        s.mark_shard_down(m);
    }
    assert_eq!(s.hundred_of(x).unwrap(), x_before);
    assert_eq!(s.hundred_of(y).unwrap(), y_before);
}

#[test]
fn panic_in_a_point_read_is_contained_unreplicated() {
    panic_parity(1);
}

#[test]
fn panic_in_a_point_read_is_contained_replicated() {
    panic_parity(2);
}
