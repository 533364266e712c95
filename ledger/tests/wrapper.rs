//! The traced run's timing wrapper must not change what the program does:
//! it forwards every `HyperStore` method (default bodies included), and a
//! wrapped deployment gives the same answers with the same member calls
//! as a bare one.

use std::path::PathBuf;

use hypermodel::ops::OpId;
use hypermodel::{load_database, GenConfig, HyperStore, NodeValue, TestDatabase};
use ledger::deploy::{Deployment, Kind};
use ledger::mix::{execute, Answer, InputStream, Mix};
use ledger::run::Cycles;
use ledger::timed::{Layer, Timed};
use mem_backend::MemStore;

fn every_op() -> Mix {
    Box::leak(
        OpId::ALL
            .iter()
            .map(|&op| (op, 1.0))
            .collect::<Vec<_>>()
            .into_boxed_slice(),
    )
}

#[test]
fn nested_wrappers_see_identical_calls() {
    let db = TestDatabase::generate(&GenConfig::level(3));
    let (outer, inner) = (Layer::new(false), Layer::new(false));
    let mut store = Timed::new(Timed::new(MemStore::new(), inner.clone()), outer.clone());
    let oids = load_database(&mut store, &db).unwrap().oids;
    let mut stream = InputStream::new(&db, 3);
    for forward in [true, false] {
        for item in stream.next_pass(&db, every_op()) {
            execute(&mut store, &oids, item, forward).unwrap();
        }
    }
    let some = &oids[..4];
    store.children_batch(some).unwrap();
    store.parts_batch(some).unwrap();
    store.refs_to_batch(some).unwrap();
    let hs = store.hundred_batch(some).unwrap();
    store.million_batch(some).unwrap();
    store.set_hundred_batch(&[(oids[1], hs[1])]).unwrap();
    store.unique_id_of(oids[2]).unwrap();
    store.kind_of(oids[2]).unwrap();
    store.ten_of(oids[2]).unwrap();
    store.million_of(oids[2]).unwrap();
    store.prepare_commit(1).unwrap();
    store.commit_prepared(1).unwrap();
    store.abort_prepared(2).unwrap();
    let mut extra: NodeValue = db.nodes[db.form_indices()[0] as usize].value.clone();
    extra.attrs.unique_id = 1 << 40;
    store.insert_extra_node(&extra).unwrap();
    let _ = store.moved_hint(oids[0]);
    let snapshot = store.sync_export().unwrap();
    store.sync_import(&snapshot).unwrap();
    store.cold_restart().unwrap();
    store.commit().unwrap();
    let (o, i) = (outer.state().calls.clone(), inner.state().calls.clone());
    assert!(o.len() > 30, "exercised {} methods", o.len());
    assert_eq!(o, i, "a method did not forward to the wrapped store");
}

/// One full cycle (cold pass, warm pass) of `mix`; the answers in order.
fn one_cycle(d: &mut Deployment, mix: Mix) -> Vec<Answer> {
    let mut cycles = Cycles::new(&d.db, mix, InputStream::new(&d.db, 11));
    let mut answers = Vec::new();
    loop {
        let (item, cold) = cycles.next(&mut *d.store).unwrap();
        answers.push(execute(&mut *d.store, &d.oids, item, cold).unwrap());
        if cycles.at_boundary() {
            return answers;
        }
    }
}

#[test]
fn wrapped_deployments_match_bare_ones() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("ledger-wrapper");
    let trips = obs::registry().counter("client.round_trips");
    let requests = |d: &Deployment| {
        let balance = d.store.shard_balance().expect("a sharded store");
        balance.iter().map(|l| l.requests).collect::<Vec<_>>()
    };
    let mut runs = Vec::new();
    for traced in [false, true] {
        let mut d = Deployment::setup(Kind::Tcp, 3, 5, traced, &dir).unwrap();
        let (r0, t0) = (requests(&d), trips.get());
        let calls = |d: &Deployment| d.layers.member.as_ref().map(|l| l.state().total_calls());
        let calls0 = calls(&d);
        let answers = one_cycle(&mut d, every_op());
        let routed: Vec<u64> = requests(&d).iter().zip(&r0).map(|(a, b)| a - b).collect();
        let wrapped = calls(&d).zip(calls0).map(|(a, b)| a - b);
        runs.push((answers, routed, trips.get() - t0, wrapped));
        d.teardown().unwrap();
    }
    let (bare, traced) = (&runs[0], &runs[1]);
    assert_eq!(bare.0, traced.0, "answers differ under the wrapper");
    assert_eq!(bare.1, traced.1, "routed requests differ under the wrapper");
    assert_eq!(bare.2, traced.2, "round trips differ under the wrapper");
    // Client-side conceptual calls (a text edit) take several round trips
    // inside one wrapped call.
    assert!(traced.3.is_some_and(|calls| calls > 0 && calls <= bare.2));
}
