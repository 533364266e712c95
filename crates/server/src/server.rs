//! The serving loop: dispatch decoded requests against a local store.
//!
//! [`session`] is the one session loop: [`serve`] runs it against a
//! store it owns, [`crate::serve_multi`] on a thread per connection
//! against a shared shard.

use hypermodel::error::Result;
use hypermodel::store::HyperStore;

use crate::protocol::{Request, Response};
use crate::transport::Transport;

/// Per-session statistics, returned when the loop ends.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// Requests served (excluding the shutdown message).
    pub requests: u64,
    /// Requests that returned an error response.
    pub errors: u64,
    /// Tagged requests answered from the dedup cache without
    /// re-executing (retries whose first response was lost).
    pub replayed: u64,
    /// Frames received, decodable or not.
    pub frames: u64,
    /// Responses sent.
    pub replies: u64,
}

/// Consecutive malformed frames tolerated before the server drops the
/// connection. A client with a framing bug gets a few error responses
/// to diagnose with; a firehose of garbage gets disconnected.
pub const MAX_GARBAGE_STREAK: u32 = 8;

/// Remembers the responses of recently-executed [`Request::Tagged`]
/// requests so a retried mutation applies **at most once**: when the
/// client resends an id it already sent (because the response was lost
/// in flight), the server replays the stored response instead of
/// executing the request again.
///
/// Bounded FIFO — old entries are evicted. Retries arrive promptly
/// (bounded backoff), so a small window suffices.
#[derive(Debug)]
pub struct DedupCache {
    entries: std::collections::VecDeque<(u64, Vec<u8>)>,
    cap: usize,
}

impl Default for DedupCache {
    fn default() -> DedupCache {
        DedupCache::new(64)
    }
}

impl DedupCache {
    /// A cache remembering up to `cap` recent tagged responses.
    pub fn new(cap: usize) -> DedupCache {
        DedupCache {
            entries: std::collections::VecDeque::with_capacity(cap.max(1)),
            cap: cap.max(1),
        }
    }

    /// The stored encoded response for `id`, if still remembered.
    pub fn lookup(&self, id: u64) -> Option<&[u8]> {
        self.entries
            .iter()
            .find(|(k, _)| *k == id)
            .map(|(_, v)| v.as_slice())
    }

    pub(crate) fn remember(&mut self, id: u64, resp: Vec<u8>) {
        if self.entries.len() == self.cap {
            self.entries.pop_front();
        }
        self.entries.push_back((id, resp));
    }
}

pub(crate) fn dispatch<S: HyperStore + ?Sized>(store: &mut S, req: Request) -> Response {
    fn ok_or_err<T>(r: Result<T>, f: impl FnOnce(T) -> Response) -> Response {
        match r {
            Ok(v) => f(v),
            Err(e) => Response::Err(e.to_string()),
        }
    }
    // A request about a node this server migrated away is answered with
    // its new placement, not served from the retired ghost stand-in.
    if let Some(o) = crate::protocol::redirect_subject(&req) {
        if let Some((to, epoch)) = store.moved_hint(o) {
            return Response::Moved(to, epoch);
        }
    }
    match req {
        Request::LookupUnique(uid) => ok_or_err(store.lookup_unique(uid), Response::Oid),
        Request::UniqueIdOf(o) => ok_or_err(store.unique_id_of(o), Response::U64),
        Request::KindOf(o) => ok_or_err(store.kind_of(o), |k| Response::U16(k.0)),
        Request::TenOf(o) => ok_or_err(store.ten_of(o), Response::U32),
        Request::HundredOf(o) => ok_or_err(store.hundred_of(o), Response::U32),
        Request::MillionOf(o) => ok_or_err(store.million_of(o), Response::U32),
        Request::SetHundred(o, v) => ok_or_err(store.set_hundred(o, v), |_| Response::Unit),
        Request::RangeHundred(lo, hi) => ok_or_err(store.range_hundred(lo, hi), Response::Oids),
        Request::RangeMillion(lo, hi) => ok_or_err(store.range_million(lo, hi), Response::Oids),
        Request::Children(o) => ok_or_err(store.children(o), Response::Oids),
        Request::Parent(o) => ok_or_err(store.parent(o), Response::OptOid),
        Request::Parts(o) => ok_or_err(store.parts(o), Response::Oids),
        Request::PartOf(o) => ok_or_err(store.part_of(o), Response::Oids),
        Request::RefsTo(o) => ok_or_err(store.refs_to(o), Response::Edges),
        Request::RefsFrom(o) => ok_or_err(store.refs_from(o), Response::Edges),
        Request::SeqScanTen => ok_or_err(store.seq_scan_ten(), Response::U64),
        Request::TextOf(o) => ok_or_err(store.text_of(o), Response::Text),
        Request::SetText(o, s) => ok_or_err(store.set_text(o, &s), |_| Response::Unit),
        Request::FormOf(o) => ok_or_err(store.form_of(o), Response::Form),
        Request::SetForm(o, bm) => ok_or_err(store.set_form(o, &bm), |_| Response::Unit),
        Request::CreateNode(v) => ok_or_err(store.create_node(&v), Response::Oid),
        Request::CreateNodeClustered(v, near) => {
            ok_or_err(store.create_node_clustered(&v, near), Response::Oid)
        }
        Request::AddChild(a, b) => ok_or_err(store.add_child(a, b), |_| Response::Unit),
        Request::AddPart(a, b) => ok_or_err(store.add_part(a, b), |_| Response::Unit),
        Request::AddRef(a, b, f, t) => ok_or_err(store.add_ref(a, b, f, t), |_| Response::Unit),
        Request::InsertExtraNode(v) => ok_or_err(store.insert_extra_node(&v), Response::Oid),
        Request::Commit => ok_or_err(store.commit(), |_| Response::Unit),
        Request::ColdRestart => ok_or_err(store.cold_restart(), |_| Response::Unit),
        // Server-side conceptual operations: one round trip each.
        Request::Closure1N(o) => ok_or_err(store.closure_1n(o), Response::Oids),
        Request::Closure1NAttSum(o) => ok_or_err(store.closure_1n_att_sum(o), |(s, c)| {
            Response::SumCount(s, c as u64)
        }),
        Request::Closure1NAttSet(o) => {
            ok_or_err(store.closure_1n_att_set(o), |n| Response::U64(n as u64))
        }
        Request::Closure1NPred(o, lo, hi) => {
            ok_or_err(store.closure_1n_pred(o, lo, hi), Response::Oids)
        }
        Request::ClosureMN(o) => ok_or_err(store.closure_mn(o), Response::Oids),
        Request::ClosureMNAtt(o, d) => ok_or_err(store.closure_mnatt(o, d), Response::Oids),
        Request::ClosureMNAttLinkSum(o, d) => {
            ok_or_err(store.closure_mnatt_linksum(o, d), Response::Pairs)
        }
        Request::TextNodeEdit(o, from, to) => ok_or_err(store.text_node_edit(o, &from, &to), |n| {
            Response::U64(n as u64)
        }),
        Request::FormNodeEdit(o, x0, y0, x1, y1) => {
            ok_or_err(store.form_node_edit(o, x0, y0, x1, y1), |_| Response::Unit)
        }
        // Batched primitives: one round trip for a whole frontier level.
        Request::ChildrenBatch(oids) => ok_or_err(store.children_batch(&oids), Response::OidLists),
        Request::PartsBatch(oids) => ok_or_err(store.parts_batch(&oids), Response::OidLists),
        Request::RefsToBatch(oids) => ok_or_err(store.refs_to_batch(&oids), Response::EdgeLists),
        Request::HundredBatch(oids) => ok_or_err(store.hundred_batch(&oids), Response::U32s),
        Request::MillionBatch(oids) => ok_or_err(store.million_batch(&oids), Response::U32s),
        Request::SetHundredBatch(updates) => {
            ok_or_err(store.set_hundred_batch(&updates), |_| Response::Unit)
        }
        // Two-phase commit: the store is a participant, the caller is
        // the coordinator.
        Request::PrepareCommit(txid) => ok_or_err(store.prepare_commit(txid), |_| Response::Unit),
        Request::CommitPrepared(txid) => ok_or_err(store.commit_prepared(txid), |_| Response::Unit),
        Request::AbortPrepared(txid) => ok_or_err(store.abort_prepared(txid), |_| Response::Unit),
        // Anti-entropy: replica repair pulls a snapshot from a healthy
        // server and installs it on a lagging one.
        Request::SyncSubtree => ok_or_err(store.sync_export(), Response::Subtree),
        Request::InstallSubtree(snap) => ok_or_err(store.sync_import(&snap), |_| Response::Unit),
        // Online migration: export/install/activate/retire driven by a
        // remote migration coordinator.
        Request::ExportNodes(oids) => ok_or_err(store.export_nodes(&oids), |batch| {
            Response::Subtree(hypermodel::migrate::encode_batch(&batch))
        }),
        Request::InstallNodes(bytes) => {
            match hypermodel::migrate::decode_batch(&bytes)
                .and_then(|batch| store.install_nodes(&batch))
            {
                Ok(locals) => Response::Oids(locals),
                Err(e) => Response::Err(e.to_string()),
            }
        }
        Request::ActivateNodes(oids) => ok_or_err(store.activate_nodes(&oids), |_| Response::Unit),
        Request::RetireNodes(oids, to, epoch) => {
            ok_or_err(store.retire_nodes(&oids, to, epoch), |_| Response::Unit)
        }
        // Dedup is the serve loop's job; a direct dispatch just unwraps.
        // (decode rejects nested Tagged, so this recurses at most once.)
        Request::Tagged(_, inner) => dispatch(store, *inner),
        // The serve loop intercepts Shutdown before dispatch; reaching
        // here means it arrived somewhere it cannot be honoured (e.g.
        // inside a Tagged envelope) — refuse rather than panic.
        Request::Shutdown => Response::Err("shutdown must be a top-level request".into()),
        // A stats scrape is answered from the process-global metrics
        // registry; the store itself plays no part.
        Request::Stats => Response::Stats(obs::registry().snapshot().export_json()),
    }
}

/// Serve requests from `transport` against `store` until the client sends
/// [`Request::Shutdown`] or disconnects. Uses a fresh per-session
/// [`DedupCache`]; servers that accept reconnects from retrying clients
/// should use [`serve_with_cache`] so retry ids survive the reconnect.
pub fn serve<S: HyperStore + ?Sized>(
    store: &mut S,
    transport: &mut dyn Transport,
) -> Result<SessionStats> {
    let mut cache = DedupCache::default();
    serve_with_cache(store, transport, &mut cache)
}

/// [`serve`] with a caller-owned [`DedupCache`], so at-most-once
/// semantics for tagged requests hold across client reconnects (the
/// retry of a mutation whose response was lost may arrive on a *new*
/// connection).
pub fn serve_with_cache<S: HyperStore + ?Sized>(
    store: &mut S,
    transport: &mut dyn Transport,
    cache: &mut DedupCache,
) -> Result<SessionStats> {
    let mut stats = SessionStats::default();
    session(transport, Local { store, cache }, &mut stats)?;
    Ok(stats)
}

/// How a session runs the requests it decodes: the one thing a
/// single-store server and a [`crate::serve_multi`] shard session do
/// differently. Framing, the garbage-streak rule, `Shutdown`, dedup
/// replay, statistics and the `loop.*` metrics all belong to
/// [`session`].
pub(crate) trait Execute {
    /// Run `req` against the store (never `Shutdown`, never a replayed
    /// tagged request).
    fn execute(&mut self, req: Request) -> Response;
    /// Run `f` on the dedup cache of tagged responses.
    fn with_cache<R>(&mut self, f: impl FnOnce(&mut DedupCache) -> R) -> R;
}

/// A store and dedup cache owned by one session's caller.
struct Local<'a, S: ?Sized> {
    store: &'a mut S,
    cache: &'a mut DedupCache,
}

impl<S: HyperStore + ?Sized> Execute for Local<'_, S> {
    fn execute(&mut self, req: Request) -> Response {
        dispatch(self.store, req)
    }

    fn with_cache<R>(&mut self, f: impl FnOnce(&mut DedupCache) -> R) -> R {
        f(self.cache)
    }
}

/// The session loop: read a frame, decode it, answer it, until the
/// client sends [`Request::Shutdown`], disconnects, or sends
/// [`MAX_GARBAGE_STREAK`] undecodable frames in a row. `stats` is
/// updated as the session goes, so it stays accurate when a transport
/// error ends the session early.
///
/// Every frame bumps the `loop.frames` counter and is timed by a
/// `loop.frame` span from frame in hand to request handed to `exec`
/// (or answered without it); the store call and the reply write are
/// outside the span.
pub(crate) fn session(
    transport: &mut dyn Transport,
    mut exec: impl Execute,
    stats: &mut SessionStats,
) -> Result<()> {
    let frames = obs::enabled().then(|| obs::registry().counter("loop.frames"));
    let mut garbage_streak = 0u32;
    // One receive buffer and one encode scratch for the whole session:
    // the steady-state loop allocates only inside dispatch itself.
    let mut frame = Vec::new();
    let mut out = Vec::new();
    loop {
        if !transport.recv_into(&mut frame)? {
            return Ok(()); // clean disconnect
        }
        stats.frames += 1;
        if let Some(c) = &frames {
            c.incr();
        }
        let span = obs::trace::span("loop.frame");
        let req = match Request::decode(&frame) {
            Ok(r) => {
                garbage_streak = 0;
                r
            }
            Err(e) => {
                stats.errors += 1;
                garbage_streak += 1;
                if garbage_streak >= MAX_GARBAGE_STREAK {
                    // One bad client must not kill the serving thread,
                    // but it need not be humoured forever either.
                    eprintln!(
                        "server: dropping connection after {garbage_streak} \
                         consecutive malformed frames (last: {e})"
                    );
                    return Ok(());
                }
                out.clear();
                Response::Err(e.to_string()).encode_into(&mut out);
                drop(span);
                reply(transport, &out, stats)?;
                continue;
            }
        };
        if req == Request::Shutdown {
            out.clear();
            Response::Unit.encode_into(&mut out);
            drop(span);
            reply(transport, &out, stats)?;
            return Ok(());
        }
        let remember_as = match &req {
            Request::Tagged(id, _) => Some(*id),
            _ => None,
        };
        if let Some(id) = remember_as {
            let replayed = exec.with_cache(|cache| {
                let bytes = cache.lookup(id)?;
                out.clear();
                out.extend_from_slice(bytes);
                Some(())
            });
            if replayed.is_some() {
                stats.replayed += 1;
                drop(span);
                reply(transport, &out, stats)?;
                continue;
            }
        }
        drop(span);
        let resp = exec.execute(req);
        if matches!(resp, Response::Err(_)) {
            stats.errors += 1;
        }
        stats.requests += 1;
        out.clear();
        resp.encode_into(&mut out);
        if let Some(id) = remember_as {
            exec.with_cache(|cache| cache.remember(id, out.clone()));
        }
        reply(transport, &out, stats)?;
    }
}

fn reply(transport: &mut dyn Transport, payload: &[u8], stats: &mut SessionStats) -> Result<()> {
    transport.send(payload)?;
    stats.replies += 1;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ChannelTransport;
    use hypermodel::config::GenConfig;
    use hypermodel::generate::TestDatabase;
    use hypermodel::load::load_database;
    use hypermodel::model::Oid;
    use mem_backend::MemStore;
    use std::time::Duration;

    #[test]
    fn serve_dispatches_and_shuts_down() {
        let db = TestDatabase::generate(&GenConfig::tiny());
        let mut store = MemStore::new();
        let report = load_database(&mut store, &db).unwrap();
        let (mut client, mut server_end) = ChannelTransport::pair(Duration::ZERO);
        let handle = std::thread::spawn(move || serve(&mut store, &mut server_end).unwrap());

        client.send(&Request::LookupUnique(1).encode()).unwrap();
        let resp = Response::decode(&client.recv().unwrap().unwrap()).unwrap();
        assert_eq!(resp, Response::Oid(report.oids[0]));

        client.send(&Request::SeqScanTen.encode()).unwrap();
        let resp = Response::decode(&client.recv().unwrap().unwrap()).unwrap();
        assert_eq!(resp, Response::U64(31));

        // An error surfaces as Response::Err, not a dead session.
        client
            .send(&Request::HundredOf(Oid(999_999)).encode())
            .unwrap();
        let resp = Response::decode(&client.recv().unwrap().unwrap()).unwrap();
        assert!(matches!(resp, Response::Err(_)));

        // Garbage frame also keeps the session alive.
        client.send(&[250, 1, 2]).unwrap();
        let resp = Response::decode(&client.recv().unwrap().unwrap()).unwrap();
        assert!(matches!(resp, Response::Err(_)));

        client.send(&Request::Shutdown.encode()).unwrap();
        let resp = Response::decode(&client.recv().unwrap().unwrap()).unwrap();
        assert_eq!(resp, Response::Unit);
        let stats = handle.join().unwrap();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.errors, 2);
    }

    #[test]
    fn tagged_retry_applies_at_most_once() {
        let db = TestDatabase::generate(&GenConfig::tiny());
        let mut store = MemStore::new();
        let report = load_database(&mut store, &db).unwrap();
        let target = report.oids[0];
        let (mut client, mut server_end) = ChannelTransport::pair(Duration::ZERO);
        let handle = std::thread::spawn(move || {
            let stats = serve(&mut store, &mut server_end).unwrap();
            (store, stats)
        });

        // A tagged node creation, "retried" three times with the same id
        // as if every response had been lost.
        let req = Request::Tagged(
            77,
            Box::new(Request::InsertExtraNode(hypermodel::model::NodeValue {
                kind: hypermodel::model::NodeKind::TEXT,
                attrs: hypermodel::model::NodeAttrs {
                    unique_id: 1_000_001,
                    ten: 1,
                    hundred: 1,
                    thousand: 1,
                    million: 1,
                },
                content: hypermodel::model::Content::Text("retry me".into()),
            })),
        );
        let mut oids = Vec::new();
        for _ in 0..3 {
            client.send(&req.encode()).unwrap();
            match Response::decode(&client.recv().unwrap().unwrap()).unwrap() {
                Response::Oid(o) => oids.push(o),
                other => panic!("expected Oid, got {other:?}"),
            }
        }
        assert_eq!(oids[0], oids[1]);
        assert_eq!(oids[0], oids[2], "replays return the stored response");

        // A shutdown smuggled inside a Tagged envelope is refused, not
        // a panic in the dispatcher.
        client
            .send(&Request::Tagged(78, Box::new(Request::Shutdown)).encode())
            .unwrap();
        let resp = Response::decode(&client.recv().unwrap().unwrap()).unwrap();
        assert!(matches!(resp, Response::Err(_)));

        client.send(&Request::Shutdown.encode()).unwrap();
        client.recv().unwrap().unwrap();
        let (mut store, stats) = handle.join().unwrap();
        assert_eq!(stats.requests, 2, "one create + one refused shutdown");
        assert_eq!(stats.replayed, 2);
        // Exactly one node was inserted: its uid resolves, and the next
        // uid does not.
        assert_eq!(store.lookup_unique(1_000_001).unwrap(), oids[0]);
        assert_eq!(target, report.oids[0]); // silence unused warning paths
    }

    #[test]
    fn garbage_firehose_drops_the_connection() {
        let mut store = MemStore::new();
        let (mut client, mut server_end) = ChannelTransport::pair(Duration::ZERO);
        let handle = std::thread::spawn(move || serve(&mut store, &mut server_end).unwrap());
        // Fewer than the limit: each garbage frame gets an error reply.
        for _ in 0..super::MAX_GARBAGE_STREAK - 1 {
            client.send(&[255, 0, 1]).unwrap();
            let resp = Response::decode(&client.recv().unwrap().unwrap()).unwrap();
            assert!(matches!(resp, Response::Err(_)));
        }
        // One more consecutive malformed frame crosses the limit: the
        // server disconnects instead of replying.
        client.send(&[255, 0, 1]).unwrap();
        assert_eq!(client.recv().unwrap(), None, "server hung up");
        let stats = handle.join().unwrap();
        assert_eq!(stats.errors, u64::from(super::MAX_GARBAGE_STREAK));
        assert_eq!(stats.requests, 0);
    }

    #[test]
    fn client_disconnect_ends_serve_cleanly() {
        let mut store = MemStore::new();
        let (client, mut server_end) = ChannelTransport::pair(Duration::ZERO);
        let handle = std::thread::spawn(move || serve(&mut store, &mut server_end).unwrap());
        drop(client);
        let stats = handle.join().unwrap();
        assert_eq!(stats, SessionStats::default());
    }
}
