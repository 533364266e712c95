//! [`serve_multi`]: one process hosting N shard servers on N ports.
//!
//! Listener `i` serves shard `i`. Each listener has an accept thread,
//! and each accepted connection gets a thread running the same session
//! loop as [`crate::server::serve`]. A request executes on its
//! connection thread: it locks the shard's store, runs the dispatcher
//! inside `catch_unwind`, and unlocks. Connections to one shard
//! serialize on that lock; shards run in parallel.
//!
//! Semantics match the single-store server: a per-shard [`DedupCache`]
//! for at-most-once tagged retries (shared across every connection to
//! that shard, so retries survive reconnects), the same garbage-streak
//! disconnect rule, and `Shutdown` closing the requesting connection.
//! The *server* outlives its clients and stops via
//! [`MultiServer::stop`]. A panicking request poisons only its shard:
//! it and every later request to that shard get a
//! [`HmError::ShardUnavailable`] response.

use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use hypermodel::error::{HmError, Result};
use hypermodel::store::HyperStore;
use sanity::sync::Mutex;

use crate::protocol::{Request, Response};
use crate::server::{dispatch, session, DedupCache, Execute, SessionStats};
use crate::transport::TcpTransport;

/// Pause after a failed `accept`, so a listener out of file
/// descriptors waits for one to free up instead of spinning.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// Aggregate statistics for a stopped [`MultiServer`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MultiStats {
    /// Client connections accepted, over all listeners.
    pub accepted: u64,
    /// Frames received, decodable or not.
    pub frames: u64,
    /// Responses sent.
    pub replies: u64,
    /// Requests executed across all shards (excluding shutdowns and
    /// dedup replays).
    pub requests: u64,
    /// Error responses sent (malformed frames, store errors, poisoned
    /// shard).
    pub errors: u64,
    /// Tagged requests answered from a dedup cache without re-executing.
    pub replayed: u64,
}

impl MultiStats {
    fn add(&mut self, s: SessionStats) {
        self.frames += s.frames;
        self.replies += s.replies;
        self.requests += s.requests;
        self.errors += s.errors;
        self.replayed += s.replayed;
    }

    fn merge(&mut self, o: MultiStats) {
        self.accepted += o.accepted;
        self.frames += o.frames;
        self.replies += o.replies;
        self.requests += o.requests;
        self.errors += o.errors;
        self.replayed += o.replayed;
    }
}

/// One shard's server-side state, shared by every connection to its
/// listener.
struct Shard<S> {
    index: usize,
    store: Mutex<S>,
    /// Set, under the store lock, by a request that panicked.
    poisoned: AtomicBool,
    cache: Mutex<DedupCache>,
}

impl<S> Shard<S> {
    fn poisoned_err(&self) -> Response {
        let err = HmError::ShardUnavailable {
            shard: self.index,
            msg: "poisoned by a panicking request".into(),
        };
        Response::Err(err.to_string())
    }
}

impl<S: HyperStore> Execute for &Shard<S> {
    fn execute(&mut self, req: Request) -> Response {
        // The guard lives outside the unwind boundary, so a panic sets
        // the flag before any other connection can take the lock.
        let mut store = self.store.lock();
        if self.poisoned.load(Ordering::Acquire) {
            return self.poisoned_err();
        }
        // The lock is the store's only owner, so it stays held across
        // the store call however long that blocks (a disk store's
        // fsync, a remote store's round trip); only requests to this
        // shard wait on it.
        // lint:allow(lock-across-blocking)
        match catch_unwind(AssertUnwindSafe(|| dispatch(&mut *store, req))) {
            Ok(resp) => resp,
            Err(_) => {
                self.poisoned.store(true, Ordering::Release);
                self.poisoned_err()
            }
        }
    }

    fn with_cache<R>(&mut self, f: impl FnOnce(&mut DedupCache) -> R) -> R {
        f(&mut self.cache.lock())
    }
}

/// A running multi-shard server. Stops (closing every connection and
/// joining every thread) on [`MultiServer::stop`] or drop.
#[derive(Debug)]
pub struct MultiServer {
    addrs: Vec<SocketAddr>,
    stop: Arc<AtomicBool>,
    acceptors: Vec<JoinHandle<Result<MultiStats>>>,
}

impl MultiServer {
    /// The bound address of each shard's listener, in shard order.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// The listener addresses as strings — the form the `shard` crate's
    /// `connect_sharded` takes. Shard `i` connects to element `i`.
    pub fn addr_strings(&self) -> Vec<String> {
        self.addrs.iter().map(|a| a.to_string()).collect()
    }

    /// Stop accepting, close every open connection, join every thread,
    /// and report what was served.
    pub fn stop(mut self) -> Result<MultiStats> {
        self.halt()
    }

    fn halt(&mut self) -> Result<MultiStats> {
        let mut total = MultiStats::default();
        if self.acceptors.is_empty() {
            return Ok(total);
        }
        self.stop.store(true, Ordering::SeqCst);
        // Each acceptor is blocked in `accept`: one connection wakes it
        // to see the flag.
        for addr in &self.addrs {
            let _ = TcpStream::connect(loopback(*addr));
        }
        let mut failure = None;
        for acceptor in self.acceptors.drain(..) {
            match acceptor.join() {
                Ok(Ok(stats)) => total.merge(stats),
                Ok(Err(e)) => failure = Some(e),
                Err(_) => {
                    failure = Some(HmError::Backend(
                        "serve_multi accept thread panicked".into(),
                    ))
                }
            }
        }
        failure.map_or(Ok(total), Err)
    }
}

impl Drop for MultiServer {
    fn drop(&mut self) {
        let _ = self.halt();
    }
}

/// `addr` with an unspecified IP (a wildcard bind) replaced by loopback.
fn loopback(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// Accept on `listener` until `stop` is set, one session thread per
/// connection. On stop, shut down every open connection (waking its
/// session thread) and join them all.
fn accept_loop<S: HyperStore + Send + 'static>(
    listener: TcpListener,
    shard: Arc<Shard<S>>,
    stop: Arc<AtomicBool>,
) -> Result<MultiStats> {
    let mut stats = MultiStats::default();
    let mut panicked = 0;
    let mut join = |session: JoinHandle<SessionStats>| match session.join() {
        Ok(s) => stats.add(s),
        Err(_) => panicked += 1,
    };
    let mut accepted = 0;
    let mut conns: Vec<(TcpStream, JoinHandle<SessionStats>)> = Vec::new();
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else {
            std::thread::sleep(ACCEPT_BACKOFF);
            continue;
        };
        accepted += 1;
        // Reap finished sessions so a long-lived server keeps no dead
        // handles.
        let (done, live): (Vec<_>, Vec<_>) = std::mem::take(&mut conns)
            .into_iter()
            .partition(|(_, session)| session.is_finished());
        conns = live;
        for (_, session) in done {
            join(session);
        }
        let Ok(peer) = stream.try_clone() else {
            continue;
        };
        let shard = Arc::clone(&shard);
        let spawned = std::thread::Builder::new()
            .name(format!("serve-multi-{}", shard.index))
            .spawn(move || serve_conn(stream, &shard));
        if let Ok(session) = spawned {
            conns.push((peer, session));
        }
    }
    for (peer, _) in &conns {
        let _ = peer.shutdown(Shutdown::Both);
    }
    for (_, session) in conns {
        join(session);
    }
    if panicked > 0 {
        return Err(HmError::Backend(format!(
            "{panicked} serve_multi session thread(s) panicked"
        )));
    }
    stats.accepted = accepted;
    Ok(stats)
}

/// One connection's session against its shard.
fn serve_conn<S: HyperStore>(stream: TcpStream, shard: &Shard<S>) -> SessionStats {
    let mut stats = SessionStats::default();
    if let Some(mut transport) = stream
        .try_clone()
        .ok()
        .and_then(|s| TcpTransport::new(s).ok())
    {
        // A transport error (hostile framing, a reset, `stop`'s
        // shutdown) ends this session like a disconnect; `stats`
        // counts up to the failure.
        let _ = session(&mut transport, shard, &mut stats);
    }
    // The acceptor holds a clone of this socket, so dropping ours would
    // not close it: hang up explicitly.
    let _ = stream.shutdown(Shutdown::Both);
    stats
}

/// Host every store in `shards` in one process, shard `i` on its own
/// freshly-bound localhost port (read them back with
/// [`MultiServer::addrs`]). One accept thread per shard, one session
/// thread per connection.
pub fn serve_multi<S>(shards: Vec<S>) -> Result<MultiServer>
where
    S: HyperStore + Send + 'static,
{
    let binds: Vec<String> = shards.iter().map(|_| "127.0.0.1:0".to_string()).collect();
    serve_multi_on(shards, &binds)
}

/// [`serve_multi`] with explicit bind addresses, one per shard.
pub fn serve_multi_on<S>(shards: Vec<S>, binds: &[String]) -> Result<MultiServer>
where
    S: HyperStore + Send + 'static,
{
    if shards.len() != binds.len() {
        return Err(HmError::InvalidArgument(format!(
            "serve_multi: {} shards but {} bind addresses",
            shards.len(),
            binds.len()
        )));
    }
    let listeners = binds
        .iter()
        .map(|addr| {
            let l = TcpListener::bind(addr)
                .map_err(|e| HmError::Backend(format!("bind {addr}: {e}")))?;
            let local = l
                .local_addr()
                .map_err(|e| HmError::Backend(format!("local_addr {addr}: {e}")))?;
            Ok((l, local))
        })
        .collect::<Result<Vec<_>>>()?;
    let mut srv = MultiServer {
        addrs: listeners.iter().map(|(_, a)| *a).collect(),
        stop: Arc::new(AtomicBool::new(false)),
        acceptors: Vec::with_capacity(shards.len()),
    };
    for (index, ((listener, _), store)) in listeners.into_iter().zip(shards).enumerate() {
        let shard = Arc::new(Shard {
            index,
            store: Mutex::new(store),
            poisoned: AtomicBool::new(false),
            cache: Mutex::new(DedupCache::default()),
        });
        let stop = Arc::clone(&srv.stop);
        // On failure `srv` drops, stopping the acceptors already running.
        let acceptor = std::thread::Builder::new()
            .name(format!("serve-multi-accept-{index}"))
            .spawn(move || accept_loop(listener, shard, stop))
            .map_err(|e| HmError::Backend(format!("spawn serve_multi acceptor: {e}")))?;
        srv.acceptors.push(acceptor);
    }
    Ok(srv)
}
