//! [`ShardedStore`]: one `HyperStore` over N shard backends.
//!
//! Every logical shard is a replica group of K members; an unreplicated
//! deployment is K = 1, a group of one, and runs the same code. All
//! operations go through one group layer: a point read asks one healthy
//! member of the owning group (`read_group`), a point write goes to
//! every healthy member (`write_group`), and range lookups, sequential
//! scans and closure levels go through one fan-out helper (`fan_out`)
//! that asks one member per involved group, concurrently, failing over
//! inside each group. Closure traversals run **level-batched frontier
//! exchange**: per BFS level the frontier is grouped by owning shard and
//! fetched with one batched request per shard, so cross-shard round
//! trips scale with traversal *depth*, not node count. The fetched
//! adjacency is then replayed as a local depth-first traversal,
//! reproducing the exact output order of the trait's default
//! implementations.
//!
//! Members are reached through [`exec::ShardExecutor`]. A call that
//! touches one member runs on the caller's thread unless jobs are still
//! pending on that member ([`exec::ShardExecutor::run_on`]); a call that
//! touches several spawns one job per member on their persistent
//! workers, at one bounded-channel round trip (~3 µs) each.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hypermodel::error::{HmError, Result};
use hypermodel::migrate::{NodeExport, MIGRATE_SLOT_BASE};
use hypermodel::model::{Content, NodeAttrs, NodeKind, NodeValue, Oid, RefEdge};
use hypermodel::store::{HyperStore, ShardLoad};
use hypermodel::Bitmap;

use exec::{ExecError, ShardExecutor};

use crate::coordinator::CommitLog;
use crate::router::{Placement, ReplicaSet, ShardRouter, GHOST_UID_BASE};

/// Per-shard scatter positions: `scatter[s][j]` is the index in the
/// original request slice answered by shard `s`'s `j`-th result.
type Scatter = Vec<Vec<usize>>;

/// Per-group work for the fan-out helper: `(logical shard, its work)`.
type Work<W> = Vec<(usize, W)>;

/// A member's outcome before flattening: the operation's own result, or
/// why the executor produced none.
type Joined<T> = std::result::Result<Result<T>, ExecError>;

/// How a dispatch to several members is joined.
#[derive(Debug, Clone, Copy)]
enum Join {
    /// Wait for every member.
    All,
    /// Wait for every member under one shared deadline.
    Within(Duration),
    /// Stop waiting once this many members succeeded; the rest keep
    /// running detached, in FIFO order on their workers.
    Quorum(usize),
}

/// Default deadline for the parallel 2PC prepare fan-out: generous
/// enough to never fire on a healthy local shard, tight enough that a
/// hung remote shard cannot stall the coordinator forever.
const DEFAULT_PREPARE_TIMEOUT: Duration = Duration::from_secs(10);

/// Checkpoint the commit log once it holds this many decision records.
const DEFAULT_CHECKPOINT_AFTER: usize = 64;

/// How fan-out reads (range lookups, sequential scans) behave when a
/// shard is unavailable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanPolicy {
    /// Fail atomically: any dead shard makes the whole scan return
    /// [`HmError::ShardUnavailable`]. The default.
    #[default]
    FailFast,
    /// Complete over the healthy shards and mark the result partial —
    /// check [`ShardedStore::last_scan_was_partial`] and
    /// [`ShardedStore::last_scan_skipped`] for which shards were left out.
    Partial,
}

/// How many replicas must acknowledge a write before it returns. Every
/// healthy replica is *sent* the write regardless — the policy only
/// decides how many the caller waits for; stragglers apply it in FIFO
/// order on their workers. In a group of one every policy waits for its
/// one member.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WriteAck {
    /// Return once the acting primary (the first healthy replica of the
    /// group) applied the write. Lowest latency; a replica that later
    /// turns out to have missed the write is flagged lagging and
    /// demoted before any read can observe its stale state. The default.
    #[default]
    Primary,
    /// Return once a majority (`⌊K/2⌋ + 1`) of the group applied the
    /// write. Fails fast if fewer than a majority are healthy.
    Quorum,
    /// Return only after every currently-healthy replica applied it.
    All,
}

/// A sharded `HyperStore` over `S` backends, optionally replicated.
///
/// Each *logical* shard is a group of `K` mirror backends occupying `K`
/// consecutive executor members (group-major, primary first); `K = 1`
/// unless built with [`ShardedStore::new_replicated`]. Every mirror of a
/// group receives the identical deterministic operation sequence, so
/// backend-local ids match across copies and the router stays
/// logical-only. Reads route to the least-loaded healthy member of the
/// owning group; writes fan out to every healthy member and wait per the
/// [`WriteAck`] policy; a member that fails is demoted and later resynced
/// wholesale from a healthy sibling ([`ShardedStore::repair_replicas`],
/// driven automatically at commit).
pub struct ShardedStore<S> {
    /// Owns the member backends; one persistent worker thread each.
    exec: ShardExecutor<S>,
    router: ShardRouter,
    name: &'static str,
    /// Replication factor (`router.replication_factor()`, cached).
    k: usize,
    /// Write acknowledgement policy for replicated groups.
    write_ack: WriteAck,
    /// `health[m]` is false once *member* `m` failed transiently (crash,
    /// timeout, lost connection, panic). A dead member is skipped as long
    /// as a healthy sibling remains; once a whole group is dead, point
    /// operations routed to it fail fast and fan-outs consult the
    /// [`ScanPolicy`].
    health: Vec<bool>,
    /// `lag[m]` is set (from the thread running the write) when a write
    /// failed transiently on member `m`, possibly while the caller was
    /// already acked by a sibling: the member's state may be
    /// behind an acknowledged write, so reads must not land there until
    /// repair resyncs it.
    lag: Vec<Arc<AtomicBool>>,
    scan_policy: ScanPolicy,
    last_scan_partial: bool,
    /// Logical shards skipped by the most recent fan-out read under
    /// [`ScanPolicy::Partial`].
    last_scan_skipped: Vec<usize>,
    /// Two-phase commit state; `None` = single-phase commit.
    commit_log: Option<CommitLog>,
    next_txid: u64,
    aborts: u64,
    /// Reads served by a non-primary member while the primary was down.
    failovers: u64,
    /// Members demoted after a transient failure or a lag flag.
    demotions: u64,
    /// Members resynced and re-admitted by anti-entropy repair.
    repairs: u64,
    /// Per-member backoff for [`ShardedStore::repair_replicas`]: skip
    /// this many passes before retrying a repair that just failed, so a
    /// member that is down for good does not cost a full snapshot
    /// export on every commit. Doubles per consecutive failure, capped.
    repair_defer: Vec<u32>,
    /// Consecutive failed repair attempts per member, driving the
    /// backoff above. Reset on success.
    repair_fails: Vec<u32>,
    /// Deadline for the parallel prepare fan-out; a miss is a vote to
    /// abort.
    prepare_timeout: Duration,
    /// Checkpoint the commit log once it holds this many records.
    checkpoint_after: usize,
    /// Highest txid each member acknowledged in phase two. The log may
    /// safely drop decisions at or below `min(acked)`: every member is
    /// past them, so none can ever be in doubt about them again.
    acked: Vec<u64>,
    /// Per *logical* shard: nodes migrated onto or off it by
    /// [`ShardedStore::migrate_subtree`].
    migrated: Vec<u64>,
    /// Subtree migrations completed (ownership flipped).
    migrations: u64,
    /// Closure executions per start node since the last
    /// [`ShardedStore::reset_touches`] — the traffic signal the
    /// rebalancer uses to pick a hot subtree.
    touches: HashMap<u64, u64>,
}

/// Flatten an executor join result into a store-level result.
fn flatten<T>(r: std::result::Result<Result<T>, ExecError>) -> Result<T> {
    match r {
        Ok(inner) => inner,
        Err(e) => Err(e.into_hm()),
    }
}

fn ghost_value(global: Oid) -> NodeValue {
    NodeValue {
        kind: NodeKind::INTERNAL,
        attrs: NodeAttrs {
            unique_id: GHOST_UID_BASE + global.0,
            ten: 1,
            hundred: 1,
            thousand: 1,
            million: 1,
        },
        content: Content::None,
    }
}

impl<S: HyperStore + Send + 'static> ShardedStore<S> {
    /// Shard across `shards` with the given placement policy. `name` is
    /// the backend name reported to the harness (e.g. `"sharded-mem"`).
    pub fn new(shards: Vec<S>, placement: Placement, name: &'static str) -> ShardedStore<S> {
        ShardedStore::new_replicated(shards, 1, placement, name)
    }

    /// Shard with `K`-way replication: `members.len()` must be a
    /// multiple of `k`; each consecutive run of `k` backends forms one
    /// logical shard's replica group (primary first). `k == 1` is the
    /// plain unreplicated deployment.
    pub fn new_replicated(
        members: Vec<S>,
        k: usize,
        placement: Placement,
        name: &'static str,
    ) -> ShardedStore<S> {
        assert!(k > 0, "replication factor must be at least 1");
        assert!(
            !members.is_empty() && members.len().is_multiple_of(k),
            "member count {} is not a positive multiple of k = {k}",
            members.len()
        );
        let m = members.len();
        let n = m / k;
        // Pre-register the 2PC and replication outcome counters so a
        // metrics scrape of a deployment that never aborted (or never
        // failed over) still exports them at zero instead of omitting
        // the keys.
        if obs::enabled() {
            let reg = obs::registry();
            reg.counter("shard.2pc.prepared");
            reg.counter("shard.2pc.committed");
            reg.counter("shard.2pc.aborted");
            reg.counter("shard.rebalance.migrations");
            reg.counter("shard.rebalance.moved_nodes");
            reg.counter("shard.rebalance.forward_hits");
            reg.counter("shard.rebalance.aborts");
            reg.gauge("shard.load.imbalance");
            reg.counter("shard.replica.failover_reads");
            reg.counter("shard.replica.demotions");
            reg.counter("shard.replica.repairs");
        }
        ShardedStore {
            exec: ShardExecutor::new(members),
            router: ShardRouter::new_replicated(n, k, placement),
            name,
            k,
            write_ack: WriteAck::default(),
            health: vec![true; m],
            lag: (0..m).map(|_| Arc::new(AtomicBool::new(false))).collect(),
            scan_policy: ScanPolicy::default(),
            last_scan_partial: false,
            last_scan_skipped: Vec::new(),
            commit_log: None,
            next_txid: 1,
            aborts: 0,
            failovers: 0,
            demotions: 0,
            repairs: 0,
            repair_defer: vec![0; m],
            repair_fails: vec![0; m],
            prepare_timeout: DEFAULT_PREPARE_TIMEOUT,
            checkpoint_after: DEFAULT_CHECKPOINT_AFTER,
            acked: vec![0; m],
            migrated: vec![0; n],
            migrations: 0,
            touches: HashMap::new(),
        }
    }

    /// Enable crash-safe cross-shard commit: [`HyperStore::commit`]
    /// becomes two-phase, with the decision record durably logged at
    /// `path` before any shard is told to commit. After a crash,
    /// [`crate::coordinator::recover_sharded`] resolves in-doubt shards
    /// against this log.
    pub fn with_commit_log(mut self, path: &Path) -> Result<ShardedStore<S>> {
        let log = CommitLog::open(path)?;
        self.next_txid = log.next_txid();
        self.commit_log = Some(log);
        Ok(self)
    }

    /// Number of logical shards.
    pub fn shard_count(&self) -> usize {
        self.router.shard_count()
    }

    /// Replication factor K (1 = unreplicated).
    pub fn replication_factor(&self) -> usize {
        self.k
    }

    /// Number of physical members (`shard_count() * replication_factor()`).
    pub fn member_count(&self) -> usize {
        self.health.len()
    }

    /// The physical replica group of logical shard `shard`.
    pub fn replica_set(&self, shard: usize) -> ReplicaSet {
        self.router.replica_set(shard)
    }

    /// Choose how many replicas must acknowledge a write.
    pub fn set_write_ack(&mut self, ack: WriteAck) {
        self.write_ack = ack;
    }

    /// The current write acknowledgement policy.
    pub fn write_ack(&self) -> WriteAck {
        self.write_ack
    }

    /// Per-member health: `false` once a member failed transiently.
    /// Unreplicated, member index == shard index.
    pub fn health(&self) -> &[bool] {
        &self.health
    }

    /// Reads served by a non-primary replica while the group's primary
    /// was down.
    pub fn failover_reads(&self) -> u64 {
        self.failovers
    }

    /// Members demoted after a transient failure or a lag flag.
    pub fn demotions(&self) -> u64 {
        self.demotions
    }

    /// Members resynced and re-admitted by anti-entropy repair.
    pub fn repairs(&self) -> u64 {
        self.repairs
    }

    /// Administratively mark a member unavailable (tests, drain).
    /// Unreplicated, the member index is the shard index.
    pub fn mark_shard_down(&mut self, member: usize) {
        self.health[member] = false;
    }

    /// Re-admit a member previously marked dead, e.g. after
    /// [`crate::coordinator::recover_sharded`] repaired its backend.
    /// Replicated, runs a full anti-entropy resync from a healthy sibling
    /// first ([`ShardedStore::repair_replicas`] does this for every dead
    /// member at once). A group of one has no sibling to resync from, and
    /// no sibling that could have acked a write it missed: its member is
    /// probed with a cheap scan and re-admitted. Refuses while the
    /// executor still flags the member poisoned by a panic (swap the
    /// backend with [`ShardedStore::replace_shard`] first).
    pub fn revive_shard(&mut self, member: usize) -> Result<()> {
        if self.exec.is_poisoned(member) {
            return Err(HmError::ShardUnavailable {
                shard: self.group_of(member),
                msg: "shard worker poisoned by a panic; replace the backend first".into(),
            });
        }
        if self.k > 1 {
            return self.repair_member(member);
        }
        flatten(self.exec.run_on(member, |sh: &mut S| sh.seq_scan_ten()))?;
        self.readmit(member);
        Ok(())
    }

    /// Swap in a replacement backend for member `member` (e.g. a store
    /// reopened by recovery), clearing the executor's poison flag. In a
    /// group of one the member is immediately re-admitted (there is no
    /// sibling to resync from); replicated, the fresh backend stays
    /// demoted until [`ShardedStore::repair_replicas`] (or the next
    /// commit) has resynced it from a healthy sibling — an empty
    /// replacement must never serve reads. Returns the previous backend.
    pub fn replace_shard(&mut self, member: usize, store: S) -> S {
        let old = self.exec.replace_shard(member, store);
        if self.k == 1 {
            self.readmit(member);
        } else {
            self.health[member] = false;
            self.lag[member].store(true, Ordering::Release);
            // A fresh backend deserves a prompt repair attempt.
            self.repair_defer[member] = 0;
            self.repair_fails[member] = 0;
        }
        old
    }

    /// Choose how fan-out reads treat dead shards.
    pub fn set_scan_policy(&mut self, policy: ScanPolicy) {
        self.scan_policy = policy;
    }

    /// The current fan-out degradation policy.
    pub fn scan_policy(&self) -> ScanPolicy {
        self.scan_policy
    }

    /// True when the most recent fan-out read skipped a dead shard
    /// under [`ScanPolicy::Partial`].
    pub fn last_scan_was_partial(&self) -> bool {
        self.last_scan_partial
    }

    /// Logical shard ids skipped by the most recent fan-out read under
    /// [`ScanPolicy::Partial`] — which parts of a partial result are
    /// missing, for attribution in degraded-mode reports.
    pub fn last_scan_skipped(&self) -> &[usize] {
        &self.last_scan_skipped
    }

    /// Cross-shard transactions aborted in phase one so far.
    pub fn commit_aborts(&self) -> u64 {
        self.aborts
    }

    /// Deadline for the parallel 2PC prepare fan-out. A shard that
    /// misses it counts as a vote to abort (its prepare keeps running
    /// on its worker; the abort is queued behind it in FIFO order).
    pub fn set_prepare_timeout(&mut self, timeout: Duration) {
        self.prepare_timeout = timeout;
    }

    /// Checkpoint the commit log once it holds `every` decision records
    /// (the log drops decisions every shard has acknowledged).
    pub fn set_checkpoint_interval(&mut self, every: usize) {
        self.checkpoint_after = every.max(1);
    }

    /// The txid the commit log has been truncated through, if 2PC is on.
    pub fn commit_checkpoint(&self) -> Option<u64> {
        self.commit_log.as_ref().map(|l| l.checkpointed_through())
    }

    fn unavailable(s: usize) -> HmError {
        HmError::ShardUnavailable {
            shard: s,
            msg: "shard marked unavailable".into(),
        }
    }

    /// [`HmError::ShardUnavailable`] naming logical shard `s` and
    /// carrying the text of `e`, the error a member of it failed with.
    fn unavailable_because(s: usize, e: HmError) -> HmError {
        let msg = match e {
            HmError::ShardUnavailable { msg, .. } => msg,
            e => e.to_string(),
        };
        HmError::ShardUnavailable { shard: s, msg }
    }

    /// Classify member `m`'s failure: a transient one demotes the member
    /// and comes back as [`HmError::ShardUnavailable`] naming its logical
    /// shard; a deterministic one is returned as it is.
    fn member_failed(&mut self, m: usize, e: HmError) -> HmError {
        if !e.is_transient() {
            return e;
        }
        self.demote(m);
        Self::unavailable_because(self.group_of(m), e)
    }

    /// The logical shard owning member `m`.
    fn group_of(&self, m: usize) -> usize {
        m / self.k
    }

    /// Whether logical shard `s` has at least one healthy member.
    fn group_healthy(&self, s: usize) -> bool {
        self.router.replica_set(s).members().any(|m| self.health[m])
    }

    /// The first logical shard without a healthy member, if any.
    fn dead_group(&self) -> Option<usize> {
        (0..self.router.shard_count()).find(|&s| !self.group_healthy(s))
    }

    /// Every member currently on the read and write paths.
    fn healthy_members(&self) -> Vec<usize> {
        (0..self.health.len()).filter(|&m| self.health[m]).collect()
    }

    /// Demote member `m`: no reads or writes land there until repair
    /// resyncs and re-admits it.
    fn demote(&mut self, m: usize) {
        if self.health[m] {
            self.health[m] = false;
            self.demotions += 1;
            obs::incr("shard.replica.demotions", 1);
        }
        // Whatever demoted it, assume the state is behind: repair does a
        // full resync anyway, and the flag keeps a racing read honest.
        self.lag[m].store(true, Ordering::Release);
    }

    /// Put member `m` back on the read and write paths.
    fn readmit(&mut self, m: usize) {
        self.lag[m].store(false, Ordering::Release);
        self.health[m] = true;
    }

    /// Demote every healthy member flagged lagging.
    fn demote_lagging(&mut self, members: impl Iterator<Item = usize>) {
        for m in members {
            if self.health[m] && self.lag[m].load(Ordering::Acquire) {
                self.demote(m);
            }
        }
    }

    /// `f`, refusing to run once member `m` is flagged lagging. The check
    /// runs in the job, under the member lock, so it is ordered after
    /// every write sent to `m` before it.
    fn unless_lagging<T, F>(&self, m: usize, f: F) -> impl FnOnce(&mut S) -> Result<T> + Send
    where
        F: FnOnce(&mut S) -> Result<T> + Send,
    {
        let lag = Arc::clone(&self.lag[m]);
        move |sh| {
            if lag.load(Ordering::Acquire) {
                // A write failed here after this call was routed: the
                // state may predate an acked write.
                return Err(HmError::Timeout(format!(
                    "replica member {m} lagging behind an acked write"
                )));
            }
            f(sh)
        }
    }

    /// Write `f`, flagging member `m` lagging when it fails transiently.
    /// The flag is set from the thread running the write, so a read
    /// queued behind it fails over even when the caller was already
    /// acked by a sibling and has moved on.
    fn flag_lag<T, F>(&self, m: usize, f: F) -> impl FnOnce(&mut S) -> Result<T> + Send
    where
        F: FnOnce(&mut S) -> Result<T> + Send,
    {
        let lag = Arc::clone(&self.lag[m]);
        move |sh| {
            let r = f(sh);
            if matches!(&r, Err(e) if e.is_transient()) {
                lag.store(true, Ordering::Release);
            }
            r
        }
    }

    /// Run each `(member, job)`: a lone job through
    /// [`ShardExecutor::run_on`] (on the caller's thread unless jobs are
    /// pending on its member), several as one executor job each, joined
    /// per `join`. Results come in `jobs` order (only those waited for
    /// under [`Join::Quorum`]).
    fn dispatch<T, F>(&self, mut jobs: Vec<(usize, F)>, join: Join) -> Vec<(usize, Joined<T>)>
    where
        T: Send + 'static,
        F: FnOnce(&mut S) -> Result<T> + Send + 'static,
    {
        if jobs.len() == 1 {
            let (m, job) = jobs.remove(0);
            return vec![(m, self.exec.run_on(m, job))];
        }
        let mut batch = self.exec.batch();
        for (m, job) in jobs {
            batch.spawn(m, job);
        }
        match join {
            Join::All => batch.join(),
            Join::Within(deadline) => batch.join_within(deadline),
            Join::Quorum(need) => batch.join_quorum(need, |r: &Result<T>| r.is_ok()),
        }
    }

    /// Pick the member of group `s` to serve the next read: the
    /// least-loaded healthy member by executor queue depth, breaking
    /// ties on the `busy_us` EWMA. Members flagged lagging are demoted
    /// on sight. Counts a failover when the pick happens while the
    /// group's designated primary is down.
    fn read_member(&mut self, s: usize) -> Result<usize> {
        let set = self.router.replica_set(s);
        self.demote_lagging(set.members());
        let pick = set
            .members()
            .filter(|&m| self.health[m])
            .min_by_key(|&m| (self.exec.queue_depth(m), self.exec.busy_ewma_us(m), m));
        match pick {
            None => Err(Self::unavailable(s)),
            Some(m) => {
                if !self.health[set.primary] {
                    self.failovers += 1;
                    obs::incr("shard.replica.failover_reads", 1);
                }
                Ok(m)
            }
        }
    }

    /// Run a read against one healthy member of group `s`, failing over
    /// (and demoting) on transient errors until the group is exhausted,
    /// which fails with the last member's error, naming `s`. The read is
    /// ordered after every write already sent to the member — it runs
    /// on the caller's thread only when nothing is pending there, and
    /// checks the lag flag under the member lock — so a read that
    /// follows an acked write can never observe the pre-write state.
    /// The point-read path: nothing is boxed or allocated.
    fn read_group<T, F>(&mut self, s: usize, f: F) -> Result<T>
    where
        T: Send + 'static,
        F: FnOnce(&mut S) -> Result<T> + Clone + Send + 'static,
    {
        let mut last = None;
        loop {
            let m = match self.read_member(s) {
                Ok(m) => m,
                Err(e) => return Err(last.map_or(e, |l| Self::unavailable_because(s, l))),
            };
            match flatten(self.exec.run_on(m, self.unless_lagging(m, f.clone()))) {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() => {
                    self.demote(m);
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Send a write to every healthy member of group `s` and wait per
    /// the [`WriteAck`] policy. Members the caller does not wait for keep
    /// applying the write in FIFO order; one that fails transiently
    /// flags itself lagging so no subsequent read serves its stale
    /// state. Deterministic errors (wrong kind, unknown node) occur
    /// identically on every mirror and are returned without demoting
    /// anyone.
    fn write_group<T, F>(&mut self, s: usize, f: F) -> Result<T>
    where
        T: Send + 'static,
        F: FnOnce(&mut S) -> Result<T> + Clone + Send + 'static,
    {
        let set = self.router.replica_set(s);
        self.demote_lagging(set.members());
        let healthy: Vec<usize> = set.members().filter(|&m| self.health[m]).collect();
        if healthy.is_empty() {
            return Err(Self::unavailable(s));
        }
        let need = match self.write_ack {
            WriteAck::Primary => 1,
            WriteAck::Quorum => {
                let q = set.len / 2 + 1;
                if healthy.len() < q {
                    return Err(HmError::ShardUnavailable {
                        shard: s,
                        msg: format!(
                            "quorum write needs {q} of {} replicas, only {} healthy",
                            set.len,
                            healthy.len()
                        ),
                    });
                }
                q
            }
            WriteAck::All => healthy.len(),
        };
        let jobs = healthy
            .iter()
            .map(|&m| (m, self.flag_lag(m, f.clone())))
            .collect();
        let mut acks = 0usize;
        let mut value: Option<T> = None;
        let mut first_err: Option<HmError> = None;
        for (m, r) in self.dispatch(jobs, Join::Quorum(need)) {
            match flatten(r) {
                Ok(v) => {
                    acks += 1;
                    value.get_or_insert(v);
                }
                Err(e) => {
                    let e = self.member_failed(m, e);
                    first_err.get_or_insert(e);
                }
            }
        }
        match value {
            Some(v) if acks >= need => Ok(v),
            _ => Err(first_err.unwrap_or_else(|| Self::unavailable(s))),
        }
    }

    /// The fan-out helper: run `f(backend, w)` for every `(group, w)` in
    /// `work` on one healthy member of that group — concurrently across
    /// groups, failing over inside a group (demoting the member) on
    /// transient errors. Yields one outcome per group, in `work` order:
    /// its value, or the error it ended on — once a group is exhausted,
    /// `ShardUnavailable` naming it with its last member's error.
    fn fan_out<W, T, F>(&mut self, work: Work<W>, f: F) -> Vec<(usize, Result<T>)>
    where
        W: Clone + Send + 'static,
        T: Send + 'static,
        F: Fn(&mut S, W) -> Result<T> + Clone + Send + 'static,
    {
        let mut out: Vec<(usize, Option<Result<T>>)> =
            work.iter().map(|&(s, _)| (s, None)).collect();
        // (position in `out`, work, the last member error in its group)
        let mut todo: Vec<(usize, W, Option<HmError>)> = work
            .into_iter()
            .enumerate()
            .map(|(i, (_, w))| (i, w, None))
            .collect();
        while !todo.is_empty() {
            // Pick members before dispatching: the pick needs `&mut self`
            // (demotions, failover counters).
            let mut picked = Vec::with_capacity(todo.len());
            for (i, w, last) in todo {
                let s = out[i].0;
                match self.read_member(s) {
                    Ok(m) => picked.push((i, m, w)),
                    Err(e) => {
                        out[i].1 = Some(Err(last.map_or(e, |l| Self::unavailable_because(s, l))))
                    }
                }
            }
            let jobs = picked
                .iter()
                .map(|(_, m, w)| {
                    let (f, w) = (f.clone(), w.clone());
                    (*m, self.unless_lagging(*m, move |sh: &mut S| f(sh, w)))
                })
                .collect();
            let results = self.dispatch(jobs, Join::All);
            todo = Vec::new();
            for ((i, m, w), (_, r)) in picked.into_iter().zip(results) {
                match flatten(r) {
                    Err(e) if e.is_transient() => {
                        self.demote(m);
                        todo.push((i, w, Some(e)));
                    }
                    r => out[i].1 = Some(r),
                }
            }
        }
        // Every group ends with an outcome: the loop runs until none is
        // left to retry.
        out.into_iter()
            .map(|(s, r)| (s, r.unwrap_or_else(|| Err(Self::unavailable(s)))))
            .collect()
    }

    /// Resync every demoted, unpoisoned member from a healthy sibling
    /// and re-admit it. Best-effort: a member whose repair fails stays
    /// demoted and the next repair pass tries again. A member without a
    /// healthy sibling — always so in a group of one — is left for
    /// [`crate::coordinator::recover_sharded`] and
    /// [`ShardedStore::revive_shard`] or
    /// [`ShardedStore::replace_shard`]. Called automatically at the
    /// start of every commit.
    pub fn repair_replicas(&mut self) {
        for m in 0..self.health.len() {
            if self.health[m] || self.exec.is_poisoned(m) {
                continue;
            }
            if self.repair_defer[m] > 0 {
                self.repair_defer[m] -= 1;
                continue;
            }
            match self.repair_member(m) {
                Ok(()) => {
                    self.repair_defer[m] = 0;
                    self.repair_fails[m] = 0;
                }
                // Exponential backoff: skip 1, 2, 4, ... 64 passes.
                Err(_) => {
                    self.repair_defer[m] = 1u32 << self.repair_fails[m].min(6);
                    self.repair_fails[m] = self.repair_fails[m].saturating_add(1);
                }
            }
        }
    }

    /// Anti-entropy resync of member `m` from a healthy sibling: export
    /// the sibling's full state behind every write pending there (so each
    /// in-flight write is included), install it on `m`, probe, and
    /// re-admit.
    fn repair_member(&mut self, m: usize) -> Result<()> {
        let s = self.group_of(m);
        if self.exec.is_poisoned(m) {
            return Err(HmError::ShardUnavailable {
                shard: s,
                msg: format!("member {m} poisoned by a panic; replace the backend first"),
            });
        }
        let src = self
            .router
            .replica_set(s)
            .members()
            .find(|&o| o != m && self.health[o])
            .ok_or_else(|| Self::unavailable(s))?;
        let snapshot = flatten(self.exec.run_on(src, |sh: &mut S| sh.sync_export()))
            .map_err(|e| self.member_failed(src, e))?;
        flatten(self.exec.run_on(m, move |sh: &mut S| {
            sh.sync_import(&snapshot)?;
            sh.seq_scan_ten().map(|_| ()) // probe before re-admission
        }))?;
        self.readmit(m);
        self.acked[m] = self.acked[src];
        self.repairs += 1;
        obs::incr("shard.replica.repairs", 1);
        Ok(())
    }

    /// Route a read at `oid` to one member of the owning group.
    fn read_at<T>(
        &mut self,
        oid: Oid,
        f: impl FnOnce(&mut S, Oid) -> Result<T> + Clone + Send + 'static,
    ) -> Result<(usize, T)>
    where
        T: Send + 'static,
    {
        let (s, l) = self.route(oid)?;
        let v = self.read_group(s, move |sh: &mut S| f(sh, l))?;
        Ok((s, v))
    }

    /// Route a write at `oid` to every healthy member of the owning group.
    fn write_at<T>(
        &mut self,
        oid: Oid,
        f: impl FnOnce(&mut S, Oid) -> Result<T> + Clone + Send + 'static,
    ) -> Result<(usize, T)>
    where
        T: Send + 'static,
    {
        let (s, l) = self.route(oid)?;
        let v = self.write_group(s, move |sh: &mut S| f(sh, l))?;
        Ok((s, v))
    }

    /// Run `f` against shard `shard`'s backend directly — for
    /// instrumentation (round-trip counters, fault plans) and recovery
    /// probes. Mutating the *data* through this bypasses the router and
    /// breaks the deployment.
    pub fn with_shard<R>(&self, shard: usize, f: impl FnOnce(&mut S) -> R) -> R {
        self.exec.with_shard(shard, f)
    }

    /// The shard owning `global`, if the id exists.
    pub fn owner_of(&self, global: Oid) -> Option<usize> {
        self.router.owner_of(global)
    }

    /// Sequential-scan count per shard (no merging): the per-shard node
    /// visibility the union/disjointness properties are stated over.
    pub fn per_shard_scan(&mut self) -> Result<Vec<u64>> {
        let n = self.router.shard_count();
        for s in 0..n {
            self.router.requests[s] += 1;
        }
        let work = (0..n).map(|s| (s, ())).collect();
        let counts = self.batched_checked(work, |sh: &mut S, ()| sh.seq_scan_ten())?;
        Ok(counts.into_iter().map(|(_, c)| c).collect())
    }

    fn route(&mut self, oid: Oid) -> Result<(usize, Oid)> {
        let (s, l) = self.router.to_local(oid)?;
        if !self.group_healthy(s) {
            return Err(Self::unavailable(s));
        }
        self.router.requests[s] += 1;
        Ok((s, l))
    }

    /// Group globals by owning shard; returns per-shard locals plus the
    /// positions each answer scatters back to. Counts one request per
    /// shard with work — the unit the skew statistics measure.
    fn group_by_shard(&mut self, globals: &[Oid]) -> Result<(Work<Vec<Oid>>, Scatter)> {
        let n = self.router.shard_count();
        let mut locals: Vec<Vec<Oid>> = vec![Vec::new(); n];
        let mut pos: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, &g) in globals.iter().enumerate() {
            let (s, l) = self.router.to_local(g)?;
            locals[s].push(l);
            pos[s].push(i);
        }
        let mut work = Vec::with_capacity(n);
        for (s, w) in locals.into_iter().enumerate() {
            if w.is_empty() {
                continue;
            }
            if !self.group_healthy(s) {
                // Batched primitives feed closures, whose results are
                // meaningless when incomplete: always fail fast.
                return Err(Self::unavailable(s));
            }
            self.router.requests[s] += 1;
            work.push((s, w));
        }
        Ok((work, pos))
    }

    /// The fan-out helper for batched primitives: one `(shard, value)`
    /// per shard with work, or the first shard's failure.
    fn batched_checked<W, T, F>(&mut self, work: Work<W>, f: F) -> Result<Vec<(usize, T)>>
    where
        W: Clone + Send + 'static,
        T: Send + 'static,
        F: Fn(&mut S, W) -> Result<T> + Clone + Send + 'static,
    {
        self.fan_out(work, f)
            .into_iter()
            .map(|(s, r)| r.map(|v| (s, v)))
            .collect()
    }

    /// Create (once) a ghost stand-in for `global` on `shard`, so the
    /// shard can hold edges whose other end lives elsewhere.
    fn ensure_ghost(&mut self, global: Oid, shard: usize) -> Result<Oid> {
        if let Some(l) = self.router.ghost_of(global, shard) {
            return Ok(l);
        }
        self.router.to_local(global)?; // the real node must exist
        if !self.group_healthy(shard) {
            return Err(Self::unavailable(shard));
        }
        self.router.requests[shard] += 1;
        let value = ghost_value(global);
        let local = self.write_group(shard, move |sh: &mut S| sh.insert_extra_node(&value))?;
        self.router.register_ghost(global, shard, local);
        Ok(local)
    }

    /// Add a cross-shard edge by issuing it on both sides against ghosts,
    /// so each side's adjacency lists read correctly after translation.
    fn two_sided_edge(
        &mut self,
        a: Oid,
        b: Oid,
        apply: impl FnOnce(&mut S, Oid, Oid) -> Result<()> + Clone + Send + 'static,
    ) -> Result<()> {
        let (sa, la) = self.router.to_local(a)?;
        let (sb, lb) = self.router.to_local(b)?;
        if !self.group_healthy(sa) {
            return Err(Self::unavailable(sa));
        }
        if !self.group_healthy(sb) {
            return Err(Self::unavailable(sb));
        }
        if sa == sb {
            self.router.requests[sa] += 1;
            return self.write_group(sa, move |sh: &mut S| apply(sh, la, lb));
        }
        let ghost_b = self.ensure_ghost(b, sa)?;
        self.router.requests[sa] += 1;
        let side_a = apply.clone();
        self.write_group(sa, move |sh: &mut S| side_a(sh, la, ghost_b))?;
        let ghost_a = self.ensure_ghost(a, sb)?;
        self.router.requests[sb] += 1;
        self.write_group(sb, move |sh: &mut S| apply(sh, ghost_a, lb))
    }

    // ---- online subtree migration (shard rebalancing) ------------------

    /// The router's placement-map epoch: bumped once per migrated node,
    /// never reset. Remote clients compare epochs carried in `Moved`
    /// responses against this to discard stale placement hints.
    pub fn router_epoch(&self) -> u64 {
        self.router.epoch()
    }

    /// Live forwarding-table entries accumulated by migrations.
    pub fn forward_len(&self) -> usize {
        self.router.forward_len()
    }

    /// Path-compress the placement directory and drop the forwarding
    /// chains. Only call at a quiesce point: no request in flight may
    /// still hold a pre-compaction placement. (Trivially satisfied by
    /// this store's access model — every operation takes `&mut self` —
    /// but a server fronting multiple clients must drain them first.)
    pub fn compact_forwards(&mut self) -> usize {
        self.router.compact_forwards()
    }

    /// Subtree migrations completed (ownership flipped) so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Closure executions per start node since the last
    /// [`ShardedStore::reset_touches`], hottest first — the traffic
    /// signal the rebalancer uses to pick which subtree to move.
    pub fn touch_counts(&self) -> Vec<(Oid, u64)> {
        let mut v: Vec<(Oid, u64)> = self.touches.iter().map(|(&g, &c)| (Oid(g), c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
        v
    }

    /// Forget the touch counters (start a fresh observation window).
    pub fn reset_touches(&mut self) {
        self.touches.clear();
    }

    fn touch(&mut self, start: Oid) {
        *self.touches.entry(start.0).or_insert(0) += 1;
    }

    /// Map one source-shard-local endpoint of a migrating edge into the
    /// destination's id space: another node of the same batch becomes a
    /// slot reference, a node already living on the destination its
    /// real local there, anything else a ghost stand-in (created on
    /// demand).
    fn migrate_endpoint(
        &mut self,
        src: usize,
        l: Oid,
        slot_of: &HashMap<u64, usize>,
        dst: usize,
    ) -> Result<Oid> {
        let g = self.router.to_global(src, l)?;
        if let Some(&i) = slot_of.get(&g.0) {
            return Ok(Oid(MIGRATE_SLOT_BASE + i as u64));
        }
        let (os, ol) = self.router.to_local(g)?;
        if os == dst {
            return Ok(ol);
        }
        self.ensure_ghost(g, dst)
    }

    fn migrate_oids(
        &mut self,
        src: usize,
        v: Vec<Oid>,
        slot_of: &HashMap<u64, usize>,
        dst: usize,
    ) -> Result<Vec<Oid>> {
        v.into_iter()
            .map(|l| self.migrate_endpoint(src, l, slot_of, dst))
            .collect()
    }

    fn migrate_edges(
        &mut self,
        src: usize,
        v: Vec<RefEdge>,
        slot_of: &HashMap<u64, usize>,
        dst: usize,
    ) -> Result<Vec<RefEdge>> {
        v.into_iter()
            .map(|e| {
                Ok(RefEdge {
                    target: self.migrate_endpoint(src, e.target, slot_of, dst)?,
                    ..e
                })
            })
            .collect()
    }

    /// Best-effort undo of a failed activation: retire the orphaned
    /// destination records back toward their (still-owning) sources, so
    /// a partially-activated batch cannot double-report in scans.
    /// Errors are swallowed — the destination may be the very shard
    /// that just died, and its inert records are invisible anyway.
    fn abort_install(&mut self, moved: &[Oid], locals: &[Oid], dst: usize) {
        let epoch = self.router.epoch();
        let mut back: HashMap<usize, Vec<Oid>> = HashMap::new();
        for (&g, &l) in moved.iter().zip(locals) {
            if let Ok((s, _)) = self.router.to_local(g) {
                back.entry(s).or_default().push(l);
            }
        }
        for (src, ls) in back {
            let _ = self.write_group(dst, move |sh: &mut S| {
                sh.retire_nodes(&ls, src as u16, epoch)
            });
        }
    }

    /// Migrate the 1-N subtree rooted at `root` onto shard `dst`,
    /// online: reads and writes against the old placement stay correct
    /// throughout. The batch is installed **inert** on the destination
    /// group (invisible to scans and index lookups), activated in one
    /// step — the commit point — and only then does the router flip
    /// ownership (one forwarding-table entry and epoch bump per node)
    /// and retire the source records into ghost stand-ins.
    ///
    /// **Presumed old**: a failure or crash before activation aborts
    /// with ownership untouched — there is no durable mid-flight
    /// intent, so recovery has nothing to do and the subtree stays
    /// readable at its old placement (the migration analogue of 2PC's
    /// presumed abort). A failure *after* activation is reported, but
    /// the migration itself has committed: the failed source member is
    /// marked unhealthy and finishes retiring via repair or recovery.
    ///
    /// Returns the number of nodes moved (0 when the subtree already
    /// lives wholly on `dst`).
    pub fn migrate_subtree(&mut self, root: Oid, dst: usize) -> Result<usize> {
        if dst >= self.router.shard_count() {
            return Err(HmError::InvalidArgument(format!(
                "destination shard {dst} out of range (have {})",
                self.router.shard_count()
            )));
        }
        if !self.group_healthy(dst) {
            return Err(Self::unavailable(dst));
        }
        // The full 1-N closure, not counted as a touch (the rebalancer's
        // own bookkeeping must not inflate its traffic signal).
        let adj = self.collect_oid_adjacency(root, false)?;
        let closure = Self::replay_preorder(root, &adj);
        let mut moved = Vec::new();
        for &g in &closure {
            if self.router.to_local(g)?.0 != dst {
                moved.push(g);
            }
        }
        if moved.is_empty() {
            return Ok(0);
        }
        let slot_of: HashMap<u64, usize> =
            moved.iter().enumerate().map(|(i, &g)| (g.0, i)).collect();

        // Export every moved node from its current owner: one batched
        // request per source shard, through the owning group's FIFO so
        // it is ordered after every write already fanned out there.
        let mut by_src: HashMap<usize, Vec<(usize, Oid)>> = HashMap::new();
        for (i, &g) in moved.iter().enumerate() {
            let (s, l) = self.router.to_local(g)?;
            by_src.entry(s).or_default().push((i, l));
        }
        let mut exports: Vec<Option<(usize, NodeExport)>> =
            (0..moved.len()).map(|_| None).collect();
        for (&src, items) in &by_src {
            let locals: Vec<Oid> = items.iter().map(|&(_, l)| l).collect();
            self.router.requests[src] += 1;
            let batch = self.read_group(src, move |sh: &mut S| sh.export_nodes(&locals))?;
            for (&(i, _), n) in items.iter().zip(batch) {
                exports[i] = Some((src, n));
            }
        }

        // Rewrite every edge endpoint into the destination's id space.
        // Remember which stand-ins already existed: ghosts minted below
        // belong to this migration and must be forgotten on abort.
        let ghosts_before: std::collections::HashSet<u64> =
            self.router.ghost_globals(dst).into_iter().collect();
        let mut batch: Vec<NodeExport> = Vec::with_capacity(moved.len());
        for (i, e) in exports.into_iter().enumerate() {
            let Some((src, n)) = e else {
                return Err(HmError::Backend(
                    "migration export batch is missing a node".into(),
                ));
            };
            let parent = match n.parent {
                Some(p) => Some(self.migrate_endpoint(src, p, &slot_of, dst)?),
                None => None,
            };
            batch.push(NodeExport {
                value: n.value,
                in_structure: n.in_structure,
                parent,
                children: self.migrate_oids(src, n.children, &slot_of, dst)?,
                parts: self.migrate_oids(src, n.parts, &slot_of, dst)?,
                part_of: self.migrate_oids(src, n.part_of, &slot_of, dst)?,
                refs_to: self.migrate_edges(src, n.refs_to, &slot_of, dst)?,
                refs_from: self.migrate_edges(src, n.refs_from, &slot_of, dst)?,
                reuse: self.router.ghost_of(moved[i], dst),
            });
        }
        let structural: Vec<bool> = batch.iter().map(|n| n.in_structure).collect();

        // Inert install: records exist on every destination mirror (the
        // install is deterministic, so replicas assign identical local
        // ids) but stay invisible to scans and index lookups.
        self.router.requests[dst] += 1;
        let batch = Arc::new(batch);
        let locals = self.write_group(dst, move |sh: &mut S| sh.install_nodes(&batch))?;

        // Activate: the commit point. Failure here aborts presumed-old.
        let acts = locals.clone();
        let activated = self.write_group(dst, move |sh: &mut S| sh.activate_nodes(&acts));
        if let Err(e) = activated {
            self.abort_install(&moved, &locals, dst);
            // Ghosts minted for this batch are referenced only by the
            // just-retired install — and if the destination died they
            // never existed durably. Forget them so a retry recreates
            // them instead of wiring edges to phantom locals.
            for g in self.router.ghost_globals(dst) {
                if !ghosts_before.contains(&g) {
                    self.router.unregister_ghost(Oid(g), dst);
                }
            }
            obs::incr("shard.rebalance.aborts", 1);
            return Err(e);
        }

        // Ownership flip: stale placements now redirect through the
        // forwarding table; the promoted destination records stop being
        // ghosts and the superseded source records become them.
        let mut epoch = self.router.epoch();
        for (i, (&g, &l)) in moved.iter().zip(&locals).enumerate() {
            let (src, _) = self.router.to_local(g)?;
            epoch = self.router.move_node(g, dst, l)?;
            if structural[i] {
                self.router.nodes[src] -= 1;
                self.router.nodes[dst] += 1;
            }
            self.migrated[src] += 1;
            self.migrated[dst] += 1;
        }
        self.migrations += 1;
        obs::incr("shard.rebalance.migrations", 1);
        obs::incr("shard.rebalance.moved_nodes", moved.len() as u64);

        // Retire the source records: deindexed, out of the scan extent,
        // tombstoned with the new placement so a stale remote client
        // probing the old local learns where the node went.
        for (&src, items) in &by_src {
            let ls: Vec<Oid> = items.iter().map(|&(_, l)| l).collect();
            self.router.requests[src] += 1;
            let d = dst as u16;
            self.write_group(src, move |sh: &mut S| sh.retire_nodes(&ls, d, epoch))?;
        }
        Ok(moved.len())
    }

    /// Fan `f` out to one healthy member of every group through the
    /// fan-out helper, applying the [`ScanPolicy`] to dead groups and to
    /// groups exhausted mid-scan. Returns `(shard, value)` pairs in shard
    /// order for the groups that answered.
    fn fan_out_policy<T: Send + 'static>(
        &mut self,
        f: impl Fn(&mut S) -> Result<T> + Clone + Send + 'static,
    ) -> Result<Vec<(usize, T)>> {
        self.last_scan_partial = false;
        self.last_scan_skipped.clear();
        let policy = self.scan_policy;
        let mut work = Vec::new();
        for s in 0..self.router.shard_count() {
            if self.group_healthy(s) {
                self.router.requests[s] += 1;
                work.push((s, ()));
            } else if policy == ScanPolicy::FailFast {
                return Err(Self::unavailable(s));
            } else {
                self.last_scan_skipped.push(s);
            }
        }
        let mut out = Vec::new();
        for (s, r) in self.fan_out(work, move |sh: &mut S, ()| f(sh)) {
            match r {
                Ok(v) => out.push((s, v)),
                Err(e) if e.is_transient() && policy == ScanPolicy::Partial => {
                    self.last_scan_skipped.push(s);
                }
                Err(e) => return Err(e),
            }
        }
        self.last_scan_skipped.sort_unstable();
        self.last_scan_partial = !self.last_scan_skipped.is_empty();
        Ok(out)
    }

    /// Fan a read out across the shards (per the scan policy), translate
    /// each shard's results to global ids and drop ghosts (results whose
    /// owner is a different shard). Results come back in shard order — a
    /// deterministic set order, per the trait's set-result convention.
    fn fan_out_owned(
        &mut self,
        f: impl Fn(&mut S) -> Result<Vec<Oid>> + Clone + Send + 'static,
    ) -> Result<Vec<Oid>> {
        let per_shard = self.fan_out_policy(f)?;
        let mut out = Vec::new();
        for (s, locals) in per_shard {
            for l in locals {
                // Canonical ownership: the node's current placement must
                // be exactly this (shard, local) — ghosts and records
                // retired by a migration away never double-report.
                if self.router.is_owned_local(s, l)? {
                    out.push(self.router.to_global(s, l)?);
                }
            }
        }
        Ok(out)
    }

    fn translate_oids(&self, shard: usize, locals: Vec<Oid>) -> Result<Vec<Oid>> {
        locals
            .into_iter()
            .map(|l| self.router.to_global(shard, l))
            .collect()
    }

    fn translate_edges(&self, shard: usize, edges: Vec<RefEdge>) -> Result<Vec<RefEdge>> {
        edges
            .into_iter()
            .map(|e| {
                Ok(RefEdge {
                    target: self.router.to_global(shard, e.target)?,
                    ..e
                })
            })
            .collect()
    }

    /// BFS over `children`/`parts` with one batched request per shard per
    /// level; returns the full adjacency in global ids.
    fn collect_oid_adjacency(&mut self, start: Oid, parts: bool) -> Result<HashMap<Oid, Vec<Oid>>> {
        let mut cache: HashMap<Oid, Vec<Oid>> = HashMap::new();
        let mut frontier = vec![start];
        while !frontier.is_empty() {
            let lists = if parts {
                self.parts_batch(&frontier)?
            } else {
                self.children_batch(&frontier)?
            };
            for (&o, list) in frontier.iter().zip(lists) {
                cache.insert(o, list);
            }
            // `next` keeps discovery order; `queued` only answers
            // membership, so a wide level costs linear time, not quadratic.
            let mut next = Vec::new();
            let mut queued = HashSet::new();
            for o in &frontier {
                for &t in &cache[o] {
                    if !cache.contains_key(&t) && queued.insert(t) {
                        next.push(t);
                    }
                }
            }
            frontier = next;
        }
        Ok(cache)
    }

    /// BFS over attributed references to `depth` levels (the deepest any
    /// depth-first path can need), batched per shard per level.
    fn collect_ref_adjacency(
        &mut self,
        start: Oid,
        depth: u32,
    ) -> Result<HashMap<Oid, Vec<RefEdge>>> {
        let mut cache: HashMap<Oid, Vec<RefEdge>> = HashMap::new();
        let mut frontier = vec![start];
        for _ in 0..depth {
            if frontier.is_empty() {
                break;
            }
            let lists = self.refs_to_batch(&frontier)?;
            for (&o, list) in frontier.iter().zip(lists) {
                cache.insert(o, list);
            }
            let mut next = Vec::new();
            let mut queued = HashSet::new();
            for o in &frontier {
                for e in &cache[o] {
                    if !cache.contains_key(&e.target) && queued.insert(e.target) {
                        next.push(e.target);
                    }
                }
            }
            frontier = next;
        }
        Ok(cache)
    }

    /// Depth-first replay over cached adjacency: identical order to the
    /// trait's default stack traversal, with zero further shard requests.
    fn replay_preorder(start: Oid, adj: &HashMap<Oid, Vec<Oid>>) -> Vec<Oid> {
        let mut out = Vec::new();
        let mut stack = vec![start];
        while let Some(oid) = stack.pop() {
            out.push(oid);
            for &k in adj[&oid].iter().rev() {
                stack.push(k);
            }
        }
        out
    }

    /// Run `f` on every healthy member, with the lag check in-job: the
    /// single-phase commit and the cold restart. A member that fails
    /// transiently is demoted while its siblings carry the group. Fails
    /// with the first deterministic error, else with a group left
    /// without a healthy member (naming it, with its last member's
    /// error).
    fn on_every_member(
        &mut self,
        f: impl FnOnce(&mut S) -> Result<()> + Clone + Send + 'static,
    ) -> Result<()> {
        let jobs = self
            .healthy_members()
            .into_iter()
            .map(|m| (m, self.unless_lagging(m, f.clone())))
            .collect();
        let mut hard = None;
        let mut lost = None;
        for (m, r) in self.dispatch(jobs, Join::All) {
            match flatten(r) {
                Ok(()) => {}
                Err(e) if e.is_transient() => {
                    self.demote(m);
                    let s = self.group_of(m);
                    if !self.group_healthy(s) {
                        lost.get_or_insert(Self::unavailable_because(s, e));
                    }
                }
                Err(e) => {
                    hard.get_or_insert(e);
                }
            }
        }
        if let Some(e) = hard.or(lost) {
            return Err(e);
        }
        match self.dead_group() {
            Some(s) => Err(Self::unavailable(s)),
            None => Ok(()),
        }
    }

    /// Once the log has grown past the checkpoint interval, drop every
    /// decision all shards have acknowledged. Best-effort: a failed
    /// checkpoint leaves the old (longer, still correct) log in place.
    fn maybe_checkpoint(&mut self) {
        let min_acked = self.acked.iter().copied().min().unwrap_or(0);
        if let Some(log) = &mut self.commit_log {
            if min_acked > 0 && log.len() >= self.checkpoint_after {
                let _ = log.checkpoint(min_acked);
            }
        }
    }
}

impl<S: HyperStore + Send + 'static> HyperStore for ShardedStore<S> {
    fn lookup_unique(&mut self, unique_id: u64) -> Result<Oid> {
        let g = self.router.global_for_uid(unique_id)?;
        let (s, l) = self.route(g)?;
        let local = self.read_group(s, move |sh: &mut S| sh.lookup_unique(unique_id))?;
        debug_assert_eq!(local, l, "shard uid index disagrees with router");
        Ok(g)
    }

    fn unique_id_of(&mut self, oid: Oid) -> Result<u64> {
        Ok(self.read_at(oid, |sh, l| sh.unique_id_of(l))?.1)
    }

    fn kind_of(&mut self, oid: Oid) -> Result<NodeKind> {
        Ok(self.read_at(oid, |sh, l| sh.kind_of(l))?.1)
    }

    fn ten_of(&mut self, oid: Oid) -> Result<u32> {
        Ok(self.read_at(oid, |sh, l| sh.ten_of(l))?.1)
    }

    fn hundred_of(&mut self, oid: Oid) -> Result<u32> {
        Ok(self.read_at(oid, |sh, l| sh.hundred_of(l))?.1)
    }

    fn million_of(&mut self, oid: Oid) -> Result<u32> {
        Ok(self.read_at(oid, |sh, l| sh.million_of(l))?.1)
    }

    fn set_hundred(&mut self, oid: Oid, value: u32) -> Result<()> {
        self.write_at(oid, move |sh, l| sh.set_hundred(l, value))?;
        Ok(())
    }

    fn range_hundred(&mut self, lo: u32, hi: u32) -> Result<Vec<Oid>> {
        self.fan_out_owned(move |shard| shard.range_hundred(lo, hi))
    }

    fn range_million(&mut self, lo: u32, hi: u32) -> Result<Vec<Oid>> {
        self.fan_out_owned(move |shard| shard.range_million(lo, hi))
    }

    fn children(&mut self, oid: Oid) -> Result<Vec<Oid>> {
        let (s, kids) = self.read_at(oid, |sh, l| sh.children(l))?;
        self.translate_oids(s, kids)
    }

    fn parent(&mut self, oid: Oid) -> Result<Option<Oid>> {
        let (s, p) = self.read_at(oid, |sh, l| sh.parent(l))?;
        match p {
            Some(p) => Ok(Some(self.router.to_global(s, p)?)),
            None => Ok(None),
        }
    }

    fn parts(&mut self, oid: Oid) -> Result<Vec<Oid>> {
        let (s, ps) = self.read_at(oid, |sh, l| sh.parts(l))?;
        self.translate_oids(s, ps)
    }

    fn part_of(&mut self, oid: Oid) -> Result<Vec<Oid>> {
        let (s, owners) = self.read_at(oid, |sh, l| sh.part_of(l))?;
        self.translate_oids(s, owners)
    }

    fn refs_to(&mut self, oid: Oid) -> Result<Vec<RefEdge>> {
        let (s, edges) = self.read_at(oid, |sh, l| sh.refs_to(l))?;
        self.translate_edges(s, edges)
    }

    fn refs_from(&mut self, oid: Oid) -> Result<Vec<RefEdge>> {
        let (s, edges) = self.read_at(oid, |sh, l| sh.refs_from(l))?;
        self.translate_edges(s, edges)
    }

    fn seq_scan_ten(&mut self) -> Result<u64> {
        Ok(self
            .fan_out_policy(|shard| shard.seq_scan_ten())?
            .into_iter()
            .map(|(_, v)| v)
            .sum())
    }

    fn text_of(&mut self, oid: Oid) -> Result<String> {
        Ok(self.read_at(oid, |sh, l| sh.text_of(l))?.1)
    }

    fn set_text(&mut self, oid: Oid, text: &str) -> Result<()> {
        let text = text.to_string();
        self.write_at(oid, move |sh, l| sh.set_text(l, &text))?;
        Ok(())
    }

    fn form_of(&mut self, oid: Oid) -> Result<Bitmap> {
        Ok(self.read_at(oid, |sh, l| sh.form_of(l))?.1)
    }

    fn set_form(&mut self, oid: Oid, bitmap: &Bitmap) -> Result<()> {
        let bitmap = bitmap.clone();
        self.write_at(oid, move |sh, l| sh.set_form(l, &bitmap))?;
        Ok(())
    }

    fn create_node(&mut self, value: &NodeValue) -> Result<Oid> {
        self.create_node_clustered(value, None)
    }

    fn create_node_clustered(&mut self, value: &NodeValue, near: Option<Oid>) -> Result<Oid> {
        let g = self.router.mint();
        let (s, depth) = self.router.place(g.0, near);
        // Forward the placement hint only when it resolves on this shard
        // (the real node or an existing ghost of it).
        let local_near = near.and_then(|p| match self.router.to_local(p) {
            Ok((ps, pl)) if ps == s => Some(pl),
            _ => self.router.ghost_of(p, s),
        });
        if !self.group_healthy(s) {
            return Err(Self::unavailable(s));
        }
        self.router.requests[s] += 1;
        // Each mirror runs the identical create, so the local ids it hands
        // back match on every copy; any one ack names them all.
        let v = value.clone();
        let local = self.write_group(s, move |sh: &mut S| {
            sh.create_node_clustered(&v, local_near)
        })?;
        self.router
            .register(g, s, local, depth, value.attrs.unique_id);
        self.router.nodes[s] += 1;
        Ok(g)
    }

    fn add_child(&mut self, parent: Oid, child: Oid) -> Result<()> {
        self.two_sided_edge(parent, child, |shard, p, c| shard.add_child(p, c))
    }

    fn add_part(&mut self, owner: Oid, part: Oid) -> Result<()> {
        self.two_sided_edge(owner, part, |shard, o, p| shard.add_part(o, p))
    }

    fn add_ref(&mut self, from: Oid, to: Oid, offset_from: u8, offset_to: u8) -> Result<()> {
        self.two_sided_edge(from, to, move |shard, f, t| {
            shard.add_ref(f, t, offset_from, offset_to)
        })
    }

    fn insert_extra_node(&mut self, value: &NodeValue) -> Result<Oid> {
        let g = self.router.mint();
        let (s, depth) = self.router.place(g.0, None);
        if !self.group_healthy(s) {
            return Err(Self::unavailable(s));
        }
        self.router.requests[s] += 1;
        let v = value.clone();
        let local = self.write_group(s, move |sh: &mut S| sh.insert_extra_node(&v))?;
        self.router
            .register(g, s, local, depth, value.attrs.unique_id);
        Ok(g)
    }

    fn commit(&mut self) -> Result<()> {
        // Commit is the natural anti-entropy point: demote anything
        // flagged lagging, then resync every demoted mirror that has a
        // healthy sibling so the whole group takes the commit together.
        self.demote_lagging(0..self.health.len());
        self.repair_replicas();
        // Every *group* must be reachable; a dead mirror with a healthy
        // sibling is not a failed commit.
        if let Some(s) = self.dead_group() {
            return Err(Self::unavailable(s));
        }
        if self.commit_log.is_none() {
            // Single-phase: every member commits independently. Not
            // crash-atomic across shards — enable `with_commit_log` for that.
            return self.on_every_member(|sh| sh.commit());
        }
        // Two-phase: prepare everywhere in parallel under one deadline,
        // durably record the decision, then tell every member to finish.
        // The fsynced decision record is the commit point — once it is on
        // disk, recovery completes the transaction even if every later
        // message is lost.
        let txid = self.next_txid;
        self.next_txid += 1;
        obs::incr("shard.2pc.prepared", 1);
        // Only healthy members take part. A member that lagged behind an
        // acked write since the repair pass votes to abort rather than
        // durably committing a stale state; one that misses the shared
        // deadline votes to abort too (its prepare keeps running on its
        // worker and the abort is queued behind it, FIFO).
        let jobs = self
            .healthy_members()
            .into_iter()
            .map(|m| {
                (
                    m,
                    self.unless_lagging(m, move |sh: &mut S| sh.prepare_commit(txid)),
                )
            })
            .collect();
        let prepared = self.dispatch(jobs, Join::Within(self.prepare_timeout));
        if !prepared.iter().all(|(_, r)| matches!(r, Ok(Ok(())))) {
            self.aborts += 1;
            obs::incr("shard.2pc.aborted", 1);
            // The abort record is best-effort: presumed abort means an
            // absent decision already reads as "abort" during recovery.
            if let Some(log) = &mut self.commit_log {
                let _ = log.record(txid, false);
            }
            let mut first = None;
            for (m, r) in prepared {
                let e = match r {
                    Ok(Ok(())) => {
                        // Voted yes: roll this member back.
                        let aborted = self.exec.run_on(m, move |sh| sh.abort_prepared(txid));
                        if let Err(e) = flatten(aborted) {
                            self.member_failed(m, e);
                        }
                        continue;
                    }
                    Ok(Err(e)) => e,
                    Err(timed_out @ ExecError::TimedOut(_)) => {
                        // Queue the abort behind the running prepare
                        // without waiting — the deadline was already missed.
                        let _ = self.exec.submit(m, move |sh| {
                            let _ = sh.abort_prepared(txid);
                        });
                        timed_out.into_hm()
                    }
                    Err(e) => e.into_hm(),
                };
                let e = self.member_failed(m, e);
                first.get_or_insert(e);
            }
            return Err(first.unwrap_or_else(|| {
                HmError::Backend("prepare failed but no shard reported an error".into())
            }));
        }
        if let Some(log) = self.commit_log.as_mut() {
            log.record(txid, true)?;
        }
        obs::incr("shard.2pc.committed", 1);
        // Phase two, on the members that prepared: a failure here only
        // demotes — the decision is durable, so recovery (or repair)
        // finishes the commit on the failed member.
        let jobs = self
            .healthy_members()
            .into_iter()
            .map(|m| (m, move |sh: &mut S| sh.commit_prepared(txid)))
            .collect();
        for (m, r) in self.dispatch(jobs, Join::All) {
            match flatten(r) {
                Ok(()) => self.acked[m] = txid,
                Err(e) if e.is_transient() => self.demote(m),
                Err(_) => {}
            }
        }
        self.maybe_checkpoint();
        Ok(())
    }

    fn cold_restart(&mut self) -> Result<()> {
        self.on_every_member(|sh| sh.cold_restart())
    }

    fn backend_name(&self) -> &'static str {
        self.name
    }

    fn shard_balance(&self) -> Option<Vec<ShardLoad>> {
        // One entry per *logical* shard. Replicated, queue depth sums
        // over the group (total backlog) while busy time reports the
        // hottest member (the group is as slow as its busiest mirror).
        Some(
            (0..self.router.shard_count())
                .map(|s| {
                    let set = self.router.replica_set(s);
                    ShardLoad {
                        shard: s,
                        nodes: self.router.nodes[s],
                        requests: self.router.requests[s],
                        queued: set.members().map(|m| self.exec.queue_depth(m) as u64).sum(),
                        busy_us: set
                            .members()
                            .map(|m| self.exec.busy_ewma_us(m))
                            .max()
                            .unwrap_or(0),
                        migrated: self.migrated[s],
                    }
                })
                .collect(),
        )
    }

    fn resilience_summary(&self) -> Option<String> {
        let dead = self.health.iter().filter(|h| !**h).count();
        if self.k == 1
            && self.commit_log.is_none()
            && self.aborts == 0
            && dead == 0
            && self.last_scan_skipped.is_empty()
            && self.migrations == 0
        {
            return None;
        }
        let mut out = format!(
            "2pc={} commit-aborts={} dead-shards={}/{}",
            if self.commit_log.is_some() {
                "on"
            } else {
                "off"
            },
            self.aborts,
            dead,
            self.health.len()
        );
        if self.k > 1 {
            out.push_str(&format!(
                " replicas={} ack={} failover-reads={} demotions={} repairs={}",
                self.k,
                match self.write_ack {
                    WriteAck::Primary => "primary",
                    WriteAck::Quorum => "quorum",
                    WriteAck::All => "all",
                },
                self.failovers,
                self.demotions,
                self.repairs
            ));
        }
        if self.migrations > 0 {
            out.push_str(&format!(
                " migrations={} forwards={}",
                self.migrations,
                self.router.forward_len()
            ));
        }
        if !self.last_scan_skipped.is_empty() {
            out.push_str(&format!(" skipped-shards={:?}", self.last_scan_skipped));
        }
        Some(out)
    }

    // ---- batched primitives: one request per shard with work ----------

    fn children_batch(&mut self, oids: &[Oid]) -> Result<Vec<Vec<Oid>>> {
        let (work, pos) = self.group_by_shard(oids)?;
        let results = self.batched_checked(work, |shard: &mut S, ls: Vec<Oid>| {
            shard.children_batch(&ls)
        })?;
        let mut out = vec![Vec::new(); oids.len()];
        for (s, lists) in results {
            for (j, list) in lists.into_iter().enumerate() {
                out[pos[s][j]] = self.translate_oids(s, list)?;
            }
        }
        Ok(out)
    }

    fn parts_batch(&mut self, oids: &[Oid]) -> Result<Vec<Vec<Oid>>> {
        let (work, pos) = self.group_by_shard(oids)?;
        let results =
            self.batched_checked(work, |shard: &mut S, ls: Vec<Oid>| shard.parts_batch(&ls))?;
        let mut out = vec![Vec::new(); oids.len()];
        for (s, lists) in results {
            for (j, list) in lists.into_iter().enumerate() {
                out[pos[s][j]] = self.translate_oids(s, list)?;
            }
        }
        Ok(out)
    }

    fn refs_to_batch(&mut self, oids: &[Oid]) -> Result<Vec<Vec<RefEdge>>> {
        let (work, pos) = self.group_by_shard(oids)?;
        let results =
            self.batched_checked(work, |shard: &mut S, ls: Vec<Oid>| shard.refs_to_batch(&ls))?;
        let mut out = vec![Vec::new(); oids.len()];
        for (s, lists) in results {
            for (j, list) in lists.into_iter().enumerate() {
                out[pos[s][j]] = self.translate_edges(s, list)?;
            }
        }
        Ok(out)
    }

    fn hundred_batch(&mut self, oids: &[Oid]) -> Result<Vec<u32>> {
        let (work, pos) = self.group_by_shard(oids)?;
        let results =
            self.batched_checked(work, |shard: &mut S, ls: Vec<Oid>| shard.hundred_batch(&ls))?;
        let mut out = vec![0u32; oids.len()];
        for (s, vals) in results {
            for (j, v) in vals.into_iter().enumerate() {
                out[pos[s][j]] = v;
            }
        }
        Ok(out)
    }

    fn million_batch(&mut self, oids: &[Oid]) -> Result<Vec<u32>> {
        let (work, pos) = self.group_by_shard(oids)?;
        let results =
            self.batched_checked(work, |shard: &mut S, ls: Vec<Oid>| shard.million_batch(&ls))?;
        let mut out = vec![0u32; oids.len()];
        for (s, vals) in results {
            for (j, v) in vals.into_iter().enumerate() {
                out[pos[s][j]] = v;
            }
        }
        Ok(out)
    }

    fn set_hundred_batch(&mut self, updates: &[(Oid, u32)]) -> Result<()> {
        let n = self.router.shard_count();
        let mut per: Vec<Vec<(Oid, u32)>> = vec![Vec::new(); n];
        for &(g, v) in updates {
            let (s, l) = self.router.to_local(g)?;
            per[s].push((l, v));
        }
        for (s, w) in per.iter().enumerate() {
            if !w.is_empty() && !self.group_healthy(s) {
                return Err(Self::unavailable(s));
            }
        }
        // One write per group with work, each sent to all of the group's
        // healthy mirrors.
        for (s, w) in per.into_iter().enumerate() {
            if !w.is_empty() {
                self.router.requests[s] += 1;
                self.write_group(s, move |sh: &mut S| sh.set_hundred_batch(&w))?;
            }
        }
        Ok(())
    }

    // ---- closures: level-batched frontier exchange + local replay -----

    fn closure_1n(&mut self, start: Oid) -> Result<Vec<Oid>> {
        self.touch(start);
        let adj = self.collect_oid_adjacency(start, false)?;
        Ok(Self::replay_preorder(start, &adj))
    }

    fn closure_1n_att_sum(&mut self, start: Oid) -> Result<(u64, usize)> {
        let closure = self.closure_1n(start)?;
        let hundreds = self.hundred_batch(&closure)?;
        let sum = hundreds.iter().map(|&h| h as u64).sum();
        Ok((sum, closure.len()))
    }

    fn closure_1n_att_set(&mut self, start: Oid) -> Result<usize> {
        let closure = self.closure_1n(start)?;
        let hundreds = self.hundred_batch(&closure)?;
        let updates: Vec<(Oid, u32)> = closure
            .iter()
            .zip(hundreds)
            .map(|(&o, h)| (o, 99u32.wrapping_sub(h)))
            .collect();
        self.set_hundred_batch(&updates)?;
        Ok(updates.len())
    }

    fn closure_1n_pred(&mut self, start: Oid, lo: u32, hi: u32) -> Result<Vec<Oid>> {
        self.touch(start);
        // BFS: fetch `million` for each level, expand only nodes outside
        // the excluded range (their subtrees are pruned, so their
        // children are never requested).
        let mut million: HashMap<Oid, u32> = HashMap::new();
        let mut kids: HashMap<Oid, Vec<Oid>> = HashMap::new();
        let mut frontier = vec![start];
        while !frontier.is_empty() {
            let ms = self.million_batch(&frontier)?;
            for (&o, m) in frontier.iter().zip(ms) {
                million.insert(o, m);
            }
            let expand: Vec<Oid> = frontier
                .iter()
                .copied()
                .filter(|o| !(lo..=hi).contains(&million[o]))
                .collect();
            if expand.is_empty() {
                break;
            }
            let lists = self.children_batch(&expand)?;
            let mut next = Vec::new();
            let mut queued = HashSet::new();
            for (&o, list) in expand.iter().zip(lists) {
                for &t in &list {
                    if !million.contains_key(&t) && queued.insert(t) {
                        next.push(t);
                    }
                }
                kids.insert(o, list);
            }
            frontier = next;
        }
        let mut out = Vec::new();
        let mut stack = vec![start];
        while let Some(oid) = stack.pop() {
            if (lo..=hi).contains(&million[&oid]) {
                continue;
            }
            out.push(oid);
            for &k in kids[&oid].iter().rev() {
                stack.push(k);
            }
        }
        Ok(out)
    }

    fn closure_mn(&mut self, start: Oid) -> Result<Vec<Oid>> {
        self.touch(start);
        let adj = self.collect_oid_adjacency(start, true)?;
        Ok(Self::replay_preorder(start, &adj))
    }

    fn closure_mnatt(&mut self, start: Oid, depth: u32) -> Result<Vec<Oid>> {
        self.touch(start);
        let adj = self.collect_ref_adjacency(start, depth)?;
        let mut out = Vec::new();
        let mut stack = vec![(start, depth)];
        while let Some((oid, d)) = stack.pop() {
            if d == 0 {
                continue;
            }
            for e in adj[&oid].iter().rev() {
                out.push(e.target);
                stack.push((e.target, d - 1));
            }
        }
        Ok(out)
    }

    fn closure_mnatt_linksum(&mut self, start: Oid, depth: u32) -> Result<Vec<(Oid, u64)>> {
        self.touch(start);
        let adj = self.collect_ref_adjacency(start, depth)?;
        let mut out = Vec::new();
        let mut stack = vec![(start, depth, 0u64)];
        while let Some((oid, d, dist)) = stack.pop() {
            if d == 0 {
                continue;
            }
            for e in adj[&oid].iter().rev() {
                let total = dist + e.offset_to as u64;
                out.push((e.target, total));
                stack.push((e.target, d - 1, total));
            }
        }
        Ok(out)
    }

    fn text_node_edit(&mut self, oid: Oid, from: &str, to: &str) -> Result<usize> {
        let (from, to) = (from.to_string(), to.to_string());
        match self.write_at(oid, move |sh, l| sh.text_node_edit(l, &from, &to)) {
            // Kind errors must name the caller's id, not the shard-local one.
            Err(HmError::WrongKind { expected, .. }) => Err(HmError::WrongKind { oid, expected }),
            other => Ok(other?.1),
        }
    }

    fn form_node_edit(&mut self, oid: Oid, x0: u16, y0: u16, x1: u16, y1: u16) -> Result<()> {
        match self.write_at(oid, move |sh, l| sh.form_node_edit(l, x0, y0, x1, y1)) {
            Err(HmError::WrongKind { expected, .. }) => Err(HmError::WrongKind { oid, expected }),
            other => {
                other?;
                Ok(())
            }
        }
    }
}

impl<S> std::fmt::Debug for ShardedStore<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStore")
            .field("name", &self.name)
            .field("shards", &self.router.shard_count())
            .finish()
    }
}
