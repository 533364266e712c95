//! # `shard` — a sharded, parallel `HyperStore`
//!
//! Partitions one HyperModel test database across N backend stores while
//! presenting a single [`hypermodel::HyperStore`]:
//!
//! * [`router`] — deterministic placement ([`Placement::OidHash`] and
//!   [`Placement::SubtreeAffinity`]) plus the global ↔ local id directory
//!   and ghost-node bookkeeping;
//! * [`store`] — [`ShardedStore`]: point operations route to the owning
//!   shard, range lookups and scans fan out across all shards on
//!   persistent per-shard executor workers (`exec::ShardExecutor`) and
//!   merge, and the O10–O15 closures run level-batched frontier
//!   exchange so cross-shard round trips scale with traversal depth
//!   rather than node count;
//! * [`remote`] — composition with `server::RemoteStore`: N TCP servers
//!   behind one router, each shard one wire connection;
//! * [`coordinator`] — crash-safe cross-shard commit: a durable decision
//!   log ([`CommitLog`]) makes [`ShardedStore`]'s commit two-phase
//!   (presumed abort, parallel prepare with a per-shard deadline), the
//!   log checkpoints itself once every shard has acknowledged a txid,
//!   and [`recover_sharded`] resolves in-doubt shards after a crash —
//!   after which [`ShardedStore::revive_shard`] or
//!   [`ShardedStore::replace_shard`] re-admits a shard health tracking
//!   had written off.
//!
//! The store also degrades gracefully: per-member health is tracked, a
//! panicking backend poisons only its member, point
//! operations to a dead shard fail fast with the structured
//! [`hypermodel::error::HmError::ShardUnavailable`], and fan-out reads
//! follow a caller-chosen [`ScanPolicy`] (fail atomically, or complete
//! over the healthy shards with an explicit partial-result marker).
//!
//! The deployment is oblivious to the backend: `ShardedStore<MemStore>`,
//! `ShardedStore<DiskStore>` and `ShardedStore<RemoteStore>` all behave
//! identically up to timing, and the workspace conformance tests hold the
//! sharded stores to byte-identical oracle output.
//!
//! ## Replication
//!
//! Every logical shard is a [`ReplicaSet`] of K full mirrors
//! (group-major member layout, primary first);
//! [`ShardedStore::new_replicated`] picks K, and [`ShardedStore::new`] is
//! K = 1, a group of one that runs the same code. Writes fan out to every
//! healthy mirror under a configurable [`WriteAck`] policy (primary /
//! quorum / all); reads route to the least-loaded healthy mirror using
//! the executor queue-depth and `busy_us` EWMA, failing over
//! transparently when a mirror dies. A call that touches one member runs
//! on the caller's thread unless jobs are pending on it, so the point
//! path of a one-member group costs no executor hop. A demoted mirror
//! with a healthy sibling is repaired in the background: the store pulls an
//! anti-entropy snapshot from a healthy peer
//! ([`hypermodel::HyperStore::sync_export`]) and installs it on the
//! lagging member ([`hypermodel::HyperStore::sync_import`] — carried over
//! the wire as `Request::SyncSubtree` / `Request::InstallSubtree` for
//! remote shards) before re-admitting it to the read path. A group of
//! one has no sibling: its member comes back through
//! [`ShardedStore::revive_shard`] or [`ShardedStore::replace_shard`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod coordinator;
pub mod remote;
pub mod router;
pub mod store;

pub use coordinator::{recover_sharded, CommitLog, ShardResolution};
pub use remote::{connect_sharded, connect_sharded_replicated};
pub use router::{Placement, ReplicaSet, ShardRouter, GHOST_UID_BASE};
pub use store::{ScanPolicy, ShardedStore, WriteAck};
