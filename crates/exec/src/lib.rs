//! `exec` — execution infrastructure for the sharded HyperModel store.
//!
//! [`ShardExecutor`] is a persistent per-shard worker pool, dependency
//! free (raw `std` plus the in-tree `parking_lot` compat shim). One
//! long-lived thread per shard, fed over bounded channels, replaces the
//! scoped-thread spawn+join (~15 µs/shard) the sharded store used to pay
//! on every fan-out with a channel round trip (~3 µs). Panic isolation
//! poisons only the offending shard; [`Batch`] gives scope-style
//! fan-out/join with an optional shared deadline.
//!
//! `shard::ShardedStore` routes every fan-out, level-batched closure,
//! and parallel 2PC prepare through the pool. The wire server
//! (`server::serve_multi`) does not use it: a request runs on its
//! connection's thread.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pool;

pub use pool::{Batch, ExecError, JobHandle, ShardExecutor};
