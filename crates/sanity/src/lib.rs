//! Correctness tooling for the sharded HyperStore.
//!
//! Four independent parts, all free of external dependencies:
//!
//! * [`sync`] — drop-in `Mutex` / `RwLock` / `Condvar` / `mpsc` shims.
//!   By default they are zero-cost re-exports of `parking_lot` / `std`;
//!   compiled with `RUSTFLAGS="--cfg sanity_check"` every acquisition is
//!   recorded into a per-thread lock stack plus a global lock-order
//!   graph, and two hazard classes are reported with both source sites:
//!   lock-order cycles (potential ABBA deadlocks) and channel sends
//!   performed while a lock is held.
//! * [`dsched`] — a deterministic, preemption-bounded scheduler for
//!   model tests: run a small concurrent model under *every* (bounded)
//!   interleaving, or under a seeded random sample, and assert
//!   invariants at each one. Used by the executor-dispatch and 2PC
//!   model tests.
//! * [`lint`] — the rule engine behind the `hyperlint` binary
//!   (`cargo run -p sanity --bin hyperlint`): token-level source checks
//!   for invariants the compiler cannot see (no raw lock imports
//!   outside the shim, no `unwrap`/`expect` on server request paths or
//!   commit-log I/O, request/response variant parity between client and
//!   dispatcher, clamped decode preallocations).
//! * [`static_graph`] — the engine behind the `hyperstatic` binary
//!   (`cargo run -p sanity --bin hyperstatic`): a lightweight
//!   item/function parser, approximate intra-workspace call graph, and
//!   fixpoint propagation that reports static lock-order cycles, locks
//!   held across (transitively) blocking calls, and panic sites
//!   reachable from request dispatch — hazards the runtime detector
//!   only sees on paths a test happens to execute.

pub mod dsched;
pub mod lint;
pub mod order;
pub mod static_graph;
pub mod sync;
