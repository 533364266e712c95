//! # `server` — the workstation/server architecture (requirement R6)
//!
//! "Typically, most engineering applications are intended for a
//! workstation environment. … There is a tradeoff between letting the
//! database do work remotely, and the need for having fast access to data
//! from an application on the workstation." (paper §3.2, R6/R7)
//!
//! This crate supplies the pieces to run the benchmark in exactly that
//! architecture:
//!
//! * [`protocol`] — a binary request/response protocol covering every
//!   [`hypermodel::store::HyperStore`] primitive **and** the conceptual
//!   closure/editing operations as single messages;
//! * [`transport`] — framed transports: in-process channels (with
//!   simulated one-way latency, for controlled experiments) and real TCP;
//! * [`server`] — the serving loop ([`server::serve`]) that dispatches
//!   requests against any local store (mem, disk or rel backend);
//! * [`multi`] — [`serve_multi`]: one process hosting N shard servers on
//!   N ports, one accept thread per port and one thread per connection
//!   running the same session loop as [`server::serve`];
//! * [`client`] — [`client::RemoteStore`], a full `HyperStore` backed by
//!   the wire, in two modes: [`client::ClosureMode::ClientSide`]
//!   traverses with one round trip per relationship access;
//!   [`client::ClosureMode::ServerSide`] ships each conceptual operation
//!   as one request.
//!
//! The mode comparison quantifies the paper's §4 claim that systems
//! supporting "higher level conceptual operations" win on traversals —
//! with per-message latency λ, a level-3 `closure1N` costs ≈ 2·n·λ
//! client-side but ≈ λ server-side.
//!
//! ## Example
//!
//! ```
//! use hypermodel::config::GenConfig;
//! use hypermodel::generate::TestDatabase;
//! use hypermodel::load::load_database;
//! use hypermodel::store::HyperStore;
//! use server::client::{ClosureMode, RemoteStore};
//! use server::server::serve;
//! use server::transport::ChannelTransport;
//! use std::time::Duration;
//!
//! // Server side: a loaded in-memory store behind a channel.
//! let db = TestDatabase::generate(&GenConfig::tiny());
//! let mut store = mem_backend::MemStore::new();
//! let report = load_database(&mut store, &db).unwrap();
//! let (client_end, mut server_end) = ChannelTransport::pair(Duration::ZERO);
//! let server_thread = std::thread::spawn(move || serve(&mut store, &mut server_end).unwrap());
//!
//! // Workstation side: the same HyperStore API, remotely.
//! let mut remote = RemoteStore::new(Box::new(client_end), ClosureMode::ServerSide);
//! let root = report.oids[0];
//! assert_eq!(remote.closure_1n(root).unwrap().len(), db.len());
//! remote.shutdown().unwrap();
//! server_thread.join().unwrap();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod codec;
pub mod multi;
pub mod protocol;
pub mod server;
pub mod transport;

pub use client::{ClosureMode, RemoteStore};
pub use multi::{serve_multi, serve_multi_on, MultiServer, MultiStats};
pub use server::{serve, SessionStats};
pub use transport::{ChannelTransport, TcpTransport, Transport};
