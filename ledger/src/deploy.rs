//! The deployments the workloads run against, built from public
//! functions only: `TestDatabase::generate`, `load_database`,
//! `DiskStore::create`, `ShardedStore::new`, `serve_multi` and
//! `RemoteStore` over `TcpTransport`.

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use disk_backend::DiskStore;
use hypermodel::error::{HmError, Result};
use hypermodel::{load_database, CreationTimings, GenConfig, HyperStore, Oid, TestDatabase};
use mem_backend::MemStore;
use server::{ClosureMode, MultiServer, RemoteStore, TcpTransport};
use shard::{Placement, ShardedStore};

use crate::timed::{Layer, Timed};

/// Buffer-pool frames of the disk store (8 KiB pages: a 64 MB pool).
pub const POOL_FRAMES: usize = 8192;
/// Page size of the disk engine.
pub const PAGE_BYTES: usize = 8192;
/// Shards of the sharded deployments.
pub const SHARDS: usize = 2;

/// Which deployment a workload runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One `DiskStore`.
    Disk,
    /// `ShardedStore<RemoteStore>` over loopback TCP to `serve_multi`.
    Tcp,
}

/// The timing layers of a traced deployment.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Around the stores the client calls: the disk store, or each
    /// `RemoteStore` connection of the sharded client.
    pub member: Option<Arc<Layer>>,
    /// Around each shard store inside the server (TCP only).
    pub server: Option<Arc<Layer>>,
}

impl Layers {
    /// The layer whose calls reach the stores holding the data.
    pub fn storage(&self) -> Option<&Arc<Layer>> {
        self.server.as_ref().or(self.member.as_ref())
    }
}

/// Removes its directory when dropped.
#[derive(Debug)]
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A loaded deployment. Fields drop in order: the client store (closing
/// its connections and joining its executor), then the server, then the
/// data directory.
pub struct Deployment {
    /// The store the workload drives.
    pub store: Box<dyn HyperStore>,
    server: Option<MultiServer>,
    _dir: TempDir,
    /// The generated database.
    pub db: TestDatabase,
    /// `oids[i]` is node `i`'s object id.
    pub oids: Vec<Oid>,
    /// Generation wall time.
    pub generate: Duration,
    /// Per-phase load timings.
    pub timings: CreationTimings,
    /// Generate + load + server start.
    pub setup: Duration,
    /// Bytes of the stored database: the disk file, or the members'
    /// serialised images.
    pub db_bytes: u64,
    /// Timing layers (traced deployments only).
    pub layers: Layers,
}

impl Deployment {
    /// Generate the level-`level` database from `seed` and load it into a
    /// fresh `kind` deployment under `data_dir`, wrapped in timing layers
    /// when `traced`.
    pub fn setup(
        kind: Kind,
        level: u32,
        seed: u64,
        traced: bool,
        data_dir: &Path,
    ) -> Result<Deployment> {
        let dir =
            TempDir(data_dir.join(format!("{}-{:?}-{}", std::process::id(), kind, next_id())));
        std::fs::create_dir_all(&dir.0).map_err(|e| io_err(&dir.0, e))?;
        let t0 = Instant::now();
        let db = TestDatabase::generate(&GenConfig::level(level).with_seed(seed));
        let generate = t0.elapsed();
        let mut layers = Layers::default();
        let mut server = None;
        let (store, loaded, db_bytes): (Box<dyn HyperStore>, _, _) = match kind {
            Kind::Disk => {
                let path = dir.0.join("hypermodel.db");
                let disk = DiskStore::create(&path, POOL_FRAMES)?;
                let mut store: Box<dyn HyperStore> = match traced {
                    true => Box::new(Timed::new(disk, layer(&mut layers.member, false))),
                    false => Box::new(disk),
                };
                let report = load_database(&mut *store, &db)?;
                let loaded = t0.elapsed();
                let bytes = std::fs::metadata(&path)
                    .map_err(|e| io_err(&path, e))?
                    .len();
                (store, (report, loaded), bytes)
            }
            Kind::Tcp => {
                let members = (0..SHARDS).map(|_| MemStore::new()).collect::<Vec<_>>();
                let srv = match traced {
                    true => {
                        let layer = layer(&mut layers.server, false);
                        server::serve_multi(
                            members
                                .into_iter()
                                .map(|m| Timed::new(m, layer.clone()))
                                .collect(),
                        )?
                    }
                    false => server::serve_multi(members)?,
                };
                let clients = srv
                    .addr_strings()
                    .iter()
                    .map(|addr| {
                        let stream = TcpStream::connect(addr)
                            .map_err(|e| HmError::Backend(format!("connect {addr}: {e}")))?;
                        Ok(RemoteStore::new(
                            Box::new(TcpTransport::new(stream)?),
                            ClosureMode::ClientSide,
                        ))
                    })
                    .collect::<Result<Vec<_>>>()?;
                server = Some(srv);
                match traced {
                    true => {
                        let layer = layer(&mut layers.member, true);
                        let clients = clients
                            .into_iter()
                            .map(|c| Timed::new(c, layer.clone()))
                            .collect();
                        load_sharded(clients, &db, &dir.0, t0)?
                    }
                    false => load_sharded(clients, &db, &dir.0, t0)?,
                }
            }
        };
        let (report, setup) = loaded;
        Ok(Deployment {
            store,
            server,
            _dir: dir,
            db,
            oids: report.oids,
            generate,
            timings: report.timings,
            setup,
            db_bytes,
            layers,
        })
    }

    /// Stop the deployment; returns the server's error-response count.
    pub fn teardown(self) -> Result<u64> {
        let Deployment { store, server, .. } = self;
        drop(store);
        match server {
            Some(srv) => Ok(srv.stop()?.errors),
            None => Ok(0),
        }
    }
}

type Loaded = (Box<dyn HyperStore>, (hypermodel::LoadReport, Duration), u64);

/// Shard `members` with a fsynced 2PC decision log in `dir`, load `db`,
/// and measure the members' serialised images.
fn load_sharded<S>(members: Vec<S>, db: &TestDatabase, dir: &Path, t0: Instant) -> Result<Loaded>
where
    S: HyperStore + Send + 'static,
{
    let mut store = ShardedStore::new(members, Placement::affinity(), "sharded")
        .with_commit_log(&dir.join("decisions.log"))?;
    let report = load_database(&mut store, db)?;
    let loaded = t0.elapsed();
    let mut bytes = 0u64;
    for s in 0..store.shard_count() {
        bytes += store.with_shard(s, |m| m.sync_export())?.len() as u64;
    }
    Ok((Box::new(store), (report, loaded), bytes))
}

fn layer(slot: &mut Option<Arc<Layer>>, keep_call_ns: bool) -> Arc<Layer> {
    slot.get_or_insert_with(|| Layer::new(keep_call_ns)).clone()
}

fn next_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

fn io_err(path: &Path, e: std::io::Error) -> HmError {
    HmError::Backend(format!("{}: {e}", path.display()))
}
