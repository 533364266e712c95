//! HyperModel ledger: the repository's benchmark.
//!
//! One command runs one named workload from a seed. Each workload runs the
//! paper's §6 cycle (cold pass, commit, same inputs warm, commit) over and
//! over with fresh seeded inputs, checks every answer against
//! [`hypermodel::Oracle`], sweeps the database for the §6.7 stable state at
//! the end, and reports end-to-end metrics (`--trace 0`) or, from a run of
//! the same workload with timing wrappers and span recording on, per-layer
//! metrics (`--trace 1`). See `ledger/README.md` for why each workload
//! exists.

#![forbid(unsafe_code)]

pub mod deploy;
pub mod mix;
pub mod report;
pub mod run;
pub mod stats;
pub mod timed;

use std::path::{Path, PathBuf};

use hypermodel::error::Result;
use hypermodel::ops::OpId;

use crate::deploy::{Deployment, Kind};
use crate::mix::{Checker, InputStream, Mix};
use crate::run::{Attrib, Cycles, Driver, Phase, Rung};
use crate::stats::Metric;

/// A named workload: a deployment, a database size, an operation mix and
/// a loop.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Deployment.
    pub kind: Kind,
    /// Leaf level of the generated database.
    pub level: u32,
    /// Operations per pass.
    pub mix: Mix,
    /// Open-loop ladder; empty for a closed loop.
    pub ladder: &'static [Rung],
}

use OpId::*;

// Weights are per pass. The edit metrics weigh O12, O16 and O17 equally
// whatever their weights here (see `report::per_op_metric`), so each edit
// needs only enough samples for its own percentiles.

/// All 20 operations: cold reads beside fsynced writes on a database
/// larger than the buffer pool.
const DISK_MIX: Mix = &[
    (NameLookup, 3.0),
    (NameOidLookup, 3.0),
    (GroupLookup1N, 2.0),
    (GroupLookupMN, 2.0),
    (GroupLookupMNAtt, 2.0),
    (RefLookup1N, 2.0),
    (RefLookupMN, 2.0),
    (RefLookupMNAtt, 2.0),
    (RangeLookupHundred, 1.0),
    (RangeLookupMillion, 1.0),
    (SeqScan, 0.25),
    (Closure1N, 3.0),
    (Closure1NAttSum, 3.0),
    (Closure1NPred, 3.0),
    (ClosureMN, 3.0),
    (ClosureMNAtt, 3.0),
    (ClosureMNAttLinkSum, 3.0),
    (Closure1NAttSet, 2.0),
    (TextNodeEdit, 4.0),
    (FormNodeEdit, 2.0),
];

/// Mostly point lookups, edits (O12, O16, O17) that commit across shards
/// over the wire, a few closures and scans.
const TCP_MIX: Mix = &[
    (NameLookup, 3.0),
    (NameOidLookup, 3.0),
    (GroupLookup1N, 2.0),
    (GroupLookupMN, 1.0),
    (GroupLookupMNAtt, 2.0),
    (RefLookup1N, 2.0),
    (RefLookupMN, 1.0),
    (RefLookupMNAtt, 2.0),
    (RangeLookupHundred, 0.5),
    (RangeLookupMillion, 0.5),
    (SeqScan, 0.1),
    (Closure1N, 4.0),
    (ClosureMN, 2.0),
    (Closure1NAttSet, 1.0),
    (TextNodeEdit, 3.0),
    (FormNodeEdit, 2.0),
];

/// The ladder: an unpaced rung (one request in flight, the next as soon
/// as the last returns), which the end-to-end metrics are read from, then
/// four paced rungs to find the knee. On a shared two-CPU host a paced
/// rung's percentiles move with every scheduling stall (each stall delays
/// `rate × stall` requests), too much to gate a change on; the unpaced
/// rung charges a stall to one request.
pub const TCP_LADDER: &[Rung] = &[
    Rung {
        rate: None,
        share: 0.6,
    },
    Rung {
        rate: Some(1000.0),
        share: 0.1,
    },
    Rung {
        rate: Some(2000.0),
        share: 0.1,
    },
    Rung {
        rate: Some(3000.0),
        share: 0.1,
    },
    Rung {
        rate: Some(4000.0),
        share: 0.1,
    },
];

/// A rung passes when its warm lookup p99 is within this limit and its
/// end-of-rung backlog would drain within it.
pub const LOOKUP_P99_LIMIT_US: f64 = 2000.0;

/// The workloads, by name.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "disk-l7",
        kind: Kind::Disk,
        level: 7,
        mix: DISK_MIX,
        ladder: &[],
    },
    Workload {
        name: "tcp-l5-open",
        kind: Kind::Tcp,
        level: 5,
        mix: TCP_MIX,
        ladder: TCP_LADDER,
    },
];

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the database and of every input.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end ones.
    pub trace: bool,
    /// Where deployments keep their files.
    pub data_dir: PathBuf,
    /// Overwrite one node's `hundred` behind the checker's back before
    /// measuring (the benchmark's own test that the oracle check fires).
    pub corrupt: bool,
}

/// What a run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or disagreed with the oracle, plus nodes
    /// that broke the stable state.
    pub failed: u64,
    /// `(name, value)` facts about the run.
    pub facts: Vec<(String, String)>,
    /// Human-readable tables (traced runs).
    pub tables: String,
}

impl Outcome {
    /// Whether every answer and the final sweep were right.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// A measured deployment, before it is torn down.
pub struct Measured {
    /// The closed loop (or the ladder's unpaced rung): what the end-to-end
    /// metrics read.
    pub closed: Phase,
    /// The ladder's paced rungs, in order.
    pub rungs: Vec<Phase>,
    /// Operations completed over the whole measured time.
    pub ops: u64,
    /// Registry change over the measured time.
    pub obs: obs::Snapshot,
    /// Shard requests routed over the measured time, per shard.
    pub shard_requests: Vec<u64>,
    /// Per-category attribution (traced).
    pub attrib: Option<Attrib>,
    /// Attempted, failed.
    pub counts: (u64, u64),
    /// Share of CPU time the hypervisor gave to other guests while
    /// measuring, printed as a run fact.
    pub steal: f64,
}

/// Measure `d` for `secs`, then sweep it for the stable state.
pub fn measure(
    w: &Workload,
    d: &mut Deployment,
    seed: u64,
    secs: f64,
    traced: bool,
) -> Result<Measured> {
    let mut driver = Driver {
        store: &mut *d.store,
        oids: &d.oids,
        checker: Checker::new(&d.db, &d.oids),
        attempted: 0,
        failed: 0,
        attrib: traced.then(|| Attrib::new(&d.layers)),
    };
    let mut cycles = Cycles::new(&d.db, w.mix, InputStream::new(&d.db, seed));
    let requests = |s: &dyn hypermodel::HyperStore| {
        s.shard_balance().map_or_else(Vec::new, |b| {
            b.iter().map(|l| l.requests).collect::<Vec<_>>()
        })
    };
    let req0 = requests(&*driver.store);
    for layer in [&d.layers.member, &d.layers.server].into_iter().flatten() {
        *layer.state() = Default::default();
    }
    let snap0 = obs::registry().snapshot();
    let (steal0, t0) = (run::steal_ticks(), std::time::Instant::now());
    let (closed, rungs) = if w.ladder.is_empty() {
        (driver.closed(&mut cycles, secs), Vec::new())
    } else {
        driver.ladder(&mut cycles, w.ladder, secs)
    };
    // Over the machine's CPUs, not only the one the run is pinned to;
    // kernel clock ticks are 1/100 s.
    let (ticks, cpus) = run::steal_ticks();
    let steal = ticks.saturating_sub(steal0.0) as f64
        / (t0.elapsed().as_secs_f64().max(1e-9) * 100.0 * cpus.max(1) as f64);
    driver.store.commit()?;
    // Folds the disk store's page reads into its layer (they reset here).
    driver.store.cold_restart()?;
    let obs = obs::registry().snapshot().diff(&snap0);
    let req1 = requests(&*driver.store);
    let bad = driver.checker.sweep(&mut *driver.store, &d.oids)?;
    Ok(Measured {
        ops: closed.ops + rungs.iter().map(|p| p.ops).sum::<u64>(),
        closed,
        steal,
        rungs,
        obs,
        shard_requests: req1
            .iter()
            .zip(req0.iter().chain(std::iter::repeat(&0)))
            .map(|(a, b)| a - b)
            .collect(),
        attrib: driver.attrib,
        counts: (driver.attempted, driver.failed + bad),
    })
}

/// Set up a deployment, corrupting it first when asked.
fn deploy(opts: &Options, traced: bool) -> Result<Deployment> {
    let w = &opts.workload;
    let mut d = Deployment::setup(w.kind, w.level, opts.seed, traced, &opts.data_dir)?;
    if opts.corrupt {
        let victim = d.oids[d.oids.len() / 2];
        let h = d.store.hundred_of(victim)?;
        d.store.set_hundred(victim, h % 100 + 1)?;
        d.store.commit()?;
    }
    Ok(d)
}

/// Run one workload as `opts` asks.
pub fn run(opts: &Options) -> Result<Outcome> {
    std::fs::create_dir_all(&opts.data_dir)
        .map_err(|e| hypermodel::HmError::Backend(format!("{}: {e}", opts.data_dir.display())))?;
    let w = opts.workload;
    let mut out = Outcome {
        facts: report::facts(&w, opts.seed),
        ..Outcome::default()
    };
    if !opts.trace {
        let mut setups = Vec::new();
        let mut last = None;
        for _ in 0..SETUPS {
            drop(last.take());
            let d = deploy(opts, false)?;
            setups.push(d.setup);
            last = Some(d);
        }
        let mut d = last.expect("at least one set-up");
        let m = measure(&w, &mut d, opts.seed, opts.seconds, false)?;
        let nodes = d.db.len() as u64;
        let db_bytes = d.db_bytes;
        d.teardown()?;
        out.metrics = report::end_to_end(&m, &setups, db_bytes, nodes);
        out.tables = report::ladder_table(&m);
        (out.attempted, out.failed) = m.counts;
        out.facts.push((
            "steal".into(),
            format!("{:.1}% of CPU time while measuring", m.steal * 100.0),
        ));
        return Ok(out);
    }
    // Untraced half first, for the overhead ratio.
    let mut bare = deploy(opts, false)?;
    let plain = measure(&w, &mut bare, opts.seed, opts.seconds / 2.0, false)?;
    bare.teardown()?;
    obs::registry().clear_spans();
    obs::trace::record_spans(true);
    let mut d = deploy(opts, true)?;
    let traced = measure(&w, &mut d, opts.seed, opts.seconds / 2.0, true);
    obs::trace::record_spans(false);
    let traced = traced?;
    let layers = d.layers.clone();
    let (generate, timings) = (d.generate, d.timings);
    let server_errors = d.teardown()?;
    let ctx = report::LayerContext {
        workload: &w,
        traced: &traced,
        plain: &plain,
        layers: &layers,
        generate,
        timings,
        server_errors,
    };
    out.metrics = report::per_layer(&ctx);
    out.tables = report::tables(&ctx);
    out.attempted = plain.counts.0 + traced.counts.0;
    out.failed = plain.counts.1 + traced.counts.1;
    Ok(out)
}

/// The workload called `name`.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Where deployments keep their files, under the directory the command
/// runs in.
pub fn default_data_dir() -> PathBuf {
    Path::new(".ledger-data").to_path_buf()
}
