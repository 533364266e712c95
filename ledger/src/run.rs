//! Driving a deployment: the closed loop, the open-loop rate ladder, and
//! the per-operation attribution the traced run feeds its layer metrics.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hypermodel::ops::OpId;
use hypermodel::HyperStore;

use crate::deploy::Layers;
use crate::mix::{execute, Category, Checker, InputStream, Item, Mix};
use crate::stats::Samples;
use crate::timed::Layer;

/// One rung of an open-loop ladder: an arrival rate (`None` = unpaced,
/// the next request as soon as the last one finished) and its share of
/// the run's measuring time.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    /// Requests per second, or `None` for the unpaced rung.
    pub rate: Option<f64>,
    /// Share of the run's measuring time.
    pub share: f64,
}

/// What one phase (the closed loop, or one rung) measured.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Arrival rate, for a paced rung.
    pub rate: Option<f64>,
    /// Latencies (ns), keyed by (category, cold).
    pub lat: BTreeMap<(Category, bool), Samples>,
    /// Operations completed.
    pub ops: u64,
    /// Wall time of the phase.
    pub elapsed: Duration,
    /// How late each paced request was sent.
    pub send_lag: Samples,
    /// Requests due by the end of the rung but never sent.
    pub backlog_end: u64,
    /// Warm latencies, per operation.
    pub warm_ops: HashMap<OpId, OpSamples>,
}

/// One operation's warm samples.
#[derive(Debug, Clone, Default)]
pub struct OpSamples {
    /// Latencies (ns).
    pub ns: Samples,
    /// Latency over nodes returned, in picoseconds per node (so that the
    /// nanosecond sample type keeps sub-nanosecond resolution).
    pub ps_per_node: Samples,
}

impl Phase {
    /// The latencies of `(cat, cold)`.
    pub fn lat(&mut self, cat: Category, cold: bool) -> &mut Samples {
        self.lat.entry((cat, cold)).or_default()
    }

    /// Completed operations per second.
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Per-category attribution of layer time, for the traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Share {
    /// Operations attributed.
    pub ops: u64,
    /// Wall time of those operations (ns).
    pub wall_ns: u64,
    /// Calls into the member layer.
    pub member_calls: u64,
    /// Time covered by member calls (ns).
    pub member_ns: u64,
    /// Time covered by the server-side store calls (ns).
    pub server_ns: u64,
    /// Executor jobs run.
    pub jobs: u64,
    /// Event-loop frames handled.
    pub frames: u64,
    /// 2PC transactions prepared.
    pub prepared: u64,
    /// 2PC transactions aborted.
    pub aborted: u64,
}

/// Reads the counters an operation moves, before and after it.
pub struct Attrib {
    member: Option<Arc<Layer>>,
    server: Option<Arc<Layer>>,
    counters: [Arc<obs::Counter>; 4],
    /// Per-category totals.
    pub by_cat: BTreeMap<Category, Share>,
    /// Spans drained from the registry's bounded log at each cycle end.
    pub spans: Vec<obs::SpanRecord>,
}

impl Attrib {
    /// Attribution over the layers of a traced deployment.
    pub fn new(layers: &Layers) -> Attrib {
        let reg = obs::registry();
        reg.clear_spans();
        Attrib {
            member: layers.member.clone(),
            server: layers.server.clone(),
            counters: [
                "exec.jobs",
                "loop.frames",
                "shard.2pc.prepared",
                "shard.2pc.aborted",
            ]
            .map(|n| reg.counter(n)),
            by_cat: BTreeMap::new(),
            spans: Vec::new(),
        }
    }

    /// Move the registry's span log into memory here, keeping the
    /// registry's log (which drops its oldest records when full) short.
    fn drain_spans(&mut self) {
        let reg = obs::registry();
        self.spans.extend(reg.spans());
        reg.clear_spans();
    }

    fn read(&self) -> [u64; 7] {
        let (mc, mns) = self.member.as_ref().map_or((0, 0), |l| l.totals());
        let sns = self.server.as_ref().map_or(0, |l| l.totals().1);
        let c = &self.counters;
        [mc, mns, sns, c[0].get(), c[1].get(), c[2].get(), c[3].get()]
    }

    fn add(&mut self, cat: Category, before: [u64; 7], wall_ns: u64) {
        let after = self.read();
        let d = |i: usize| after[i].saturating_sub(before[i]);
        let s = self.by_cat.entry(cat).or_default();
        s.ops += 1;
        s.wall_ns += wall_ns;
        s.member_calls += d(0);
        s.member_ns += d(1);
        s.server_ns += d(2);
        s.jobs += d(3);
        s.frames += d(4);
        s.prepared += d(5);
        s.aborted += d(6);
    }
}

/// Steps through cycles: cold pass, commit, warm pass, commit, with a
/// `cold_restart` before each cycle.
pub struct Cycles<'a> {
    stream: InputStream,
    mix: Mix,
    db: &'a hypermodel::TestDatabase,
    pass: Vec<Item>,
    pos: usize,
    cold: bool,
}

impl<'a> Cycles<'a> {
    /// Cycles over `db` drawing `mix` from `stream`.
    pub fn new(db: &'a hypermodel::TestDatabase, mix: Mix, stream: InputStream) -> Cycles<'a> {
        Cycles {
            stream,
            mix,
            db,
            pass: Vec::new(),
            pos: 0,
            cold: false,
        }
    }

    /// True between cycles, when the database is in its pristine state.
    pub fn at_boundary(&self) -> bool {
        !self.cold && self.pos == self.pass.len()
    }

    /// The next item and whether it is in the cold pass, running the
    /// pass-boundary commit and restart first when one is due.
    pub fn next(&mut self, store: &mut dyn HyperStore) -> hypermodel::Result<(Item, bool)> {
        while self.pos == self.pass.len() {
            store.commit()?;
            if self.cold {
                self.cold = false;
            } else {
                self.pass = self.stream.next_pass(self.db, self.mix);
                store.cold_restart()?;
                self.cold = true;
            }
            self.pos = 0;
        }
        self.pos += 1;
        Ok((self.pass[self.pos - 1], self.cold))
    }
}

/// Runs items against a store, checking and recording each.
pub struct Driver<'a, 'b> {
    /// The store under test.
    pub store: &'b mut dyn HyperStore,
    /// Object ids by node index.
    pub oids: &'b [hypermodel::Oid],
    /// The oracle check.
    pub checker: Checker<'a>,
    /// Operations attempted (including pass-boundary commits that failed).
    pub attempted: u64,
    /// Operations that errored or disagreed with the oracle.
    pub failed: u64,
    /// Layer attribution, in a traced run.
    pub attrib: Option<Attrib>,
}

impl Driver<'_, '_> {
    fn step(&mut self, cycles: &mut Cycles<'_>, phase: &mut Phase, due: Option<Instant>) {
        let (item, cold) = match cycles.next(self.store) {
            Ok(x) => x,
            Err(_) => {
                self.attempted += 1;
                self.failed += 1;
                return;
            }
        };
        let before = self.attrib.as_ref().map(Attrib::read);
        let start = Instant::now();
        if let Some(due) = due {
            phase
                .send_lag
                .push(start.saturating_duration_since(due).as_nanos() as u64);
        }
        let answer = execute(self.store, self.oids, item, cold);
        let end = Instant::now();
        self.attempted += 1;
        let cat = Category::of(item.op);
        if let (Some(a), Some(b)) = (self.attrib.as_mut(), before) {
            a.add(cat, b, end.duration_since(start).as_nanos() as u64);
        }
        match answer {
            Ok(ans) if self.checker.check(item, cold, &ans) => {
                phase.ops += 1;
                let ns = end.duration_since(due.unwrap_or(start)).as_nanos() as u64;
                phase.lat(cat, cold).push(ns);
                if !cold {
                    let op = phase.warm_ops.entry(item.op).or_default();
                    op.ns.push(ns);
                    op.ps_per_node
                        .push(ns.saturating_mul(1000) / ans.nodes().max(1));
                }
            }
            _ => self.failed += 1,
        }
        if let Some(a) = self.attrib.as_mut().filter(|_| cycles.at_boundary()) {
            a.drain_spans();
        }
    }

    /// Closed loop, one request in flight, for `secs`; stops at a cycle
    /// boundary.
    pub fn closed(&mut self, cycles: &mut Cycles<'_>, secs: f64) -> Phase {
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(secs);
        let mut phase = Phase::default();
        while !(cycles.at_boundary() && Instant::now() >= end) {
            self.step(cycles, &mut phase, None);
        }
        phase.elapsed = start.elapsed();
        phase
    }

    /// The ladder: the unpaced rung (at most one) runs as
    /// [`Driver::closed`] and is returned first; paced rungs are an open
    /// loop, one generator over the store's connections, each request due
    /// at `start + i / rate` and timed from then, so a stall delays (and is
    /// charged to) the requests queued behind it. Finishes the last cycle
    /// unrecorded.
    pub fn ladder(
        &mut self,
        cycles: &mut Cycles<'_>,
        ladder: &[Rung],
        secs: f64,
    ) -> (Phase, Vec<Phase>) {
        debug_assert!(ladder.iter().filter(|r| r.rate.is_none()).count() <= 1);
        let (mut unpaced, mut phases) = (Phase::default(), Vec::new());
        for rung in ladder {
            let span = Duration::from_secs_f64(secs * rung.share);
            let Some(rate) = rung.rate else {
                unpaced = self.closed(cycles, span.as_secs_f64());
                continue;
            };
            let mut phase = Phase {
                rate: Some(rate),
                ..Phase::default()
            };
            let start = Instant::now();
            let end = start + span;
            let mut sent = 0u64;
            loop {
                let due = start + Duration::from_secs_f64(sent as f64 / rate);
                if due >= end {
                    break;
                }
                wait_until(due);
                let now = Instant::now();
                if now >= end {
                    let due_by_end = (end.duration_since(start).as_secs_f64() * rate).ceil() as u64;
                    phase.backlog_end = due_by_end.saturating_sub(sent);
                    break;
                }
                self.step(cycles, &mut phase, Some(due));
                sent += 1;
            }
            phase.elapsed = start.elapsed();
            phases.push(phase);
        }
        let mut drain = Phase::default();
        while !cycles.at_boundary() {
            self.step(cycles, &mut drain, None);
        }
        (unpaced, phases)
    }
}

/// Cumulative steal time of all CPUs in clock ticks (`/proc/stat`), or 0
/// where the kernel does not report it, and the number of CPUs it covers.
pub fn steal_ticks() -> (u64, usize) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks = stat
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0);
    let cpus = stat
        .lines()
        .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
        .count();
    (ticks, cpus)
}

/// Wait for `t`: sleep while it is far off, then spin, yielding to any
/// runnable thread. A sleeping generator wakes late by the timer slack
/// plus the virtual CPU's own wake-up, which would be charged to the
/// requests behind it; the spin keeps the generator's thread awake for
/// the last stretch.
fn wait_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > Duration::from_millis(3) {
            std::thread::sleep(left - Duration::from_millis(2));
        } else {
            std::thread::yield_now();
        }
    }
}
