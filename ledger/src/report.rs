//! Turning measurements into the named metrics, run facts, and the
//! traced run's "where the time went" table.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use hypermodel::CreationTimings;
use server::protocol::{Request, Response};

use crate::deploy::{Kind, Layers, PAGE_BYTES, POOL_FRAMES};
use crate::mix::Category;
use crate::run::{Phase, Share};
use crate::stats::{quantile_metric, ratio, Metric, Samples};
use crate::{Measured, Workload, LOOKUP_P99_LIMIT_US, TCP_LADDER};

/// Facts every result carries.
pub fn facts(w: &Workload, seed: u64) -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    let pool = match w.kind {
        Kind::Disk => format!("{POOL_FRAMES} frames x {} KiB", PAGE_BYTES / 1024),
        _ => "none (in-memory members)".into(),
    };
    let flush = match w.kind {
        Kind::Disk => "fsync of the WAL on every commit",
        Kind::Tcp => "fsync of the 2PC decision log on every commit",
    };
    let loop_kind = match w.ladder.is_empty() {
        true => "closed, 1 client".to_string(),
        false => format!(
            "unpaced (1 in flight), then open at {:?} ops/s; lookup p99 limit {LOOKUP_P99_LIMIT_US} us",
            TCP_LADDER.iter().filter_map(|r| r.rate).collect::<Vec<_>>()
        ),
    };
    [
        ("workload", w.name.to_string()),
        ("seed", seed.to_string()),
        (
            "level",
            format!(
                "{} ({} nodes)",
                w.level,
                (0..=w.level).map(|l| 5u64.pow(l)).sum::<u64>()
            ),
        ),
        ("loop", loop_kind),
        ("nproc", nproc.to_string()),
        ("kernel", kernel),
        ("commit", commit),
        ("pool", pool),
        ("flush", flush.into()),
        (
            "latency",
            "wall-clock on the machine that ran this (nproc and kernel above), not a device's"
                .into(),
        ),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of an untraced run: the ones a bound holds on a
/// shared host (see [`unbounded`] for the rest).
pub fn end_to_end(m: &Measured, setups: &[Duration], db_bytes: u64, nodes: u64) -> Vec<Metric> {
    let mut main: Phase = m.closed.clone();
    let mut lookup = main.lat(Category::Lookup, false).clone();
    let mut cold_lookup = main.lat(Category::Lookup, true).clone();
    let mut setup = Samples::default();
    for s in setups {
        setup.push(s.as_nanos() as u64);
    }
    vec![
        Metric::new("setup_s", "s", setup.quantile_us(0.5).0 / 1e6, setup.len()),
        quantile_metric("lookup_p50_us", &mut lookup, 0.5),
        quantile_metric("cold_lookup_p50_us", &mut cold_lookup, 0.5),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb(), 1),
        Metric::new(
            "db_bytes_per_node",
            "B",
            ratio(db_bytes as f64, nodes as f64),
            1,
        ),
    ]
}

/// End-to-end results of `phase` that no bound holds steady on a shared
/// host: the host's speed drifts by a quarter over minutes, and these
/// spread past 0.25 over ten runs (see the README). They are reported,
/// without a bound, among the per-layer metrics.
fn unbounded(phase: &Phase) -> Vec<Metric> {
    let mut main = phase.clone();
    let mut warm = |c: Category| main.lat(c, false).clone();
    let (mut lookup, mut closure) = (warm(Category::Lookup), warm(Category::Closure));
    vec![
        Metric::new("ops_per_s", "1/s", phase.ops_per_s(), phase.ops),
        quantile_metric("lookup_p90_us", &mut lookup, 0.9),
        quantile_metric("closure_p50_us", &mut closure, 0.5),
        quantile_metric("closure_p90_us", &mut closure, 0.9),
        per_op_metric("closure_us_per_node", phase, Category::Closure, 0.5, true),
        per_op_metric("scan_us_per_node", phase, Category::Scan, 0.5, true),
        per_op_metric("edit_p50_us", phase, Category::Edit, 0.5, false),
        per_op_metric("edit_p90_us", phase, Category::Edit, 0.9, false),
    ]
}

/// The geometric mean, over the operations of `cat` the phase ran warm,
/// of each one's own `q`-quantile: of its latency, or with `per_node` of
/// its latency over nodes returned. Each operation weighs the same however
/// often the mix draws it, so a change confined to one of them moves the
/// metric by the same share as a change of the same size to another. A
/// percentile of the category's samples pooled would read whichever op's
/// latency mode it falls in and miss changes to the others; a sum over a
/// sum would follow the few slowest calls.
fn per_op_metric(name: &str, phase: &Phase, cat: Category, q: f64, per_node: bool) -> Metric {
    let mut ops: Vec<_> = phase
        .warm_ops
        .iter()
        .filter(|(op, _)| Category::of(**op) == cat)
        .collect();
    ops.sort_by_key(|(op, _)| op.code());
    let (mut log_sum, mut n, mut fell_back) = (0.0, 0u64, Vec::new());
    for (op, samples) in &ops {
        let mut s = match per_node {
            true => samples.ps_per_node.clone(),
            false => samples.ns.clone(),
        };
        // ps per node read through the µs-of-ns helper come out in ns.
        let (value, used) = s.quantile_us(q);
        let us = if per_node { value / 1e3 } else { value };
        log_sum += us.max(1e-6).ln();
        n += s.len();
        if (used - q).abs() > 1e-9 {
            fell_back.push(format!("{} p{:.1}", op.code(), used * 100.0));
        }
    }
    let value = if ops.is_empty() {
        0.0
    } else {
        (log_sum / ops.len() as f64).exp()
    };
    let codes: Vec<_> = ops.iter().map(|(op, _)| op.code()).collect();
    let mut note = format!("geometric mean over {}", codes.join(", "));
    if !fell_back.is_empty() {
        note += &format!("; too few samples: {}", fell_back.join(", "));
    }
    Metric::new(name, "us", value, n).noted(note)
}

/// Everything the per-layer metrics are computed from.
pub struct LayerContext<'a> {
    /// The workload.
    pub workload: &'a Workload,
    /// The traced measurement.
    pub traced: &'a Measured,
    /// The untraced half, measured on a deployment of its own.
    pub plain: &'a Measured,
    /// The traced deployment's layers.
    pub layers: &'a Layers,
    /// Generation time of the traced deployment.
    pub generate: Duration,
    /// Load timings of the traced deployment.
    pub timings: CreationTimings,
    /// Error responses the server sent.
    pub server_errors: u64,
}

impl LayerContext<'_> {
    fn counter(&self, name: &str) -> f64 {
        self.traced.obs.counters.get(name).copied().unwrap_or(0) as f64
    }

    fn hist(&self, name: &str) -> obs::HistSnapshot {
        self.traced.obs.hists.get(name).cloned().unwrap_or_default()
    }

    fn share(&self, c: Category) -> Share {
        self.traced
            .attrib
            .as_ref()
            .and_then(|a| a.by_cat.get(&c).copied())
            .unwrap_or_default()
    }

    /// Mean executor dispatch wait per job (µs).
    fn wait_per_job_us(&self) -> f64 {
        let h = self.hist("exec.dispatch_wait_us");
        ratio(h.sum as f64, h.count as f64)
    }

    /// Mean `loop.frame` span (µs). The registry records each span as
    /// whole microseconds, truncated, so this is a floor: the true mean is
    /// less than 1 µs above it.
    fn frame_us(&self) -> f64 {
        let h = self.hist("span.loop.frame");
        ratio(h.sum as f64, h.count as f64)
    }
}

/// Encode and decode every captured frame until 50 ms have passed;
/// returns ns per frame for (encode, decode).
fn codec_ns(frames: &[(Request, Response)]) -> (f64, f64) {
    if frames.is_empty() {
        return (0.0, 0.0);
    }
    let (mut enc, mut dec, mut n) = (Duration::ZERO, Duration::ZERO, 0u64);
    let mut buf = Vec::new();
    let mut bytes: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(frames.len());
    while enc + dec < Duration::from_millis(50) {
        bytes.clear();
        let t = std::time::Instant::now();
        for (req, resp) in frames {
            buf.clear();
            req.encode_into(&mut buf);
            let r = buf.clone();
            buf.clear();
            resp.encode_into(&mut buf);
            bytes.push((r, buf.clone()));
        }
        enc += t.elapsed();
        let t = std::time::Instant::now();
        for (r, s) in &bytes {
            std::hint::black_box(Request::decode(r).expect("own request frame decodes"));
            std::hint::black_box(Response::decode(s).expect("own response frame decodes"));
        }
        dec += t.elapsed();
        n += 2 * frames.len() as u64;
    }
    (
        enc.as_nanos() as f64 / n as f64,
        dec.as_nanos() as f64 / n as f64,
    )
}

/// Per-layer metrics of a traced run. Layers a workload leaves idle read
/// zero.
pub fn per_layer(c: &LayerContext<'_>) -> Vec<Metric> {
    let m = c.traced;
    let ops = m.ops as f64;
    let (lookup, closure, edit) = (
        c.share(Category::Lookup),
        c.share(Category::Closure),
        c.share(Category::Edit),
    );
    let sharded = c.workload.kind != Kind::Disk;
    let (busy_ns, page_reads, commits) = c
        .layers
        .storage()
        .map(|l| {
            let s = l.state();
            (s.busy_ns, s.page_reads, s.commits.clone())
        })
        .unwrap_or_default();
    let frames = c
        .layers
        .member
        .as_ref()
        .map(|l| l.state().frames.clone())
        .unwrap_or_default();
    let (enc_ns, dec_ns) = codec_ns(&frames);
    let mut commit_ns = Samples::default();
    for &ns in &commits.ns {
        commit_ns.push(ns);
    }
    let n_commits = commits.ns.len() as f64;
    let (hits, misses) = (
        c.counter("storage.buffer.hits"),
        c.counter("storage.buffer.misses"),
    );
    let t = &c.timings;
    let per = |p: hypermodel::load::Phase| ratio(p.elapsed.as_nanos() as f64 / 1e3, p.count as f64);
    let wait_h = c.hist("exec.dispatch_wait_us");
    // The unbounded end-to-end results come from the untraced half.
    let mut out = unbounded(&c.plain.closed);
    out.extend([
        Metric::new(
            "hypermodel.generate_ms",
            "ms",
            c.generate.as_secs_f64() * 1e3,
            1,
        ),
        Metric::new(
            "hypermodel.load.internal_us_per_node",
            "us",
            per(t.internal_nodes),
            t.internal_nodes.count,
        ),
        Metric::new(
            "hypermodel.load.leaf_us_per_node",
            "us",
            per(t.leaf_nodes),
            t.leaf_nodes.count,
        ),
        Metric::new(
            "hypermodel.load.child_us_per_rel",
            "us",
            per(t.children_rels),
            t.children_rels.count,
        ),
        Metric::new(
            "hypermodel.load.part_us_per_rel",
            "us",
            per(t.parts_rels),
            t.parts_rels.count,
        ),
        Metric::new(
            "hypermodel.load.ref_us_per_rel",
            "us",
            per(t.refs_rels),
            t.refs_rels.count,
        ),
        Metric::new(
            "storage.buffer.hit_ratio",
            "ratio",
            ratio(hits, hits + misses),
            (hits + misses) as u64,
        ),
        Metric::new(
            "storage.buffer.misses_per_op",
            "count/op",
            ratio(misses, ops),
            m.ops,
        ),
        Metric::new(
            "storage.io.page_reads_per_op",
            "count/op",
            ratio(page_reads as f64, ops),
            m.ops,
        ),
        Metric::new(
            "storage.buffer.evictions_per_op",
            "count/op",
            ratio(c.counter("storage.buffer.evictions"), ops),
            m.ops,
        ),
        Metric::new(
            "storage.io.page_writes_per_commit",
            "count/commit",
            ratio(commits.page_writes as f64, n_commits),
            n_commits as u64,
        ),
        Metric::new(
            "storage.wal.bytes_per_commit",
            "B/commit",
            ratio(commits.wal_bytes as f64, n_commits),
            n_commits as u64,
        ),
        Metric::new(
            "storage.wal.fsyncs_per_commit",
            "count/commit",
            ratio(commits.wal_fsyncs as f64, n_commits),
            n_commits as u64,
        ),
        quantile_metric("storage.commit_us.p50", &mut commit_ns, 0.5),
        quantile_metric("storage.commit_us.p99", &mut commit_ns, 0.99),
        Metric::new(
            "mem.busy_us_per_op",
            "us",
            ratio(busy_ns as f64 / 1e3, ops),
            m.ops,
        ),
    ]);
    let self_us = |s: Share| match sharded {
        true => ratio(
            (s.wall_ns.saturating_sub(s.member_ns)) as f64 / 1e3,
            s.ops as f64,
        ),
        false => 0.0,
    };
    let per_op = |x: u64, s: Share| match sharded {
        true => ratio(x as f64, s.ops as f64),
        false => 0.0,
    };
    let skew = {
        let r = &m.shard_requests;
        let mean = ratio(r.iter().sum::<u64>() as f64, r.len() as f64);
        ratio(r.iter().copied().max().unwrap_or(0) as f64, mean)
    };
    out.extend([
        Metric::new(
            "shard.self_us_per_closure",
            "us",
            self_us(closure),
            closure.ops,
        ),
        Metric::new(
            "shard.member_calls_per_closure",
            "count/op",
            per_op(closure.member_calls, closure),
            closure.ops,
        ),
        Metric::new(
            "shard.member_calls_per_lookup",
            "count/op",
            per_op(lookup.member_calls, lookup),
            lookup.ops,
        ),
        Metric::new("shard.self_us_per_edit", "us", self_us(edit), edit.ops),
        Metric::new(
            "shard.2pc.prepared_per_edit",
            "count/op",
            per_op(edit.prepared, edit),
            edit.ops,
        ),
        Metric::new(
            "shard.2pc.aborted_per_edit",
            "count/op",
            per_op(edit.aborted, edit),
            edit.ops,
        ),
        Metric::new(
            "shard.request_skew",
            "ratio",
            skew,
            m.shard_requests.iter().sum(),
        ),
        Metric::new(
            "exec.jobs_per_op",
            "count/op",
            ratio(c.counter("exec.jobs"), ops),
            m.ops,
        ),
    ]);
    // The registry's histogram holds whole microseconds, bucketed.
    let (p50, p99) = (wait_h.quantile(0.5) as f64, wait_h.quantile(0.99) as f64);
    out.extend([
        Metric::new("exec.dispatch_wait_us.p50", "us", p50, wait_h.count),
        Metric::new("exec.dispatch_wait_us.p99", "us", p99, wait_h.count).noted(
            if wait_h.count < 1000 {
                "fewer than 1000 samples"
            } else {
                ""
            },
        ),
        Metric::new(
            "loop.frames_per_op",
            "count/op",
            ratio(c.counter("loop.frames"), ops),
            m.ops,
        ),
        Metric::new(
            "loop.frame_us.mean",
            "us",
            c.frame_us(),
            c.hist("span.loop.frame").count,
        )
        .noted("floor: spans are recorded as truncated whole us, true mean < value + 1"),
        Metric::new(
            "loop.parks_per_op",
            "count/op",
            ratio(c.counter("loop.parks"), ops),
            m.ops,
        ),
        Metric::new(
            "loop.idle_wakeups_per_op",
            "count/op",
            ratio(c.counter("loop.idle_wakeups"), ops),
            m.ops,
        ),
    ]);
    let tcp = c.workload.kind == Kind::Tcp;
    let mut rtt = Samples::default();
    if tcp {
        if let Some(l) = &c.layers.member {
            for &ns in &l.state().call_ns {
                rtt.push(ns);
            }
        }
    }
    let unattributed = if tcp { unattributed_us(c, &rtt) } else { 0.0 };
    // Each frame span may be up to 1 µs longer than recorded, so the true
    // unattributed time lies up to this much below the reported value.
    let truncation_us = ratio(c.counter("loop.frames"), rtt.len() as f64);
    out.extend([
        quantile_metric("server.rtt_us.p50", &mut rtt, 0.5),
        quantile_metric("server.rtt_us.p99", &mut rtt, 0.99),
        Metric::new("server.unattributed_us", "us", unattributed, rtt.len()).noted(format!(
            "ceiling: frame spans truncate to whole us, true value within {truncation_us:.2} us below"
        )),
        Metric::new(
            "server.round_trips_per_op",
            "count/op",
            ratio(c.counter("client.round_trips"), ops),
            m.ops,
        ),
        Metric::new(
            "server.write_batches_per_op",
            "count/op",
            ratio(c.counter("net.write_batches"), ops),
            m.ops,
        ),
        Metric::new(
            "server.bytes_per_op",
            "B/op",
            ratio(c.counter("net.bytes_sent"), ops),
            m.ops,
        ),
        Metric::new(
            "server.codec.encode_ns_per_frame",
            "ns",
            enc_ns,
            frames.len() as u64,
        ),
        Metric::new(
            "server.codec.decode_ns_per_frame",
            "ns",
            dec_ns,
            frames.len() as u64,
        ),
        Metric::new("server.errors", "count", c.server_errors as f64, 1),
        Metric::new("client.retries", "count", c.counter("client.retries"), 1),
    ]);
    out.extend(harness_metrics(&m.rungs));
    out.push(Metric::new(
        "obs.trace_overhead_ratio",
        "ratio",
        ratio(m.closed.ops_per_s(), c.plain.closed.ops_per_s()),
        m.closed.ops,
    ));
    out
}

/// Mean client round trip minus what the server side accounts for: the
/// store calls, the `loop.frame` span (a floor, see
/// [`LayerContext::frame_us`], which makes this a ceiling), and the
/// server's share of executor dispatch wait (client and server executors
/// share one histogram in this one-process deployment; the server's share
/// is estimated by its share of jobs, one per frame).
fn unattributed_us(c: &LayerContext<'_>, rtt: &Samples) -> f64 {
    let n = rtt.len() as f64;
    let server_ns = c.layers.server.as_ref().map_or(0, |l| l.state().busy_ns) as f64;
    let frames = c.counter("loop.frames");
    let wait_us = c.wait_per_job_us() * frames;
    let frame_us = c.frame_us() * frames;
    ratio(
        rtt.sum_ns() as f64 / 1e3 - server_ns / 1e3 - frame_us - wait_us,
        n,
    )
}

/// A paced rung's warm lookup p99 (µs) and whether it passes: p99 within
/// [`LOOKUP_P99_LIMIT_US`] and an end-of-rung backlog that would drain
/// within that limit.
fn rung_verdict(phase: &Phase, rate: f64) -> (f64, bool) {
    let mut lookups = phase
        .lat
        .get(&(Category::Lookup, false))
        .cloned()
        .unwrap_or_default();
    let (p99, _) = lookups.quantile_us(0.99);
    let drains = phase.backlog_end as f64 <= rate * LOOKUP_P99_LIMIT_US / 1e6;
    (
        p99,
        !lookups.is_empty() && p99 <= LOOKUP_P99_LIMIT_US && drains,
    )
}

/// The highest paced rate that passed, or 0.
fn max_rate(rungs: &[Phase]) -> f64 {
    rungs
        .iter()
        .filter_map(|p| p.rate.filter(|&r| rung_verdict(p, r).1))
        .fold(0.0, f64::max)
}

/// The open-loop ladder rung by rung (empty for a closed loop).
pub fn ladder_table(m: &Measured) -> String {
    let mut s = String::new();
    if m.rungs.is_empty() {
        return s;
    }
    let _ = writeln!(
        s,
        "{:<10} {:>8} {:>10} {:>16} {:>18} {:>12}  verdict",
        "rate/s", "ops", "ops/s", "lookup_p99_us", "send_lag_p99_us", "backlog_end"
    );
    let c = &m.closed;
    let _ = writeln!(s, "{:<10} {:>8} {:>10.1}", "unpaced", c.ops, c.ops_per_s());
    for p in &m.rungs {
        let rate = p.rate.unwrap_or_default();
        let (p99, pass) = rung_verdict(p, rate);
        let lag = p.send_lag.clone().quantile_us(0.99).0;
        let verdict = if pass { "pass" } else { "fail" };
        let (ops, ops_s, backlog) = (p.ops, p.ops_per_s(), p.backlog_end);
        let _ = writeln!(
            s,
            "{rate:<10} {ops:>8} {ops_s:>10.1} {p99:>16.1} {lag:>18.1} {backlog:>12}  {verdict}"
        );
    }
    let _ = writeln!(
        s,
        "max_rate_ops_per_s = {} (lookup p99 limit {LOOKUP_P99_LIMIT_US} us)",
        max_rate(&m.rungs)
    );
    s
}

/// The open-loop ladder's per-rung metrics (zero for closed loops).
fn harness_metrics(rungs: &[Phase]) -> Vec<Metric> {
    let max = max_rate(rungs);
    let mut out = vec![Metric::new(
        "harness.max_rate_ops_per_s",
        "1/s",
        max,
        rungs.len() as u64,
    )];
    for rate in TCP_LADDER.iter().filter_map(|r| r.rate) {
        let mut phase = rungs
            .iter()
            .find(|p| p.rate == Some(rate))
            .cloned()
            .unwrap_or_default();
        let lag = quantile_metric(
            &format!("harness.r{rate}.send_lag_us.p99"),
            &mut phase.send_lag,
            0.99,
        );
        out.push(lag);
        let backlog = phase.backlog_end as f64;
        out.push(Metric::new(
            format!("harness.r{rate}.backlog_end"),
            "count",
            backlog,
            1,
        ));
    }
    out
}

/// "Where the time went": each layer's mean time per warm-or-cold lookup
/// and closure in the traced run, and its share of the operation, which
/// is the share of `lookup_p50_us` / `closure_p50_us` it accounts for.
/// Then a summary of the span log.
pub fn tables(c: &LayerContext<'_>) -> String {
    let mut s = String::new();
    let cols = [Category::Lookup, Category::Closure];
    let _ = writeln!(
        s,
        "where the time went ({}, traced run, mean us per op and share)",
        c.workload.name
    );
    let _ = writeln!(s, "{:<38} {:>20} {:>20}", "layer", "lookup", "closure");
    for (name, per_cat) in breakdown(c) {
        let _ = write!(s, "{name:<38}");
        for (k, cat) in cols.iter().enumerate() {
            let sh = c.share(*cat);
            let wall = ratio(sh.wall_ns as f64 / 1e3, sh.ops as f64);
            let _ = write!(
                s,
                " {:>10.2} ({:>5.1}%)",
                per_cat[k],
                100.0 * ratio(per_cat[k], wall)
            );
        }
        let _ = writeln!(s);
    }
    let _ = writeln!(
        s,
        "obs.trace_overhead_ratio = {:.4} (traced {:.1} ops/s over untraced {:.1})",
        ratio(c.traced.closed.ops_per_s(), c.plain.closed.ops_per_s()),
        c.traced.closed.ops_per_s(),
        c.plain.closed.ops_per_s()
    );
    let spans = c.traced.attrib.as_ref().map_or(&[][..], |a| &a.spans[..]);
    let mut by_name: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for r in spans {
        let e = by_name.entry(r.name).or_default();
        e.0 += 1;
        e.1 += r.dur_us;
    }
    let _ = writeln!(
        s,
        "span log ({} spans recorded while measuring):",
        spans.len()
    );
    for (name, (n, us)) in by_name {
        let _ = writeln!(
            s,
            "  {name:<14} n={n:<8} mean_us={:.2}",
            ratio(us as f64, n as f64)
        );
    }
    s
}

/// Mean µs per op spent in each layer, for lookups and closures.
fn breakdown(c: &LayerContext<'_>) -> Vec<(&'static str, [f64; 2])> {
    let cats = [c.share(Category::Lookup), c.share(Category::Closure)];
    let mean = |f: &dyn Fn(&Share) -> f64| cats.map(|s| ratio(f(&s), s.ops as f64));
    let wait = c.wait_per_job_us();
    let frame = c.frame_us();
    match c.workload.kind {
        Kind::Disk => vec![
            (
                "disk-backend + storage",
                mean(&|s| s.member_ns as f64 / 1e3),
            ),
            (
                "benchmark loop",
                mean(&|s| s.wall_ns.saturating_sub(s.member_ns) as f64 / 1e3),
            ),
        ],
        Kind::Tcp => vec![
            (
                "shard: client routing (self)",
                mean(&|s| {
                    let client_jobs = s.jobs.saturating_sub(s.frames) as f64;
                    (s.wall_ns.saturating_sub(s.member_ns) as f64 / 1e3 - client_jobs * wait)
                        .max(0.0)
                }),
            ),
            (
                "exec: client dispatch wait (est.)",
                mean(&|s| s.jobs.saturating_sub(s.frames) as f64 * wait),
            ),
            (
                "mem-backend: server store calls",
                mean(&|s| s.server_ns as f64 / 1e3),
            ),
            ("loop.frame", mean(&|s| s.frames as f64 * frame)),
            (
                "exec: server dispatch wait (est.)",
                mean(&|s| s.frames as f64 * wait),
            ),
            (
                "server.unattributed (wire, wakeups)",
                mean(&|s| {
                    (s.member_ns as f64 / 1e3
                        - s.server_ns as f64 / 1e3
                        - s.frames as f64 * (frame + wait))
                        .max(0.0)
                }),
            ),
        ],
    }
}
