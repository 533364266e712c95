//! `ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run's facts and every metric with its unit and sample count,
//! then, as the last line, one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}`.
//! Exits 1 when any answer disagreed with the oracle or the database was
//! not back in its pristine state, 2 on a usage error.

use std::fmt::Write as _;
use std::process::ExitCode;

use ledger::deploy::Kind;
use ledger::{default_data_dir, run, workload, Options, WORKLOADS};

fn usage(msg: &str) -> ExitCode {
    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!("error: {msg}");
    eprintln!(
        "usage: ledger --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Pin this process to its first allowed CPU with `taskset`, before any
/// thread starts, so that every thread spawned later inherits the pin.
/// Returns what was done, as a run fact.
///
/// On a shared host the hypervisor takes CPU time from the guest's
/// virtual CPUs in spells, and a request that hands work from thread to
/// thread across CPUs (client, event loop, executors) waits on each hand
/// off for a virtual CPU the host may be running someone else on: in
/// `tcp-l5-open` runs at 27-52 % steal, unpinned lookup p90s read 2.6 to
/// 5.8 times their quiet value, pinned ones 1.1 to 1.2 times. On one CPU
/// the hand-offs become context switches. The cost is that parallel work
/// (shards served at the same time) runs in turn.
fn pin_to_one_cpu() -> String {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(cpu) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .and_then(|list| list.trim().split([',', '-']).next())
        .and_then(|first| first.parse::<u32>().ok())
    else {
        return "not pinned (no allowed-CPU list in /proc/self/status)".into();
    };
    let pid = std::process::id().to_string();
    match std::process::Command::new("taskset")
        .args(["-p", "-c", &cpu.to_string(), &pid])
        .output()
    {
        Ok(o) if o.status.success() => format!("pinned to CPU {cpu} (taskset)"),
        Ok(o) => format!(
            "not pinned (taskset: {})",
            String::from_utf8_lossy(&o.stderr).trim()
        ),
        Err(e) => format!("not pinned (taskset: {e})"),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut name, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => name = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(name), Some(seed), Some(seconds), Some(trace)) = (name, seed, seconds, trace) else {
        return usage("--workload, --seed, --seconds (> 0) and --trace (0 or 1) are required");
    };
    let Some(workload) = workload(&name) else {
        return usage(&format!("unknown workload {name}"));
    };
    // `disk-l7` runs on one thread, so it has no hand-offs to keep on one
    // CPU; pinned, its runs spread wider than unpinned ones (README).
    let pinned = match workload.kind {
        Kind::Tcp => pin_to_one_cpu(),
        Kind::Disk => "not pinned (one thread)".to_string(),
    };
    let opts = Options {
        workload,
        seed,
        seconds,
        trace,
        data_dir: default_data_dir(),
        corrupt: false,
    };
    let out = match run(&opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    println!("fact cpu: {pinned}");
    for (k, v) in &out.facts {
        println!("fact {k}: {v}");
    }
    print!("{}", out.tables);
    let mut json = String::new();
    for (i, m) in out.metrics.iter().enumerate() {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  [{}]", m.note)
        };
        println!(
            "metric {:<40} {:>16.4} {:<12} n={}{note}",
            m.name, m.value, m.unit, m.samples
        );
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(&m.name),
            m.value,
            json_str(m.unit)
        );
    }
    let ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "fail_ratio {ratio} ({} of {} operations and sweep checks)",
        out.failed, out.attempted
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        out.correct(),
        out.attempted,
        out.failed
    );
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
