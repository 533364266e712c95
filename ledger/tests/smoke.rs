//! Tiny-size runs of every workload: each emits exactly the metrics
//! `BENCHMARK.json` names, with their units, and a corrupted store trips
//! the oracle check.

use std::path::PathBuf;

use ledger::{run, Options, Outcome, WORKLOADS};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\"")).expect("key present");
        let rest = &entry[at + key.len() + 2..];
        let open = rest.find('"').expect("value opens") + 1;
        let close = rest[open..].find('"').expect("value closes") + open;
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect()
}

fn tiny(name: &str, trace: bool, corrupt: bool) -> Outcome {
    let mut workload = ledger::workload(name).expect("known workload");
    workload.level = 3;
    let opts = Options {
        workload,
        seed: 7,
        seconds: 0.4,
        trace,
        data_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("ledger-smoke"),
        corrupt,
    };
    run(&opts).expect("tiny run completes")
}

fn emitted(out: &Outcome) -> Vec<(String, String)> {
    out.metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn benchmark_json_names_the_workloads() {
    let text = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
    )
    .unwrap();
    for w in WORKLOADS {
        assert!(
            text.contains(&format!("\"name\": \"{}\"", w.name)),
            "{} missing",
            w.name
        );
    }
}

#[test]
fn every_workload_emits_every_metric() {
    let (e2e, layers) = (declared("end_to_end"), declared("per_layer"));
    assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for w in WORKLOADS {
        let out = tiny(w.name, false, false);
        assert!(
            out.correct(),
            "{}: {} of {} failed",
            w.name,
            out.failed,
            out.attempted
        );
        assert_eq!(emitted(&out), e2e, "{}: end-to-end metrics", w.name);
        for m in &out.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {} = {}",
                w.name,
                m.name,
                m.value
            );
        }
        let out = tiny(w.name, true, false);
        assert!(
            out.correct(),
            "{} traced: {} of {} failed",
            w.name,
            out.failed,
            out.attempted
        );
        assert_eq!(emitted(&out), layers, "{}: per-layer metrics", w.name);
        assert!(out.tables.contains("where the time went"), "{}", w.name);
    }
}

#[test]
fn a_corrupted_store_trips_the_oracle_check() {
    for w in WORKLOADS {
        let out = tiny(w.name, false, true);
        assert!(!out.correct(), "{}: corruption went unnoticed", w.name);
        assert!(out.failed > 0, "{}", w.name);
    }
}
