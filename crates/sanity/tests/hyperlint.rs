//! End-to-end tests for the `hyperlint` binary: the real workspace must
//! lint clean, and a seeded violation of each rule must fail the run
//! with a `file:line`-addressed finding.

use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

/// Build a minimal seeded workspace that satisfies every rule, then let
/// a test break exactly one thing.
fn seed_tree(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("hyperlint-seed-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let write = |rel: &str, body: &str| {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(path, body).expect("write seed file");
    };
    write("Cargo.toml", "[workspace]\nmembers = []\n");
    write(
        "crates/server/src/protocol.rs",
        "pub enum Request {\n    Ping,\n    Get { id: u64 },\n    Stats,\n}\n\
         pub enum Response {\n    Pong,\n    Value(u64),\n    Stats(String),\n}\n",
    );
    write(
        "crates/server/src/server.rs",
        "use crate::protocol::{Request, Response};\n\
         pub fn dispatch(req: Request) -> Response {\n\
             match req {\n\
                 Request::Ping => Response::Pong,\n\
                 Request::Get { id } => Response::Value(id),\n\
                 Request::Stats => Response::Stats(String::new()),\n\
             }\n\
         }\n",
    );
    write(
        "crates/server/src/client.rs",
        "use crate::protocol::{Request, Response};\n\
         pub fn name(msg: &Request, resp: &Response) -> &'static str {\n\
             match (msg, resp) {\n\
                 (Request::Ping, Response::Pong) => \"ping\",\n\
                 (Request::Get { .. }, Response::Value(_)) => \"get\",\n\
                 (Request::Stats, Response::Stats(_)) => \"stats\",\n\
                 _ => \"other\",\n\
             }\n\
         }\n",
    );
    write("crates/server/src/multi.rs", "pub fn noop() {}\n");
    write(
        "crates/server/src/codec.rs",
        "pub fn decode_oids(n: usize) -> Vec<u64> {\n\
         \x20   Vec::with_capacity(prealloc_cap(n, 8))\n\
         }\n",
    );
    write(
        "crates/server/src/transport.rs",
        "pub const MAX_FRAME: usize = 64 << 20;\n",
    );
    write("crates/exec/src/pool.rs", "pub fn noop() {}\n");
    write(
        "crates/shard/src/coordinator.rs",
        "pub fn decide() -> Option<bool> {\n    Some(true)\n}\n",
    );
    write(
        "crates/shard/src/store.rs",
        "pub fn get(v: Option<u32>) -> u32 {\n    v.unwrap_or(0)\n}\n",
    );
    root
}

fn run_lint(root: &Path) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hyperlint"))
        .arg("--root")
        .arg(root)
        .output()
        .expect("run hyperlint");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code().unwrap_or(-1), text)
}

fn append(root: &Path, rel: &str, extra: &str) {
    let path = root.join(rel);
    let mut src = std::fs::read_to_string(&path).expect("read seed file");
    src.push_str(extra);
    std::fs::write(path, src).expect("write seed file");
}

#[test]
fn real_workspace_is_clean() {
    let (code, text) = run_lint(&workspace_root());
    assert_eq!(code, 0, "workspace should lint clean:\n{text}");
    assert!(text.contains("clean"), "unexpected output: {text}");
}

#[test]
fn seeded_tree_is_clean() {
    let root = seed_tree("clean");
    let (code, text) = run_lint(&root);
    assert_eq!(code, 0, "seed tree should lint clean:\n{text}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn direct_sync_import_fails_the_lint() {
    let root = seed_tree("sync");
    append(
        &root,
        "crates/server/src/multi.rs",
        "use std::sync::Mutex;\npub static M: Mutex<u32> = Mutex::new(0);\n",
    );
    let (code, text) = run_lint(&root);
    assert_eq!(code, 1, "expected findings:\n{text}");
    assert!(text.contains("[direct-sync]"), "output: {text}");
    assert!(
        text.contains("multi.rs:2:"),
        "finding must be addressed: {text}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn parking_lot_import_fails_the_lint() {
    let root = seed_tree("plot");
    append(
        &root,
        "crates/exec/src/pool.rs",
        "pub type Slot = parking_lot::Mutex<u32>;\n",
    );
    let (code, text) = run_lint(&root);
    assert_eq!(code, 1, "expected findings:\n{text}");
    assert!(text.contains("[direct-sync]"), "output: {text}");
    assert!(text.contains("pool.rs:2:"), "output: {text}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn unwrap_in_commit_path_fails_the_lint() {
    let root = seed_tree("unwrap");
    append(
        &root,
        "crates/shard/src/store.rs",
        "pub fn bad(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n",
    );
    let (code, text) = run_lint(&root);
    assert_eq!(code, 1, "expected findings:\n{text}");
    assert!(text.contains("[no-unwrap]"), "output: {text}");
    assert!(text.contains("store.rs:5:"), "output: {text}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn lint_allow_suppresses_a_reviewed_unwrap() {
    let root = seed_tree("allow");
    append(
        &root,
        "crates/shard/src/store.rs",
        "pub fn reviewed(v: Option<u32>) -> u32 {\n\
         \x20   // lint:allow(no-unwrap) - input is validated by the caller\n\
         \x20   v.unwrap()\n\
         }\n",
    );
    let (code, text) = run_lint(&root);
    assert_eq!(code, 0, "allow marker should suppress:\n{text}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn condvar_wait_holding_second_lock_fails_the_lint() {
    let root = seed_tree("condvar");
    append(
        &root,
        "crates/exec/src/pool.rs",
        "pub fn bad(a: &sanity::sync::Mutex<u32>, b: &sanity::sync::Mutex<u32>, cv: &sanity::sync::Condvar) {\n\
         \x20   let stats = a.lock();\n\
         \x20   let mut inner = b.lock();\n\
         \x20   cv.wait(&mut inner);\n\
         \x20   drop(stats);\n\
         }\n",
    );
    let (code, text) = run_lint(&root);
    assert_eq!(code, 1, "expected findings:\n{text}");
    assert!(text.contains("[condvar-hold]"), "output: {text}");
    assert!(text.contains("pool.rs:5:"), "output: {text}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn dropped_protocol_variant_fails_the_lint() {
    let root = seed_tree("parity");
    // client.rs stops referencing Request::Get: stale match arms.
    std::fs::write(
        root.join("crates/server/src/client.rs"),
        "use crate::protocol::{Request, Response};\n\
         pub fn name(msg: &Request, resp: &Response) -> &'static str {\n\
             match (msg, resp) {\n\
                 (Request::Ping, Response::Pong) => \"ping\",\n\
                 (_, Response::Value(_)) => \"value\",\n\
                 _ => \"other\",\n\
             }\n\
         }\n",
    )
    .expect("rewrite client");
    let (code, text) = run_lint(&root);
    assert_eq!(code, 1, "expected findings:\n{text}");
    assert!(text.contains("[protocol-parity]"), "output: {text}");
    assert!(text.contains("Request::Get"), "output: {text}");
    assert!(text.contains("client.rs"), "output: {text}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn unclamped_decode_prealloc_fails_the_lint() {
    let root = seed_tree("decode-cap");
    append(
        &root,
        "crates/server/src/codec.rs",
        "pub fn decode_edges(n: usize) -> Vec<u8> {\n\
         \x20   Vec::with_capacity(n.min(1 << 20))\n\
         }\n",
    );
    let (code, text) = run_lint(&root);
    assert_eq!(code, 1, "expected findings:\n{text}");
    assert!(text.contains("[decode-cap]"), "output: {text}");
    assert!(text.contains("codec.rs:5:"), "output: {text}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn missing_scope_file_is_a_finding_not_a_pass() {
    let root = seed_tree("missing");
    std::fs::remove_file(root.join("crates/server/src/protocol.rs")).expect("remove");
    let (code, text) = run_lint(&root);
    assert_eq!(code, 1, "expected findings:\n{text}");
    assert!(text.contains("protocol.rs:0:"), "output: {text}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn usage_error_exits_two() {
    let out = Command::new(env!("CARGO_BIN_EXE_hyperlint"))
        .arg("--bogus-flag")
        .output()
        .expect("run hyperlint");
    assert_eq!(out.status.code(), Some(2));
}
