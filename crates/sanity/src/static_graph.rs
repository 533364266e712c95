//! Engine behind the `hyperstatic` binary: whole-workspace call-graph
//! analysis for lock-order, blocking-path, and panic-path hazards.
//!
//! The runtime detector in [`crate::order`] only sees hazards on paths
//! a test actually executes. This module lifts the token-level lexer in
//! [`crate::lint`] into a lightweight item/function parser, extracts
//! per-function facts, links them into an approximate intra-workspace
//! call graph, and runs fixpoint propagation so hazards that only
//! materialize *through* helper functions are still found:
//!
//! * per-function facts — which locks are acquired (`.lock()` /
//!   zero-arg `.read()` / `.write()`) and where their guards drop
//!   (brace scope or `drop(guard)`), which calls can block (`send`,
//!   `recv`, `write_all`, `sync_all`, `sync_data`, `join`), and which
//!   can panic (`unwrap`/`expect`, `panic!`-family macros, non-literal
//!   indexing) outside `#[cfg(test)]`;
//! * an approximate call graph: call sites are matched to workspace
//!   functions **by bare name** (no type or trait-object resolution);
//! * fixpoint propagation of "may block", "may panic" and the
//!   transitive lock-acquisition closure of every function.
//!
//! Three rules are reported, each suppressible with
//! `// lint:allow(<rule>)` on (or above) the primary line:
//!
//! * `static-lock-cycle` — the static lock-order graph (a superset of
//!   the runtime detector's graph; see the cross-checks in
//!   `crates/{exec,shard}/tests/sanity_locks.rs`) contains a cycle;
//! * `lock-across-blocking` — a lock is held across a blocking call,
//!   including calls that only block transitively through helpers: the
//!   inter-procedural version of the hazard the runtime `send`-shim
//!   flags;
//! * `panic-path` — a panicking call is reachable from a request
//!   dispatch root (`server` dispatch, `exec` job execution) outside
//!   any `catch_unwind`.
//!
//! Findings diff against a committed baseline (`hyperstatic.baseline`)
//! keyed without line numbers, so CI fails only on *new* findings and
//! the baseline survives unrelated line drift.
//!
//! Known approximations (see DESIGN.md §14): name-based call matching
//! (no receiver types, so same-named methods unify), closures are
//! inlined into their enclosing function (a spawned closure's facts are
//! attributed to the spawner), lock identity is textual (locals are
//! qualified per-function; `self.field` becomes `Type.field`), and
//! statement-temporary guards (`x.lock().f()`) are considered held only
//! for the rest of their own line.

use crate::lint::{self, Prepared};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::path::{Path, PathBuf};

pub const RULE_STATIC_CYCLE: &str = "static-lock-cycle";
pub const RULE_LOCK_BLOCKING: &str = "lock-across-blocking";
pub const RULE_PANIC_PATH: &str = "panic-path";

/// Rules owned by `hyperstatic` (its `lint:allow` namespace).
pub const HYPERSTATIC_RULES: &[&str] = &[RULE_STATIC_CYCLE, RULE_LOCK_BLOCKING, RULE_PANIC_PATH];

/// Directories whose sources are parsed for facts.
const SCAN_SCOPE: &[&str] = &[
    "crates/shard/src",
    "crates/exec/src",
    "crates/server/src",
    "crates/rebalance/src",
    "crates/storage/src",
];

/// Panic-path findings are only reported for panic sites under these
/// directories. `storage` is excluded: its slotted-page code indexes
/// into page buffers pervasively behind bounds already validated by its
/// own proptest suite, and flooding the baseline with those sites would
/// bury real dispatch-path regressions.
const PANIC_SCOPE: &[&str] = &[
    "crates/shard/src",
    "crates/exec/src",
    "crates/server/src",
    "crates/rebalance/src",
];

/// Dispatch roots for panic reachability: (file suffix, function name).
const PANIC_ROOTS: &[(&str, &str)] = &[
    ("crates/server/src/server.rs", "dispatch"),
    ("crates/server/src/server.rs", "serve_with_cache"),
    ("crates/server/src/server.rs", "session"),
    ("crates/server/src/multi.rs", "accept_loop"),
    ("crates/server/src/multi.rs", "serve_conn"),
    ("crates/server/src/multi.rs", "execute"),
    ("crates/exec/src/pool.rs", "submit"),
    ("crates/exec/src/pool.rs", "with_shard"),
];

/// Method names consumed as primitives (lock/blocking events), never
/// linked to same-named workspace functions: linking `tx.send(..)` to
/// some workspace `fn send` by name alone would wire the graph to the
/// wrong node, and the direct primitive match already captures the
/// blocking effect.
const PRIMITIVE_NAMES: &[&str] = &[
    "lock",
    "read",
    "write",
    "send",
    "recv",
    "join",
    "write_all",
    "sync_all",
    "sync_data",
    "wait",
    "unwrap",
    "expect",
    "unwrap_err",
    "expect_err",
    "drop",
];

// ---------------------------------------------------------------------------
// Facts
// ---------------------------------------------------------------------------

/// A lock held at some point: (normalized lock name, acquisition line).
pub type Held = (String, usize);

/// One lock acquisition.
#[derive(Debug, Clone)]
pub struct LockAcq {
    pub lock: String,
    pub line: usize,
    /// Locks already held when this one is taken.
    pub held: Vec<Held>,
}

/// One potentially blocking primitive call.
#[derive(Debug, Clone)]
pub struct BlockCall {
    pub what: &'static str,
    pub line: usize,
    pub held: Vec<Held>,
}

/// One potentially panicking site.
#[derive(Debug, Clone)]
pub struct PanicSite {
    pub what: String,
    pub line: usize,
    /// Inside a `catch_unwind` closure — the panic cannot escape.
    pub caught: bool,
}

/// One call to a (possibly) workspace function.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub callee: String,
    /// `Type` in a qualified `Type::callee(..)` call; lowercase for
    /// module paths (`slotted::init`). `None` for method / bare calls.
    pub qual_type: Option<String>,
    pub line: usize,
    pub held: Vec<Held>,
    pub caught: bool,
}

/// Facts for one function.
#[derive(Debug, Clone)]
pub struct FnInfo {
    pub name: String,
    /// `Type::name` inside an impl block, else just `name`.
    pub qual: String,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line of the `fn` header.
    pub line: usize,
    pub locks: Vec<LockAcq>,
    pub blocks: Vec<BlockCall>,
    pub panics: Vec<PanicSite>,
    pub calls: Vec<CallSite>,
}

/// One edge of the static lock-order graph: `from` was held while `to`
/// was acquired. Sites are `file:line`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct StaticEdge {
    pub from: String,
    pub to: String,
    pub from_site: String,
    pub to_site: String,
}

/// One analyzer finding.
#[derive(Debug, Clone)]
pub struct StaticFinding {
    pub rule: &'static str,
    /// Primary file (workspace-relative) — where suppression applies.
    pub file: String,
    pub line: usize,
    /// Enclosing function (`Type::name`), empty for graph-level rules.
    pub qual: String,
    /// Line-number-free detail; part of the baseline key.
    pub detail: String,
    pub message: String,
}

impl StaticFinding {
    /// Baseline key: stable across unrelated line drift.
    pub fn key(&self) -> String {
        format!("{}|{}|{}|{}", self.rule, self.file, self.qual, self.detail)
    }
}

impl fmt::Display for StaticFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Everything one analysis pass produced.
pub struct Analysis {
    pub fns: Vec<FnInfo>,
    pub graph: Vec<StaticEdge>,
    pub findings: Vec<StaticFinding>,
    /// Unused-suppression warnings: (file, line, message).
    pub warnings: Vec<(String, usize, String)>,
    pub scanned: usize,
}

impl Analysis {
    /// The graph's `(from_site, to_site)` pairs — the shape compared
    /// against the runtime detector's observed graph.
    pub fn edge_site_pairs(&self) -> BTreeSet<(String, String)> {
        self.graph
            .iter()
            .map(|e| (e.from_site.clone(), e.to_site.clone()))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Extraction: source → FnInfo facts
// ---------------------------------------------------------------------------

struct Guard {
    /// Binding name, for `drop(name)`; `None` for unnamed guards.
    name: Option<String>,
    lock: String,
    depth: i32,
    line: usize,
}

struct CurFn {
    idx: usize,
    /// Brace depth of the function body.
    entry: i32,
    guards: Vec<Guard>,
    /// Depths of open `catch_unwind` closure bodies.
    catches: Vec<i32>,
}

/// Does the line contain a `spawn(` call (ident-boundary checked, so
/// `respawn(` does not count)?
fn spawns_thread(line: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = line[from..].find("spawn(") {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident_char(line[..at].chars().next_back().unwrap_or(' '));
        if before_ok {
            return true;
        }
        from = at + 6;
    }
    false
}

/// Parse `src` (workspace-relative path `rel`) and append its function
/// facts to `fns`.
///
/// Closure bodies passed to `spawn(..)` run on another thread, so they
/// are split out as synthetic functions named `outer#spawn`: their
/// locks/blocking/panics do not count against the spawning function,
/// and `#` never appears in a call identifier, so nothing links *into*
/// them — matching the runtime reality that a detached thread's
/// hazards are not on the spawner's path.
pub fn extract_file(rel: &str, p: &Prepared, fns: &mut Vec<FnInfo>) {
    let mut depth = 0i32;
    let mut impls: Vec<(String, i32)> = Vec::new();
    let mut pending_impl: Option<String> = None;
    let mut pending_fn: Option<(String, usize)> = None;
    let mut pending_catch = false;
    let mut pending_spawn = false;
    let mut stack: Vec<CurFn> = Vec::new();

    for (idx, line) in p.lines.iter().enumerate() {
        if p.in_test[idx] {
            continue; // whole region is brace-balanced
        }
        let n = idx + 1;

        // Item headers (only looked for outside a function body).
        if stack.is_empty() && pending_fn.is_none() {
            let t = line.trim_start();
            if pending_impl.is_none() && (t.starts_with("impl ") || t.starts_with("impl<")) {
                pending_impl = Some(impl_type(t));
            }
            if let Some(name) = fn_header(line) {
                pending_fn = Some((name, n));
            }
        } else if !stack.is_empty() {
            if line.contains("catch_unwind") {
                pending_catch = true;
            }
            if spawns_thread(line) {
                pending_spawn = true;
            }
        }

        // Brace scan: opens bodies, closes scopes, releases guards.
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if let Some(ty) = pending_impl.take() {
                        impls.push((ty, depth));
                    } else if let Some((name, fn_line)) = pending_fn.take() {
                        let qual = match impls.last() {
                            Some((ty, _)) => format!("{ty}::{name}"),
                            None => name.clone(),
                        };
                        fns.push(FnInfo {
                            name,
                            qual,
                            file: rel.to_string(),
                            line: fn_line,
                            locks: Vec::new(),
                            blocks: Vec::new(),
                            panics: Vec::new(),
                            calls: Vec::new(),
                        });
                        stack.push(CurFn {
                            idx: fns.len() - 1,
                            entry: depth,
                            guards: Vec::new(),
                            catches: Vec::new(),
                        });
                    } else if pending_spawn {
                        pending_spawn = false;
                        if let Some(outer) = stack.last() {
                            let o = &fns[outer.idx];
                            fns.push(FnInfo {
                                name: format!("{}#spawn", o.name),
                                qual: format!("{}#spawn", o.qual),
                                file: rel.to_string(),
                                line: n,
                                locks: Vec::new(),
                                blocks: Vec::new(),
                                panics: Vec::new(),
                                calls: Vec::new(),
                            });
                            stack.push(CurFn {
                                idx: fns.len() - 1,
                                entry: depth,
                                guards: Vec::new(),
                                catches: Vec::new(),
                            });
                        }
                    } else if pending_catch {
                        if let Some(f) = stack.last_mut() {
                            f.catches.push(depth);
                        }
                        pending_catch = false;
                    }
                }
                '}' => {
                    depth -= 1;
                    while let Some(f) = stack.last_mut() {
                        if depth < f.entry {
                            stack.pop();
                            continue;
                        }
                        f.guards.retain(|g| g.depth <= depth);
                        f.catches.retain(|&d| d <= depth);
                        break;
                    }
                    if stack.is_empty() {
                        pending_catch = false;
                        pending_spawn = false;
                    }
                    while impls.last().is_some_and(|(_, d)| *d > depth) {
                        impls.pop();
                    }
                }
                ';' if stack.is_empty() => {
                    // Trait method declaration without a body.
                    pending_fn = None;
                }
                _ => {}
            }
        }
        // `spawn(` only claims a closure brace on its own line.
        pending_spawn = false;

        // Facts on this line, using the guard state after brace scan.
        let Some(f) = stack.last_mut() else { continue };
        if pending_fn.is_some() {
            continue; // still inside a signature
        }
        let info = &mut fns[f.idx];
        let caught = !f.catches.is_empty();

        // `drop(name)` releases the named guard.
        let mut from = 0;
        while let Some(pos) = line[from..].find("drop(") {
            let at = from + pos;
            let before_ok =
                at == 0 || !is_ident_char(line[..at].chars().next_back().unwrap_or(' '));
            if before_ok {
                let inner: String = line[at + 5..]
                    .chars()
                    .take_while(|&c| is_ident_char(c))
                    .collect();
                if let Some(gpos) = f
                    .guards
                    .iter()
                    .rposition(|g| g.name.as_deref() == Some(inner.as_str()))
                {
                    f.guards.remove(gpos);
                }
            }
            from = at + 5;
        }

        // Lock acquisitions (named guards and statement temporaries).
        // Temporaries count as held only for facts later on this line.
        let mut temps: Vec<(String, usize, usize)> = Vec::new(); // (lock, line, col)
        for (col, op) in find_ops(line, &[".lock()", ".read()", ".write()"]) {
            let recv = receiver_before(line, col);
            if recv.is_empty() {
                continue;
            }
            let lock = lock_name(&recv, &info.qual, impls.last().map(|(t, _)| t.as_str()));
            let held = held_at(&f.guards, &temps, col);
            info.locks.push(LockAcq {
                lock: lock.clone(),
                line: n,
                held,
            });
            // Bound directly into a `let`? Then it is a scoped guard.
            let after = line[col + op.len()..].trim_start();
            let bound = binding_name(line, col);
            if after.starts_with(';') && bound.is_some() {
                f.guards.push(Guard {
                    name: bound,
                    lock,
                    depth,
                    line: n,
                });
            } else {
                temps.push((lock, n, col));
            }
        }

        // Blocking primitives.
        for (pat, what) in [
            (".send(", "send"),
            (".recv()", "recv"),
            (".write_all(", "write_all"),
            (".sync_all()", "sync_all"),
            (".sync_data()", "sync_data"),
            (".join()", "join"),
        ] {
            for (col, _) in find_ops(line, &[pat]) {
                info.blocks.push(BlockCall {
                    what,
                    line: n,
                    held: held_at(&f.guards, &temps, col),
                });
            }
        }

        // Panic sites.
        for (pat, what) in [
            (".unwrap()", "unwrap"),
            (".unwrap_err()", "unwrap_err"),
            (".expect(", "expect"),
            (".expect_err(", "expect_err"),
            ("panic!(", "panic!"),
            ("unreachable!(", "unreachable!"),
            ("todo!(", "todo!"),
            ("unimplemented!(", "unimplemented!"),
        ] {
            for _ in find_ops(line, &[pat]) {
                info.panics.push(PanicSite {
                    what: what.to_string(),
                    line: n,
                    caught,
                });
            }
        }
        for col in index_sites(line) {
            let recv = receiver_before(line, col);
            info.panics.push(PanicSite {
                what: format!("index into `{recv}`"),
                line: n,
                caught,
            });
        }

        // Calls (method and free-function, linked later by name).
        for (col, callee, qual_type) in call_sites(line) {
            info.calls.push(CallSite {
                callee,
                qual_type,
                line: n,
                held: held_at(&f.guards, &temps, col),
                caught,
            });
        }
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Every occurrence of any pattern in `pats`, as (column, pattern).
/// A match must not be followed by an identifier character (so
/// `.send(` does not also match inside `.send_all(`).
fn find_ops<'a>(line: &str, pats: &[&'a str]) -> Vec<(usize, &'a str)> {
    let mut out = Vec::new();
    for pat in pats {
        let mut from = 0;
        while let Some(pos) = line[from..].find(pat) {
            let at = from + pos;
            let ok = if pat.ends_with('(') {
                true
            } else {
                !line[at + pat.len()..]
                    .chars()
                    .next()
                    .is_some_and(is_ident_char)
            };
            if ok {
                out.push((at, *pat));
            }
            from = at + pat.len();
        }
    }
    out.sort();
    out
}

/// Walk the receiver expression ending just before column `col` (which
/// points at a `.` or `[`): identifiers, `.`, `::`, and balanced
/// `[...]` / `(...)` groups.
fn receiver_before(line: &str, col: usize) -> String {
    let bytes: Vec<char> = line[..col].chars().collect();
    let mut i = bytes.len();
    while i > 0 {
        let c = bytes[i - 1];
        if is_ident_char(c) || c == '.' {
            i -= 1;
        } else if c == ':' && i >= 2 && bytes[i - 2] == ':' {
            i -= 2;
        } else if c == ']' || c == ')' {
            let (open, close) = if c == ']' { ('[', ']') } else { ('(', ')') };
            let mut nest = 0i32;
            let mut j = i;
            while j > 0 {
                if bytes[j - 1] == close {
                    nest += 1;
                } else if bytes[j - 1] == open {
                    nest -= 1;
                    if nest == 0 {
                        break;
                    }
                }
                j -= 1;
            }
            if j == 0 {
                break;
            }
            i = j - 1;
        } else {
            break;
        }
    }
    bytes[i..]
        .iter()
        .collect::<String>()
        .trim_matches('.')
        .to_string()
}

/// Normalize a receiver into a lock identity. `self.x` becomes
/// `Type.x`; bracket/paren groups collapse (`caches[shard]` →
/// `caches[]`); bare locals are qualified with the enclosing function
/// so unrelated same-named locals in other functions stay distinct.
fn lock_name(recv: &str, fn_qual: &str, impl_ty: Option<&str>) -> String {
    let mut out = String::with_capacity(recv.len());
    let mut skip: Option<(char, i32)> = None;
    for c in recv.chars() {
        match skip {
            Some((close, ref mut nest)) => {
                let open = if close == ']' { '[' } else { '(' };
                if c == open {
                    *nest += 1;
                } else if c == close {
                    *nest -= 1;
                    if *nest == 0 {
                        out.push(close);
                        skip = None;
                    }
                }
            }
            None => match c {
                '[' => {
                    out.push('[');
                    skip = Some((']', 1));
                }
                '(' => {
                    out.push('(');
                    skip = Some((')', 1));
                }
                _ => out.push(c),
            },
        }
    }
    if let Some(rest) = out.strip_prefix("self.") {
        return match impl_ty {
            Some(ty) => format!("{ty}.{rest}"),
            None => format!("Self.{rest}"),
        };
    }
    if out.contains("::") || out.chars().next().is_some_and(|c| c.is_uppercase()) {
        return out; // path / static — already globally named
    }
    format!("{fn_qual}::{out}")
}

/// Guards plus same-line temporaries acquired before column `col`.
fn held_at(guards: &[Guard], temps: &[(String, usize, usize)], col: usize) -> Vec<Held> {
    let mut out: Vec<Held> = guards.iter().map(|g| (g.lock.clone(), g.line)).collect();
    for (lock, line, tcol) in temps {
        if *tcol < col {
            out.push((lock.clone(), *line));
        }
    }
    out
}

/// The `let` binding name if `col` (a lock call) sits in
/// `let [mut] name = <recv>.lock();`.
fn binding_name(line: &str, col: usize) -> Option<String> {
    let head = &line[..col];
    let let_pos = head.rfind("let ")?;
    let eq = head[let_pos..].find('=')? + let_pos;
    if head[eq + 1..].contains(';') {
        return None; // a previous statement — the let is not ours
    }
    let mut name = head[let_pos + 4..eq].trim();
    name = name.strip_prefix("mut ").unwrap_or(name).trim();
    if !name.is_empty() && name.chars().all(is_ident_char) {
        Some(name.to_string())
    } else {
        None
    }
}

/// Parse an `fn` header on `line`: the identifier following a
/// word-boundary `fn`, which must be followed by `(` or `<`.
fn fn_header(line: &str) -> Option<String> {
    let mut from = 0;
    while let Some(pos) = line[from..].find("fn ") {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident_char(line[..at].chars().next_back().unwrap_or(' '));
        if before_ok {
            let rest = &line[at + 3..];
            let name: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
            let after = rest[name.len()..].chars().next();
            if !name.is_empty() && matches!(after, Some('(') | Some('<')) {
                return Some(name);
            }
        }
        from = at + 3;
    }
    None
}

/// The type an `impl` block targets: `impl Foo`, `impl<T> Foo<T>`,
/// `impl Trait for Foo` all yield `Foo`.
fn impl_type(header: &str) -> String {
    let mut rest = header.trim_start().strip_prefix("impl").unwrap_or(header);
    // Skip generic parameters on the impl itself.
    if rest.starts_with('<') {
        let mut nest = 0i32;
        let mut cut = rest.len();
        for (i, c) in rest.char_indices() {
            match c {
                '<' => nest += 1,
                '>' => {
                    nest -= 1;
                    if nest == 0 {
                        cut = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        rest = &rest[cut..];
    }
    let rest = rest.trim();
    let subject = match rest.find(" for ") {
        Some(pos) => &rest[pos + 5..],
        None => rest,
    };
    let subject = subject.trim_start_matches(['&', ' ']);
    let name: String = subject.chars().take_while(|&c| is_ident_char(c)).collect();
    if name.is_empty() {
        "impl".to_string()
    } else {
        name
    }
}

/// Indexing sites that can panic: `expr[...]` where the index is not a
/// pure integer literal (fixed-size array access like `hdr[0]` is
/// overwhelmingly length-checked by construction) and not a full-range
/// slice `[..]`.
fn index_sites(line: &str) -> Vec<usize> {
    let bytes: Vec<char> = line.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == '[' && i > 0 && is_ident_char(bytes[i - 1]) {
            // Find the matching close bracket.
            let mut nest = 0i32;
            let mut j = i;
            let mut close = None;
            while j < bytes.len() {
                if bytes[j] == '[' {
                    nest += 1;
                } else if bytes[j] == ']' {
                    nest -= 1;
                    if nest == 0 {
                        close = Some(j);
                        break;
                    }
                }
                j += 1;
            }
            if let Some(end) = close {
                let inner: String = bytes[i + 1..end].iter().collect();
                let inner = inner.trim();
                let literal = inner.chars().next().is_some_and(|c| c.is_ascii_digit())
                    && inner
                        .chars()
                        .all(|c| c.is_ascii_digit() || "_usize".contains(c));
                if inner != ".." && !literal {
                    out.push(i);
                }
                i = end + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Candidate call sites: a lowercase identifier directly followed by
/// `(`, as `(column, name, qualifier)`. The qualifier is the path
/// segment before a `::` (`Pool::submit(` → `Some("Pool")`,
/// `slotted::init(` → `Some("slotted")`), `None` for method and bare
/// calls. Macros (`name!(`), constructors (uppercase), keywords, and
/// primitive names are skipped.
fn call_sites(line: &str) -> Vec<(usize, String, Option<String>)> {
    const KEYWORDS: &[&str] = &[
        "if", "while", "for", "match", "loop", "return", "fn", "let", "move", "in", "as", "else",
    ];
    let bytes: Vec<char> = line.chars().collect();
    let mut out = Vec::new();
    for (i, &c) in bytes.iter().enumerate() {
        if c != '(' || i == 0 {
            continue;
        }
        let mut j = i;
        while j > 0 && is_ident_char(bytes[j - 1]) {
            j -= 1;
        }
        if j == i {
            continue; // `!(`, `((`, ...
        }
        let name: String = bytes[j..i].iter().collect();
        let first = name.chars().next().unwrap();
        if !first.is_lowercase() && first != '_' {
            continue;
        }
        if KEYWORDS.contains(&name.as_str()) || PRIMITIVE_NAMES.contains(&name.as_str()) {
            continue;
        }
        // `fn name(` is a declaration, not a call.
        let head: String = bytes[..j].iter().collect();
        if head.trim_end().ends_with("fn") {
            continue;
        }
        let mut qual = None;
        if j >= 2 && bytes[j - 1] == ':' && bytes[j - 2] == ':' {
            let mut k = j - 2;
            while k > 0 && is_ident_char(bytes[k - 1]) {
                k -= 1;
            }
            if k < j - 2 {
                qual = Some(bytes[k..j - 2].iter().collect::<String>());
            }
        }
        out.push((j, name, qual));
    }
    out
}

// ---------------------------------------------------------------------------
// Fixpoint propagation
// ---------------------------------------------------------------------------

/// Why a function may block: a direct primitive, or a call into a
/// blocking callee.
#[derive(Debug, Clone)]
enum BlockWitness {
    Direct { what: &'static str, line: usize },
    Via { line: usize, callee: usize },
}

/// Resolved call edges: `resolved[f]` is `(call index in fns[f].calls,
/// target fn index)`.
///
/// Name matching is narrowed by the call-site qualifier when there is
/// one: `Type::name(` only links to `fns` whose qual is exactly
/// `Type::name` (`Self::` resolves against the caller's own type), and
/// `module::name(` only links to free functions. Unqualified calls
/// (methods, bare names) link to every same-named candidate whose file
/// passes `allowed(caller_file, callee_file)` — the caller feeds in the
/// crate dependency direction so e.g. `storage` code never appears to
/// call up into `server`.
fn resolve_calls(fns: &[FnInfo], allowed: impl Fn(&str, &str) -> bool) -> Vec<Vec<(usize, usize)>> {
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, f) in fns.iter().enumerate() {
        by_name.entry(f.name.as_str()).or_default().push(i);
    }
    fns.iter()
        .enumerate()
        .map(|(i, f)| {
            let caller_ty = f.qual.rsplit_once("::").map(|(ty, _)| ty);
            let mut edges = Vec::new();
            for (ci, call) in f.calls.iter().enumerate() {
                let Some(targets) = by_name.get(call.callee.as_str()) else {
                    continue;
                };
                for &t in targets {
                    if t == i || !allowed(&f.file, &fns[t].file) {
                        continue;
                    }
                    let matches = match call.qual_type.as_deref() {
                        Some("Self") | Some("self") => match caller_ty {
                            Some(ty) => fns[t].qual == format!("{ty}::{}", call.callee),
                            None => fns[t].qual == fns[t].name,
                        },
                        Some(q) if q.starts_with(char::is_uppercase) => {
                            fns[t].qual == format!("{q}::{}", call.callee)
                        }
                        // Module path (`slotted::init`) → free function.
                        Some(_) => fns[t].qual == fns[t].name,
                        None => true,
                    };
                    if matches {
                        edges.push((ci, t));
                    }
                }
            }
            edges
        })
        .collect()
}

/// Transitive lock-acquisition closure: for each function, every
/// `(lock, site)` it may acquire directly or through calls.
fn acq_closures(
    fns: &[FnInfo],
    resolved: &[Vec<(usize, usize)>],
) -> Vec<BTreeSet<(String, String)>> {
    let mut clo: Vec<BTreeSet<(String, String)>> = fns
        .iter()
        .map(|f| {
            f.locks
                .iter()
                .map(|a| (a.lock.clone(), format!("{}:{}", f.file, a.line)))
                .collect()
        })
        .collect();
    loop {
        let mut changed = false;
        for i in 0..fns.len() {
            let mut add: Vec<(String, String)> = Vec::new();
            for &(_, t) in &resolved[i] {
                for item in &clo[t] {
                    if !clo[i].contains(item) {
                        add.push(item.clone());
                    }
                }
            }
            if !add.is_empty() {
                clo[i].extend(add);
                changed = true;
            }
        }
        if !changed {
            return clo;
        }
    }
}

/// May-block fixpoint with witnesses for chain reconstruction.
fn block_witnesses(fns: &[FnInfo], resolved: &[Vec<(usize, usize)>]) -> Vec<Option<BlockWitness>> {
    let mut w: Vec<Option<BlockWitness>> = fns
        .iter()
        .map(|f| {
            f.blocks.first().map(|b| BlockWitness::Direct {
                what: b.what,
                line: b.line,
            })
        })
        .collect();
    loop {
        let mut changed = false;
        for i in 0..fns.len() {
            if w[i].is_some() {
                continue;
            }
            for &(ci, t) in &resolved[i] {
                if w[t].is_some() {
                    w[i] = Some(BlockWitness::Via {
                        line: fns[i].calls[ci].line,
                        callee: t,
                    });
                    changed = true;
                    break;
                }
            }
        }
        if !changed {
            return w;
        }
    }
}

/// Render the blocking chain starting at `fns[start]` (which must have
/// a witness): `Type::f (file:line) -> ... -> `send` at file:line`.
fn block_chain(fns: &[FnInfo], witnesses: &[Option<BlockWitness>], start: usize) -> String {
    let mut parts = Vec::new();
    let mut at = start;
    loop {
        match witnesses[at].as_ref().expect("witness chain broken") {
            BlockWitness::Direct { what, line } => {
                parts.push(format!("`{}` at {}:{}", what, fns[at].file, line));
                return parts.join(" -> ");
            }
            BlockWitness::Via { line, callee } => {
                parts.push(format!("{} ({}:{})", fns[at].qual, fns[at].file, line));
                at = *callee;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// Find cycles in the lock graph: one representative (shortest) cycle
/// per strongly connected component, so a tangle of interrelated locks
/// is one finding rather than an exponential cycle enumeration.
fn find_cycles(edges: &[StaticEdge]) -> Vec<Vec<StaticEdge>> {
    // One representative edge per (from, to) lock pair.
    let mut repr: BTreeMap<(String, String), StaticEdge> = BTreeMap::new();
    for e in edges {
        repr.entry((e.from.clone(), e.to.clone()))
            .or_insert_with(|| e.clone());
    }
    let mut adj: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (a, b) in repr.keys() {
        adj.entry(a.clone()).or_default().push(b.clone());
        adj.entry(b.clone()).or_default();
    }
    let reach_from = |start: &str| -> BTreeSet<String> {
        let mut seen = BTreeSet::new();
        let mut q = VecDeque::from([start.to_string()]);
        while let Some(n) = q.pop_front() {
            for m in adj.get(&n).into_iter().flatten() {
                if seen.insert(m.clone()) {
                    q.push_back(m.clone());
                }
            }
        }
        seen
    };
    let reach: BTreeMap<&String, BTreeSet<String>> =
        adj.keys().map(|n| (n, reach_from(n))).collect();

    let mut cycles = Vec::new();
    let mut seen_scc: BTreeSet<Vec<String>> = BTreeSet::new();
    for u in adj.keys() {
        if !reach[u].contains(u.as_str()) {
            continue; // u is on no cycle
        }
        let scc: Vec<String> = adj
            .keys()
            .filter(|v| reach[u].contains(v.as_str()) && reach[v].contains(u.as_str()))
            .cloned()
            .collect();
        if !seen_scc.insert(scc.clone()) {
            continue;
        }
        // Shortest path u -> ... -> u restricted to the component.
        let mut parent: BTreeMap<String, String> = BTreeMap::new();
        let mut q = VecDeque::from([u.clone()]);
        let mut closer: Option<String> = None; // last hop before returning to u
        'bfs: while let Some(n) = q.pop_front() {
            for m in adj.get(&n).into_iter().flatten() {
                if m == u {
                    closer = Some(n.clone());
                    break 'bfs;
                }
                if scc.contains(m) && !parent.contains_key(m) {
                    parent.insert(m.clone(), n.clone());
                    q.push_back(m.clone());
                }
            }
        }
        let Some(last) = closer else { continue };
        let mut nodes = vec![last.clone()];
        let mut at = last;
        while at != *u {
            at = parent[&at].clone();
            nodes.push(at.clone());
        }
        nodes.reverse(); // u, ..., last
        let mut cycle = Vec::new();
        for i in 0..nodes.len() {
            let from = &nodes[i];
            let to = if i + 1 < nodes.len() {
                &nodes[i + 1]
            } else {
                u
            };
            cycle.push(repr[&(from.clone(), to.clone())].clone());
        }
        cycles.push(cycle);
    }
    cycles
}

fn in_scope(file: &str, dirs: &[&str]) -> bool {
    dirs.iter().any(|d| file.starts_with(d))
}

fn site_file_line(site: &str) -> (String, usize) {
    match site.rsplit_once(':') {
        Some((file, line)) => (file.to_string(), line.parse().unwrap_or(0)),
        None => (site.to_string(), 0),
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Crate name of a workspace-relative path (`crates/<name>/src/...`).
fn crate_of(rel: &str) -> &str {
    rel.split('/').nth(1).unwrap_or("")
}

/// For every scanned crate, the set of scanned crates it can call
/// into: itself plus its transitive `[dependencies]` from `Cargo.toml`
/// (dev-dependencies excluded — they only exist in test builds).
/// Name-matched calls *against* the dependency direction are
/// impossible links and get pruned from the call graph.
fn crate_deps(root: &Path) -> HashMap<String, BTreeSet<String>> {
    let names: Vec<String> = SCAN_SCOPE
        .iter()
        .map(|d| d.split('/').nth(1).unwrap_or("").to_string())
        .collect();
    let mut deps: HashMap<String, BTreeSet<String>> = HashMap::new();
    for name in &names {
        let mut set: BTreeSet<String> = [name.clone()].into();
        let manifest = root.join("crates").join(name).join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            let mut in_deps = false;
            for line in text.lines() {
                let t = line.trim();
                if t.starts_with('[') {
                    in_deps = t == "[dependencies]";
                } else if in_deps {
                    if let Some(dep) = t.split(['=', ' ', '.']).next() {
                        if names.iter().any(|n| n == dep) {
                            set.insert(dep.to_string());
                        }
                    }
                }
            }
        }
        deps.insert(name.clone(), set);
    }
    loop {
        let mut changed = false;
        for name in &names {
            let cur = deps[name].clone();
            let add: Vec<String> = cur
                .iter()
                .flat_map(|d| deps.get(d).into_iter().flatten())
                .filter(|x| !cur.contains(*x))
                .cloned()
                .collect();
            if !add.is_empty() {
                deps.get_mut(name).unwrap().extend(add);
                changed = true;
            }
        }
        if !changed {
            return deps;
        }
    }
}

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Run the full analysis over the workspace at `root`.
pub fn analyze(root: &Path) -> Analysis {
    let mut fns: Vec<FnInfo> = Vec::new();
    let mut files: Vec<(String, Prepared)> = Vec::new();

    for dir in SCAN_SCOPE {
        let mut paths = Vec::new();
        rs_files(&root.join(dir), &mut paths);
        for path in paths {
            let Ok(src) = std::fs::read_to_string(&path) else {
                continue;
            };
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let p = lint::prepare(&src);
            extract_file(&rel, &p, &mut fns);
            files.push((rel, p));
        }
    }
    let prepared: BTreeMap<&str, &Prepared> = files.iter().map(|(r, p)| (r.as_str(), p)).collect();

    let deps = crate_deps(root);
    let resolved = resolve_calls(&fns, |caller, callee| {
        deps.get(crate_of(caller))
            .is_some_and(|set| set.contains(crate_of(callee)))
    });
    let closures = acq_closures(&fns, &resolved);
    let blocking = block_witnesses(&fns, &resolved);

    // -- Static lock-order graph: direct + transitive edges.
    let mut edge_set: BTreeSet<StaticEdge> = BTreeSet::new();
    for (i, f) in fns.iter().enumerate() {
        for a in &f.locks {
            for (hl, hline) in &a.held {
                edge_set.insert(StaticEdge {
                    from: hl.clone(),
                    to: a.lock.clone(),
                    from_site: format!("{}:{}", f.file, hline),
                    to_site: format!("{}:{}", f.file, a.line),
                });
            }
        }
        for &(ci, t) in &resolved[i] {
            let call = &f.calls[ci];
            if call.held.is_empty() {
                continue;
            }
            for (lock, site) in &closures[t] {
                for (hl, hline) in &call.held {
                    edge_set.insert(StaticEdge {
                        from: hl.clone(),
                        to: lock.clone(),
                        from_site: format!("{}:{}", f.file, hline),
                        to_site: site.clone(),
                    });
                }
            }
        }
    }
    let graph: Vec<StaticEdge> = edge_set.into_iter().collect();

    // Raw (pre-suppression) hits per (file, line, rule) for
    // unused-allow accounting.
    let mut raw_hits: BTreeSet<(String, usize, &'static str)> = BTreeSet::new();
    let suppressed = |file: &str, line: usize, rule: &str| -> bool {
        prepared.get(file).is_some_and(|p| p.suppressed(line, rule))
    };

    let mut findings: Vec<StaticFinding> = Vec::new();

    // -- Rule 1: static lock-order cycles.
    for cycle in find_cycles(&graph) {
        let names: Vec<&str> = cycle
            .iter()
            .map(|e| e.from.as_str())
            .chain(cycle.last().map(|e| e.to.as_str()))
            .collect();
        let legs: Vec<String> = cycle
            .iter()
            .map(|e| {
                format!(
                    "`{}` (held since {}) then `{}` at {}",
                    e.from, e.from_site, e.to, e.to_site
                )
            })
            .collect();
        let mut cycle_suppressed = false;
        for e in &cycle {
            for site in [&e.from_site, &e.to_site] {
                let (file, line) = site_file_line(site);
                raw_hits.insert((file.clone(), line, RULE_STATIC_CYCLE));
                if suppressed(&file, line, RULE_STATIC_CYCLE) {
                    cycle_suppressed = true;
                }
            }
        }
        if cycle_suppressed {
            continue;
        }
        let (file, line) = site_file_line(&cycle[0].to_site);
        findings.push(StaticFinding {
            rule: RULE_STATIC_CYCLE,
            file,
            line,
            qual: String::new(),
            detail: names.join(" -> "),
            message: format!(
                "static lock-order cycle {}: {}",
                names.join(" -> "),
                legs.join("; ")
            ),
        });
    }

    // -- Rule 2: lock held across a blocking call (direct and
    //    transitive through the call graph).
    for (i, f) in fns.iter().enumerate() {
        for b in &f.blocks {
            for (hl, hline) in &b.held {
                raw_hits.insert((f.file.clone(), b.line, RULE_LOCK_BLOCKING));
                if suppressed(&f.file, b.line, RULE_LOCK_BLOCKING) {
                    continue;
                }
                findings.push(StaticFinding {
                    rule: RULE_LOCK_BLOCKING,
                    file: f.file.clone(),
                    line: b.line,
                    qual: f.qual.clone(),
                    detail: format!("{}|{}", hl, b.what),
                    message: format!(
                        "lock `{}` (acquired at {}:{}) held across blocking `{}`",
                        hl, f.file, hline, b.what
                    ),
                });
            }
        }
        let mut reported: BTreeSet<(String, usize, String)> = BTreeSet::new();
        for &(ci, t) in &resolved[i] {
            let call = &f.calls[ci];
            if call.held.is_empty() || blocking[t].is_none() {
                continue;
            }
            let chain = block_chain(&fns, &blocking, t);
            for (hl, hline) in &call.held {
                if !reported.insert((hl.clone(), call.line, fns[t].name.clone())) {
                    continue;
                }
                raw_hits.insert((f.file.clone(), call.line, RULE_LOCK_BLOCKING));
                if suppressed(&f.file, call.line, RULE_LOCK_BLOCKING) {
                    continue;
                }
                findings.push(StaticFinding {
                    rule: RULE_LOCK_BLOCKING,
                    file: f.file.clone(),
                    line: call.line,
                    qual: f.qual.clone(),
                    detail: format!("{}|via {}", hl, fns[t].name),
                    message: format!(
                        "lock `{}` (acquired at {}:{}) held across call to `{}` at {}:{}, \
                         which can block: {} -> {}",
                        hl, f.file, hline, fns[t].qual, f.file, call.line, f.qual, chain
                    ),
                });
            }
        }
    }

    // -- Rule 3: panic sites reachable from a dispatch root, outside
    //    catch_unwind, via multi-source BFS (shortest chains).
    let mut parent: HashMap<usize, Option<(usize, usize)>> = HashMap::new(); // fn -> (caller, call line)
    let mut queue = VecDeque::new();
    for (i, f) in fns.iter().enumerate() {
        if PANIC_ROOTS
            .iter()
            .any(|(file, name)| f.file.ends_with(file) && f.name == *name)
        {
            parent.insert(i, None);
            queue.push_back(i);
        }
    }
    while let Some(i) = queue.pop_front() {
        for &(ci, t) in &resolved[i] {
            if fns[i].calls[ci].caught {
                continue; // panics in the callee cannot escape
            }
            if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(t) {
                e.insert(Some((i, fns[i].calls[ci].line)));
                queue.push_back(t);
            }
        }
    }
    for (&i, _) in parent.iter() {
        let f = &fns[i];
        if !in_scope(&f.file, PANIC_SCOPE) {
            continue;
        }
        for ps in &f.panics {
            if ps.caught {
                continue;
            }
            raw_hits.insert((f.file.clone(), ps.line, RULE_PANIC_PATH));
            if suppressed(&f.file, ps.line, RULE_PANIC_PATH) {
                continue;
            }
            // Reconstruct the chain root -> ... -> f.
            let mut hops = Vec::new();
            let mut at = i;
            while let Some(Some((caller, line))) = parent.get(&at) {
                hops.push(format!(
                    "{} ({}:{})",
                    fns[*caller].qual, fns[*caller].file, line
                ));
                at = *caller;
            }
            hops.reverse();
            let chain = if hops.is_empty() {
                format!("directly in dispatch root {}", f.qual)
            } else {
                format!("{} -> {}", hops.join(" -> "), f.qual)
            };
            findings.push(StaticFinding {
                rule: RULE_PANIC_PATH,
                file: f.file.clone(),
                line: ps.line,
                qual: f.qual.clone(),
                detail: ps.what.clone(),
                message: format!(
                    "`{}` at {}:{} is reachable from request dispatch: {}",
                    ps.what, f.file, ps.line, chain
                ),
            });
        }
    }

    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));

    // -- Unused-suppression warnings across all scanned files.
    let mut warnings = Vec::new();
    for (rel, p) in &files {
        let unused = lint::unused_allows(p, HYPERSTATIC_RULES, |rule| {
            let rule = HYPERSTATIC_RULES
                .iter()
                .find(|r| **r == rule)
                .copied()
                .unwrap_or("");
            raw_hits
                .iter()
                .filter(|(f, _, r)| f == rel && *r == rule)
                .map(|(_, l, _)| *l)
                .collect()
        });
        for (line, message) in unused {
            warnings.push((rel.clone(), line, message));
        }
    }

    Analysis {
        fns,
        graph,
        findings,
        warnings,
        scanned: files.len(),
    }
}

// ---------------------------------------------------------------------------
// Baseline + graph export
// ---------------------------------------------------------------------------

/// Default baseline location, relative to the workspace root.
pub const BASELINE_FILE: &str = "hyperstatic.baseline";

/// Load baseline keys (one per line, `#` comments and blanks ignored).
pub fn load_baseline(path: &Path) -> BTreeSet<String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return BTreeSet::new();
    };
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

/// Diff findings against a baseline: `(new findings, stale keys)`.
pub fn diff_baseline<'a>(
    findings: &'a [StaticFinding],
    baseline: &BTreeSet<String>,
) -> (Vec<&'a StaticFinding>, Vec<String>) {
    let keys: BTreeSet<String> = findings.iter().map(|f| f.key()).collect();
    let new = findings
        .iter()
        .filter(|f| !baseline.contains(&f.key()))
        .collect();
    let stale = baseline.difference(&keys).cloned().collect();
    (new, stale)
}

/// Render a baseline file for `findings`.
pub fn render_baseline(findings: &[StaticFinding]) -> String {
    let mut out = String::from(
        "# hyperstatic baseline — accepted findings, keyed as\n\
         # rule|file|function|detail (no line numbers, so the file\n\
         # survives unrelated drift). Regenerate with\n\
         # `cargo run -p sanity --bin hyperstatic -- --write-baseline`\n\
         # and justify additions in the PR description.\n",
    );
    let keys: BTreeSet<String> = findings.iter().map(|f| f.key()).collect();
    for k in keys {
        out.push_str(&k);
        out.push('\n');
    }
    out
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Serialize the static lock-order graph as JSON.
pub fn graph_json(edges: &[StaticEdge]) -> String {
    let mut out = String::from("{\"edges\":[");
    for (i, e) in edges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"from\":\"{}\",\"to\":\"{}\",\"from_site\":\"{}\",\"to_site\":\"{}\"}}",
            json_escape(&e.from),
            json_escape(&e.to),
            json_escape(&e.from_site),
            json_escape(&e.to_site)
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts(src: &str) -> Vec<FnInfo> {
        let p = lint::prepare(src);
        let mut fns = Vec::new();
        extract_file("crates/x/src/lib.rs", &p, &mut fns);
        fns
    }

    #[test]
    fn extracts_fn_headers_and_impl_quals() {
        let src = "\
impl Foo {
    pub fn alpha(&self) -> u32 {
        beta()
    }
}
fn beta() -> u32 { 7 }
impl fmt::Display for Foo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, \"x\")
    }
}
";
        let fns = facts(src);
        let quals: Vec<&str> = fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, vec!["Foo::alpha", "beta", "Foo::fmt"]);
        assert_eq!(fns[0].calls.len(), 1);
        assert_eq!(fns[0].calls[0].callee, "beta");
    }

    #[test]
    fn named_guard_scope_and_drop_tracked() {
        let src = "\
impl P {
    fn scoped(&self) {
        {
            let g = self.a.lock();
            self.tx.send(1);
        }
        self.tx.send(2);
        let h = self.b.lock();
        drop(h);
        self.tx.send(3);
    }
}
";
        let fns = facts(src);
        let sends = &fns[0].blocks;
        assert_eq!(sends.len(), 3);
        assert_eq!(sends[0].held.len(), 1, "send under guard g");
        assert_eq!(sends[0].held[0].0, "P.a");
        assert!(sends[1].held.is_empty(), "guard g left scope");
        assert!(sends[2].held.is_empty(), "guard h dropped");
    }

    #[test]
    fn statement_temporary_held_only_same_line() {
        let src = "\
impl M {
    fn f(&self) {
        let hit = self.caches[i].lock().lookup(id);
        self.tx.send(hit);
    }
}
";
        let fns = facts(src);
        assert_eq!(fns[0].locks.len(), 1);
        assert_eq!(fns[0].locks[0].lock, "M.caches[]");
        assert!(
            fns[0].blocks[0].held.is_empty(),
            "temporary released at line end"
        );
    }

    #[test]
    fn catch_unwind_marks_panics_caught() {
        let src = "\
fn job() {
    let out = catch_unwind(AssertUnwindSafe(|| {
        x.unwrap()
    }));
    y.unwrap();
}
";
        let fns = facts(src);
        let caught: Vec<bool> = fns[0].panics.iter().map(|p| p.caught).collect();
        assert_eq!(caught, vec![true, false]);
    }

    #[test]
    fn literal_indexing_is_exempt_variable_is_not() {
        let src = "\
fn f(buf: &[u8], i: usize) -> u8 {
    let a = buf[0];
    let b = buf[i];
    b
}
";
        let fns = facts(src);
        assert_eq!(fns[0].panics.len(), 1);
        assert!(fns[0].panics[0].what.contains("buf"));
    }

    #[test]
    fn transitive_block_and_lock_edges_found() {
        let src = "\
impl P {
    fn outer(&self) {
        let g = self.a.lock();
        self.helper();
    }
    fn helper(&self) {
        let h = self.b.lock();
        drop(h);
        self.tx.send(1);
    }
}
";
        let p = lint::prepare(src);
        let mut fns = Vec::new();
        extract_file("crates/x/src/lib.rs", &p, &mut fns);
        let resolved = resolve_calls(&fns, |_, _| true);
        let blocking = block_witnesses(&fns, &resolved);
        assert!(blocking[0].is_some(), "outer blocks via helper");
        assert!(blocking[1].is_some(), "helper blocks directly");
        let clo = acq_closures(&fns, &resolved);
        assert!(
            clo[0].iter().any(|(l, _)| l == "P.b"),
            "outer acquires P.b transitively"
        );
    }

    #[test]
    fn spawn_closure_detached_into_synthetic_fn() {
        let src = "\
impl Pool {
    fn start(&self) {
        let h = std::thread::spawn(move || {
            let v = rx.recv();
            v.unwrap();
        });
        self.tx.send(0);
    }
}
";
        let fns = facts(src);
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].qual, "Pool::start");
        assert_eq!(fns[1].qual, "Pool::start#spawn");
        // Worker-thread facts live on the synthetic fn, not the spawner.
        assert_eq!(fns[1].blocks.len(), 1, "recv belongs to the closure");
        assert_eq!(fns[1].panics.len(), 1, "unwrap belongs to the closure");
        assert_eq!(fns[0].blocks.len(), 1, "spawner keeps only its own send");
        assert_eq!(fns[0].panics.len(), 0);
        // Nothing links into `#spawn` names.
        let resolved = resolve_calls(&fns, |_, _| true);
        assert!(resolved[0].is_empty());
    }

    #[test]
    fn qualified_calls_link_by_type_and_dep_filter_prunes() {
        let src = "\
impl Pool {
    fn submit(&self) {
        helper();
    }
}
impl Cache {
    fn submit(&self) {}
}
fn helper() {}
fn caller() {
    Pool::submit(&p);
    other::helper();
}
";
        let fns = facts(src);
        let caller = fns.iter().position(|f| f.qual == "caller").unwrap();
        let resolved = resolve_calls(&fns, |_, _| true);
        // `Pool::submit(` links only to Pool::submit, not Cache::submit;
        // `other::helper(` (module path) links to the free fn.
        let targets: Vec<&str> = resolved[caller]
            .iter()
            .map(|&(_, t)| fns[t].qual.as_str())
            .collect();
        assert_eq!(targets, ["Pool::submit", "helper"]);
        // The dependency filter prunes everything when it says no.
        let pruned = resolve_calls(&fns, |_, _| false);
        assert!(pruned[caller].is_empty());
    }

    #[test]
    fn cycle_detection_reports_reversed_pairs_once() {
        let edges = vec![
            StaticEdge {
                from: "A".into(),
                to: "B".into(),
                from_site: "f.rs:1".into(),
                to_site: "f.rs:2".into(),
            },
            StaticEdge {
                from: "B".into(),
                to: "A".into(),
                from_site: "g.rs:8".into(),
                to_site: "g.rs:9".into(),
            },
            StaticEdge {
                from: "A".into(),
                to: "C".into(),
                from_site: "f.rs:3".into(),
                to_site: "f.rs:4".into(),
            },
        ];
        let cycles = find_cycles(&edges);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 2);
    }

    #[test]
    fn self_edge_is_a_cycle() {
        let edges = vec![StaticEdge {
            from: "A".into(),
            to: "A".into(),
            from_site: "f.rs:1".into(),
            to_site: "f.rs:2".into(),
        }];
        assert_eq!(find_cycles(&edges).len(), 1);
    }

    #[test]
    fn baseline_roundtrip_and_diff() {
        let f = StaticFinding {
            rule: RULE_PANIC_PATH,
            file: "crates/x/src/lib.rs".into(),
            line: 10,
            qual: "X::f".into(),
            detail: "unwrap".into(),
            message: "m".into(),
        };
        let text = render_baseline(std::slice::from_ref(&f));
        let dir = std::env::temp_dir().join("hyperstatic-baseline-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("b.txt");
        std::fs::write(&path, text).unwrap();
        let base = load_baseline(&path);
        assert!(base.contains(&f.key()));
        let (new, stale) = diff_baseline(std::slice::from_ref(&f), &base);
        assert!(new.is_empty() && stale.is_empty());
        let (new, _) = diff_baseline(std::slice::from_ref(&f), &BTreeSet::new());
        assert_eq!(new.len(), 1);
    }

    #[test]
    fn graph_json_shape() {
        let edges = vec![StaticEdge {
            from: "A".into(),
            to: "B".into(),
            from_site: "f.rs:1".into(),
            to_site: "f.rs:2".into(),
        }];
        let j = graph_json(&edges);
        assert!(j.contains("\"from\":\"A\""));
        assert!(j.contains("\"to_site\":\"f.rs:2\""));
    }
}
