//! Operation mixes, seeded inputs, execution, and the oracle check.
//!
//! A cycle is the paper's §6 protocol over a whole mix instead of one
//! operation: draw inputs, `cold_restart`, run them (cold pass), commit,
//! run the *same* inputs again (warm pass, edits in the reverse
//! direction), commit. Edits come in pairs across the two passes, so the
//! database is back in its pristine state after every cycle (§6.7).
//!
//! Results are checked against [`Oracle`] as they arrive. Reads can see
//! edits made earlier in the same pass, so the checker keeps a shadow of
//! the mutable state (`hundred`, text contents and form inversions).

use std::collections::HashMap;

use hypermodel::error::{HmError, Result};
use hypermodel::model::{Oid, RefEdge};
use hypermodel::ops::{InputKind, OpId};
use hypermodel::text::{substitute, VERSION_1, VERSION_2};
use hypermodel::{Content, HyperStore, Oracle, Rng, TestDatabase};

/// What a latency sample counts towards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// O1, O2, O5A–O8.
    Lookup,
    /// O3, O4, O9.
    Scan,
    /// O10, O11, O13–O15, O18.
    Closure,
    /// O12, O16, O17, each including its commit.
    Edit,
}

impl Category {
    /// Every category.
    pub const ALL: [Category; 4] = [
        Category::Lookup,
        Category::Scan,
        Category::Closure,
        Category::Edit,
    ];

    /// The category of `op`.
    pub fn of(op: OpId) -> Category {
        match op {
            OpId::RangeLookupHundred | OpId::RangeLookupMillion | OpId::SeqScan => Category::Scan,
            OpId::Closure1N
            | OpId::Closure1NAttSum
            | OpId::Closure1NPred
            | OpId::ClosureMN
            | OpId::ClosureMNAtt
            | OpId::ClosureMNAttLinkSum => Category::Closure,
            OpId::Closure1NAttSet | OpId::TextNodeEdit | OpId::FormNodeEdit => Category::Edit,
            _ => Category::Lookup,
        }
    }

    /// Lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Category::Lookup => "lookup",
            Category::Scan => "scan",
            Category::Closure => "closure",
            Category::Edit => "edit",
        }
    }
}

/// One operation input, in node indices (`uniqueId - 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// A `uniqueId` (O1).
    Uid(u64),
    /// A node index.
    Node(u32),
    /// An inclusive attribute range (O3/O4).
    Range(u32, u32),
    /// No input (O9).
    None,
}

/// One operation of a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Item {
    /// The operation.
    pub op: OpId,
    /// Its input.
    pub input: Input,
    /// Position in the pass (parameterises the O13 predicate range).
    pub rep: u32,
}

/// Operations per pass, as `(op, weight)`. A fractional weight runs the
/// operation in that share of cycles (0.25 = every fourth cycle).
pub type Mix = &'static [(OpId, f64)];

/// Draws each cycle's inputs from one seeded stream.
pub struct InputStream {
    rng: Rng,
    closure_level: u32,
    text_indices: Vec<u32>,
    form_indices: Vec<u32>,
    cycle: u64,
}

impl InputStream {
    /// A stream over `db`, seeded by `seed`.
    pub fn new(db: &TestDatabase, seed: u64) -> InputStream {
        InputStream {
            rng: Rng::new(seed ^ 0x1ED6_E500_0000_0001),
            closure_level: 3.min(db.config.leaf_level.saturating_sub(1)),
            text_indices: db.text_indices(),
            form_indices: db.form_indices(),
            cycle: 0,
        }
    }

    /// The next cycle's pass, in a seeded shuffled order.
    pub fn next_pass(&mut self, db: &TestDatabase, mix: Mix) -> Vec<Item> {
        let c = self.cycle as f64;
        self.cycle += 1;
        let mut ops = Vec::new();
        for &(op, weight) in mix {
            let n = ((c + 1.0) * weight).floor() - (c * weight).floor();
            ops.extend(std::iter::repeat_n(op, n as usize));
        }
        // Fisher–Yates with the stream's generator.
        for i in (1..ops.len()).rev() {
            let j = self.rng.range_usize(0, i);
            ops.swap(i, j);
        }
        // §6.7 N.B.: formNodeEdit uses one form node for the whole cycle.
        let form = *self.rng.choose(&self.form_indices);
        ops.into_iter()
            .enumerate()
            .map(|(rep, op)| Item {
                op,
                input: if op == OpId::FormNodeEdit {
                    Input::Node(form)
                } else {
                    self.draw(db, op.input_kind())
                },
                rep: rep as u32,
            })
            .collect()
    }

    fn draw(&mut self, db: &TestDatabase, kind: InputKind) -> Input {
        let n = db.len() as u32;
        let pick =
            |rng: &mut Rng, r: std::ops::Range<u32>| Input::Node(rng.range_u32(r.start, r.end - 1));
        match kind {
            InputKind::UniqueId => Input::Uid(self.rng.range_u64(1, n as u64)),
            InputKind::AnyNode => pick(&mut self.rng, 0..n),
            InputKind::InternalNode => pick(&mut self.rng, db.internal_indices()),
            InputKind::NonRootNode => pick(&mut self.rng, 1..n),
            InputKind::Level3Node => pick(&mut self.rng, db.level_indices(self.closure_level)),
            InputKind::TextNode => Input::Node(*self.rng.choose(&self.text_indices)),
            InputKind::FormNode => Input::Node(*self.rng.choose(&self.form_indices)),
            InputKind::HundredRange => {
                let x = self.rng.range_u32(1, 90);
                Input::Range(x, x + 9)
            }
            InputKind::MillionRange => {
                let x = self.rng.range_u32(1, 990_000);
                Input::Range(x, x + 9999)
            }
            InputKind::None => Input::None,
        }
    }
}

/// An operation's answer, kept for the oracle check.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// A `hundred` value (O1, O2).
    Hundred(u32),
    /// An ordered node list.
    Oids(Vec<Oid>),
    /// A node set (order-insensitive).
    OidSet(Vec<Oid>),
    /// Reference edges (O6 ordered, O8 as a set).
    Edges(Vec<RefEdge>),
    /// O7A.
    Parent(Option<Oid>),
    /// O9 nodes visited.
    Count(u64),
    /// O11 `(sum, count)`.
    SumCount(u64, usize),
    /// O12 nodes updated / O16 substitutions.
    Updated(usize),
    /// O18 `(node, distance)` pairs.
    Pairs(Vec<(Oid, u64)>),
    /// O17.
    Unit,
}

impl Answer {
    /// Nodes returned, the paper's normalisation unit.
    pub fn nodes(&self) -> u64 {
        match self {
            Answer::Oids(v) | Answer::OidSet(v) => v.len() as u64,
            Answer::Edges(v) => v.len().max(1) as u64,
            Answer::Pairs(v) => v.len() as u64,
            Answer::Count(n) => *n,
            Answer::SumCount(_, n) | Answer::Updated(n) => (*n).max(1) as u64,
            Answer::Hundred(_) | Answer::Parent(_) | Answer::Unit => 1,
        }
    }
}

/// Run `item` once; edits commit, as the paper times them. `forward`
/// selects the text-edit direction (cold pass forward, warm pass back).
pub fn execute(
    store: &mut dyn HyperStore,
    oids: &[Oid],
    item: Item,
    forward: bool,
) -> Result<Answer> {
    let node = || match item.input {
        Input::Node(i) => Ok(oids[i as usize]),
        other => Err(HmError::InvalidArgument(format!(
            "{} needs a node, got {other:?}",
            item.op
        ))),
    };
    let (lo, hi) = match item.input {
        Input::Range(lo, hi) => (lo, hi),
        _ => (0, 0),
    };
    let depth = OpId::MNATT_DEPTH;
    Ok(match item.op {
        OpId::NameLookup => {
            let Input::Uid(uid) = item.input else {
                return Err(HmError::InvalidArgument("O1 needs a uniqueId".into()));
            };
            let oid = store.lookup_unique(uid)?;
            Answer::Hundred(store.hundred_of(oid)?)
        }
        OpId::NameOidLookup => Answer::Hundred(store.hundred_of(node()?)?),
        OpId::RangeLookupHundred => Answer::OidSet(store.range_hundred(lo, hi)?),
        OpId::RangeLookupMillion => Answer::OidSet(store.range_million(lo, hi)?),
        OpId::GroupLookup1N => Answer::Oids(store.children(node()?)?),
        OpId::GroupLookupMN => Answer::Oids(store.parts(node()?)?),
        OpId::GroupLookupMNAtt => Answer::Edges(store.refs_to(node()?)?),
        OpId::RefLookup1N => Answer::Parent(store.parent(node()?)?),
        OpId::RefLookupMN => Answer::OidSet(store.part_of(node()?)?),
        OpId::RefLookupMNAtt => Answer::Edges(store.refs_from(node()?)?),
        OpId::SeqScan => Answer::Count(store.seq_scan_ten()?),
        OpId::Closure1N => Answer::Oids(store.closure_1n(node()?)?),
        OpId::Closure1NAttSum => {
            let (sum, n) = store.closure_1n_att_sum(node()?)?;
            Answer::SumCount(sum, n)
        }
        OpId::Closure1NAttSet => {
            let n = store.closure_1n_att_set(node()?)?;
            store.commit()?;
            Answer::Updated(n)
        }
        OpId::Closure1NPred => {
            let lo = (item.rep % 99) * 10_000 + 1;
            Answer::Oids(store.closure_1n_pred(node()?, lo, lo + 9999)?)
        }
        OpId::ClosureMN => Answer::Oids(store.closure_mn(node()?)?),
        OpId::ClosureMNAtt => Answer::Oids(store.closure_mnatt(node()?, depth)?),
        OpId::ClosureMNAttLinkSum => Answer::Pairs(store.closure_mnatt_linksum(node()?, depth)?),
        OpId::TextNodeEdit => {
            let (from, to) = if forward {
                (VERSION_1, VERSION_2)
            } else {
                (VERSION_2, VERSION_1)
            };
            let n = store.text_node_edit(node()?, from, to)?;
            store.commit()?;
            Answer::Updated(n)
        }
        OpId::FormNodeEdit => {
            store.form_node_edit(node()?, 25, 25, 50, 50)?;
            store.commit()?;
            Answer::Unit
        }
    })
}

/// The oracle plus a shadow of the state edits change.
pub struct Checker<'a> {
    oracle: Oracle<'a>,
    index_of: HashMap<Oid, u32>,
    hundred: Vec<u32>,
    texts: HashMap<u32, String>,
    inverted: HashMap<u32, bool>,
}

impl<'a> Checker<'a> {
    /// A checker for `db` loaded with object ids `oids`.
    pub fn new(db: &'a TestDatabase, oids: &[Oid]) -> Checker<'a> {
        Checker {
            oracle: Oracle::new(db),
            index_of: oids
                .iter()
                .enumerate()
                .map(|(i, &o)| (o, i as u32))
                .collect(),
            hundred: db.nodes.iter().map(|n| n.value.attrs.hundred).collect(),
            texts: HashMap::new(),
            inverted: HashMap::new(),
        }
    }

    fn idx(&self, oids: &[Oid]) -> Option<Vec<u32>> {
        oids.iter().map(|o| self.index_of.get(o).copied()).collect()
    }

    fn idx_sorted(&self, oids: &[Oid]) -> Option<Vec<u32>> {
        let mut v = self.idx(oids)?;
        v.sort_unstable();
        Some(v)
    }

    fn edges(&self, edges: &[RefEdge]) -> Option<Vec<(u32, u8, u8)>> {
        let mut v: Vec<_> = edges
            .iter()
            .map(|e| Some((*self.index_of.get(&e.target)?, e.offset_from, e.offset_to)))
            .collect::<Option<_>>()?;
        v.sort_unstable();
        Some(v)
    }

    /// Check `answer` to `item` and apply the item's edit to the shadow.
    /// Returns whether the answer was right.
    pub fn check(&mut self, item: Item, forward: bool, answer: &Answer) -> bool {
        let o = &self.oracle;
        let node = match item.input {
            Input::Node(i) => i,
            Input::Uid(u) => (u - 1) as u32,
            _ => 0,
        };
        match (item.op, answer) {
            (OpId::NameLookup | OpId::NameOidLookup, Answer::Hundred(h)) => {
                *h == self.hundred[node as usize]
            }
            (OpId::RangeLookupHundred, Answer::OidSet(v)) => {
                let Input::Range(lo, hi) = item.input else {
                    return false;
                };
                let want: Vec<u32> = (0..self.hundred.len() as u32)
                    .filter(|&i| (lo..=hi).contains(&self.hundred[i as usize]))
                    .collect();
                self.idx_sorted(v) == Some(want)
            }
            (OpId::RangeLookupMillion, Answer::OidSet(v)) => {
                let Input::Range(lo, hi) = item.input else {
                    return false;
                };
                self.idx_sorted(v) == Some(o.range_million(lo, hi))
            }
            (OpId::GroupLookup1N, Answer::Oids(v)) => self.idx(v) == Some(o.children(node)),
            (OpId::GroupLookupMN, Answer::Oids(v)) => self.idx(v) == Some(o.parts(node)),
            (OpId::GroupLookupMNAtt, Answer::Edges(v)) => self.edges(v) == Some(o.ref_to(node)),
            (OpId::RefLookup1N, Answer::Parent(p)) => {
                p.map(|p| self.index_of.get(&p).copied()) == o.parent(node).map(Some)
            }
            (OpId::RefLookupMN, Answer::OidSet(v)) => self.idx_sorted(v) == Some(o.part_of(node)),
            (OpId::RefLookupMNAtt, Answer::Edges(v)) => self.edges(v) == Some(o.ref_from(node)),
            (OpId::SeqScan, Answer::Count(n)) => *n == o.seq_scan_count(),
            (OpId::Closure1N, Answer::Oids(v)) => self.idx(v) == Some(o.closure_1n(node)),
            (OpId::Closure1NAttSum, Answer::SumCount(sum, n)) => {
                let c = o.closure_1n(node);
                let want: u64 = c.iter().map(|&i| self.hundred[i as usize] as u64).sum();
                *sum == want && *n == c.len()
            }
            (OpId::Closure1NAttSet, Answer::Updated(n)) => {
                let c = o.closure_1n(node);
                for &i in &c {
                    self.hundred[i as usize] = 99u32.wrapping_sub(self.hundred[i as usize]);
                }
                *n == c.len()
            }
            (OpId::Closure1NPred, Answer::Oids(v)) => {
                let lo = (item.rep % 99) * 10_000 + 1;
                self.idx(v) == Some(o.closure_1n_pred(node, lo, lo + 9999))
            }
            (OpId::ClosureMN, Answer::Oids(v)) => self.idx(v) == Some(o.closure_mn(node)),
            (OpId::ClosureMNAtt, Answer::Oids(v)) => {
                self.idx(v) == Some(o.closure_mnatt(node, OpId::MNATT_DEPTH))
            }
            (OpId::ClosureMNAttLinkSum, Answer::Pairs(v)) => {
                let got: Option<Vec<(u32, u64)>> = v
                    .iter()
                    .map(|(oid, d)| Some((*self.index_of.get(oid)?, *d)))
                    .collect();
                got == Some(o.closure_mnatt_linksum(node, OpId::MNATT_DEPTH))
            }
            (OpId::TextNodeEdit, Answer::Updated(n)) => {
                let (from, to) = if forward {
                    (VERSION_1, VERSION_2)
                } else {
                    (VERSION_2, VERSION_1)
                };
                let current = self.texts.get(&node).map_or(o.text(node), String::as_str);
                let (edited, want) = substitute(current, from, to);
                self.texts.insert(node, edited);
                *n == want
            }
            (OpId::FormNodeEdit, Answer::Unit) => {
                *self.inverted.entry(node).or_insert(false) ^= true;
                true
            }
            _ => false,
        }
    }

    /// §6.7 stable state: every `hundred`, text and form in `store` equals
    /// the pristine database. Returns the number of nodes that differ.
    pub fn sweep(&self, store: &mut dyn HyperStore, oids: &[Oid]) -> Result<u64> {
        let db = self.oracle.db();
        let mut bad = 0u64;
        for (chunk_no, chunk) in oids.chunks(512).enumerate() {
            let got = store.hundred_batch(chunk)?;
            for (k, h) in got.iter().enumerate() {
                let i = chunk_no * 512 + k;
                bad += u64::from(*h != db.nodes[i].value.attrs.hundred);
            }
        }
        for (i, spec) in db.nodes.iter().enumerate() {
            match &spec.value.content {
                Content::Text(t) => bad += u64::from(store.text_of(oids[i])? != *t),
                Content::Form(f) => bad += u64::from(store.form_of(oids[i])? != *f),
                _ => {}
            }
        }
        Ok(bad)
    }
}
