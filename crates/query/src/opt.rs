//! Cost-guided plan optimization.
//!
//! [`prepare`] runs a fixpoint rewrite pipeline over the plan IR
//! ([`crate::plan`]) before execution:
//!
//! * **empty short-circuits** — a scan of an empty base relation, or an
//!   unsatisfiable constraint leaf, becomes [`PlanOp::Empty`]; emptiness
//!   then propagates up through joins (dropping the sibling subtree
//!   entirely) and collapses union and projection nodes;
//! * **tautology short-circuits** — `φ ∧ true` and `φ ∨ (t ≤ t)` drop the
//!   redundant side;
//! * **selection pushdown** — constraint leaves sink below joins (and,
//!   when both branches bind their variables, through unions) so they
//!   filter before the expensive pairing;
//! * **projection pruning** — `∃x` sinks into the one join branch or
//!   union side that binds `x`, removing dead columns before padding;
//! * **antijoin** — a negated conjunct `Difference(Full, B)` whose
//!   variables the rest of its conjunction chain binds is subtracted from
//!   the rest's join (`A ∧ ¬B = A ∖ (A ⋉ B)`) instead of being joined as
//!   B's complement against `Z^t × adom^d`;
//! * **greedy join reordering** — maximal conjunction chains are
//!   flattened and re-associated left-deep in the order the cost model
//!   scores cheapest, guarded so the rewrite only fires on a strict
//!   estimated improvement.
//!
//! The cost model is fed from relation cardinalities, per-column residue
//! moduli (the same smooth-capped period gcds [`RelationIndex`] keys on),
//! data-column distinct counts, and the active-domain size. Estimates are
//! deliberately coarse, monotone heuristics: they order plans, they do
//! not predict counters.
//!
//! Every rewrite preserves the node ids of surviving nodes (new nodes get
//! fresh ids), records its rule name on the replacement node, and keeps
//! the plan's output columns bit-identical — a rewrite that would change
//! the column list refuses to fire.

use std::collections::{BTreeMap, BTreeSet};

use itd_core::index::MAX_MODULUS;
use itd_numth::gcd;

use crate::ast::{DataTerm, TemporalTerm};
use crate::catalog::Catalog;
use crate::plan::{
    conjoin as plan_conjoin, difference as plan_difference, disjoin as plan_disjoin,
};
use crate::plan::{project_out as plan_project_out, CostEstimate, Plan, PlanNode, PlanOp};

/// Upper bound on full rewrite passes; each pass walks the tree once.
const MAX_PASSES: usize = 8;

/// Relative improvement a join reorder must show to fire.
const REORDER_MARGIN: f64 = 0.999;

/// Minimum estimated rows a producer must feed a quadratic consumer
/// before a compaction pass between them is predicted to pay for itself
/// (below this the pass's own cost dominates the pair savings).
const COMPACT_MIN_ROWS: f64 = 8.0;

/// Per-relation statistics the cost model reads.
#[derive(Debug, Clone)]
struct RelStats {
    rows: usize,
    /// Smooth-capped gcd of each temporal column's periods (1 = cannot
    /// discriminate) — the moduli `RelationIndex` would key on.
    moduli: Vec<i64>,
    /// Distinct values per data column.
    distinct: Vec<usize>,
}

/// Statistics for every relation a plan scans, plus the active domain.
#[derive(Debug, Clone)]
pub(crate) struct CatalogStats {
    rels: BTreeMap<String, RelStats>,
    adom: usize,
}

impl CatalogStats {
    pub(crate) fn gather(catalog: &impl Catalog, plan: &Plan) -> CatalogStats {
        let mut names = BTreeSet::new();
        collect_scans(plan.root(), &mut names);
        let mut rels = BTreeMap::new();
        for name in names {
            let Some(rel) = catalog.relation(&name) else {
                continue;
            };
            let t = rel.schema().temporal();
            let d = rel.schema().data();
            let tcols: Vec<usize> = (0..t).collect();
            // The persistent store index: built once per relation and
            // column set, shared with the executor's own indexed paths.
            let index = rel.residue_index(&tcols, &[]);
            let distinct = (0..d)
                .map(|c| {
                    // Interned ids are canonical, so distinct ids ⟺
                    // distinct values — no value materialization needed.
                    rel.columns()
                        .data(c)
                        .ids()
                        .iter()
                        .collect::<BTreeSet<_>>()
                        .len()
                })
                .collect();
            rels.insert(
                name,
                RelStats {
                    rows: rel.tuple_count(),
                    moduli: index.moduli().to_vec(),
                    distinct,
                },
            );
        }
        CatalogStats {
            rels,
            adom: catalog.active_domain().len(),
        }
    }
}

fn collect_scans(node: &PlanNode, out: &mut BTreeSet<String>) {
    if let PlanOp::Scan { name, .. } = &node.op {
        out.insert(name.clone());
    }
    for child in &node.children {
        collect_scans(child, out);
    }
}

/// Per-node cost-model state: estimated rows plus per-variable
/// discriminability (residue modulus for temporal, distinct count for
/// data variables).
#[derive(Debug, Clone)]
struct NodeEst {
    rows: f64,
    pairs: f64,
    total: f64,
    tmod: BTreeMap<String, i64>,
    ddist: BTreeMap<String, f64>,
}

/// Estimates `node` bottom-up without mutating it.
fn node_est(node: &PlanNode, st: &CatalogStats) -> NodeEst {
    let kids: Vec<NodeEst> = node.children.iter().map(|c| node_est(c, st)).collect();
    let kid_total: f64 = kids.iter().map(|k| k.total).sum();
    let adom = st.adom.max(1) as f64;
    let mut est = match &node.op {
        PlanOp::Unit(truth) => NodeEst {
            rows: if *truth { 1.0 } else { 0.0 },
            pairs: 0.0,
            total: 0.0,
            tmod: BTreeMap::new(),
            ddist: BTreeMap::new(),
        },
        PlanOp::Empty => NodeEst {
            rows: 0.0,
            pairs: 0.0,
            total: 0.0,
            tmod: node.temporal_vars.iter().map(|v| (v.clone(), 1)).collect(),
            ddist: node.data_vars.iter().map(|v| (v.clone(), 0.0)).collect(),
        },
        PlanOp::Scan {
            name,
            temporal,
            data,
        } => scan_est(name, temporal, data, st),
        PlanOp::TempCmp { left, op, right } => {
            let rows = match (left, right) {
                (TemporalTerm::Const(a), TemporalTerm::Const(b)) => {
                    if op.eval(*a, *b) {
                        1.0
                    } else {
                        0.0
                    }
                }
                (
                    TemporalTerm::Var { name: n1, shift: a },
                    TemporalTerm::Var { name: n2, shift: b },
                ) if n1 == n2 => {
                    if op.eval(*a, *b) {
                        1.0
                    } else {
                        0.0
                    }
                }
                _ => {
                    // `!=` splits into two half-spaces; everything else is
                    // one constrained tuple.
                    if matches!(op, crate::ast::CmpOp::Ne) {
                        2.0
                    } else {
                        1.0
                    }
                }
            };
            NodeEst {
                rows,
                pairs: 0.0,
                total: 0.0,
                tmod: node.temporal_vars.iter().map(|v| (v.clone(), 1)).collect(),
                ddist: BTreeMap::new(),
            }
        }
        PlanOp::DataCmp { left, eq, right } => {
            let rows = match (left, right) {
                (DataTerm::Const(a), DataTerm::Const(b)) => {
                    if (a == b) == *eq {
                        1.0
                    } else {
                        0.0
                    }
                }
                (DataTerm::Var(x), DataTerm::Var(y)) if x == y => {
                    if *eq {
                        adom
                    } else {
                        0.0
                    }
                }
                (DataTerm::Var(_), DataTerm::Var(_)) => {
                    if *eq {
                        adom
                    } else {
                        adom * (adom - 1.0).max(0.0)
                    }
                }
                _ => {
                    if *eq {
                        1.0
                    } else {
                        (adom - 1.0).max(0.0)
                    }
                }
            };
            let per_var = if node.data_vars.len() == 2 {
                adom
            } else {
                rows.min(adom)
            };
            NodeEst {
                rows,
                pairs: 0.0,
                total: 0.0,
                tmod: BTreeMap::new(),
                ddist: node
                    .data_vars
                    .iter()
                    .map(|v| (v.clone(), per_var))
                    .collect(),
            }
        }
        PlanOp::Conjoin => conjoin_est(&kids[0], &kids[1]),
        PlanOp::Disjoin => {
            let (a, b) = (&kids[0], &kids[1]);
            let pad = |side: &NodeEst| {
                let mut rows = side.rows;
                for v in &node.data_vars {
                    if !side.ddist.contains_key(v) {
                        rows *= adom;
                    }
                }
                rows
            };
            let mut tmod = BTreeMap::new();
            for v in &node.temporal_vars {
                let ma = a.tmod.get(v).copied().unwrap_or(1);
                let mb = b.tmod.get(v).copied().unwrap_or(1);
                tmod.insert(v.clone(), gcd(ma, mb).max(1));
            }
            let mut ddist = BTreeMap::new();
            for v in &node.data_vars {
                let da = a.ddist.get(v).copied().unwrap_or(adom);
                let db = b.ddist.get(v).copied().unwrap_or(adom);
                ddist.insert(v.clone(), (da + db).min(adom));
            }
            NodeEst {
                rows: pad(a) + pad(b),
                pairs: 0.0,
                total: 0.0,
                tmod,
                ddist,
            }
        }
        PlanOp::ProjectOut { var } => {
            let mut est = kids[0].clone();
            est.tmod.remove(var);
            est.ddist.remove(var);
            est.pairs = 0.0;
            est.total = 0.0;
            est
        }
        PlanOp::Full => {
            let mut est = NodeEst {
                rows: 0.0,
                pairs: 0.0,
                total: 0.0,
                tmod: BTreeMap::new(),
                ddist: BTreeMap::new(),
            };
            complement(&mut est, node, adom);
            est
        }
        // A negation: the complement of the right child.
        PlanOp::Difference if matches!(node.children[0].op, PlanOp::Full) => {
            let mut est = kids[1].clone();
            est.pairs = 0.0;
            est.total = 0.0;
            complement(&mut est, node, adom);
            est
        }
        // An antijoin keeps at most the left rows; it pairs the sides, and
        // on fewer right variables then subtracts the matched part.
        PlanOp::Difference => {
            let (l, r) = (&kids[0], &kids[1]);
            let matched = conjoin_est(l, r);
            let mut est = l.clone();
            est.pairs = matched.pairs;
            if node.children[1].schema() != node.schema() {
                est.pairs += l.rows * matched.rows;
            }
            est
        }
        PlanOp::Pass => {
            let mut est = kids[0].clone();
            est.pairs = 0.0;
            est.total = 0.0;
            est
        }
        PlanOp::Arrange => {
            let mut est = kids[0].clone();
            let mut rows = est.rows;
            for v in &node.data_vars {
                if !est.ddist.contains_key(v) {
                    est.ddist.insert(v.clone(), adom);
                    rows *= adom;
                }
            }
            for v in &node.temporal_vars {
                est.tmod.entry(v.clone()).or_insert(1);
            }
            est.rows = rows;
            est.pairs = 0.0;
            est.total = 0.0;
            est
        }
        PlanOp::Compact => {
            // One near-linear pass over the child's output; refined
            // outputs (normalize/complement/difference) typically shrink
            // well past this conservative factor.
            let mut est = kids[0].clone();
            est.pairs = est.rows;
            est.total = 0.0;
            est.rows *= 0.7;
            est
        }
    };
    est.total = est.pairs + kid_total;
    est
}

/// The complement against the free space `Z^t × adom^d`: its input is
/// the materialized residue grid, so both the work and the output scale
/// with the product of the per-column moduli (and the domain size for
/// data columns).
fn complement(est: &mut NodeEst, node: &PlanNode, adom: f64) {
    let mut grid = 1.0f64;
    for v in &node.temporal_vars {
        grid = (grid * est.tmod.get(v).copied().unwrap_or(1).max(1) as f64).min(1e12);
    }
    for v in &node.data_vars {
        grid = (grid * est.ddist.get(v).copied().unwrap_or(adom).max(1.0)).min(1e12);
    }
    est.pairs += grid + est.rows;
    est.rows += grid;
    for v in &node.temporal_vars {
        est.tmod.entry(v.clone()).or_insert(1);
    }
    for v in &node.data_vars {
        est.ddist.entry(v.clone()).or_insert(adom);
    }
}

fn scan_est(
    name: &str,
    temporal: &[TemporalTerm],
    data: &[DataTerm],
    st: &CatalogStats,
) -> NodeEst {
    let adom = st.adom.max(1) as f64;
    let (base_rows, moduli, distinct) = match st.rels.get(name) {
        Some(r) => (r.rows as f64, r.moduli.clone(), r.distinct.clone()),
        None => (1.0, vec![1; temporal.len()], vec![1; data.len()]),
    };
    let mut rows = base_rows;
    let mut tmod = BTreeMap::new();
    let mut seen_t: Vec<&str> = Vec::new();
    for (col, term) in temporal.iter().enumerate() {
        let m = moduli.get(col).copied().unwrap_or(1).max(1);
        match term {
            TemporalTerm::Const(_) => rows = (rows / m as f64).max(base_rows.min(1.0)),
            TemporalTerm::Var { name: v, .. } => {
                if seen_t.contains(&v.as_str()) {
                    rows *= 0.5;
                } else {
                    seen_t.push(v);
                    let e = tmod.entry(v.clone()).or_insert(1);
                    *e = (*e).max(m);
                }
            }
        }
    }
    let mut ddist = BTreeMap::new();
    let mut seen_d: Vec<&str> = Vec::new();
    for (col, term) in data.iter().enumerate() {
        let d = distinct.get(col).copied().unwrap_or(1).max(1) as f64;
        match term {
            DataTerm::Const(_) => rows /= d,
            DataTerm::Var(v) => {
                if seen_d.contains(&v.as_str()) {
                    rows *= 0.5;
                } else {
                    seen_d.push(v);
                    ddist.insert(v.clone(), d.min(adom));
                }
            }
        }
    }
    NodeEst {
        rows: rows.max(if base_rows == 0.0 { 0.0 } else { 0.5 }),
        pairs: 0.0,
        total: 0.0,
        tmod,
        ddist,
    }
}

/// Joint estimate for `a ⋈ b`: every pair is a candidate; shared
/// temporal variables survive with probability `1/gcd` of their residue
/// moduli, shared data variables with `1/max(distinct)`.
fn conjoin_est(a: &NodeEst, b: &NodeEst) -> NodeEst {
    let pairs = a.rows * b.rows;
    let mut sel = 1.0f64;
    let mut tmod = a.tmod.clone();
    for (v, mb) in &b.tmod {
        match tmod.get_mut(v) {
            Some(ma) => {
                sel /= gcd(*ma, *mb).max(1) as f64;
                *ma = (*ma).max(*mb).min(MAX_MODULUS);
            }
            None => {
                tmod.insert(v.clone(), *mb);
            }
        }
    }
    let mut ddist = a.ddist.clone();
    for (v, db) in &b.ddist {
        match ddist.get_mut(v) {
            Some(da) => {
                sel /= da.max(*db).max(1.0);
                *da = da.min(*db);
            }
            None => {
                ddist.insert(v.clone(), *db);
            }
        }
    }
    NodeEst {
        rows: (pairs * sel).max(0.0),
        pairs,
        total: 0.0,
        tmod,
        ddist,
    }
}

/// Writes cost estimates on every node of `plan` (the EXPLAIN columns).
pub(crate) fn annotate(st: &CatalogStats, plan: &mut Plan) {
    annotate_node(&mut plan.root, st);
}

fn annotate_node(node: &mut PlanNode, st: &CatalogStats) {
    for child in &mut node.children {
        annotate_node(child, st);
    }
    let est = node_est(node, st);
    node.est = Some(CostEstimate {
        rows: est.rows,
        pairs: est.pairs,
        total_pairs: est.total,
    });
}

/// The one preparation pipeline over a freshly lowered plan, from the
/// catalog statistics gathered over it: runs the rewrite pipeline to
/// fixpoint (when `optimize`), inserts adaptive compaction passes (when
/// `compact`), and always writes cost estimates on every node — the
/// root's `total_pairs` is the admission-control estimate. Rewrites only
/// remove scans, so statistics gathered over the lowered plan cover every
/// later shape.
///
/// Surviving nodes keep their ids; fired rules are recorded both on the
/// rewritten nodes and in [`Plan::rewrites`](crate::Plan::rewrites).
/// `dynamic` is for plans that outlive the current catalog contents
/// (registered views pin their plan across mutations): rewrites that bake
/// *data* into the structure — a scan of a currently-empty base relation
/// folding to [`PlanOp::Empty`] — are disabled, so the plan stays valid
/// for every future catalog state. Cost estimates still use the current
/// statistics; they only steer, never change denotation.
pub(crate) fn prepare(
    st: &CatalogStats,
    mut plan: Plan,
    optimize: bool,
    compact: bool,
    dynamic: bool,
) -> Plan {
    if optimize {
        rewrite(st, &mut plan, dynamic);
    }
    if compact {
        insert_compaction(st, &mut plan);
    }
    annotate(st, &mut plan);
    plan
}

/// Runs the rewrite rules to fixpoint (at most [`MAX_PASSES`] passes).
fn rewrite(st: &CatalogStats, plan: &mut Plan, dynamic: bool) {
    let mut cx = Rewriter {
        st,
        next_id: plan.next_id,
        fired: Vec::new(),
        dynamic,
    };
    for _ in 0..MAX_PASSES {
        let before = cx.fired.len();
        let root = std::mem::replace(&mut plan.root, placeholder());
        plan.root = cx.rewrite(root);
        if cx.fired.len() == before {
            break;
        }
    }
    plan.next_id = cx.next_id;
    plan.rewrites.extend(cx.fired);
}

/// Inserts [`PlanOp::Compact`] nodes between producers and the quadratic
/// consumers the cost model predicts will pay for them: a compaction
/// fires only where the child is estimated to feed at least
/// [`COMPACT_MIN_ROWS`] tuples into a pairwise operator (join or
/// difference), never above a [`PlanOp::Full`] leaf. The insertion is purely
/// additive — it never reorders or rewrites the surrounding tree — and
/// deterministic, so EXPLAIN shows exactly the passes execution runs.
fn insert_compaction(st: &CatalogStats, plan: &mut Plan) {
    let mut next_id = plan.next_id;
    let mut fired = Vec::new();
    insert_compaction_node(&mut plan.root, st, &mut next_id, &mut fired);
    plan.next_id = next_id;
    plan.rewrites.extend(fired);
}

fn insert_compaction_node(
    node: &mut PlanNode,
    st: &CatalogStats,
    next_id: &mut u64,
    fired: &mut Vec<String>,
) {
    for child in &mut node.children {
        insert_compaction_node(child, st, next_id, fired);
    }
    if !matches!(node.op, PlanOp::Conjoin | PlanOp::Difference) {
        return;
    }
    for child in &mut node.children {
        if matches!(child.op, PlanOp::Compact | PlanOp::Full) {
            continue;
        }
        let est = node_est(child, st);
        if est.rows < COMPACT_MIN_ROWS {
            continue;
        }
        let id = *next_id;
        *next_id += 1;
        let inner = std::mem::replace(child, placeholder());
        *child = mk_compact(id, inner);
        fired.push(format!("compact @ node {id}"));
    }
}

/// A [`PlanOp::Compact`] wrapper over `child`, keeping its columns.
fn mk_compact(id: u64, child: PlanNode) -> PlanNode {
    PlanNode {
        id,
        label: "compact".to_string(),
        op: PlanOp::Compact,
        steps: vec!["compact (subsume + coalesce)".to_string()],
        temporal_vars: child.temporal_vars.clone(),
        data_vars: child.data_vars.clone(),
        children: vec![child],
        est: None,
        rules: vec!["compact".to_string()],
    }
}

fn placeholder() -> PlanNode {
    PlanNode {
        id: u64::MAX,
        label: String::new(),
        op: PlanOp::Unit(false),
        steps: vec![],
        temporal_vars: vec![],
        data_vars: vec![],
        children: vec![],
        est: None,
        rules: vec![],
    }
}

struct Rewriter<'s> {
    st: &'s CatalogStats,
    next_id: u64,
    fired: Vec<String>,
    /// Plan outlives the current catalog contents (see [`prepare`]):
    /// never fold a relation's *current* emptiness into the tree.
    dynamic: bool,
}

// The rules return `Result<PlanNode, PlanNode>` where `Err` is the
// unchanged node handed back by value — the large "error" variant is
// the point, not an accident worth boxing.
#[allow(clippy::result_large_err)]
impl Rewriter<'_> {
    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn record(&mut self, rule: &str, node: &mut PlanNode) {
        self.fired.push(format!("{rule} @ node {}", node.id));
        node.rules.push(rule.to_string());
    }

    /// Rewrites bottom-up: children first, then local rules at this node
    /// until none applies.
    fn rewrite(&mut self, mut node: PlanNode) -> PlanNode {
        node.children = node.children.drain(..).map(|c| self.rewrite(c)).collect();
        for _ in 0..4 {
            match self.apply_local(node) {
                (n, true) => node = n,
                (n, false) => return n,
            }
        }
        node
    }

    /// Tries each rule once; `Ok` means a rule fired and returned the
    /// replacement, `Err` hands the unchanged node back.
    fn apply_local(&mut self, node: PlanNode) -> (PlanNode, bool) {
        let rules: [fn(&mut Self, PlanNode) -> RuleResult; 7] = [
            Self::empty_leaf,
            Self::empty_propagate,
            Self::tautology,
            Self::select_pushdown,
            Self::proj_pushdown,
            Self::antijoin,
            Self::join_reorder,
        ];
        let mut node = node;
        for rule in rules {
            match rule(self, node) {
                Ok(next) => return (next, true),
                Err(unchanged) => node = unchanged,
            }
        }
        (node, false)
    }

    /// A scan of an empty base relation or a trivially unsatisfiable
    /// constraint leaf denotes the empty relation.
    fn empty_leaf(&mut self, node: PlanNode) -> RuleResult {
        let empty = match &node.op {
            PlanOp::Scan { name, .. } => {
                !self.dynamic && self.st.rels.get(name).is_some_and(|r| r.rows == 0)
            }
            PlanOp::TempCmp { left, op, right } => match (left, right) {
                (TemporalTerm::Const(a), TemporalTerm::Const(b)) => !op.eval(*a, *b),
                (
                    TemporalTerm::Var { name: n1, shift: a },
                    TemporalTerm::Var { name: n2, shift: b },
                ) => n1 == n2 && !op.eval(*a, *b),
                _ => false,
            },
            PlanOp::DataCmp { left, eq, right } => match (left, right) {
                (DataTerm::Const(a), DataTerm::Const(b)) => (a == b) != *eq,
                (DataTerm::Var(x), DataTerm::Var(y)) => x == y && !*eq,
                _ => false,
            },
            _ => false,
        };
        if empty {
            let rule = if matches!(node.op, PlanOp::Scan { .. }) {
                "empty-scan"
            } else {
                "empty-constraint"
            };
            let mut replacement = mk_empty(&node);
            self.record(rule, &mut replacement);
            Ok(replacement)
        } else {
            Err(node)
        }
    }

    /// Emptiness propagates up: an empty join input kills the join (the
    /// sibling subtree is never evaluated), an empty union side reduces
    /// the union to a pad of the other side, an empty projection input
    /// stays empty.
    fn empty_propagate(&mut self, mut node: PlanNode) -> RuleResult {
        match node.op {
            PlanOp::Conjoin if node.children.iter().any(is_empty_op) => {
                let mut replacement = mk_empty(&node);
                self.record("empty-join", &mut replacement);
                Ok(replacement)
            }
            PlanOp::Disjoin if node.children.iter().any(is_empty_op) => {
                let keep = node.children.iter().position(|c| !is_empty_op(c));
                match keep {
                    None => {
                        let mut replacement = mk_empty(&node);
                        self.record("drop-empty-union", &mut replacement);
                        Ok(replacement)
                    }
                    Some(i) => {
                        let mut kept = node.children.swap_remove(i);
                        if same_vars(&kept, &node.temporal_vars, &node.data_vars) {
                            self.fired
                                .push(format!("drop-empty-union @ node {}", node.id));
                            kept.rules.push("drop-empty-union".to_string());
                            Ok(kept)
                        } else {
                            let mut replacement = mk_arrange(node.id, &node, kept);
                            self.record("drop-empty-union", &mut replacement);
                            Ok(replacement)
                        }
                    }
                }
            }
            PlanOp::ProjectOut { .. } | PlanOp::Arrange
                if node.children.iter().any(is_empty_op) =>
            {
                let mut replacement = mk_empty(&node);
                self.record("empty-project", &mut replacement);
                Ok(replacement)
            }
            _ => Err(node),
        }
    }

    /// `φ ∧ true → φ`; `φ ∨ full → full`; `true ∨ φ → true` (closed).
    fn tautology(&mut self, mut node: PlanNode) -> RuleResult {
        match node.op {
            PlanOp::Conjoin => {
                if !node.children.iter().any(is_unit_true) {
                    return Err(node);
                }
                let i = node
                    .children
                    .iter()
                    .position(|c| !is_unit_true(c))
                    .unwrap_or(0);
                if !same_vars(&node.children[i], &node.temporal_vars, &node.data_vars) {
                    return Err(node);
                }
                let mut kept = node.children.swap_remove(i);
                self.fired.push(format!("true-elim @ node {}", node.id));
                kept.rules.push("true-elim".to_string());
                Ok(kept)
            }
            PlanOp::Disjoin => {
                let full = node.children.iter().position(|c| {
                    (is_full_leaf(c) || is_unit_true(c))
                        && same_vars(c, &node.temporal_vars, &node.data_vars)
                });
                match full {
                    Some(i) => {
                        let mut kept = node.children.swap_remove(i);
                        self.fired.push(format!("tautology @ node {}", node.id));
                        kept.rules.push("tautology".to_string());
                        Ok(kept)
                    }
                    None => Err(node),
                }
            }
            _ => Err(node),
        }
    }

    /// Sinks a constraint leaf below an adjacent join (`(A ⋈ B) ⋈ σ →
    /// (A ⋈ σ) ⋈ B` when σ's variables are bound by A) or through a
    /// union when both branches bind them. Candidates are built from
    /// clones and only adopted when the output columns stay identical,
    /// so the no-fire path hands the node back untouched.
    fn select_pushdown(&mut self, node: PlanNode) -> RuleResult {
        if !matches!(node.op, PlanOp::Conjoin) || node.children.len() != 2 {
            return Err(node);
        }
        let (id, label) = (node.id, node.label.clone());
        let (x, y) = (&node.children[0], &node.children[1]);
        // (A ⋈ B) ⋈ σ, σ bound by A or by B.
        if is_cmp_leaf(y) && matches!(x.op, PlanOp::Conjoin) && x.children.len() == 2 {
            let (a, b) = (&x.children[0], &x.children[1]);
            let candidate = if binds(a, y) {
                let inner = plan_conjoin(x.id, x.label.clone(), a.clone(), y.clone());
                Some(plan_conjoin(id, label.clone(), inner, b.clone()))
            } else if binds(b, y) {
                let inner = plan_conjoin(x.id, x.label.clone(), b.clone(), y.clone());
                Some(plan_conjoin(id, label.clone(), a.clone(), inner))
            } else {
                None
            };
            if let Some(mut new) = candidate {
                if same_vars(&new, &node.temporal_vars, &node.data_vars) {
                    self.record("select-pushdown", &mut new);
                    return Ok(new);
                }
            }
        }
        // σ ⋈ (A ⋈ B), σ bound by A: → (σ ⋈ A) ⋈ B.
        if is_cmp_leaf(x) && matches!(y.op, PlanOp::Conjoin) && y.children.len() == 2 {
            let (a, b) = (&y.children[0], &y.children[1]);
            if binds(a, x) {
                let inner = plan_conjoin(y.id, y.label.clone(), x.clone(), a.clone());
                let mut new = plan_conjoin(id, label.clone(), inner, b.clone());
                if same_vars(&new, &node.temporal_vars, &node.data_vars) {
                    self.record("select-pushdown", &mut new);
                    return Ok(new);
                }
            }
        }
        // (A ∪ B) ⋈ σ with σ bound by both branches: distribute the
        // selection into the union.
        if is_cmp_leaf(y)
            && matches!(x.op, PlanOp::Disjoin)
            && x.children.len() == 2
            && binds_all(&x.children, y)
        {
            let (a, b) = (&x.children[0], &x.children[1]);
            let mut y2 = y.clone();
            y2.id = self.fresh_id();
            let left = plan_conjoin(self.fresh_id(), label.clone(), a.clone(), y2);
            let right = plan_conjoin(self.fresh_id(), label, b.clone(), y.clone());
            let mut new = plan_disjoin(id, x.label.clone(), left, right);
            if same_vars(&new, &node.temporal_vars, &node.data_vars) {
                self.record("select-pushdown-union", &mut new);
                return Ok(new);
            }
        }
        Err(node)
    }

    /// Sinks `∃x` into the single join branch or union side that binds
    /// `x` (pruning the dead column before the pairing or padding), and
    /// drops projections of variables the child never binds.
    fn proj_pushdown(&mut self, node: PlanNode) -> RuleResult {
        let PlanOp::ProjectOut { ref var } = node.op else {
            return Err(node);
        };
        let var = var.clone();
        let (id, label) = (node.id, node.label.clone());
        let child = &node.children[0];
        if !has_var(child, &var) {
            // `∃x φ` with x unbound in φ: the projection is a no-op.
            let mut kept = node.children.into_iter().next().expect("one child");
            self.fired.push(format!("dead-projection @ node {id}"));
            kept.rules.push("dead-projection".to_string());
            return Ok(kept);
        }
        if !matches!(child.op, PlanOp::Conjoin | PlanOp::Disjoin) || child.children.len() != 2 {
            return Err(node);
        }
        let (a, b) = (&child.children[0], &child.children[1]);
        let (in_a, in_b) = (has_var(a, &var), has_var(b, &var));
        if in_a == in_b {
            return Err(node);
        }
        let (pushed_a, pushed_b) = if in_b {
            let pb = plan_project_out(id, label, b.clone(), &var);
            (a.clone(), pb)
        } else {
            let pa = plan_project_out(id, label, a.clone(), &var);
            (pa, b.clone())
        };
        let mut new = match child.op {
            PlanOp::Conjoin => plan_conjoin(child.id, child.label.clone(), pushed_a, pushed_b),
            _ => plan_disjoin(child.id, child.label.clone(), pushed_a, pushed_b),
        };
        if same_vars(&new, &node.temporal_vars, &node.data_vars) {
            self.record("proj-pushdown", &mut new);
            Ok(new)
        } else {
            Err(node)
        }
    }

    /// `A ∧ ¬B → A ∖ B`: flattens a conjunction chain and takes out every
    /// negated member `Difference(Full, B)` whose variables the members
    /// left in the join bind; each becomes a [`PlanOp::Difference`] that
    /// subtracts `B` from that join, instead of joining with `B`'s
    /// complement against `Z^t × adom^d`. A negation no other member
    /// covers stays a join member. The rebuilt nodes reuse the chain's
    /// internal ids (outermost keeps this node's id); an `Arrange` node
    /// restores the column order if the join's differs.
    fn antijoin(&mut self, node: PlanNode) -> RuleResult {
        if !matches!(node.op, PlanOp::Conjoin) {
            return Err(node);
        }
        let mut members = Vec::new();
        let mut internals = Vec::new();
        flatten_conjoins(node.clone(), &mut members, &mut internals);
        let (mut kept, mut pending): (Vec<usize>, Vec<usize>) =
            (0..members.len()).partition(|&i| negated_body(&members[i]).is_none());
        let mut anti = Vec::new();
        while !pending.is_empty() {
            let covered = pending.iter().position(|&i| {
                let b = negated_body(&members[i]).expect("pending members negate");
                b.temporal_vars
                    .iter()
                    .chain(&b.data_vars)
                    .all(|v| kept.iter().any(|&k| has_var(&members[k], v)))
            });
            match covered {
                Some(p) => anti.push(pending.remove(p)),
                None => kept.push(pending.remove(0)),
            }
        }
        if anti.is_empty() || kept.is_empty() {
            return Err(node);
        }
        kept.sort_unstable();
        let mut tree = std::mem::replace(&mut members[kept[0]], placeholder());
        for &i in &kept[1..] {
            let (iid, ilabel) = internals.pop().expect("one internal per join");
            let member = std::mem::replace(&mut members[i], placeholder());
            tree = plan_conjoin(iid, ilabel, tree, member);
        }
        for i in anti {
            let (iid, ilabel) = internals.pop().expect("one internal per join");
            let b = negated_body(&members[i]).expect("antijoined members negate");
            tree = plan_difference(iid, ilabel, tree, b.clone());
        }
        let (tvars, dvars) = (&node.temporal_vars, &node.data_vars);
        let mut replacement = if same_vars(&tree, tvars, dvars) {
            tree
        } else {
            mk_arrange_with(self.fresh_id(), tvars, dvars, tree)
        };
        self.fired.push(format!("antijoin @ node {}", node.id));
        replacement.rules.push("antijoin".to_string());
        Ok(replacement)
    }

    /// Flattens a maximal conjunction chain and re-associates it
    /// left-deep in greedy cost order; fires only on a strict estimated
    /// improvement. The rebuilt chain reuses the original internal node
    /// ids (outermost keeps this node's id); if the greedy order changes
    /// the output columns an `Arrange` node restores them.
    fn join_reorder(&mut self, node: PlanNode) -> RuleResult {
        if !matches!(node.op, PlanOp::Conjoin)
            || !node
                .children
                .iter()
                .any(|c| matches!(c.op, PlanOp::Conjoin))
        {
            return Err(node);
        }
        let orig_total = node_est(&node, self.st).total;
        let tvars = node.temporal_vars.clone();
        let dvars = node.data_vars.clone();
        let node_id = node.id;
        let mut leaves = Vec::new();
        let mut internals = Vec::new();
        flatten_conjoins(node.clone(), &mut leaves, &mut internals);
        if leaves.len() < 3 {
            return Err(node);
        }
        let ests: Vec<NodeEst> = leaves.iter().map(|l| node_est(l, self.st)).collect();
        let mut remaining: Vec<usize> = (0..leaves.len()).collect();
        let start = remaining
            .iter()
            .copied()
            .min_by(|&i, &j| {
                ests[i]
                    .rows
                    .partial_cmp(&ests[j].rows)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(i.cmp(&j))
            })
            .expect("non-empty");
        remaining.retain(|&i| i != start);
        let mut order = vec![start];
        let mut acc = ests[start].clone();
        while !remaining.is_empty() {
            let next = remaining
                .iter()
                .copied()
                .min_by(|&i, &j| {
                    let ci = conjoin_est(&acc, &ests[i]);
                    let cj = conjoin_est(&acc, &ests[j]);
                    (ci.pairs, ci.rows, i)
                        .partial_cmp(&(cj.pairs, cj.rows, j))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("non-empty");
            acc = conjoin_est(&acc, &ests[next]);
            order.push(next);
            remaining.retain(|&i| i != next);
        }
        if order.iter().enumerate().all(|(pos, &i)| pos == i) {
            return Err(node); // already in greedy order
        }
        let mut picked: Vec<Option<PlanNode>> = leaves.into_iter().map(Some).collect();
        let mut ordered: Vec<PlanNode> = order
            .iter()
            .map(|&i| picked[i].take().expect("each leaf used once"))
            .collect();
        let mut tree = ordered.remove(0);
        let mut ids = internals;
        for leaf in ordered {
            let (iid, ilabel) = ids.pop().expect("one internal per join");
            tree = plan_conjoin(iid, ilabel, tree, leaf);
        }
        let new_total = node_est(&tree, self.st).total;
        if new_total >= orig_total * REORDER_MARGIN {
            return Err(node);
        }
        let mut replacement = if same_vars(&tree, &tvars, &dvars) {
            tree
        } else {
            mk_arrange_with(self.fresh_id(), &tvars, &dvars, tree)
        };
        self.fired.push(format!("join-reorder @ node {node_id}"));
        replacement.rules.push("join-reorder".to_string());
        Ok(replacement)
    }
}

/// `Ok(replacement)` when a rule fired, `Err(unchanged node)` when it
/// did not.
type RuleResult = std::result::Result<PlanNode, PlanNode>;

fn is_empty_op(n: &PlanNode) -> bool {
    matches!(n.op, PlanOp::Empty | PlanOp::Unit(false))
}

fn is_unit_true(n: &PlanNode) -> bool {
    matches!(n.op, PlanOp::Unit(true))
}

/// A `t ≤ t`-style leaf denoting all of `Z` over one variable.
fn is_full_leaf(n: &PlanNode) -> bool {
    match &n.op {
        PlanOp::TempCmp {
            left: TemporalTerm::Var { name: n1, shift: a },
            op,
            right: TemporalTerm::Var { name: n2, shift: b },
        } => n1 == n2 && op.eval(*a, *b),
        _ => false,
    }
}

fn is_cmp_leaf(n: &PlanNode) -> bool {
    matches!(n.op, PlanOp::TempCmp { .. } | PlanOp::DataCmp { .. }) && n.children.is_empty()
}

fn has_var(n: &PlanNode, var: &str) -> bool {
    n.temporal_vars.iter().any(|v| v == var) || n.data_vars.iter().any(|v| v == var)
}

/// `B` when `n` is a lowered negation `Difference(Full, B)`, looking
/// through syntactic `not` wrappers.
fn negated_body(n: &PlanNode) -> Option<&PlanNode> {
    match n.op {
        PlanOp::Pass => negated_body(&n.children[0]),
        PlanOp::Difference if matches!(n.children[0].op, PlanOp::Full) => Some(&n.children[1]),
        _ => None,
    }
}

/// Whether `container` binds every variable of `leaf`.
fn binds(container: &PlanNode, leaf: &PlanNode) -> bool {
    leaf.temporal_vars
        .iter()
        .all(|v| container.temporal_vars.contains(v))
        && leaf
            .data_vars
            .iter()
            .all(|v| container.data_vars.contains(v))
}

fn binds_all(containers: &[PlanNode], leaf: &PlanNode) -> bool {
    containers.iter().all(|c| binds(c, leaf))
}

fn same_vars(n: &PlanNode, tvars: &[String], dvars: &[String]) -> bool {
    n.temporal_vars == tvars && n.data_vars == dvars
}

/// The empty relation over `node`'s columns, keeping its id and label.
fn mk_empty(node: &PlanNode) -> PlanNode {
    PlanNode {
        id: node.id,
        label: node.label.clone(),
        op: PlanOp::Empty,
        steps: vec!["empty relation".to_string()],
        temporal_vars: node.temporal_vars.clone(),
        data_vars: node.data_vars.clone(),
        children: vec![],
        est: None,
        rules: vec![],
    }
}

/// Pads/permutes `child` to `like`'s columns under `like`'s label.
fn mk_arrange(id: u64, like: &PlanNode, child: PlanNode) -> PlanNode {
    let mut n = mk_arrange_with(id, &like.temporal_vars, &like.data_vars, child);
    n.label = like.label.clone();
    n
}

fn mk_arrange_with(id: u64, tvars: &[String], dvars: &[String], child: PlanNode) -> PlanNode {
    let cols = if dvars.is_empty() {
        tvars.join(", ")
    } else {
        format!("{}; {}", tvars.join(", "), dvars.join(", "))
    };
    PlanNode {
        id,
        label: "arrange".to_string(),
        op: PlanOp::Arrange,
        steps: vec![format!("arrange ⟨{cols}⟩")],
        temporal_vars: tvars.to_vec(),
        data_vars: dvars.to_vec(),
        children: vec![child],
        est: None,
        rules: vec![],
    }
}

fn flatten_conjoins(n: PlanNode, leaves: &mut Vec<PlanNode>, internals: &mut Vec<(u64, String)>) {
    if matches!(n.op, PlanOp::Conjoin) && n.children.len() == 2 {
        internals.push((n.id, n.label));
        let mut it = n.children.into_iter();
        let a = it.next().expect("two children");
        let b = it.next().expect("two children");
        flatten_conjoins(a, leaves, internals);
        flatten_conjoins(b, leaves, internals);
    } else {
        leaves.push(n);
    }
}
