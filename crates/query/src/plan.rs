//! The executable logical plan IR.
//!
//! [`Plan`] is the algebra lowering of a formula (§4.2–4.3): each
//! [`PlanNode`] carries a machine-readable [`PlanOp`] (what to execute)
//! alongside the rendered `steps` (what EXPLAIN prints) and its output
//! columns. Lowering is the one place the §4 translation happens —
//! negation pushed to the leaves, conjoin/disjoin/project structure, each
//! node's column list — and the executor *interprets this tree*, reading
//! every column name and position from the nodes, so EXPLAIN shows
//! exactly what runs. Each node has a stable `id` (pre-order at lowering;
//! preserved by the optimizer for surviving nodes) that the executor
//! stamps on the node's trace span via
//! [`ExecContext::plan_span`](itd_core::ExecContext::plan_span), so
//! EXPLAIN ANALYZE joins plan and trace by id instead of by label text.
//!
//! The optimizer ([`crate::opt`]) rewrites this IR before execution and
//! annotates nodes with cost estimates and fired-rule names.

use std::fmt;

use itd_core::{Schema, Trace};

use crate::ast::{CmpOp, DataTerm, Formula, TemporalTerm};
use crate::catalog::Catalog;
use crate::eval::QueryOpts;
use crate::Result;

/// A compiled algebra plan for a formula: an executable tree of
/// [`PlanNode`]s plus the log of optimizer rewrites applied to it.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub(crate) root: PlanNode,
    /// First id not yet used by any node (rewrites allocate from here).
    pub(crate) next_id: u64,
    /// Fired rewrite rules, in application order (`"rule @ node id"`).
    pub(crate) rewrites: Vec<String>,
}

/// The algebra operation a [`PlanNode`] executes. Comparison operands are
/// stored with any enclosing negation already applied (`not t < 5` lowers
/// to a `>=` node): lowering pushes negation to the leaves.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOp {
    /// The 0-ary unit relation: `{()}` when true, `{}` when false.
    Unit(bool),
    /// Scan a base relation and apply the per-argument selections, shifts,
    /// and the final projection that turn its columns into variables.
    Scan {
        /// Base relation name.
        name: String,
        /// Temporal argument terms, in column order.
        temporal: Vec<TemporalTerm>,
        /// Data argument terms, in column order.
        data: Vec<DataTerm>,
    },
    /// A gap-order constraint leaf over one or two temporal variables.
    TempCmp {
        /// Left operand.
        left: TemporalTerm,
        /// Comparison (already flipped if the atom was under a negation).
        op: CmpOp,
        /// Right operand.
        right: TemporalTerm,
    },
    /// An (in)equality leaf over data terms, enumerated from the active
    /// domain.
    DataCmp {
        /// Left operand.
        left: DataTerm,
        /// True for `=`, false for `!=` (negation already applied).
        eq: bool,
        /// Right operand.
        right: DataTerm,
    },
    /// Natural join of the two children on their shared variables.
    Conjoin,
    /// Pad both children to the merged variable set, then union.
    Disjoin,
    /// Drop one variable's column (`∃`).
    ProjectOut {
        /// Variable to project away.
        var: String,
    },
    /// `L ∧ ¬R` over the two children `[L, R]`, where R's variables are a
    /// subset of L's; the output has L's columns. Negation lowers to a
    /// difference from a [`Full`](PlanOp::Full) left child; the optimizer's
    /// `antijoin` rule puts a conjunction's other members there instead.
    Difference,
    /// The free space `Z^t × adom^d` over this node's columns: the left
    /// child of a lowered negation.
    Full,
    /// Pass the single child through unchanged (a syntactic `not` wrapper
    /// or a `¬true`/`¬false` re-entry; no algebra is performed).
    Pass,
    /// Optimizer-introduced: the empty relation over this node's columns.
    Empty,
    /// Optimizer-introduced: pad/permute the single child to this node's
    /// columns (restores the original column order after a rewrite).
    Arrange,
    /// Adaptive intermediate compaction: subsumption-prune and coalesce
    /// the single child's output before a quadratic consumer reads it
    /// (inserted by the cost model where the predicted pair savings beat
    /// the near-linear pass; see
    /// [`GenRelation::compact_in`](itd_core::GenRelation::compact_in)).
    Compact,
}

/// Optimizer cost annotations for one node; heuristic, unit-free numbers
/// ordered the same way the real counters are.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Estimated generalized tuples this node outputs.
    pub rows: f64,
    /// Estimated candidate pairs this node's own operators examine.
    pub pairs: f64,
    /// `pairs` summed over this node and all descendants.
    pub total_pairs: f64,
}

/// One plan node: the algebra lowering of one subformula occurrence
/// (under an even or odd number of enclosing negations).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    /// Stable node id: pre-order at lowering, preserved across optimizer
    /// rewrites for surviving nodes, stamped on the node's trace span.
    pub id: u64,
    /// Node label; identical to the corresponding traced span's label.
    pub label: String,
    /// The operation the executor performs at this node.
    pub op: PlanOp,
    /// Human-readable algebra steps this node performs on its children's
    /// outputs, in execution order.
    pub steps: Vec<String>,
    /// Temporal columns of the node's output, in order.
    pub temporal_vars: Vec<String>,
    /// Data columns of the node's output, in order.
    pub data_vars: Vec<String>,
    /// Sub-plans evaluated first, in evaluation order.
    pub children: Vec<PlanNode>,
    /// Cost estimate, once a catalog was consulted (EXPLAIN / optimizer).
    pub est: Option<CostEstimate>,
    /// Names of the rewrite rules that produced or reshaped this node.
    pub rules: Vec<String>,
}

impl PlanNode {
    /// The schema of this node's output: one temporal column per
    /// [`temporal_vars`](Self::temporal_vars) entry, one data column per
    /// [`data_vars`](Self::data_vars) entry.
    pub(crate) fn schema(&self) -> Schema {
        Schema::new(self.temporal_vars.len(), self.data_vars.len())
    }
}

/// Compiles a formula without executing anything (EXPLAIN): the direct
/// lowering next to the plan [`run`](crate::run) executes under `opts`,
/// both annotated with the optimizer's cost estimates (the catalog is
/// consulted for cardinalities, never for tuples).
///
/// The executed plan is built by the same preparation `run` performs —
/// optimizer and compaction passes as `opts` ask — so EXPLAIN shows
/// exactly the nodes that would run. Sort/arity checking is the same as
/// evaluation's, so unknown predicates and arity mismatches fail here too.
///
/// # Errors
/// Sort/arity errors; see [`QueryError`](crate::QueryError).
///
/// # Examples
/// ```
/// use itd_query::{explain, parse, MemoryCatalog, QueryOpts};
/// use itd_core::{GenRelation, Schema};
/// let mut cat = MemoryCatalog::new();
/// cat.insert("P", GenRelation::empty(Schema::new(1, 0)));
/// let report = explain(&cat, &parse("P(t) and not P(t + 1)")?, QueryOpts::new())?;
/// let text = report.logical.render();
/// assert!(text.contains("join"));
/// assert!(text.contains("difference"));
/// # Ok::<(), itd_query::QueryError>(())
/// ```
pub fn explain(
    catalog: &impl Catalog,
    formula: &Formula,
    opts: QueryOpts<'_>,
) -> Result<ExplainReport> {
    // One statistics pass feeds both trees: preparation's, over the same
    // lowering the logical plan is.
    let (prepared, stats) = crate::eval::prepare_inner(catalog, formula, &opts, false)?;
    let mut logical = Plan::of(&prepared.formula);
    crate::opt::annotate(&stats, &mut logical);
    Ok(ExplainReport {
        logical,
        executed: prepared.plan,
    })
}

/// What EXPLAIN reports for one query (see [`explain`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainReport {
    /// The direct lowering of the formula, cost-annotated.
    pub logical: Plan,
    /// The plan execution runs under the explained options: the rewritten
    /// plan when the optimizer is on, the direct lowering otherwise, with
    /// any compaction passes inserted.
    pub executed: Plan,
}

impl ExplainReport {
    /// Renders the optimizer's before/after view: both trees plus the
    /// list of fired rewrites.
    pub fn render(&self) -> String {
        let mut out = String::from("logical plan:\n");
        out.push_str(&self.logical.render());
        out.push_str("optimized plan:\n");
        out.push_str(&self.executed.render());
        if self.executed.rewrites().is_empty() {
            out.push_str("rewrites: none fired\n");
        } else {
            out.push_str(&format!(
                "rewrites: {}\n",
                self.executed.rewrites().join(", ")
            ));
        }
        out
    }
}

impl Plan {
    /// Compiles an already sort-checked formula.
    pub(crate) fn of(f: &Formula) -> Plan {
        let mut next_id = 0u64;
        let root = compile(f, false, &mut next_id);
        Plan {
            root,
            next_id,
            rewrites: Vec::new(),
        }
    }

    /// The root node.
    pub fn root(&self) -> &PlanNode {
        &self.root
    }

    /// The cost model's whole-plan total-pairs estimate: the root's
    /// annotation, which preparation always writes (0 on an unannotated
    /// plan).
    pub(crate) fn est_total_pairs(&self) -> f64 {
        self.root.est.map_or(0.0, |est| est.total_pairs)
    }

    /// The rewrite rules the optimizer fired on this plan, in application
    /// order, as `"rule @ node id"` strings. Empty for unoptimized plans.
    pub fn rewrites(&self) -> &[String] {
        &self.rewrites
    }

    /// Looks a node up by its stable id.
    pub fn node(&self, id: u64) -> Option<&PlanNode> {
        fn find(n: &PlanNode, id: u64) -> Option<&PlanNode> {
            if n.id == id {
                return Some(n);
            }
            n.children.iter().find_map(|c| find(c, id))
        }
        find(&self.root, id)
    }

    /// Renders the plan as an indented tree, one node per line:
    /// `label ⟨output columns⟩ — algebra steps` plus any cost estimate
    /// and fired-rule annotations.
    pub fn render(&self) -> String {
        let mut out = String::new();
        render_node(&mut out, &self.root, "", true, true, None);
        out
    }

    /// Renders the plan with each node's estimates lined up against the
    /// counters its trace spans actually recorded (joined by plan-node
    /// id, not by label). Nodes absent from the trace show `actual —`.
    pub fn render_analyze(&self, trace: &Trace) -> String {
        let mut out = String::new();
        render_node(&mut out, &self.root, "", true, true, Some(trace));
        out
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

fn render_node(
    out: &mut String,
    node: &PlanNode,
    prefix: &str,
    last: bool,
    root: bool,
    trace: Option<&Trace>,
) {
    let (branch, next_prefix) = if root {
        ("", String::new())
    } else if last {
        ("└─ ", format!("{prefix}   "))
    } else {
        ("├─ ", format!("{prefix}│  "))
    };
    out.push_str(prefix);
    out.push_str(branch);
    out.push_str(&node.label);
    out.push_str(&format!(
        " ⟨{}⟩",
        columns(&node.temporal_vars, &node.data_vars)
    ));
    if !node.steps.is_empty() {
        out.push_str(" — ");
        out.push_str(&node.steps.join("; "));
    }
    if let Some(est) = &node.est {
        out.push_str(&format!(
            " [est rows≈{} pairs≈{}]",
            fmt_est(est.rows),
            fmt_est(est.pairs)
        ));
    }
    if let Some(trace) = trace {
        match trace.span_for_plan_node(node.id) {
            Some(span) => {
                let ops = trace.op_totals_for_plan_node(node.id);
                out.push_str(&format!(
                    " [actual rows={} pairs={} in {:.1?}]",
                    span.counters.tuples_out,
                    ops.total_pairs(),
                    span.wall_time()
                ));
            }
            None => out.push_str(" [actual —]"),
        }
    }
    if !node.rules.is_empty() {
        out.push_str(&format!(" [fired: {}]", node.rules.join(", ")));
    }
    out.push('\n');
    for (i, child) in node.children.iter().enumerate() {
        render_node(
            out,
            child,
            &next_prefix,
            i + 1 == node.children.len(),
            false,
            trace,
        );
    }
}

/// Cost numbers are heuristics; print them as round integers (saturating
/// at a readable cap) so goldens stay stable.
fn fmt_est(x: f64) -> String {
    if x >= 1e15 {
        "huge".to_string()
    } else {
        format!("{}", x.round() as i64)
    }
}

/// Label for the plan node / traced span of subformula `f` evaluated
/// under negation (`negated`). Lowering stores it on the node, and the
/// executor stamps the node's span with it, so EXPLAIN and trace agree.
pub(crate) fn node_label(f: &Formula, negated: bool) -> String {
    let base = match f {
        Formula::True => "true".to_string(),
        Formula::False => "false".to_string(),
        // Leaves display as themselves (`Even(t + 2)`, `t1 < t2`, …).
        Formula::Pred { .. } | Formula::TempCmp { .. } | Formula::DataCmp { .. } => f.to_string(),
        Formula::Not(_) => "not".to_string(),
        Formula::And(_, _) => "and".to_string(),
        Formula::Or(_, _) => "or".to_string(),
        Formula::Implies(_, _) => "implies".to_string(),
        Formula::Exists { var, .. } => format!("exists {var}"),
        Formula::Forall { var, .. } => format!("forall {var}"),
    };
    if negated {
        format!("not {base}")
    } else {
        base
    }
}

fn columns(tvars: &[String], dvars: &[String]) -> String {
    let t = tvars.join(", ");
    if dvars.is_empty() {
        t
    } else {
        format!("{t}; {}", dvars.join(", "))
    }
}

fn project_step(tvars: &[String], dvars: &[String]) -> String {
    format!("project ⟨{}⟩", columns(tvars, dvars))
}

/// The free space `Z^t × adom^d` over `node`'s columns, as EXPLAIN
/// prints it.
fn space(node: &PlanNode) -> String {
    let (t, d) = (node.temporal_vars.len(), node.data_vars.len());
    if d > 0 {
        format!("Z^{t} × adom^{d}")
    } else {
        format!("Z^{t}")
    }
}

fn leaf(
    id: u64,
    label: String,
    op: PlanOp,
    steps: Vec<String>,
    tvars: Vec<String>,
    dvars: Vec<String>,
) -> PlanNode {
    PlanNode {
        id,
        label,
        op,
        steps,
        temporal_vars: tvars,
        data_vars: dvars,
        children: vec![],
        est: None,
        rules: vec![],
    }
}

fn take_id(ids: &mut u64) -> u64 {
    let id = *ids;
    *ids += 1;
    id
}

/// Lowers `f` (`negated`: under an odd number of enclosing negations,
/// which are pushed to the leaves) to its plan node, children in
/// evaluation order. Ids are assigned in pre-order.
fn compile(f: &Formula, negated: bool, ids: &mut u64) -> PlanNode {
    let id = take_id(ids);
    let label = node_label(f, negated);
    match f {
        // ¬true and ¬false lower to the opposite literal, shown as a
        // child of a pass-through node.
        Formula::True if negated => pass(id, label, compile(&Formula::False, false, ids)),
        Formula::False if negated => pass(id, label, compile(&Formula::True, false, ids)),
        Formula::True => leaf(
            id,
            label,
            PlanOp::Unit(true),
            vec!["unit(true)".into()],
            vec![],
            vec![],
        ),
        Formula::False => leaf(
            id,
            label,
            PlanOp::Unit(false),
            vec!["unit(false)".into()],
            vec![],
            vec![],
        ),
        Formula::Pred {
            name,
            temporal,
            data,
        } => {
            if negated {
                // A negated predicate scans positively, then differences
                // the scan from the free space.
                let full = take_id(ids);
                let positive = compile_pred(take_id(ids), name, temporal, data);
                negation(id, label, full, positive)
            } else {
                compile_pred(id, name, temporal, data)
            }
        }
        Formula::TempCmp { left, op, right } => {
            let op = if negated { op.negated() } else { *op };
            compile_temp_cmp(id, label, left, op, right)
        }
        Formula::DataCmp { left, eq, right } => {
            let eq = if negated { !eq } else { *eq };
            compile_data_cmp(id, label, left, eq, right)
        }
        Formula::Not(inner) => pass(id, label, compile(inner, !negated, ids)),
        Formula::And(a, b) if !negated => {
            conjoin(id, label, compile(a, false, ids), compile(b, false, ids))
        }
        Formula::And(a, b) => disjoin(id, label, compile(a, true, ids), compile(b, true, ids)),
        Formula::Or(a, b) if !negated => {
            disjoin(id, label, compile(a, false, ids), compile(b, false, ids))
        }
        Formula::Or(a, b) => conjoin(id, label, compile(a, true, ids), compile(b, true, ids)),
        // a → b ≡ ¬a ∨ b;  ¬(a → b) ≡ a ∧ ¬b.
        Formula::Implies(a, b) if !negated => {
            disjoin(id, label, compile(a, true, ids), compile(b, false, ids))
        }
        Formula::Implies(a, b) => conjoin(id, label, compile(a, false, ids), compile(b, true, ids)),
        Formula::Exists { var, body } if !negated => {
            project_out(id, label, compile(body, false, ids), var)
        }
        // ¬∀v.φ ≡ ∃v.¬φ.
        Formula::Forall { var, body } if negated => {
            project_out(id, label, compile(body, true, ids), var)
        }
        // ¬∃v.φ, and ∀v.φ ≡ ¬∃v.¬φ with the inner negation pushed to the
        // leaves — project, then one unavoidable complement.
        Formula::Exists { var, body } | Formula::Forall { var, body } => {
            let full = take_id(ids);
            let proj = take_id(ids);
            let inner = compile(body, matches!(f, Formula::Forall { .. }), ids);
            let exists = project_out(proj, format!("exists {var}"), inner, var);
            negation(id, label, full, exists)
        }
    }
}

/// `¬child`: the difference of `child` from the free space over its
/// columns, a [`PlanOp::Full`] leaf with id `full`.
fn negation(id: u64, label: String, full: u64, child: PlanNode) -> PlanNode {
    let steps = vec![format!("all of {}", space(&child))];
    let full = leaf(
        full,
        "full".to_string(),
        PlanOp::Full,
        steps,
        child.temporal_vars.clone(),
        child.data_vars.clone(),
    );
    difference(id, label, full, child)
}

/// A node that passes its single child through unchanged.
fn pass(id: u64, label: String, child: PlanNode) -> PlanNode {
    PlanNode {
        id,
        label,
        op: PlanOp::Pass,
        steps: vec![],
        temporal_vars: child.temporal_vars.clone(),
        data_vars: child.data_vars.clone(),
        children: vec![child],
        est: None,
        rules: vec![],
    }
}

fn compile_pred(id: u64, name: &str, temporal: &[TemporalTerm], data: &[DataTerm]) -> PlanNode {
    let mut steps = vec![format!("scan {name}")];
    let mut tvars: Vec<String> = Vec::new();
    let mut tkeep: Vec<usize> = Vec::new();
    for (col, term) in temporal.iter().enumerate() {
        match term {
            TemporalTerm::Const(c) => steps.push(format!("select t{col} = {c}")),
            TemporalTerm::Var { name: v, shift } => {
                if *shift != 0 {
                    steps.push(format!("shift t{col} by {}", -i128::from(*shift)));
                }
                if let Some(first) = tvars.iter().position(|x| x == v) {
                    steps.push(format!("select t{} = t{col}", tkeep[first]));
                } else {
                    tvars.push(v.clone());
                    tkeep.push(col);
                }
            }
        }
    }
    let mut dvars: Vec<String> = Vec::new();
    let mut dkeep: Vec<usize> = Vec::new();
    for (col, term) in data.iter().enumerate() {
        match term {
            DataTerm::Const(_) => steps.push(format!("select d{col} = {term}")),
            DataTerm::Var(v) => {
                if let Some(first) = dvars.iter().position(|x| x == v) {
                    steps.push(format!("select d{} = d{col}", dkeep[first]));
                } else {
                    dvars.push(v.clone());
                    dkeep.push(col);
                }
            }
        }
    }
    steps.push(project_step(&tvars, &dvars));
    leaf(
        id,
        node_label_pred(name, temporal, data),
        PlanOp::Scan {
            name: name.to_owned(),
            temporal: temporal.to_vec(),
            data: data.to_vec(),
        },
        steps,
        tvars,
        dvars,
    )
}

/// The positive predicate node keeps the positive leaf label even when it
/// appears as the child of a `not …` wrapper.
fn node_label_pred(name: &str, temporal: &[TemporalTerm], data: &[DataTerm]) -> String {
    node_label(
        &Formula::Pred {
            name: name.to_owned(),
            temporal: temporal.to_vec(),
            data: data.to_vec(),
        },
        false,
    )
}

fn compile_temp_cmp(
    id: u64,
    label: String,
    left: &TemporalTerm,
    op: CmpOp,
    right: &TemporalTerm,
) -> PlanNode {
    let plan_op = PlanOp::TempCmp {
        left: left.clone(),
        op,
        right: right.clone(),
    };
    match (left, right) {
        (TemporalTerm::Const(a), TemporalTerm::Const(b)) => leaf(
            id,
            label,
            plan_op,
            vec![format!("unit({})", op.eval(*a, *b))],
            vec![],
            vec![],
        ),
        (TemporalTerm::Var { name, shift }, TemporalTerm::Const(c)) => {
            let c = i128::from(*c) - i128::from(*shift);
            leaf(
                id,
                label,
                plan_op,
                vec![format!("constraint {name} {op} {c} over Z")],
                vec![name.clone()],
                vec![],
            )
        }
        (TemporalTerm::Const(c), TemporalTerm::Var { name, shift }) => {
            let c = i128::from(*c) - i128::from(*shift);
            leaf(
                id,
                label,
                plan_op,
                vec![format!("constraint {name} {} {c} over Z", op.mirrored())],
                vec![name.clone()],
                vec![],
            )
        }
        (
            TemporalTerm::Var {
                name: n1,
                shift: s1,
            },
            TemporalTerm::Var {
                name: n2,
                shift: s2,
            },
        ) => {
            if n1 == n2 {
                let truth = op.eval(*s1, *s2);
                let step = if truth {
                    format!("all of Z over {n1}")
                } else {
                    "empty relation".to_string()
                };
                return leaf(id, label, plan_op, vec![step], vec![n1.clone()], vec![]);
            }
            let c = i128::from(*s2) - i128::from(*s1);
            let rhs = match c {
                0 => n2.clone(),
                c if c > 0 => format!("{n2} + {c}"),
                c => format!("{n2} - {}", -c),
            };
            leaf(
                id,
                label,
                plan_op,
                vec![format!("constraint {n1} {op} {rhs} over Z^2")],
                vec![n1.clone(), n2.clone()],
                vec![],
            )
        }
    }
}

fn compile_data_cmp(
    id: u64,
    label: String,
    left: &DataTerm,
    eq: bool,
    right: &DataTerm,
) -> PlanNode {
    let plan_op = PlanOp::DataCmp {
        left: left.clone(),
        eq,
        right: right.clone(),
    };
    match (left, right) {
        (DataTerm::Const(a), DataTerm::Const(b)) => leaf(
            id,
            label,
            plan_op,
            vec![format!("unit({})", (a == b) == eq)],
            vec![],
            vec![],
        ),
        (DataTerm::Var(x), DataTerm::Const(_)) | (DataTerm::Const(_), DataTerm::Var(x)) => {
            let v = if matches!(left, DataTerm::Const(_)) {
                left
            } else {
                right
            };
            let step = if eq {
                format!("bind {x} = {v}")
            } else {
                format!("enumerate adom ∖ {{{v}}}")
            };
            leaf(id, label, plan_op, vec![step], vec![], vec![x.clone()])
        }
        (DataTerm::Var(x), DataTerm::Var(y)) => {
            if x == y {
                let step = if eq {
                    "enumerate adom".to_string()
                } else {
                    "empty relation".to_string()
                };
                return leaf(id, label, plan_op, vec![step], vec![], vec![x.clone()]);
            }
            let step = format!(
                "enumerate adom² where {x} {} {y}",
                if eq { "=" } else { "!=" }
            );
            leaf(
                id,
                label,
                plan_op,
                vec![step],
                vec![],
                vec![x.clone(), y.clone()],
            )
        }
    }
}

/// Merged output variables of a binary node: `a`'s columns, then `b`'s
/// new ones — shared by conjoin and disjoin (and by the optimizer, which
/// must recompute them when it reorders children).
pub(crate) fn merged_vars(a: &PlanNode, b: &PlanNode) -> (Vec<String>, Vec<String>) {
    let mut tvars = a.temporal_vars.clone();
    for v in &b.temporal_vars {
        if !tvars.contains(v) {
            tvars.push(v.clone());
        }
    }
    let mut dvars = a.data_vars.clone();
    for v in &b.data_vars {
        if !dvars.contains(v) {
            dvars.push(v.clone());
        }
    }
    (tvars, dvars)
}

/// Steps text for a conjoin over children `a`, `b` (the optimizer reuses
/// this when it rebuilds a reordered join).
pub(crate) fn conjoin_steps(a: &PlanNode, b: &PlanNode) -> Vec<String> {
    let shared: Vec<String> = b
        .temporal_vars
        .iter()
        .filter(|v| a.temporal_vars.contains(v))
        .chain(b.data_vars.iter().filter(|v| a.data_vars.contains(v)))
        .cloned()
        .collect();
    let mut steps = vec![if shared.is_empty() {
        "join (no shared variables)".to_string()
    } else {
        format!("join on {}", shared.join(", "))
    }];
    let (tvars, dvars) = merged_vars(a, b);
    steps.push(project_step(&tvars, &dvars));
    steps
}

/// A conjoin node: join on shared variables, then keep each variable
/// once (`a`'s columns, then `b`'s new ones).
pub(crate) fn conjoin(id: u64, label: String, a: PlanNode, b: PlanNode) -> PlanNode {
    let steps = conjoin_steps(&a, &b);
    let (tvars, dvars) = merged_vars(&a, &b);
    PlanNode {
        id,
        label,
        op: PlanOp::Conjoin,
        steps,
        temporal_vars: tvars,
        data_vars: dvars,
        children: vec![a, b],
        est: None,
        rules: vec![],
    }
}

/// Steps text for a disjoin over children `a`, `b`.
pub(crate) fn disjoin_steps(a: &PlanNode, b: &PlanNode) -> Vec<String> {
    let (tvars, dvars) = merged_vars(a, b);
    let mut steps = Vec::new();
    for (side, node) in [("left", a), ("right", b)] {
        let missing: Vec<String> = tvars
            .iter()
            .filter(|v| !node.temporal_vars.contains(v))
            .chain(dvars.iter().filter(|v| !node.data_vars.contains(v)))
            .cloned()
            .collect();
        if !missing.is_empty() {
            steps.push(format!("pad {side} with {}", missing.join(", ")));
        }
    }
    steps.push("union".to_string());
    steps
}

/// A disjoin node: pad both sides to the merged variable set, then
/// union.
pub(crate) fn disjoin(id: u64, label: String, a: PlanNode, b: PlanNode) -> PlanNode {
    let (tvars, dvars) = merged_vars(&a, &b);
    let steps = disjoin_steps(&a, &b);
    PlanNode {
        id,
        label,
        op: PlanOp::Disjoin,
        steps,
        temporal_vars: tvars,
        data_vars: dvars,
        children: vec![a, b],
        est: None,
        rules: vec![],
    }
}

/// A projection node dropping `var`'s column.
pub(crate) fn project_out(id: u64, label: String, child: PlanNode, var: &str) -> PlanNode {
    let mut tvars = child.temporal_vars.clone();
    let mut dvars = child.data_vars.clone();
    let mut steps = Vec::new();
    if let Some(i) = tvars.iter().position(|v| v == var) {
        tvars.remove(i);
        steps.push(format!("project out {var}"));
    } else if let Some(i) = dvars.iter().position(|v| v == var) {
        dvars.remove(i);
        steps.push(format!("project out {var}"));
    } else {
        steps.push(format!("no column for {var} (no-op)"));
    }
    PlanNode {
        id,
        label,
        op: PlanOp::ProjectOut {
            var: var.to_owned(),
        },
        steps,
        temporal_vars: tvars,
        data_vars: dvars,
        children: vec![child],
        est: None,
        rules: vec![],
    }
}

/// A difference node `l ∧ ¬r` (`r`'s variables are a subset of `l`'s),
/// with `l`'s columns. Its step names the form the executor picks: from
/// the free space when `l` is [`PlanOp::Full`], a plain difference when
/// both sides have the same variables, else an antijoin that subtracts
/// the part of `l` that joins `r`.
pub(crate) fn difference(id: u64, label: String, l: PlanNode, r: PlanNode) -> PlanNode {
    let step = if matches!(l.op, PlanOp::Full) {
        format!("difference from {}", space(&l))
    } else if r.schema() == l.schema() {
        "difference".to_string()
    } else {
        let on: Vec<&str> = r
            .temporal_vars
            .iter()
            .chain(&r.data_vars)
            .map(String::as_str)
            .collect();
        format!("antijoin on {}", on.join(", "))
    };
    PlanNode {
        id,
        label,
        op: PlanOp::Difference,
        steps: vec![step],
        temporal_vars: l.temporal_vars.clone(),
        data_vars: l.data_vars.clone(),
        children: vec![l, r],
        est: None,
        rules: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::MemoryCatalog;
    use crate::parser::parse;
    use itd_core::{GenRelation, Schema};

    fn cat() -> MemoryCatalog {
        let mut cat = MemoryCatalog::new();
        cat.insert("P", GenRelation::empty(Schema::new(1, 0)));
        cat.insert("R", GenRelation::empty(Schema::new(2, 1)));
        cat
    }

    fn plan(src: &str) -> Plan {
        explain(&cat(), &parse(src).unwrap(), QueryOpts::new())
            .unwrap()
            .logical
    }

    #[test]
    fn join_and_negation_render_without_executing() {
        let p = plan("P(t) and not P(t + 1)");
        let text = p.render();
        assert!(text.contains("and ⟨t⟩"), "{text}");
        assert!(text.contains("join on t"), "{text}");
        assert!(text.contains("difference from Z^1"), "{text}");
        assert!(text.contains("shift t0 by -1"), "{text}");
        // Tree shape: and → [P(t), not → [not P(t+1) → [full, P(t+1)]]] —
        // the syntactic `not` wrapper, then the pushed-down negated leaf.
        assert_eq!(p.root().children.len(), 2);
        let not = &p.root().children[1];
        assert_eq!(not.label, "not");
        assert_eq!(not.children[0].label, "not P(t + 1)");
        assert_eq!(not.children[0].children[0].op, PlanOp::Full);
        assert_eq!(not.children[0].children[1].label, "P(t + 1)");
    }

    #[test]
    fn forall_lowers_to_project_then_difference() {
        let p = plan("forall t. P(t) implies P(t + 2)");
        let root = p.root();
        assert_eq!(root.label, "forall t");
        assert_eq!(root.steps, vec!["difference from Z^0".to_string()]);
        let project = &root.children[1];
        assert_eq!(project.steps, vec!["project out t".to_string()]);
        // The body is compiled negated: ¬(a → b) ≡ a ∧ ¬b.
        let body = &project.children[0];
        assert_eq!(body.label, "not implies");
        assert!(body.steps.iter().any(|s| s.contains("join")), "{body:?}");
    }

    #[test]
    fn negated_comparisons_flip_for_free() {
        let p = plan("not (t < 5)");
        let cmp = &p.root().children[0];
        assert_eq!(cmp.label, "not t < 5");
        assert_eq!(cmp.steps, vec!["constraint t >= 5 over Z".to_string()]);
        assert!(cmp.children.is_empty());
    }

    #[test]
    fn disjunction_pads_to_merged_columns() {
        let p = plan("P(t1) or P(t2)");
        let root = p.root();
        assert_eq!(root.temporal_vars, vec!["t1", "t2"]);
        assert!(
            root.steps.iter().any(|s| s == "pad left with t2"),
            "{root:?}"
        );
        assert!(
            root.steps.iter().any(|s| s == "pad right with t1"),
            "{root:?}"
        );
        assert_eq!(root.steps.last().unwrap(), "union");
    }

    #[test]
    fn data_arguments_and_quantifiers() {
        let p = plan(r#"exists x. R(t, t; x) and x != "a""#);
        let text = p.render();
        assert!(text.contains("exists x ⟨t⟩ — project out x"), "{text}");
        assert!(text.contains("select t0 = t1"), "{text}");
        assert!(text.contains("enumerate adom"), "{text}");
    }

    #[test]
    fn explain_checks_sorts_without_a_catalog_hit() {
        let err = explain(&cat(), &parse("Missing(t)").unwrap(), QueryOpts::new()).unwrap_err();
        assert!(matches!(err, crate::QueryError::UnknownPredicate(_)));
    }

    #[test]
    fn labels_match_traced_spans() {
        // node_label drives both the plan and the traced eval wrappers;
        // spot-check the double-negation and literal arms.
        let f = parse("not not true").unwrap();
        let p = Plan::of(&f);
        assert_eq!(p.root().label, "not");
        assert_eq!(p.root().children[0].label, "not not");
        assert_eq!(p.root().children[0].children[0].label, "true");
    }
}
