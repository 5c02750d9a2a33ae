//! Abstract syntax of the two-sorted query language.

use std::collections::BTreeSet;
use std::fmt;

use itd_core::Value;

/// The two sorts of §4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sort {
    /// Time points (interpreted over `Z`).
    Temporal,
    /// The generic data sort.
    Data,
}

/// A temporal term: a variable plus an integer shift (the successor
/// function iterated), or an integer constant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TemporalTerm {
    /// `v + shift` (`shift` may be negative or zero).
    Var {
        /// Variable name.
        name: String,
        /// Successor offset.
        shift: i64,
    },
    /// An integer literal time point.
    Const(i64),
}

impl TemporalTerm {
    /// A bare variable.
    pub fn var(name: impl Into<String>) -> TemporalTerm {
        TemporalTerm::Var {
            name: name.into(),
            shift: 0,
        }
    }

    /// `v + shift`.
    pub fn var_plus(name: impl Into<String>, shift: i64) -> TemporalTerm {
        TemporalTerm::Var {
            name: name.into(),
            shift,
        }
    }
}

impl fmt::Display for TemporalTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TemporalTerm::Var { name, shift } => match shift {
                0 => write!(f, "{name}"),
                s if *s > 0 => write!(f, "{name} + {s}"),
                s => write!(f, "{name} - {}", s.unsigned_abs()),
            },
            TemporalTerm::Const(c) => write!(f, "{c}"),
        }
    }
}

/// A data term: a variable or a constant value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataTerm {
    /// A data variable.
    Var(String),
    /// A constant.
    Const(Value),
}

impl DataTerm {
    /// A data variable.
    pub fn var(name: impl Into<String>) -> DataTerm {
        DataTerm::Var(name.into())
    }
}

impl fmt::Display for DataTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataTerm::Var(v) => write!(f, "{v}"),
            DataTerm::Const(Value::Str(s)) => write!(f, "{s:?}"),
            DataTerm::Const(Value::Int(i)) => write!(f, "{i}"),
        }
    }
}

/// Comparison operators on temporal terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<=`
    Le,
    /// `<`
    Lt,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `>=`
    Ge,
    /// `>`
    Gt,
}

impl CmpOp {
    /// Concrete evaluation.
    pub fn eval(self, l: i64, r: i64) -> bool {
        match self {
            CmpOp::Le => l <= r,
            CmpOp::Lt => l < r,
            CmpOp::Eq => l == r,
            CmpOp::Ne => l != r,
            CmpOp::Ge => l >= r,
            CmpOp::Gt => l > r,
        }
    }

    /// The operator with its operands swapped: `l op r ⇔ r op.mirrored() l`.
    pub fn mirrored(self) -> CmpOp {
        match self {
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Eq | CmpOp::Ne => self,
        }
    }

    /// The complementary operator: `¬(l op r) ⇔ l op.negated() r`.
    pub fn negated(self) -> CmpOp {
        match self {
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Ge => CmpOp::Lt,
            CmpOp::Gt => CmpOp::Le,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Le => "<=",
            CmpOp::Lt => "<",
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Ge => ">=",
            CmpOp::Gt => ">",
        })
    }
}

/// A formula of the two-sorted first-order language (§4.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Formula {
    /// Constant truth.
    True,
    /// Constant falsehood.
    False,
    /// `name(t₁, …, t_α; d₁, …, d_β)` — an uninterpreted predicate naming a
    /// generalized relation.
    Pred {
        /// Relation name.
        name: String,
        /// Temporal arguments.
        temporal: Vec<TemporalTerm>,
        /// Data arguments.
        data: Vec<DataTerm>,
    },
    /// Comparison of temporal terms (the interpreted `≤` and friends).
    TempCmp {
        /// Left term.
        left: TemporalTerm,
        /// Operator.
        op: CmpOp,
        /// Right term.
        right: TemporalTerm,
    },
    /// Data (in)equality.
    DataCmp {
        /// Left term.
        left: DataTerm,
        /// `true` for `=`, `false` for `!=`.
        eq: bool,
        /// Right term.
        right: DataTerm,
    },
    /// Negation.
    Not(Box<Formula>),
    /// Conjunction.
    And(Box<Formula>, Box<Formula>),
    /// Disjunction.
    Or(Box<Formula>, Box<Formula>),
    /// Implication (sugar for `¬a ∨ b`).
    Implies(Box<Formula>, Box<Formula>),
    /// Existential quantification (sort inferred from use).
    Exists {
        /// Bound variable.
        var: String,
        /// Body.
        body: Box<Formula>,
    },
    /// Universal quantification.
    Forall {
        /// Bound variable.
        var: String,
        /// Body.
        body: Box<Formula>,
    },
}

impl Formula {
    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: Formula) -> Formula {
        Formula::Not(Box::new(f))
    }

    /// Conjunction.
    pub fn and(a: Formula, b: Formula) -> Formula {
        Formula::And(Box::new(a), Box::new(b))
    }

    /// Conjunction of several formulas (`True` when empty).
    pub fn and_all(fs: impl IntoIterator<Item = Formula>) -> Formula {
        fs.into_iter().reduce(Formula::and).unwrap_or(Formula::True)
    }

    /// Disjunction.
    pub fn or(a: Formula, b: Formula) -> Formula {
        Formula::Or(Box::new(a), Box::new(b))
    }

    /// Implication.
    pub fn implies(a: Formula, b: Formula) -> Formula {
        Formula::Implies(Box::new(a), Box::new(b))
    }

    /// `∃ var. body`.
    pub fn exists(var: impl Into<String>, body: Formula) -> Formula {
        Formula::Exists {
            var: var.into(),
            body: Box::new(body),
        }
    }

    /// `∃ v₁. ∃ v₂. … body`.
    pub fn exists_all<I, S>(vars: I, body: Formula) -> Formula
    where
        I: IntoIterator<Item = S>,
        I::IntoIter: DoubleEndedIterator,
        S: Into<String>,
    {
        vars.into_iter()
            .rev()
            .fold(body, |acc, v| Formula::exists(v, acc))
    }

    /// `∀ var. body`.
    pub fn forall(var: impl Into<String>, body: Formula) -> Formula {
        Formula::Forall {
            var: var.into(),
            body: Box::new(body),
        }
    }

    /// `∀ v₁. ∀ v₂. … body`.
    pub fn forall_all<I, S>(vars: I, body: Formula) -> Formula
    where
        I: IntoIterator<Item = S>,
        I::IntoIter: DoubleEndedIterator,
        S: Into<String>,
    {
        vars.into_iter()
            .rev()
            .fold(body, |acc, v| Formula::forall(v, acc))
    }

    /// Free variables, in first-occurrence order, with duplicates removed.
    pub fn free_vars(&self) -> Vec<String> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        self.collect_free(&mut BTreeSet::new(), &mut seen, &mut out);
        out
    }

    fn collect_free(
        &self,
        bound: &mut BTreeSet<String>,
        seen: &mut BTreeSet<String>,
        out: &mut Vec<String>,
    ) {
        let visit = |name: &str,
                     bound: &BTreeSet<String>,
                     seen: &mut BTreeSet<String>,
                     out: &mut Vec<String>| {
            if !bound.contains(name) && seen.insert(name.to_owned()) {
                out.push(name.to_owned());
            }
        };
        match self {
            Formula::True | Formula::False => {}
            Formula::Pred { temporal, data, .. } => {
                for t in temporal {
                    if let TemporalTerm::Var { name, .. } = t {
                        visit(name, bound, seen, out);
                    }
                }
                for d in data {
                    if let DataTerm::Var(name) = d {
                        visit(name, bound, seen, out);
                    }
                }
            }
            Formula::TempCmp { left, right, .. } => {
                for t in [left, right] {
                    if let TemporalTerm::Var { name, .. } = t {
                        visit(name, bound, seen, out);
                    }
                }
            }
            Formula::DataCmp { left, right, .. } => {
                for d in [left, right] {
                    if let DataTerm::Var(name) = d {
                        visit(name, bound, seen, out);
                    }
                }
            }
            Formula::Not(f) => f.collect_free(bound, seen, out),
            Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) => {
                a.collect_free(bound, seen, out);
                b.collect_free(bound, seen, out);
            }
            Formula::Exists { var, body } | Formula::Forall { var, body } => {
                let fresh = bound.insert(var.clone());
                body.collect_free(bound, seen, out);
                if fresh {
                    bound.remove(var);
                }
            }
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::True => f.write_str("true"),
            Formula::False => f.write_str("false"),
            Formula::Pred {
                name,
                temporal,
                data,
            } => {
                write!(f, "{name}(")?;
                for (i, t) in temporal.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{t}")?;
                }
                if !data.is_empty() {
                    f.write_str("; ")?;
                    for (i, d) in data.iter().enumerate() {
                        if i > 0 {
                            f.write_str(", ")?;
                        }
                        write!(f, "{d}")?;
                    }
                }
                f.write_str(")")
            }
            Formula::TempCmp { left, op, right } => write!(f, "{left} {op} {right}"),
            Formula::DataCmp { left, eq, right } => {
                write!(f, "{left} {} {right}", if *eq { "=" } else { "!=" })
            }
            Formula::Not(inner) => write!(f, "not ({inner})"),
            Formula::And(a, b) => write!(f, "({a} and {b})"),
            Formula::Or(a, b) => write!(f, "({a} or {b})"),
            Formula::Implies(a, b) => write!(f, "({a} implies {b})"),
            Formula::Exists { var, body } => write!(f, "exists {var}. {body}"),
            Formula::Forall { var, body } => write!(f, "forall {var}. {body}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mirrored_swaps_operands_and_negated_complements() {
        use CmpOp::*;
        for op in [Le, Lt, Eq, Ne, Ge, Gt] {
            for (l, r) in [(-1, 0), (0, 0), (1, 0)] {
                assert_eq!(op.eval(l, r), op.mirrored().eval(r, l), "{op}");
                assert_eq!(!op.eval(l, r), op.negated().eval(l, r), "{op}");
            }
        }
    }

    #[test]
    fn free_vars_respects_binders() {
        let f = Formula::exists(
            "t1",
            Formula::and(
                Formula::TempCmp {
                    left: TemporalTerm::var("t1"),
                    op: CmpOp::Le,
                    right: TemporalTerm::var("t2"),
                },
                Formula::DataCmp {
                    left: DataTerm::var("x"),
                    eq: true,
                    right: DataTerm::Const(Value::str("a")),
                },
            ),
        );
        assert_eq!(f.free_vars(), vec!["t2".to_string(), "x".to_string()]);
    }

    #[test]
    fn free_vars_first_occurrence_order() {
        let f = Formula::and(
            Formula::TempCmp {
                left: TemporalTerm::var("b"),
                op: CmpOp::Lt,
                right: TemporalTerm::var("a"),
            },
            Formula::TempCmp {
                left: TemporalTerm::var("a"),
                op: CmpOp::Lt,
                right: TemporalTerm::var("c"),
            },
        );
        assert_eq!(f.free_vars(), vec!["b", "a", "c"]);
    }

    #[test]
    fn shadowing_binder_does_not_unbind_outer() {
        // exists t. (P(t) and exists t. P(t)) — no free vars.
        let p = |v: &str| Formula::Pred {
            name: "P".into(),
            temporal: vec![TemporalTerm::var(v)],
            data: vec![],
        };
        let f = Formula::exists("t", Formula::and(p("t"), Formula::exists("t", p("t"))));
        assert!(f.free_vars().is_empty());
    }

    #[test]
    fn builders_compose() {
        let f = Formula::exists_all(
            ["a", "b"],
            Formula::forall_all(["c"], Formula::and_all([Formula::True, Formula::False])),
        );
        let text = f.to_string();
        assert!(text.starts_with("exists a. exists b. forall c."), "{text}");
        assert!(Formula::and_all([]) == Formula::True);
    }

    #[test]
    fn display_roundtrips_readably() {
        let f = Formula::implies(
            Formula::Pred {
                name: "Train".into(),
                temporal: vec![TemporalTerm::var("t"), TemporalTerm::var_plus("t", 78)],
                data: vec![DataTerm::Const(Value::str("slow"))],
            },
            Formula::TempCmp {
                left: TemporalTerm::var("t"),
                op: CmpOp::Ge,
                right: TemporalTerm::Const(0),
            },
        );
        let text = f.to_string();
        assert!(text.contains("Train(t, t + 78; \"slow\")"), "{text}");
        assert!(text.contains("implies"), "{text}");
    }

    #[test]
    fn cmp_op_eval() {
        assert!(CmpOp::Le.eval(1, 1));
        assert!(!CmpOp::Lt.eval(1, 1));
        assert!(CmpOp::Eq.eval(2, 2));
        assert!(CmpOp::Ne.eval(2, 3));
        assert!(CmpOp::Ge.eval(3, 3));
        assert!(CmpOp::Gt.eval(4, 3));
    }
}
