//! Generalized tuples (Definition 2.2).

use std::fmt;
use std::sync::Arc;

use itd_constraint::{Atom, ConstraintSystem};
use itd_lrp::Lrp;

use crate::error::CoreError;
use crate::schema::Schema;
use crate::value::Value;
use crate::Result;

/// The temporal part of a generalized tuple — its lrp vector plus its
/// constraint system — shared behind an [`Arc`].
///
/// Cloning a tuple (and, transitively, snapshotting a relation) bumps a
/// reference count instead of copying the temporal payload, and the global
/// store (`crate::store`) hash-conses these parts so equal parts share
/// one allocation across relations.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct TemporalPart {
    pub(crate) lrps: Vec<Lrp>,
    pub(crate) cons: ConstraintSystem,
}

/// A generalized tuple: lrp values for the temporal attributes, concrete
/// values for the data attributes, and a conjunction of restricted
/// constraints over the temporal attributes.
///
/// Denotes the set of concrete tuples
/// `{(x₁..x_k, d₁..d_l) | xᵢ ∈ lrpᵢ, constraints(x₁..x_k)}` —
/// one concrete tuple per admissible combination of lrp elements
/// (Example 2.2 of the paper).
///
/// # Examples
/// ```
/// use itd_core::{Atom, GenTuple, Lrp};
/// // Example 2.2: [1, 1+2n] ∧ X2 ≥ 0 denotes {[1,1], [1,3], [1,5], …}.
/// let t = GenTuple::builder()
///     .point(1)
///     .lrp(Lrp::new(1, 2).unwrap())
///     .atom(Atom::ge(1, 0))
///     .build()
///     .unwrap();
/// assert!(t.contains(&[1, 5], &[]));
/// assert!(!t.contains(&[1, -1], &[]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenTuple {
    part: Arc<TemporalPart>,
    data: Vec<Value>,
}

impl GenTuple {
    /// Starts building a tuple; see [`GenTupleBuilder`].
    pub fn builder() -> GenTupleBuilder {
        GenTupleBuilder::default()
    }

    /// Builds a tuple from its three components (the internal, non-builder
    /// path used by the algebra, which produces constraint systems
    /// wholesale).
    ///
    /// # Errors
    /// [`CoreError::SchemaMismatch`] if the constraint system's arity does
    /// not equal the number of lrps.
    pub(crate) fn from_parts(
        lrps: Vec<Lrp>,
        cons: ConstraintSystem,
        data: Vec<Value>,
    ) -> Result<GenTuple> {
        if cons.arity() != lrps.len() {
            return Err(CoreError::SchemaMismatch {
                expected: Schema::new(lrps.len(), data.len()),
                found: Schema::new(cons.arity(), data.len()),
            });
        }
        Ok(GenTuple {
            part: Arc::new(TemporalPart { lrps, cons }),
            data,
        })
    }

    /// Builds a tuple around an existing (typically hash-consed) temporal
    /// part. The caller guarantees arity consistency.
    pub(crate) fn from_part(part: Arc<TemporalPart>, data: Vec<Value>) -> GenTuple {
        debug_assert_eq!(part.cons.arity(), part.lrps.len());
        GenTuple { part, data }
    }

    /// The shared temporal part (store-internal accessor).
    pub(crate) fn part_arc(&self) -> &Arc<TemporalPart> {
        &self.part
    }

    /// Swaps the temporal part for a canonical (hash-consed) allocation
    /// holding the same value.
    pub(crate) fn canonicalize_part(&mut self, part: Arc<TemporalPart>) {
        debug_assert_eq!(*self.part, *part);
        self.part = part;
    }

    /// A tuple with unconstrained temporal attributes.
    pub fn unconstrained(lrps: Vec<Lrp>, data: Vec<Value>) -> GenTuple {
        let cons = ConstraintSystem::unconstrained(lrps.len());
        GenTuple {
            part: Arc::new(TemporalPart { lrps, cons }),
            data,
        }
    }

    /// The schema of this tuple.
    pub fn schema(&self) -> Schema {
        Schema::new(self.part.lrps.len(), self.data.len())
    }

    /// Temporal attribute values.
    pub fn lrps(&self) -> &[Lrp] {
        &self.part.lrps
    }

    /// The constraint system (always in closed canonical form).
    pub fn constraints(&self) -> &ConstraintSystem {
        &self.part.cons
    }

    /// Data attribute values.
    pub fn data(&self) -> &[Value] {
        &self.data
    }

    /// The *free extension* `t*` (Definition 3.1): this tuple without its
    /// constraints.
    pub fn free_extension(&self) -> GenTuple {
        GenTuple::unconstrained(self.part.lrps.clone(), self.data.clone())
    }

    /// Does the tuple denote the concrete tuple `(times, data)`?
    ///
    /// # Panics
    /// If `times.len()` differs from the temporal arity.
    pub fn contains(&self, times: &[i64], data: &[Value]) -> bool {
        assert_eq!(times.len(), self.part.lrps.len(), "temporal arity mismatch");
        if data != self.data.as_slice() {
            return false;
        }
        self.part
            .lrps
            .iter()
            .zip(times)
            .all(|(l, &x)| l.contains(x))
            && self.part.cons.satisfied_by(times)
    }

    /// Purely temporal membership (requires data arity 0 on the tuple only
    /// when the caller passes no data).
    pub fn contains_times(&self, times: &[i64]) -> bool {
        self.contains(times, &self.data.clone())
    }

    /// Quick *syntactic* emptiness check: unsatisfiable constraints.
    ///
    /// This is sound but not complete — a satisfiable constraint system can
    /// still have no solution *on the lrp grid* (the Figure 2 phenomenon);
    /// use [`GenTuple::is_empty`] for the exact test.
    pub fn is_trivially_empty(&self) -> bool {
        !self.part.cons.is_satisfiable()
    }

    /// Exact emptiness over the grid: walks the refined residue classes
    /// and checks their grid systems (Theorem 3.5 route), stopping at the
    /// first satisfiable one.
    ///
    /// # Errors
    /// [`CoreError::TooManyExtensions`] after 2²⁰ combinations without a
    /// satisfiable one; arithmetic overflow.
    pub fn is_empty(&self) -> Result<bool> {
        let limit = crate::normalize::DEFAULT_NORMALIZE_LIMIT;
        Ok(!crate::normalize::is_nonempty(self, limit)?)
    }

    /// Replaces the constraint system (used by selection).
    pub(crate) fn with_constraints(&self, cons: ConstraintSystem) -> GenTuple {
        debug_assert_eq!(cons.arity(), self.part.lrps.len());
        GenTuple {
            part: Arc::new(TemporalPart {
                lrps: self.part.lrps.clone(),
                cons,
            }),
            data: self.data.clone(),
        }
    }

    /// Internal accessor for sibling modules.
    pub(crate) fn into_parts(self) -> (Vec<Lrp>, ConstraintSystem, Vec<Value>) {
        match Arc::try_unwrap(self.part) {
            Ok(part) => (part.lrps, part.cons, self.data),
            Err(part) => (part.lrps.clone(), part.cons.clone(), self.data),
        }
    }

    /// Is the tuple in normal form (Definition 3.2)?
    ///
    /// All infinite lrps must share a single period `k`, and every finite
    /// constraint bound must be *grid-aligned*: re-rounding it onto the grid
    /// (the `to_grid`/`from_grid` round trip) must leave the system
    /// unchanged.
    pub fn is_normal_form(&self) -> Result<bool> {
        crate::normalize::is_normal_form(self)
    }

    /// Normalization (Theorem 3.2): an equivalent set of tuples in normal
    /// form. Empty result ⟺ the tuple denotes the empty set.
    ///
    /// # Errors
    /// Arithmetic overflow while computing the common period (`lcm` of the
    /// lrp periods can be large, Appendix A.1).
    pub fn normalize(&self) -> Result<Vec<GenTuple>> {
        crate::normalize::normalize(self)
    }
}

/// Incremental, named-step constructor for [`GenTuple`].
///
/// Temporal attributes are appended with [`GenTupleBuilder::lrp`] /
/// [`GenTupleBuilder::point`], constraint atoms with
/// [`GenTupleBuilder::atom`], and data attributes with
/// [`GenTupleBuilder::datum`]; [`GenTupleBuilder::build`] validates
/// everything at once. Reads like the paper's tuple notation:
///
/// ```
/// use itd_core::{Atom, GenTuple, Lrp};
/// // Example 2.2: [1, 1+2n] ∧ X2 ≥ 0.
/// let t = GenTuple::builder()
///     .point(1)
///     .lrp(Lrp::new(1, 2)?)
///     .atom(Atom::ge(1, 0))
///     .build()?;
/// assert!(t.contains(&[1, 5], &[]));
/// # Ok::<(), itd_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct GenTupleBuilder {
    lrps: Vec<Lrp>,
    atoms: Vec<Atom>,
    cons: Option<ConstraintSystem>,
    data: Vec<Value>,
}

impl GenTupleBuilder {
    /// Appends one temporal attribute.
    #[must_use]
    pub fn lrp(mut self, lrp: Lrp) -> GenTupleBuilder {
        self.lrps.push(lrp);
        self
    }

    /// Appends many temporal attributes.
    #[must_use]
    pub fn lrps(mut self, lrps: impl IntoIterator<Item = Lrp>) -> GenTupleBuilder {
        self.lrps.extend(lrps);
        self
    }

    /// Appends a point attribute (`Lrp::point(c)`).
    #[must_use]
    pub fn point(mut self, c: i64) -> GenTupleBuilder {
        self.lrps.push(Lrp::point(c));
        self
    }

    /// Adds one constraint atom.
    #[must_use]
    pub fn atom(mut self, atom: Atom) -> GenTupleBuilder {
        self.atoms.push(atom);
        self
    }

    /// Adds many constraint atoms.
    #[must_use]
    pub fn atoms(mut self, atoms: impl IntoIterator<Item = Atom>) -> GenTupleBuilder {
        self.atoms.extend(atoms);
        self
    }

    /// Uses a whole [`ConstraintSystem`] as the base (atoms added before or
    /// after are conjoined onto it). Its arity must match the final number
    /// of temporal attributes.
    #[must_use]
    pub fn constraints(mut self, cons: ConstraintSystem) -> GenTupleBuilder {
        self.cons = Some(cons);
        self
    }

    /// Appends one data attribute.
    #[must_use]
    pub fn datum(mut self, value: impl Into<Value>) -> GenTupleBuilder {
        self.data.push(value.into());
        self
    }

    /// Appends many data attributes.
    #[must_use]
    pub fn data(mut self, data: impl IntoIterator<Item = Value>) -> GenTupleBuilder {
        self.data.extend(data);
        self
    }

    /// Validates and builds the tuple.
    ///
    /// # Errors
    /// [`CoreError::SchemaMismatch`] if an explicit constraint system's
    /// arity disagrees with the temporal attributes; constraint-closure
    /// arithmetic failures from the added atoms.
    pub fn build(self) -> Result<GenTuple> {
        let mut cons = match self.cons {
            Some(cons) => {
                if cons.arity() != self.lrps.len() {
                    return Err(CoreError::SchemaMismatch {
                        expected: Schema::new(self.lrps.len(), self.data.len()),
                        found: Schema::new(cons.arity(), self.data.len()),
                    });
                }
                cons
            }
            None => ConstraintSystem::unconstrained(self.lrps.len()),
        };
        for atom in &self.atoms {
            if atom.max_var() >= self.lrps.len() {
                return Err(CoreError::AttributeOutOfRange {
                    index: atom.max_var(),
                    arity: self.lrps.len(),
                });
            }
            cons.add(*atom)?;
        }
        GenTuple::from_parts(self.lrps, cons, self.data)
    }
}

impl fmt::Display for GenTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        for (i, l) in self.part.lrps.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{l}")?;
        }
        for d in &self.data {
            write!(f, "; {d}")?;
        }
        f.write_str("]")?;
        if !self.part.cons.is_unconstrained() {
            write!(f, " where {}", self.part.cons)?;
        }
        Ok(())
    }
}

/// Serde keeps the pre-columnar on-disk shape `{lrps, cons, data}` so
/// files written before the `Arc`-shared representation stay readable,
/// and validates arity on the way in (the old derive accepted
/// inconsistent tuples silently).
#[cfg(feature = "serde")]
mod tuple_serde {
    use super::GenTuple;
    use serde::{de, Content, Deserialize, Serialize};

    impl Serialize for GenTuple {
        fn to_content(&self) -> Content {
            Content::Map(vec![
                (
                    "lrps".to_string(),
                    Content::Seq(self.lrps().iter().map(Serialize::to_content).collect()),
                ),
                ("cons".to_string(), self.constraints().to_content()),
                (
                    "data".to_string(),
                    Content::Seq(self.data().iter().map(Serialize::to_content).collect()),
                ),
            ])
        }
    }

    impl Deserialize for GenTuple {
        fn from_content(content: &Content) -> Result<Self, de::DeError> {
            let entries = de::as_struct_map(content, "GenTuple")?;
            let lrps = de::field(entries, "lrps", "GenTuple")?;
            let cons = de::field(entries, "cons", "GenTuple")?;
            let data = de::field(entries, "data", "GenTuple")?;
            GenTuple::from_parts(lrps, cons, data).map_err(|e| de::DeError::msg(e.to_string()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lrp(c: i64, k: i64) -> Lrp {
        Lrp::new(c, k).unwrap()
    }

    #[test]
    fn example_2_2_first_tuple() {
        // [1, 1+2n] ∧ X2 >= 0 denotes {[1,1], [1,3], [1,5], …}
        let t = GenTuple::builder()
            .lrps(vec![Lrp::point(1), lrp(1, 2)])
            .atoms([Atom::ge(1, 0)])
            .build()
            .unwrap();
        assert!(t.contains(&[1, 1], &[]));
        assert!(t.contains(&[1, 3], &[]));
        assert!(t.contains(&[1, 5], &[]));
        assert!(!t.contains(&[1, -1], &[]));
        assert!(!t.contains(&[1, 2], &[]));
        assert!(!t.contains(&[2, 3], &[]));
    }

    #[test]
    fn example_2_2_second_tuple() {
        // [3+2n1, 5+2n2] ∧ X1 = X2 − 2 denotes {…, [3,5], [5,7], [7,9], …}
        let t = GenTuple::builder()
            .lrps(vec![lrp(3, 2), lrp(5, 2)])
            .atoms([Atom::diff_eq(0, 1, -2)])
            .build()
            .unwrap();
        assert!(t.contains(&[3, 5], &[]));
        assert!(t.contains(&[5, 7], &[]));
        assert!(t.contains(&[1, 3], &[]));
        assert!(!t.contains(&[3, 7], &[]));
        assert!(!t.contains(&[3, 4], &[]));
    }

    #[test]
    fn data_attributes_must_match() {
        let t = GenTuple::unconstrained(vec![lrp(0, 2)], vec![Value::str("r1")]);
        assert!(t.contains(&[4], &[Value::str("r1")]));
        assert!(!t.contains(&[4], &[Value::str("r2")]));
        assert!(!t.contains(&[3], &[Value::str("r1")]));
    }

    #[test]
    fn constructor_validates_arity() {
        let cons = ConstraintSystem::unconstrained(3);
        let err = GenTuple::from_parts(vec![lrp(0, 2)], cons, vec![]).unwrap_err();
        assert!(matches!(err, CoreError::SchemaMismatch { .. }));
    }

    #[test]
    fn free_extension_drops_constraints() {
        let t = GenTuple::builder()
            .lrps(vec![lrp(0, 2)])
            .atoms([Atom::ge(0, 10)])
            .build()
            .unwrap();
        let free = t.free_extension();
        assert!(free.constraints().is_unconstrained());
        assert!(free.contains(&[0], &[]));
        assert!(!t.contains(&[0], &[]));
    }

    #[test]
    fn trivial_emptiness() {
        let t = GenTuple::builder()
            .lrps(vec![lrp(0, 2)])
            .atoms([Atom::ge(0, 10), Atom::le(0, 5)])
            .build()
            .unwrap();
        assert!(t.is_trivially_empty());
        assert!(t.is_empty().unwrap());
    }

    #[test]
    fn grid_emptiness_not_caught_trivially() {
        // X1 = X2 + 1 with both attributes even: satisfiable over Z,
        // empty on the grid.
        let t = GenTuple::builder()
            .lrps(vec![lrp(0, 2), lrp(0, 2)])
            .atoms([Atom::diff_eq(0, 1, 1)])
            .build()
            .unwrap();
        assert!(!t.is_trivially_empty());
        assert!(t.is_empty().unwrap());
    }

    #[test]
    fn display_is_paper_like() {
        let t = GenTuple::builder()
            .lrps(vec![lrp(2, 2), lrp(4, 2)])
            .atoms([Atom::diff_eq(0, 1, -2)])
            .data(vec![Value::str("robot1"), Value::str("task1")])
            .build()
            .unwrap();
        let text = t.to_string();
        assert!(text.contains("2n"), "{text}");
        assert!(text.contains("robot1"), "{text}");
        assert!(text.contains("where"), "{text}");
        // Unconstrained tuples omit the where-clause.
        let t = GenTuple::unconstrained(vec![Lrp::point(3)], vec![]);
        assert_eq!(t.to_string(), "[3]");
    }
}
