//! Catalogs: named generalized relations a query can reference.

use std::collections::{BTreeMap, BTreeSet};

use itd_core::{GenRelation, Value};

/// Source of named relations and of the data active domain.
pub trait Catalog {
    /// Looks up a relation by predicate name.
    fn relation(&self, name: &str) -> Option<&GenRelation>;

    /// All data values occurring in the database — the *active domain* over
    /// which data-sorted quantifiers range.
    fn active_domain(&self) -> BTreeSet<Value>;

    /// The catalog's current plan token: an opaque version stamp that
    /// must change (to a never-before-issued value, see
    /// [`next_plan_token`](crate::next_plan_token)) whenever the
    /// catalog's schemas or contents may have changed. `Some` opts the
    /// catalog into the process-wide prepared-plan cache; the default
    /// `None` opts out (every [`run`](crate::run) prepares from
    /// scratch), which is always safe.
    fn plan_token(&self) -> Option<u64> {
        None
    }
}

/// A simple in-memory catalog.
#[derive(Debug, Clone)]
pub struct MemoryCatalog {
    relations: BTreeMap<String, GenRelation>,
    /// Current plan-cache token; rotated (and the old value invalidated)
    /// on every mutation.
    token: u64,
}

impl Default for MemoryCatalog {
    fn default() -> MemoryCatalog {
        MemoryCatalog {
            relations: BTreeMap::new(),
            token: crate::plancache::next_plan_token(),
        }
    }
}

impl MemoryCatalog {
    /// An empty catalog.
    pub fn new() -> MemoryCatalog {
        MemoryCatalog::default()
    }

    /// Inserts (or replaces) a named relation. Invalidates this
    /// catalog's prepared plans ([`crate::plan_cache_invalidate`]) and
    /// rotates its plan token.
    pub fn insert(&mut self, name: impl Into<String>, rel: GenRelation) {
        crate::plancache::plan_cache_invalidate(self.token);
        self.token = crate::plancache::next_plan_token();
        self.relations.insert(name.into(), rel);
    }

    /// Iterates over the (name, relation) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &GenRelation)> {
        self.relations.iter().map(|(n, r)| (n.as_str(), r))
    }
}

impl Catalog for MemoryCatalog {
    fn relation(&self, name: &str) -> Option<&GenRelation> {
        self.relations.get(name)
    }

    fn plan_token(&self) -> Option<u64> {
        Some(self.token)
    }

    fn active_domain(&self) -> BTreeSet<Value> {
        active_domain_of(self.relations.values())
    }
}

/// Every data value occurring in `relations`: the body of
/// [`Catalog::active_domain`] for catalogs that hold their relations.
pub fn active_domain_of<'a>(
    relations: impl IntoIterator<Item = &'a GenRelation>,
) -> BTreeSet<Value> {
    let mut out = BTreeSet::new();
    for rel in relations {
        let cols = rel.columns();
        for c in 0..rel.schema().data() {
            // Dedup at the interned-id level before resolving values.
            let distinct: BTreeSet<_> = cols.data(c).ids().iter().copied().collect();
            out.extend(distinct.into_iter().map(itd_core::resolve_value));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use itd_core::{GenTuple, Lrp, Schema};

    #[test]
    fn insert_lookup_and_adom() {
        let mut cat = MemoryCatalog::new();
        let rel = GenRelation::new(
            Schema::new(1, 1),
            vec![
                GenTuple::unconstrained(vec![Lrp::new(0, 2).unwrap()], vec![Value::str("a")]),
                GenTuple::unconstrained(vec![Lrp::new(1, 2).unwrap()], vec![Value::Int(3)]),
            ],
        )
        .unwrap();
        cat.insert("P", rel);
        assert!(cat.relation("P").is_some());
        assert!(cat.relation("Q").is_none());
        let adom = cat.active_domain();
        assert_eq!(adom.len(), 2);
        assert!(adom.contains(&Value::str("a")));
        assert!(adom.contains(&Value::Int(3)));
        assert_eq!(cat.iter().count(), 1);
    }
}
