//! The process-wide prepared-plan cache.
//!
//! Preparing a query — parsing, sort-checking, lowering to a [`Plan`] and
//! running the fixpoint optimizer — is pure work over the formula text and
//! the catalog's *schema and statistics*, repeated verbatim by every
//! [`run`](crate::run) of the same query. This module memoizes the
//! prepared `(formula, plan)` pair keyed by
//!
//! * the catalog's **plan token** ([`Catalog::plan_token`](crate::Catalog)):
//!   an opaque version stamp that catalogs rotate on every mutation, so a
//!   schema change can never resurrect a stale preparation;
//! * the query **text** (the formula rendering, or the raw source for
//!   [`run_src`](crate::run_src), which then skips the parser too);
//! * the [`QueryOpts`](crate::QueryOpts) knobs that shape the plan
//!   (`optimize`, `compact`). Tracing does not: every prepared plan
//!   carries its cost estimates, so a traced run reuses an untraced
//!   run's preparation.
//!
//! Correctness note: a cached plan is *logical* — execution re-reads the
//! named relations and recomputes the active domain per run, so cached
//! hits observe current data. The token only needs to change when the
//! preparation inputs (schemas, statistics) may have; catalogs that cannot
//! track this return `None` and opt out entirely.
//!
//! The cache is bounded ([`PLAN_CACHE_CAP`]) with FIFO eviction, and
//! mutating catalogs call [`plan_cache_invalidate`] with their outgoing
//! token so dead entries leave immediately instead of aging out.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::ast::Formula;
use crate::plan::Plan;

/// Maximum number of prepared plans retained; the oldest insertion is
/// evicted first.
pub const PLAN_CACHE_CAP: usize = 256;

/// One prepared query: the sort-checked formula and the cost-annotated
/// plan that [`run`](crate::run) would execute for it under the keyed
/// options (estimates from statistics as of the keyed plan token; the
/// root's is the admission-control input).
#[derive(Debug)]
pub(crate) struct PreparedPlan {
    pub(crate) formula: Formula,
    pub(crate) plan: Plan,
}

/// Cache key: catalog version × query text × plan-shaping knobs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    token: u64,
    text: String,
    optimize: bool,
    compact: bool,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<Key, Arc<PreparedPlan>>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<Key>,
    stats: PlanCacheStats,
}

/// Cumulative counters of the process-wide plan cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups against the cache (cacheable runs only).
    pub lookups: u64,
    /// Lookups answered by a prepared entry (parse + sortcheck +
    /// optimize skipped).
    pub hits: u64,
    /// Lookups that fell through to full preparation.
    pub misses: u64,
    /// Entries inserted after a miss.
    pub insertions: u64,
    /// Entries dropped by the FIFO capacity bound.
    pub evictions: u64,
    /// Entries dropped by [`plan_cache_invalidate`].
    pub invalidations: u64,
    /// Runs that skipped the cache entirely because the catalog returned
    /// `plan_token() == None`. A nonzero count makes the silent opt-out
    /// observable: such catalogs re-prepare every query.
    pub bypasses: u64,
}

fn cache() -> &'static Mutex<Inner> {
    static CACHE: OnceLock<Mutex<Inner>> = OnceLock::new();
    CACHE.get_or_init(Mutex::default)
}

/// A fresh, never-before-issued plan token. Catalogs take one at
/// construction and again on every mutation.
pub fn next_plan_token() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Key {
    fn new(token: u64, text: String, optimize: bool, compact: bool) -> Key {
        Key {
            token,
            text,
            optimize,
            compact,
        }
    }
}

impl Inner {
    fn lookup(&mut self, key: &Key) -> Option<Arc<PreparedPlan>> {
        self.stats.lookups += 1;
        let found = self.map.get(key).cloned();
        match found {
            Some(_) => self.stats.hits += 1,
            None => self.stats.misses += 1,
        }
        found
    }

    fn insert(&mut self, key: Key, entry: Arc<PreparedPlan>) {
        if self.map.contains_key(&key) {
            // A racing preparation of the same query got here first; keep
            // it (both are equivalent) so `order` holds each key at most
            // once.
            return;
        }
        while self.map.len() >= PLAN_CACHE_CAP {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            if self.map.remove(&oldest).is_some() {
                self.stats.evictions += 1;
            }
        }
        self.map.insert(key.clone(), entry);
        self.order.push_back(key);
        self.stats.insertions += 1;
    }

    fn invalidate(&mut self, token: u64) -> usize {
        let before = self.map.len();
        self.map.retain(|k, _| k.token != token);
        self.order.retain(|k| k.token != token);
        let removed = before - self.map.len();
        self.stats.invalidations += removed as u64;
        removed
    }
}

pub(crate) fn lookup(
    token: u64,
    text: &str,
    optimize: bool,
    compact: bool,
) -> Option<Arc<PreparedPlan>> {
    let key = Key::new(token, text.to_owned(), optimize, compact);
    cache().lock().expect("plan cache poisoned").lookup(&key)
}

pub(crate) fn insert(
    token: u64,
    text: String,
    optimize: bool,
    compact: bool,
    entry: Arc<PreparedPlan>,
) {
    let key = Key::new(token, text, optimize, compact);
    cache()
        .lock()
        .expect("plan cache poisoned")
        .insert(key, entry);
}

/// Counts one run that could not consult the cache because the catalog
/// opted out of plan tokens.
pub(crate) fn count_bypass() {
    cache().lock().expect("plan cache poisoned").stats.bypasses += 1;
}

/// Drops every entry prepared under `token`, returning how many were
/// removed. Catalogs call this with their outgoing token when they mutate.
pub fn plan_cache_invalidate(token: u64) -> usize {
    cache()
        .lock()
        .expect("plan cache poisoned")
        .invalidate(token)
}

/// A snapshot of the cumulative cache counters.
pub fn plan_cache_stats() -> PlanCacheStats {
    cache().lock().expect("plan cache poisoned").stats
}

/// Number of prepared plans currently retained.
pub fn plan_cache_len() -> usize {
    cache().lock().expect("plan cache poisoned").map.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn entry(src: &str) -> Arc<PreparedPlan> {
        let formula = parse(src).unwrap();
        let plan = Plan::of(&formula);
        Arc::new(PreparedPlan { formula, plan })
    }

    #[test]
    fn lookup_insert_invalidate_roundtrip() {
        let token = next_plan_token();
        assert!(lookup(token, "p(t)", true, true).is_none());
        insert(token, "p(t)".into(), true, true, entry("p(t)"));
        assert!(lookup(token, "p(t)", true, true).is_some());
        // Every key component discriminates.
        assert!(lookup(token, "p(t)", false, true).is_none());
        assert!(lookup(token, "p(t)", true, false).is_none());
        assert!(lookup(next_plan_token(), "p(t)", true, true).is_none());
        assert_eq!(plan_cache_invalidate(token), 1);
        assert!(lookup(token, "p(t)", true, true).is_none());
    }

    /// Runs on a private cache, so concurrent tests using the global one
    /// cannot perturb the exact counts.
    #[test]
    fn fifo_eviction_is_bounded_and_counted() {
        let mut inner = Inner::default();
        for i in 0..PLAN_CACHE_CAP + 8 {
            let key = Key::new(1, format!("p(t + {i})"), true, true);
            inner.insert(key, entry("p(t)"));
        }
        assert_eq!(inner.stats.insertions, (PLAN_CACHE_CAP + 8) as u64);
        assert_eq!(inner.stats.evictions, 8);
        assert_eq!(inner.map.len(), PLAN_CACHE_CAP);
        assert_eq!(inner.order.len(), PLAN_CACHE_CAP);
        // The eight oldest entries went first.
        let oldest = Key::new(1, "p(t + 7)".into(), true, true);
        let kept = Key::new(1, "p(t + 8)".into(), true, true);
        assert!(inner.lookup(&oldest).is_none());
        assert!(inner.lookup(&kept).is_some());
        assert_eq!(inner.invalidate(1), PLAN_CACHE_CAP);
        assert_eq!(inner.stats.invalidations, PLAN_CACHE_CAP as u64);
    }
}
