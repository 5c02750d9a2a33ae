//! `analytic_adhoc`: one caller runs a seeded stream of ad-hoc analytic
//! queries through `Database::run` on a serial execution context. Inline
//! constants make the distinct texts outnumber the plan cache, and the
//! selected parts they produce overflow the outcome cache, so the time
//! goes to the algebra kernels and the primitives beneath them.
//!
//! The library default, a machine-sized context, keeps both vCPUs of a
//! small VM busy; there the hypervisor stole 13-16% of CPU time and
//! throughput swung by a third between runs, against about 1% stolen
//! with one thread.

use std::collections::HashSet;
use std::time::Instant;

use itd_core::{ExecContext, GenRelation};
use itd_db::{Database, QueryOpts};
use itd_query::PLAN_CACHE_CAP;
use itd_workload::{random_relation, RelationSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::measure::{Budget, Globals, Report, Tracer, CLASSES};

/// Generalized tuples per relation.
const TUPLES: usize = 200;
/// Common period of every lrp (`k`).
const PERIOD: i64 = 12;
/// Inline constants are drawn from `-BOUND..=BOUND`.
const BOUND: i64 = 120;
/// Length of the query stream, cycled. Twice the plan cache, so a FIFO
/// cache never hits it; short enough that a run cycles it more than
/// once, so the append-only arenas stop growing and peak memory does not
/// depend on how many queries a run completes.
const POOL: usize = 2 * PLAN_CACHE_CAP;
/// Warm-up queries, drawn from their own stream.
const WARM: usize = 24;
/// Queries checked against the unoptimized, uncompacted evaluation.
const CHECKS: usize = 24;

pub fn spec(tuples: usize, period: i64) -> RelationSpec {
    RelationSpec {
        tuples,
        temporal_arity: 2,
        period,
        data_arity: 1,
        ..RelationSpec::default()
    }
}

/// Loads `rel` into a fresh table `name(t1, t2; x)`.
pub fn load(db: &mut Database, name: &str, rel: &GenRelation) {
    let table = db
        .create_table(name, &["t1", "t2"], &["x"])
        .expect("fresh table");
    for row in rel.rows() {
        table.insert_tuple(row.to_tuple()).expect("schema matches");
    }
}

/// One seeded query of the given class over `p` and `q`.
pub fn query(class: &str, c: i64) -> String {
    match class {
        "join" => format!("p(t1, t2; x) and q(t1, t2; x) and t1 >= {c}"),
        "negation" => format!("p(t1, t2; x) and not q(t1, t2; x) and t2 <= {c}"),
        "project" => format!("exists t2. p(t1, t2; x) and q(t1, t2; x) and t2 >= {c}"),
        "tjoin" => format!("p(t1, t2; x) and q(t2, t1; x) and t1 <= {c}"),
        other => unreachable!("unknown class {other}"),
    }
}

/// A stream of `n` queries cycling through the classes, constants drawn
/// from `rng`.
pub fn stream(rng: &mut StdRng, n: usize) -> Vec<(String, &'static str)> {
    (0..n)
        .map(|i| {
            let class = CLASSES[i % CLASSES.len()];
            (query(class, rng.gen_range(-BOUND..=BOUND)), class)
        })
        .collect()
}

struct Setup {
    db: Database,
    pool: Vec<(String, &'static str)>,
}

fn setup(seed: u64) -> Setup {
    let mut db = Database::new();
    load(&mut db, "p", &random_relation(&spec(TUPLES, PERIOD), seed));
    load(
        &mut db,
        "q",
        &random_relation(&spec(TUPLES, PERIOD), seed ^ 0x9e37_79b9),
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let pool = stream(&mut rng, POOL);
    for (src, _) in stream(&mut rng, WARM) {
        db.run(&src, QueryOpts::new().ctx(&ExecContext::serial()))
            .expect("warm-up query");
    }
    Setup { db, pool }
}

pub fn run(seed: u64, budget: Budget, trace: bool, setups: usize) -> Report {
    let mut report = Report::default();
    let mut last = None;
    for _ in 0..setups {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup(seed));
        report.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let Setup { db, pool } = last.expect("at least one set-up");
    // Which stream positions are checked, seeded apart from the stream.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc4ec);
    let check_at: HashSet<usize> = (0..CHECKS).map(|_| rng.gen_range(0..POOL)).collect();
    let mut checked: Vec<(usize, GenRelation)> = Vec::new();
    let mut distinct: HashSet<&str> = HashSet::new();

    let reg_before = db.metrics().snapshot();
    let before = Globals::read();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, trace);
    let serial = ExecContext::serial();
    let mut done = 0u64;
    while budget.more(epoch, done) {
        let pos = done as usize % POOL;
        let (src, class) = &pool[pos];
        done += 1;
        report.attempted += 1;
        let root = tracer.open("op", class, 0, done);
        if tracer.is_on()
            && tracer
                .estimate(&db, src, QueryOpts::new().ctx(&serial), root, done)
                .is_err()
        {
            report.failed += 1;
            tracer.close(root);
            continue;
        }
        let (out, d) = tracer.time("db.run", class, root, done, || {
            db.run(src, QueryOpts::new().ctx(&serial))
        });
        tracer.close(root);
        match out {
            Ok(out) => {
                report.queries.push(d.as_secs_f64() * 1e3);
                distinct.insert(src);
                if check_at.contains(&(done as usize - 1)) {
                    checked.push((pos, out.result.relation));
                }
            }
            Err(_) => report.failed += 1,
        }
    }
    report.elapsed_s = epoch.elapsed().as_secs_f64();
    let after = Globals::read();
    let exec = db
        .metrics()
        .snapshot()
        .totals
        .delta_since(&reg_before.totals);
    report.traces.push(tracer);

    // Answers, outside the timed window: each checked output must denote
    // exactly what the direct lowering denotes.
    for (pos, got) in &checked {
        let src = &pool[*pos].0;
        let reference = db
            .run(src, QueryOpts::new().optimize(false).compact(false))
            .expect("reference run")
            .result
            .relation;
        let same = got
            .difference(&reference)
            .and_then(|d| d.denotes_empty())
            .unwrap_or(false)
            && reference
                .difference(got)
                .and_then(|d| d.denotes_empty())
                .unwrap_or(false);
        if !same {
            report
                .mismatches
                .push(format!("`{src}` differs from its unoptimized evaluation"));
        }
    }

    report.engine_layers(&before, &after, &exec, report.queries.len() as u64);
    let evicted = after.storage.outcome_evictions - before.storage.outcome_evictions;
    report.property(
        "distinct texts outnumber the plan cache",
        distinct.len() > PLAN_CACHE_CAP,
        format!("{} distinct texts, cap {PLAN_CACHE_CAP}", distinct.len()),
    );
    report.property(
        "outcome cache evicts in the timed phase",
        evicted >= 1,
        format!("{evicted} entries evicted"),
    );
    report.property(
        "answers checked",
        !checked.is_empty(),
        format!("{} sampled queries", checked.len()),
    );
    if trace {
        report.span_layers();
    }
    report
}
