//! `ingest_views`: one caller interleaves single-row signed transactions
//! with ad-hoc reads and view reads on the same two tables, under a
//! registered join view and a registered negation view. Every
//! transaction propagates deltas through both views and rotates the plan
//! token, so every read re-prepares.

use std::sync::Arc;
use std::time::Instant;

use itd_core::{ExecContext, GenTuple, OpKind};
use itd_db::{Database, QueryOpts, Txn, ViewId, ViewSnapshot};
use itd_workload::random_relation;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::adhoc::{load, spec, stream};
use crate::measure::{median, ratio, Budget, Globals, Report, Tracer};

/// Generalized tuples per table at load.
const TUPLES: usize = 100;
const PERIOD: i64 = 12;
/// A transaction retracts the row inserted this many transactions ago
/// into the same table, so the tables churn at a fixed size.
const WINDOW: usize = 16;
/// Length of the transaction and read streams, cycled. A run cycles them
/// more than once, so the append-only arenas stop growing and peak
/// memory does not depend on how many operations a run completes.
const POOL: usize = 256;
/// Warm-up rounds (one transaction and one read each).
const WARM: usize = 24;
/// A checkpoint (view vs. fresh run) every this many transactions.
const CHECK_EVERY: u64 = 256;

const VIEWS: [(&str, &str); 2] = [
    ("joined", "p(t1, t2; x) and q(t1, t2; x)"),
    ("pruned", "p(t1, t2; x) and not q(t1, t2; x)"),
];

/// The `i`-th transaction of the stream: insert row `i` into its table,
/// retract the row that table received `WINDOW` of its transactions
/// earlier (tables alternate).
fn txn(rows: &[GenTuple], i: usize) -> Txn {
    let table = if i.is_multiple_of(2) { "p" } else { "q" };
    let mut txn = Txn::new();
    if i >= 2 * WINDOW {
        txn = txn.retract_tuple(table, rows[(i - 2 * WINDOW) % POOL].clone());
    }
    txn.insert_tuple(table, rows[i % POOL].clone())
}

/// The loaded tables, without views.
fn tables(seed: u64) -> Database {
    let mut db = Database::new();
    load(&mut db, "p", &random_relation(&spec(TUPLES, PERIOD), seed));
    load(
        &mut db,
        "q",
        &random_relation(&spec(TUPLES, PERIOD), seed ^ 0x9e37_79b9),
    );
    db
}

struct Setup {
    db: Database,
    views: Vec<ViewId>,
    rows: Vec<GenTuple>,
    reads: Vec<(String, &'static str)>,
}

fn setup(seed: u64, ctx: &ExecContext) -> Setup {
    let mut db = tables(seed);
    let views = VIEWS
        .iter()
        .map(|(name, src)| db.register_view(name, src).expect("registers"))
        .collect();
    // Rows come from the same generator and alphabet as the tables, so
    // the active domain never grows and refreshes stay incremental.
    let rows: Vec<GenTuple> = random_relation(&spec(POOL, PERIOD), seed ^ 0x5eed)
        .rows()
        .map(|r| r.to_tuple())
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4ead);
    let reads = stream(&mut rng, POOL);
    for (i, (src, _)) in reads.iter().enumerate().take(WARM) {
        db.apply_with(txn(&rows, i), ctx).expect("warm-up txn");
        db.run(src, QueryOpts::new().ctx(ctx))
            .expect("warm-up read");
    }
    Setup {
        db,
        views,
        rows,
        reads,
    }
}

/// A view's answer and the database it must agree with.
struct Checkpoint {
    db: Database,
    views: Vec<Arc<ViewSnapshot>>,
}

pub fn run(seed: u64, budget: Budget, trace: bool, setups: usize) -> Report {
    let mut report = Report::default();
    let mut last = None;
    for _ in 0..setups {
        drop(last.take());
        let ctx = ExecContext::serial();
        let t0 = Instant::now();
        last = Some(setup(seed, &ctx));
        report.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let Setup {
        mut db,
        views,
        rows,
        reads,
    } = last.expect("at least one set-up");
    let txn_ctx = ExecContext::serial();
    let query_ctx = ExecContext::serial();
    let mut checkpoints: Vec<Checkpoint> = Vec::new();

    let reg_before = db.metrics().snapshot();
    let before = Globals::read();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, trace);
    let mut txns = 0u64;
    let mut done = 0u64;
    while budget.more(epoch, done) {
        let i = WARM + txns as usize;
        txns += 1;
        done += 1;
        report.attempted += 1;
        let root = tracer.open("op", "", 0, done);
        let (summary, d) = tracer.time("db.apply", "", root, done, || {
            db.apply_with(txn(&rows, i), &txn_ctx)
        });
        match summary {
            Ok(s) => {
                report.txns.push(d.as_secs_f64() * 1e3);
                if s.views_recomputed != 0 || s.views_refreshed != VIEWS.len() {
                    report.mismatches.push(format!(
                        "txn {i} refreshed {} views, recomputed {}",
                        s.views_refreshed, s.views_recomputed
                    ));
                }
            }
            Err(_) => report.failed += 1,
        }

        let (src, class) = &reads[i % POOL];
        done += 1;
        report.attempted += 1;
        if tracer.is_on() {
            // A failed estimate fails the run below, so it is not counted.
            let _ = tracer.estimate(&db, src, QueryOpts::new().ctx(&query_ctx), root, done);
        }
        let (out, d) = tracer.time("db.run", class, root, done, || {
            db.run(src, QueryOpts::new().ctx(&query_ctx))
        });
        match out {
            Ok(_) => report.queries.push(d.as_secs_f64() * 1e3),
            Err(_) => report.failed += 1,
        }
        let (snaps, _) = tracer.time("db.view", "", root, done, || {
            views
                .iter()
                .map(|&v| db.view(v))
                .collect::<Option<Vec<_>>>()
        });
        tracer.close(root);
        let snaps = snaps.expect("registered views");
        if txns.is_multiple_of(CHECK_EVERY) {
            checkpoints.push(Checkpoint {
                db: db.clone(),
                views: snaps,
            });
        }
    }
    report.elapsed_s = epoch.elapsed().as_secs_f64();
    let after = Globals::read();
    let reg_after = db.metrics().snapshot();
    report.traces.push(tracer);

    // Answers, outside the timed window: at each checkpoint every view
    // denotes what a fresh run of its text denotes on that state.
    for (n, cp) in checkpoints.iter().enumerate() {
        for (snap, (name, src)) in cp.views.iter().zip(VIEWS) {
            let fresh = cp
                .db
                .run(src, QueryOpts::new().ctx(&ExecContext::serial()))
                .expect("fresh run")
                .result
                .relation;
            let same = snap
                .relation
                .difference(&fresh)
                .and_then(|d| d.denotes_empty())
                .unwrap_or(false)
                && fresh
                    .difference(&snap.relation)
                    .and_then(|d| d.denotes_empty())
                    .unwrap_or(false);
            if !same {
                report
                    .mismatches
                    .push(format!("view `{name}` diverged at checkpoint {n}"));
            }
        }
    }

    let refresh = txn_ctx.stats();
    report.engine_layers(
        &before,
        &after,
        &query_ctx.stats(),
        report.queries.len() as u64,
    );
    let delta_rows = reg_after.view_delta_rows - reg_before.view_delta_rows;
    report
        .counters
        .push(("refresh_pairs", refresh.total_pairs()));
    report.counters.push(("delta_rows", delta_rows));
    let invalidations = after.plans.invalidations - before.plans.invalidations;
    report.property(
        "plan-cache invalidations at least the transactions",
        invalidations >= txns,
        format!("{invalidations} invalidations, {txns} txns"),
    );
    report.property(
        "answers checked",
        !checkpoints.is_empty(),
        format!("{} checkpoints", checkpoints.len()),
    );

    if trace {
        report.span_layers();
        let applied_ns: f64 = report.txns.iter().sum::<f64>() * 1e6;
        report.layer(
            "views.refresh_share",
            ratio(refresh.op(OpKind::ViewRefresh).nanos as f64, applied_ns),
            "ratio",
        );
        report.layer(
            "views.delta_rows_per_txn",
            ratio(delta_rows as f64, txns as f64),
            "count",
        );
        let tuples: usize = db.views().iter().map(|v| v.tuples).sum();
        report.layer("views.tuples", tuples as f64, "count");
        report.layer(
            "views.full_refreshes",
            (reg_after.view_full_refreshes - reg_before.view_full_refreshes) as f64,
            "count",
        );
        // The same transaction stream on a twin without views.
        let mut twin = tables(seed);
        let ctx = ExecContext::serial();
        for i in 0..WARM {
            twin.apply_with(txn(&rows, i), &ctx)
                .expect("twin warm-up txn");
        }
        let mut tracer = Tracer::new(epoch, true);
        for i in WARM..WARM + txns as usize {
            let (res, _) = tracer.time("twin.apply", "", 0, i as u64, || {
                twin.apply_with(txn(&rows, i), &ctx)
            });
            res.expect("twin txn");
        }
        let noview = tracer.durations_ms("twin.apply");
        report.layer("txn.apply_noview_p50_ms", median(&noview), "ms");
        report.traces.push(tracer);
    }
    report
}
