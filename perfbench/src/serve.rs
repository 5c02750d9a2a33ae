//! `serve_repeat`: a fixed set of read-only texts served over the wire
//! to `nproc` closed-loop clients. After warm-up every request hits the
//! plan cache and the outcome cache holds the whole working set, so the
//! per-request cost is the service (wire parse and render, session read,
//! dispatcher queue, batch snapshot) plus the plan-cache hit path.

use std::sync::Mutex;
use std::time::Instant;

use itd_core::ExecContext;
use itd_db::{Database, QueryOpts, TupleSpec};
use itd_server::{Client, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::measure::{median, ratio, Budget, Globals, Report, Tracer};

const KINDS: [&str; 4] = ["slow", "express", "ic", "local"];
/// Train lines in the catalog (Example 2.4's schedule, seeded).
const LINES: i64 = 12;
/// Warm-up passes over every text per client; sized so that set-up is
/// hundreds of milliseconds of real serving, not a timer tick.
const WARM_ROUNDS: usize = 40;
/// Direct (wire-less) passes over every text in a traced run.
const DIRECT_ROUNDS: usize = 40;

/// Example 2.4's train schedule with seeded lines, plus a unary
/// maintenance calendar, and the served texts with their class labels.
fn catalog(seed: u64) -> (Database, Vec<(String, &'static str)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    db.create_table("train", &["dep", "arr"], &["kind"])
        .expect("fresh table");
    db.create_table("maint", &["t"], &["kind"])
        .expect("fresh table");
    let mut durations = Vec::new();
    for i in 0..LINES {
        let dep = rng.gen_range(0..60);
        let dur: i64 = rng.gen_range(20..=120);
        durations.push(dur);
        let spec = TupleSpec::new()
            .lrp("dep", dep, 60)
            .lrp("arr", dep + dur, 60)
            .diff_eq("dep", "arr", -dur)
            .datum("kind", KINDS[i as usize % KINDS.len()]);
        db.table_mut("train")
            .expect("table")
            .insert(spec)
            .expect("row");
    }
    for kind in KINDS {
        let spec = TupleSpec::new()
            .lrp("t", rng.gen_range(0..120), 120)
            .datum("kind", kind);
        db.table_mut("maint")
            .expect("table")
            .insert(spec)
            .expect("row");
    }
    let lo = rng.gen_range(0..600);
    let hi = lo + rng.gen_range(120..600);
    let at = rng.gen_range(0..60);
    let dur = durations[rng.gen_range(0..durations.len())];
    let texts = vec![
        ("train(d, a; k)".to_owned(), ""),
        (r#"train(d, a; "slow")"#.to_owned(), ""),
        (format!("train(d, a; k) and d >= {lo} and a <= {hi}"), ""),
        (format!("exists a. train({at}, a; k)"), "project"),
        ("exists a. train(d, a; k)".to_owned(), "project"),
        (
            format!("exists d. exists a. train(d, a; k) and a = d + {dur}"),
            "project",
        ),
        // The two negations carry most of the algebra (about 1.3 and 2.3
        // ms on one core; the other texts take 0.01 to 0.4 ms). With only
        // cheap texts the two vCPUs idle between wake-ups and throughput
        // swung by a third between runs of one input.
        ("train(d, a; k) and not maint(d; k)".to_owned(), "negation"),
        (
            r#"train(d, a; k) and not train(d, a; "slow")"#.to_owned(),
            "negation",
        ),
        ("train(d, a; k) and maint(a; k)".to_owned(), "join"),
        (
            "exists d. train(d, a; k) and maint(d; k)".to_owned(),
            "join",
        ),
        ("train(d, a; k) and train(a, d; k)".to_owned(), "tjoin"),
        ("train(d1, a1; k) and train(a1, a2; k)".to_owned(), "tjoin"),
    ];
    (db, texts)
}

/// One set-up: catalog, server, expected renderings, connected and
/// warmed clients.
struct Setup {
    server: Server,
    clients: Vec<Client>,
    texts: Vec<(String, &'static str)>,
    expected: Vec<String>,
}

fn setup(seed: u64, nproc: usize, report: &mut Report) -> Setup {
    let (db, texts) = catalog(seed);
    let server = Server::start(
        db,
        ServerConfig {
            workers: nproc,
            ..ServerConfig::default()
        },
    )
    .expect("bind the query listener");
    let snapshot = server.snapshot();
    let expected: Vec<String> = texts
        .iter()
        .map(|(src, _)| {
            snapshot
                .run(src, QueryOpts::new())
                .expect("direct run")
                .result
                .relation
                .to_string()
        })
        .collect();
    let mut clients: Vec<Client> = (0..nproc)
        .map(|_| Client::connect(server.addr()).expect("connect"))
        .collect();
    // All connections warm up at once, as they are loaded later: a
    // sequential warm-up would time wake-up latency more than work.
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let (texts, expected) = (&texts, &expected);
                scope.spawn(move || {
                    let mut wrong = Vec::new();
                    for _ in 0..WARM_ROUNDS {
                        for (i, (src, _)) in texts.iter().enumerate() {
                            let res = client.query(src.as_str()).expect("warm-up query");
                            if res.result != expected[i] {
                                wrong.push(format!(
                                    "warm-up wire result of `{src}` differs from direct run"
                                ));
                            }
                        }
                    }
                    wrong
                })
            })
            .collect();
        for h in handles {
            report
                .mismatches
                .extend(h.join().expect("warm-up client thread"));
        }
    });
    Setup {
        server,
        clients,
        texts,
        expected,
    }
}

/// What one client thread brings back from the timed phase.
#[derive(Default)]
struct ClientLoad {
    latencies: Vec<f64>,
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
}

pub fn run(seed: u64, budget: Budget, trace: bool, setups: usize, nproc: usize) -> Report {
    let mut report = Report::default();
    let mut last = None;
    for _ in 0..setups {
        if let Some(Setup { server, .. }) = last.take() {
            server.shutdown();
        }
        let t0 = Instant::now();
        last = Some(setup(seed, nproc, &mut report));
        report.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let Setup {
        server,
        clients,
        texts,
        expected,
    } = last.expect("at least one set-up");

    let registry = server.registry();
    let reg_before = registry.snapshot();
    let before = Globals::read();
    let epoch = Instant::now();
    let loads: Mutex<Vec<(ClientLoad, Tracer)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for (ci, mut client) in clients.into_iter().enumerate() {
            let (texts, expected, loads) = (&texts, &expected, &loads);
            let budget = budget.split(nproc as u64, ci as u64);
            scope.spawn(move || {
                let mut tracer = Tracer::new(epoch, trace);
                let mut load = ClientLoad::default();
                // Clients start at different texts so concurrent requests
                // differ, as they would from independent callers.
                let mut next = ci * texts.len() / nproc;
                while budget.more(epoch, load.attempted) {
                    let pick = next % texts.len();
                    next += 1;
                    load.attempted += 1;
                    let req = ((ci as u64) << 40) | load.attempted;
                    let (src, label) = &texts[pick];
                    let (res, d) =
                        tracer.time("client.query", label, 0, req, || client.query(src.as_str()));
                    match res {
                        Ok(res) => {
                            load.latencies.push(d.as_secs_f64() * 1e3);
                            if res.result != expected[pick] {
                                load.mismatches.push(format!(
                                    "wire result of `{src}` differs from direct run"
                                ));
                            }
                        }
                        Err(_) => load.failed += 1,
                    }
                }
                loads.lock().expect("load list").push((load, tracer));
            });
        }
    });
    report.elapsed_s = epoch.elapsed().as_secs_f64();
    let after = Globals::read();
    let reg_after = registry.snapshot();

    for (load, tracer) in loads.into_inner().expect("load list") {
        report.queries.extend(load.latencies);
        report.attempted += load.attempted;
        report.failed += load.failed;
        report.mismatches.extend(load.mismatches);
        report.traces.push(tracer);
    }
    let exec = reg_after.totals.delta_since(&reg_before.totals);
    report.engine_layers(&before, &after, &exec, report.queries.len() as u64);
    let hits = after.plans.hits - before.plans.hits;
    let lookups = after.plans.lookups - before.plans.lookups;
    let evicted = after.storage.outcome_evictions - before.storage.outcome_evictions;
    report.property(
        "plan cache hit rate is 1 after warm-up",
        hits == lookups,
        format!("{hits} hits of {lookups} lookups"),
    );
    report.property(
        "no outcome evictions after warm-up",
        evicted == 0,
        format!("{evicted} entries evicted"),
    );

    if trace {
        traced_layers(&mut report, &server, &texts, epoch, &reg_before, &reg_after);
    }
    server.shutdown();
    report
}

/// The wire layer's own numbers, and the engine's direct cost of the same
/// texts: hit-path runs on the server's snapshot, then preparation on a
/// copy whose plan token no cached plan matches.
fn traced_layers(
    report: &mut Report,
    server: &Server,
    texts: &[(String, &'static str)],
    epoch: Instant,
    reg_before: &itd_core::RegistrySnapshot,
    reg_after: &itd_core::RegistrySnapshot,
) {
    let batches = reg_after.server_batches - reg_before.server_batches;
    let batched = reg_after.server_batch_queries - reg_before.server_batch_queries;
    let refused = (reg_after.server_rejected_over_budget - reg_before.server_rejected_over_budget)
        + (reg_after.server_rejected_queue_full - reg_before.server_rejected_queue_full)
        + (reg_after.server_timeouts - reg_before.server_timeouts);
    let roundtrips: Vec<f64> = report
        .all_spans()
        .filter(|s| s.name == "client.query")
        .map(|s| s.ms())
        .collect();

    let mut tracer = Tracer::new(epoch, true);
    let snapshot = server.snapshot();
    // The same serial context a server worker executes under.
    let serial = ExecContext::serial();
    let mut req = 1u64 << 48;
    for _ in 0..DIRECT_ROUNDS {
        for (src, label) in texts {
            req += 1;
            let (out, _) = tracer.time("db.run", label, 0, req, || {
                snapshot.run(src, QueryOpts::new().ctx(&serial))
            });
            out.expect("direct run");
        }
    }
    let direct = tracer.durations_ms("db.run");
    // A mutation on a copy rotates its plan token: every estimate below
    // prepares from scratch.
    let mut copy = snapshot.clone();
    copy.table_mut("maint").expect("table");
    for (src, _) in texts {
        req += 1;
        tracer
            .estimate(&copy, src, QueryOpts::new(), 0, req)
            .expect("estimate");
    }
    report.traces.push(tracer);
    report.span_layers();

    let rt = median(&roundtrips);
    report.layer("server.roundtrip_p50_us", rt * 1e3, "us");
    report.layer("server.overhead_p50_us", (rt - median(&direct)) * 1e3, "us");
    report.layer(
        "server.batch_mean",
        ratio(batched as f64, batches as f64),
        "count",
    );
    report.layer(
        "server.queue_depth_max",
        reg_after.server_queue_depth_max as f64,
        "count",
    );
    report.layer("server.refused", refused as f64, "count");
}
