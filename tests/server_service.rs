//! The query service end to end: wire round-trips are bit-identical to
//! direct `Database::run`, pipelined and concurrent sessions multiplex
//! onto the shared-snapshot batches, `apply` transactions interleave
//! between batches, protocol errors are typed frames, and the HTTP
//! listener serves Prometheus text and a health check.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

use itd_db::{Database, QueryOpts, TupleSpec, Txn};
use itd_server::{Client, Server, ServerConfig};

const QUERIES: &[&str] = &[
    "svc_even(t)",
    "svc_even(t) and svc_fives(t)",
    "svc_even(t) and not svc_fives(t)",
    "svc_tag(t; k) and svc_even(t)",
    "exists k. svc_tag(t; k)",
];

fn sample_db() -> Database {
    let mut db = Database::new();
    db.create_table("svc_even", &["t"], &[]).unwrap();
    db.create_table("svc_fives", &["t"], &[]).unwrap();
    db.create_table("svc_tag", &["t"], &["k"]).unwrap();
    db.table_mut("svc_even")
        .unwrap()
        .insert(TupleSpec::new().lrp("t", 0, 2))
        .unwrap();
    db.table_mut("svc_fives")
        .unwrap()
        .insert(TupleSpec::new().lrp("t", 0, 5))
        .unwrap();
    db.table_mut("svc_tag")
        .unwrap()
        .insert(TupleSpec::new().lrp("t", 1, 3).datum("k", 7))
        .unwrap();
    db
}

fn start(cfg: ServerConfig) -> Server {
    Server::start(sample_db(), cfg).unwrap()
}

/// The wire rendering the service must reproduce, computed by running
/// the same query directly against the server's own snapshot.
fn direct(server: &Server, src: &str) -> (Vec<String>, Vec<String>, String) {
    let out = server.snapshot().run(src, QueryOpts::new()).unwrap();
    (
        out.result.temporal_vars.clone(),
        out.result.data_vars.clone(),
        out.result.relation.to_string(),
    )
}

#[test]
fn round_trip_is_bit_identical_to_direct_run() {
    let server = start(ServerConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    for src in QUERIES {
        let res = client.query(*src).unwrap();
        let (temporal, data, rendering) = direct(&server, src);
        assert_eq!(res.temporal_vars, temporal, "{src}: temporal vars");
        assert_eq!(res.data_vars, data, "{src}: data vars");
        assert_eq!(res.result, rendering, "{src}: wire rendering");
        assert!(res.est_pairs.is_finite(), "{src}: estimate travels back");
    }
    server.shutdown();
}

#[test]
fn truth_requests_answer_closed_queries() {
    let server = start(ServerConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    let yes = client
        .query_opts("exists t. svc_even(t)", None, true)
        .unwrap();
    assert_eq!(yes.truth, Some(true));
    let no = client
        .query_opts("exists t. svc_even(t) and not svc_even(t)", None, true)
        .unwrap();
    assert_eq!(no.truth, Some(false));
    let skipped = client.query("svc_even(t)").unwrap();
    assert_eq!(skipped.truth, None, "truth is opt-in");
    server.shutdown();
}

#[test]
fn concurrent_sessions_share_batches_and_agree_with_direct_run() {
    let server = start(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });
    let expected: Vec<(Vec<String>, Vec<String>, String)> =
        QUERIES.iter().map(|src| direct(&server, src)).collect();
    let addr = server.addr();
    let threads: Vec<_> = (0..8)
        .map(|offset| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for round in 0..5 {
                    let pick = (offset + round) % QUERIES.len();
                    let res = client.query(QUERIES[pick]).unwrap();
                    let (temporal, data, rendering) = &expected[pick];
                    assert_eq!(&res.temporal_vars, temporal);
                    assert_eq!(&res.data_vars, data);
                    assert_eq!(&res.result, rendering);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    let snap = server.registry().snapshot();
    assert_eq!(snap.server_requests, 40, "8 sessions x 5 queries");
    assert_eq!(
        snap.server_admitted + snap.server_rejected_over_budget + snap.server_rejected_queue_full,
        snap.server_requests,
        "every submission is admitted or rejected, exactly once"
    );
    assert_eq!(snap.server_batch_queries, 40, "every request rode a batch");
    assert!(snap.server_batches >= 1);
    assert!(snap.server_connections >= 8);
    server.shutdown();
}

#[test]
fn apply_interleaves_between_batches() {
    let server = start(ServerConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    let before = client.query("svc_fives(t)").unwrap();

    server
        .apply(Txn::new().insert("svc_fives", TupleSpec::new().lrp("t", 1, 5)))
        .unwrap();

    let after = client.query("svc_fives(t)").unwrap();
    assert_ne!(before.result, after.result, "the txn must become visible");
    let (_, _, direct_after) = direct(&server, "svc_fives(t)");
    assert_eq!(after.result, direct_after, "post-txn snapshot agreement");
    server.shutdown();
}

#[test]
fn malformed_frames_get_typed_protocol_errors() {
    let server = start(ServerConfig::default());
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(b"this is not json\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let resp = itd_server::wire::parse_response(line.trim()).unwrap();
    assert_eq!(resp.id, 0, "unparseable frames answer with id 0");
    let err = resp.payload.unwrap_err();
    assert_eq!(err.kind, "protocol");

    // A malformed frame never reaches admission accounting...
    let snap = server.registry().snapshot();
    assert_eq!(snap.server_requests, 0);

    // ...and the session survives it: a well-formed request still works.
    let req = itd_server::wire::Request {
        id: 9,
        query: "svc_even(t)".into(),
        deadline_ms: None,
        truth: false,
    };
    let mut frame = itd_server::wire::render_request(&req);
    frame.push('\n');
    stream.write_all(frame.as_bytes()).unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    let resp = itd_server::wire::parse_response(line.trim()).unwrap();
    assert_eq!(resp.id, 9);
    assert!(resp.payload.is_ok());
    server.shutdown();
}

/// Reads one response frame and checks it is a protocol error (id 0)
/// mentioning `what`, after which the server closes the session.
fn expect_fatal_protocol_error(stream: TcpStream, what: &str) {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let resp = itd_server::wire::parse_response(line.trim()).unwrap();
    assert_eq!(resp.id, 0, "frame errors answer with id 0");
    let err = resp.payload.unwrap_err();
    assert_eq!(err.kind, "protocol");
    assert!(err.message.contains(what), "{}", err.message);
    line.clear();
    assert!(
        matches!(reader.read_line(&mut line), Ok(0) | Err(_)),
        "the session closes after a fatal frame: {line}"
    );
}

#[test]
fn oversize_and_non_utf8_frames_close_only_their_session() {
    let server = start(ServerConfig::default());

    // 2 MiB without a newline, twice the frame bound. The server stops
    // reading at the bound, so the flood runs on its own thread and ends
    // with a write error once the session closes.
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let flood = std::thread::spawn(move || {
        let _ = writer.write_all(&vec![b'x'; 2 << 20]);
    });
    expect_fatal_protocol_error(stream, "exceeds");
    flood.join().unwrap();

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(b"{\"id\": 1, \"query\": \"\xff\"}\n")
        .unwrap();
    expect_fatal_protocol_error(stream, "UTF-8");

    // Other sessions are unaffected.
    let mut client = Client::connect(server.addr()).unwrap();
    let res = client.query("svc_even(t)").unwrap();
    assert_eq!(res.result, direct(&server, "svc_even(t)").2);
    let snap = server.registry().snapshot();
    assert_eq!(snap.server_requests, 1, "bad frames never reach admission");
    assert_eq!(
        snap.server_admitted + snap.server_rejected_over_budget + snap.server_rejected_queue_full,
        snap.server_requests,
        "every submission is admitted or rejected, exactly once"
    );
    server.shutdown();
}

#[test]
fn engine_errors_travel_as_rendered_chains() {
    let server = start(ServerConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    let err = client.query("no_such_table(t)").unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("no_such_table"),
        "the engine's message survives the wire: {msg}"
    );
    assert!(
        !msg.contains("Query("),
        "Debug formatting must not leak onto the wire: {msg}"
    );
    server.shutdown();
}

#[test]
fn oversized_difference_fails_its_request_and_the_session_serves_on() {
    // `p − q` at coprime periods 2³¹ and 2³¹−1 keeps 2³¹ − 2 residue
    // classes: more than the enumeration limit, so the request gets a typed
    // error instead of the server attempting a 32 GiB allocation.
    let mut db = sample_db();
    for (name, period) in [("svc_p", 1i64 << 31), ("svc_q", (1 << 31) - 1)] {
        db.create_table(name, &["t"], &[]).unwrap();
        db.table_mut(name)
            .unwrap()
            .insert(TupleSpec::new().lrp("t", 0, period))
            .unwrap();
    }
    let server = Server::start(db, ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let msg = client
        .query("svc_p(t) and not svc_q(t)")
        .unwrap_err()
        .to_string();
    assert!(
        msg.contains("exceeds the limit of 1048576 combinations"),
        "the budget error names its limit: {msg}"
    );
    let src = "svc_even(t) and not svc_fives(t)";
    let got = client.query(src).unwrap();
    assert_eq!(
        (got.temporal_vars, got.data_vars, got.result),
        direct(&server, src)
    );
    server.shutdown();
}

#[test]
fn http_listener_serves_metrics_and_health() {
    let server = start(ServerConfig {
        metrics_addr: Some("127.0.0.1:0".into()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.addr()).unwrap();
    client.query("svc_even(t)").unwrap();

    let get = |path: &str| -> String {
        let mut stream = TcpStream::connect(server.metrics_addr().unwrap()).unwrap();
        write!(stream, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
        let mut body = String::new();
        stream.read_to_string(&mut body).unwrap();
        body
    };

    let metrics = get("/metrics");
    assert!(metrics.starts_with("HTTP/1.0 200 OK"));
    assert!(metrics.contains("text/plain; version=0.0.4"));
    assert!(metrics.contains("itd_server_requests_total 1"));
    assert!(metrics.contains("itd_server_connections_total"));
    assert!(metrics.contains("itd_server_queue_depth"));
    assert!(metrics.contains("itd_storage_value_lookups_total"));

    let health = get("/healthz");
    assert!(health.starts_with("HTTP/1.0 200 OK"));
    assert!(health.ends_with("ok\n"));

    let missing = get("/nope");
    assert!(missing.starts_with("HTTP/1.0 404 Not Found"));
    server.shutdown();
}

#[test]
fn shutdown_joins_every_thread() {
    let server = start(ServerConfig {
        metrics_addr: Some("127.0.0.1:0".into()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.addr()).unwrap();
    client.query("svc_even(t)").unwrap();
    // Returning at all (with a live session still connected) is the
    // assertion: shutdown must not deadlock on sessions or workers.
    server.shutdown();
}
