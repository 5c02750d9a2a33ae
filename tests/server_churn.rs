//! Connection churn leaves the server's address space flat: each session
//! thread's stack is released once its client has gone, not kept mapped
//! until shutdown. A binary of its own, so that no other test's threads
//! move the process's `VmSize` while it is measured.
#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use itd_db::{Database, TupleSpec};
use itd_server::{Client, Server, ServerConfig};

/// A numeric field of `/proc/self/status` (`VmSize` is in KiB).
fn status(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status
        .lines()
        .find(|l| l.starts_with(field) && l[field.len()..].starts_with(':'))
        .unwrap_or_else(|| panic!("no {field} line"));
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

/// Connects, asks one query, and closes, `n` times. Each cycle waits for
/// its session thread to exit before the next connects: a thread that
/// starts while another is still running can make the allocator reserve
/// a new 64 MiB arena, which would move `VmSize` without any leak. An
/// exited thread's stack stays mapped until its handle is joined or
/// dropped, so waiting for the exit hides no leak.
fn churn(server: &Server, n: usize) {
    let idle = status("Threads");
    for _ in 0..n {
        let mut client = Client::connect(server.addr()).unwrap();
        client.query("churn_even(t)").unwrap();
        drop(client);
        let closed = Instant::now();
        while status("Threads") > idle {
            assert!(
                closed.elapsed() < Duration::from_secs(10),
                "the session thread did not exit after its client closed"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

#[test]
fn connection_churn_keeps_vm_size_flat() {
    let mut db = Database::new();
    db.create_table("churn_even", &["t"], &[]).unwrap();
    db.table_mut("churn_even")
        .unwrap()
        .insert(TupleSpec::new().lrp("t", 0, 2))
        .unwrap();
    let server = Server::start(db, ServerConfig::default()).unwrap();
    // Warm-up: worker stacks, allocator arenas and caches settle first.
    churn(&server, 50);
    let before = status("VmSize");
    churn(&server, 300);
    let grown_mib = status("VmSize").saturating_sub(before) / 1024;
    assert!(
        grown_mib < 64,
        "300 connections grew VmSize by {grown_mib} MiB: session threads are not reaped"
    );
    server.shutdown();
}
