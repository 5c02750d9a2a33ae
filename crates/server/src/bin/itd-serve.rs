//! Query-service daemon: loads (or creates) a database and serves it.
//!
//! ```text
//! itd-serve [--addr HOST:PORT] [--metrics HOST:PORT | --no-metrics]
//!           [--workers N] [--queue N] [--budget PAIRS] [--deadline-ms MS]
//!           [--gather-us US] [FILE.json]
//! ```
//!
//! With `FILE.json` the database is loaded from the REPL's `\save`
//! format; without it an empty database is served (useful together with a
//! seed script piped through `itd-repl`).

use std::process::ExitCode;
use std::time::Duration;

use itd_db::{render_error_chain, Database};
use itd_server::{Server, ServerConfig};

fn usage() -> ExitCode {
    eprintln!(
        "usage: itd-serve [--addr HOST:PORT] [--metrics HOST:PORT | --no-metrics] \
         [--workers N] [--queue N] [--budget PAIRS] [--deadline-ms MS] [--gather-us US] \
         [FILE.json]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:7171".into(),
        metrics_addr: Some("127.0.0.1:7172".into()),
        ..ServerConfig::default()
    };
    let mut file: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or_else(|| what.to_owned());
        match arg.as_str() {
            "--addr" => match value("--addr") {
                Ok(v) => cfg.addr = v,
                Err(_) => return usage(),
            },
            "--metrics" => match value("--metrics") {
                Ok(v) => cfg.metrics_addr = Some(v),
                Err(_) => return usage(),
            },
            "--no-metrics" => cfg.metrics_addr = None,
            "--workers" => match value("--workers").map(|v| v.parse()) {
                Ok(Ok(n)) => cfg.workers = n,
                _ => return usage(),
            },
            "--queue" => match value("--queue").map(|v| v.parse()) {
                Ok(Ok(n)) => cfg.queue_capacity = n,
                _ => return usage(),
            },
            "--budget" => match value("--budget").map(|v| v.parse()) {
                Ok(Ok(n)) => cfg.budget_pairs = n,
                _ => return usage(),
            },
            "--deadline-ms" => match value("--deadline-ms").map(|v| v.parse()) {
                Ok(Ok(ms)) => cfg.default_deadline = Some(Duration::from_millis(ms)),
                _ => return usage(),
            },
            "--gather-us" => match value("--gather-us").map(|v| v.parse()) {
                Ok(Ok(us)) => cfg.batch_gather = Duration::from_micros(us),
                _ => return usage(),
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') && file.is_none() => file = Some(other.to_owned()),
            _ => return usage(),
        }
    }

    let db = match &file {
        Some(path) => match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Database::from_json(&text).map_err(|e| render_error_chain(&e)))
        {
            Ok(db) => db,
            Err(e) => {
                eprintln!("error: cannot load {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => Database::new(),
    };

    let server = match Server::start(db, cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: {}", render_error_chain(&e));
            return ExitCode::FAILURE;
        }
    };
    eprintln!("itd-serve: queries on {}", server.addr());
    if let Some(addr) = server.metrics_addr() {
        eprintln!("itd-serve: metrics on http://{addr}/metrics");
    }
    // Serve until the process is killed.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
