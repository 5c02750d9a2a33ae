//! The query service: listener, sessions, shared-snapshot batching,
//! admission control, deadline-aware workers, and the metrics endpoint.
//!
//! # Architecture
//!
//! ```text
//! clients ──TCP──▶ session threads ──▶ bounded admission queue
//!                                          │ (reject-on-full)
//!                                          ▼
//!                                 bounded worker pool
//!                 each free worker takes ⌈queued / workers⌉ jobs
//!                 (its batch) plus one Arc snapshot of the database;
//!                 per job: estimate → admission check → run →
//!                 response written to the session socket at once
//! ```
//!
//! Every query of a batch executes against the *same* immutable snapshot,
//! so heavy read traffic never contends with ingest: [`Server::apply`]
//! writes copy-on-write behind the snapshots, and a transaction committed
//! mid-batch is observed by the *next* batch, never half of the current
//! one. Admission control checks the optimizer's pre-execution
//! total-pairs estimate against [`ServerConfig::budget_pairs`]; deadlines
//! become a [`CancelToken`] in the per-query [`ExecContext`], checked at
//! chunk boundaries so a timed-out query stops burning its worker.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use itd_core::{
    storage_stats, CancelToken, CoreError, ExecContext, MetricsRegistry, RegistryCounter,
    RegistryGauge,
};
use itd_db::{Database, DbError, QueryOpts, Txn, TxnSummary};
use itd_query::QueryError;

use crate::error::ServerError;
use crate::wire::{self, Request, Response, WireResult};

/// Tuning knobs of the query service.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address of the query listener (`"127.0.0.1:0"` picks an
    /// ephemeral port; read it back from [`Server::addr`]).
    pub addr: String,
    /// Bind address of the plain-HTTP/1.0 `GET /metrics` + `GET /healthz`
    /// listener, or `None` to disable it.
    pub metrics_addr: Option<String>,
    /// Worker-pool size: how many queries execute concurrently.
    pub workers: usize,
    /// Admission bound on *outstanding* requests — queued plus executing.
    /// Submissions beyond it are rejected with [`ServerError::QueueFull`]
    /// (backpressure): counting in-flight work keeps the bound meaningful
    /// even though workers drain the queue eagerly.
    pub queue_capacity: usize,
    /// Admission budget on the cost model's pre-execution total-pairs
    /// estimate; `f64::INFINITY` disables the check.
    pub budget_pairs: f64,
    /// Group-commit-style gather window: once work arrives, how long a
    /// worker lets further requests accumulate before taking its batch
    /// off the queue. `Duration::ZERO` (the default) takes it at once —
    /// lowest latency; a few hundred microseconds trades single-client
    /// latency for much larger shared-snapshot batches under load.
    pub batch_gather: Duration,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Thread budget of each query's [`ExecContext`]. The default of 1
    /// keeps workers independent — concurrency comes from the pool.
    pub query_threads: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            metrics_addr: None,
            workers: 4,
            queue_capacity: 1024,
            budget_pairs: f64::INFINITY,
            batch_gather: Duration::ZERO,
            default_deadline: None,
            query_threads: 1,
        }
    }
}

/// One queued request: source, deadline, and the session socket to write
/// the response back to.
struct Job {
    id: u64,
    src: String,
    deadline: Option<Instant>,
    truth: bool,
    out: Arc<Mutex<TcpStream>>,
}

struct Shared {
    /// The current state; a batch's snapshot is a clone of the `Arc`.
    db: RwLock<Arc<Database>>,
    registry: Arc<MetricsRegistry>,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    /// Requests accepted but not yet responded to (queued + executing);
    /// incremented under the queue lock, decremented after the response
    /// is written. The admission bound checks this, not the queue length.
    outstanding: AtomicU64,
    cfg: ServerConfig,
    shutdown: AtomicBool,
}

/// A running query service over one shared [`Database`].
///
/// # Examples
/// ```no_run
/// use itd_db::{Database, TupleSpec};
/// use itd_server::{Client, Server, ServerConfig};
/// let mut db = Database::new();
/// db.create_table("even", &["t"], &[]).unwrap();
/// db.table_mut("even").unwrap().insert(TupleSpec::new().lrp("t", 0, 2)).unwrap();
/// let server = Server::start(db, ServerConfig::default()).unwrap();
/// let mut client = Client::connect(server.addr()).unwrap();
/// let answer = client.query("even(t)").unwrap();
/// assert_eq!(answer.temporal_vars, ["t"]);
/// server.shutdown();
/// ```
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listeners, spawns the worker pool and (when configured)
    /// the metrics endpoint, and starts accepting connections.
    ///
    /// # Errors
    /// [`ServerError::Io`] when a bind fails.
    pub fn start(db: Database, cfg: ServerConfig) -> Result<Server, ServerError> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let metrics_listener = match &cfg.metrics_addr {
            Some(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let metrics_addr = metrics_listener
            .as_ref()
            .map(|l| l.local_addr())
            .transpose()?;

        let registry = db.metrics_handle();
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            db: RwLock::new(Arc::new(db)),
            registry,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            outstanding: AtomicU64::new(0),
            cfg,
            shutdown: AtomicBool::new(false),
        });

        let mut threads = Vec::new();
        for _ in 0..workers {
            let shared2 = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || worker_loop(&shared2)));
        }
        {
            let shared2 = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || accept_loop(&shared2, &listener)));
        }
        if let Some(l) = metrics_listener {
            let shared2 = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || metrics_loop(&shared2, &l)));
        }
        Ok(Server {
            shared,
            addr,
            metrics_addr,
            threads,
        })
    }

    /// The query listener's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The metrics listener's bound address, when one is configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The shared registry all service counters land in.
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.shared.registry)
    }

    /// Applies a transaction to the shared database, under the same
    /// thread budget as a query ([`ServerConfig::query_threads`]). Writes
    /// copy-on-write: when an in-flight batch still holds the current
    /// snapshot, the database is cloned (O(1)-ish `Arc`s per table) and
    /// the copy changed, so that batch keeps reading its own immutable
    /// state and the next batch observes the new one.
    ///
    /// # Errors
    /// [`ServerError::Query`] on validation failure (the batch then
    /// changed nothing).
    pub fn apply(&self, txn: Txn) -> Result<TxnSummary, ServerError> {
        let mut db = self.shared.db.write().expect("database lock poisoned");
        let ctx = ExecContext::with_threads(self.shared.cfg.query_threads);
        Ok(Arc::make_mut(&mut db).apply_with(txn, &ctx)?)
    }

    /// An O(1)-ish clone of the current shared database state — the
    /// state the next batch reads, for out-of-band comparison.
    pub fn snapshot(&self) -> Database {
        Database::clone(&self.shared.db.read().expect("database lock poisoned"))
    }

    /// Stops accepting work, drains the threads, and returns once every
    /// session, worker, and listener has exited.
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Relaxed);
        self.shared.queue_cv.notify_all();
        for t in self.threads {
            let _ = t.join();
        }
        // Reject anything that was still queued when the workers left.
        let mut queue = self.shared.queue.lock().expect("queue poisoned");
        let registry = &self.shared.registry;
        for job in queue.drain(..) {
            registry.count(RegistryCounter::ServerRejectedQueueFull, 1);
            registry.gauge(RegistryGauge::ServerQueueDepth, -1);
            respond_err(&job.out, job.id, &ServerError::Shutdown);
            self.shared.outstanding.fetch_sub(1, Relaxed);
        }
    }
}

/// Accepts query connections until shutdown; each gets a session thread.
fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                // An exited thread keeps its stack mapped until it is
                // joined or its handle dropped.
                sessions.retain(|s| !s.is_finished());
                let shared2 = Arc::clone(shared);
                sessions.push(std::thread::spawn(move || session_loop(&shared2, stream)));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
    for s in sessions {
        let _ = s.join();
    }
}

/// Largest request frame a session accepts, newline excluded. A longer
/// frame — or a newline-free stream growing past it — is answered with a
/// protocol error and closes its session, so no client can grow a
/// session's buffer without limit.
const MAX_FRAME_BYTES: usize = 1 << 20;

/// One connection: read newline-delimited JSON requests, submit them to
/// the admission queue, write back rejections immediately. An oversize
/// or non-UTF-8 frame gets a protocol error (id 0) and ends the session.
fn session_loop(shared: &Arc<Shared>, stream: TcpStream) {
    shared.registry.count(RegistryCounter::ServerConnections, 1);
    let _ = stream.set_nodelay(true);
    // Bounded read timeout so idle sessions observe shutdown.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let out = Arc::new(Mutex::new(stream));
    let mut reader = BufReader::new(read_half);
    let mut frame = Vec::new();
    while !shared.shutdown.load(Relaxed) {
        // Room for one more byte than a frame may hold: reading it means
        // the frame is oversize.
        let room = (MAX_FRAME_BYTES + 1 - frame.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut frame) {
            Ok(0) => break, // client closed
            Ok(_) => {
                if frame.last() == Some(&b'\n') {
                    frame.pop();
                }
                let fatal = if frame.len() > MAX_FRAME_BYTES {
                    Some(format!("frame exceeds {MAX_FRAME_BYTES} bytes"))
                } else if let Ok(line) = std::str::from_utf8(&frame) {
                    handle_line(shared, &out, line.trim());
                    None
                } else {
                    Some("frame is not valid UTF-8".to_owned())
                };
                if let Some(what) = fatal {
                    respond_err(&out, 0, &ServerError::Protocol(what));
                    // Send the error ahead of the close.
                    let _ = out
                        .lock()
                        .expect("session socket poisoned")
                        .shutdown(std::net::Shutdown::Write);
                    break;
                }
                frame.clear();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Partial data (if any) stays in `frame`; poll shutdown.
            }
            Err(_) => break,
        }
    }
}

fn handle_line(shared: &Arc<Shared>, out: &Arc<Mutex<TcpStream>>, line: &str) {
    if line.is_empty() {
        return;
    }
    let req = match wire::parse_request(line) {
        Ok(req) => req,
        Err(e) => {
            // Unparseable frames never reach admission; id 0 by protocol.
            respond_err(out, 0, &e);
            return;
        }
    };
    if let Err(e) = submit(shared, &req, out) {
        respond_err(out, req.id, &e);
    }
}

/// Admission: counts the submission, applies queue backpressure, wakes
/// a worker. The budget check happens in the worker, where the batch
/// snapshot (and therefore the estimate) lives.
fn submit(
    shared: &Arc<Shared>,
    req: &Request,
    out: &Arc<Mutex<TcpStream>>,
) -> Result<(), ServerError> {
    let registry = &shared.registry;
    registry.count(RegistryCounter::ServerRequests, 1);
    if shared.shutdown.load(Relaxed) {
        registry.count(RegistryCounter::ServerRejectedQueueFull, 1);
        return Err(ServerError::Shutdown);
    }
    let deadline_ms = req.deadline_ms.map(Duration::from_millis);
    let deadline = deadline_ms
        .or(shared.cfg.default_deadline)
        .map(|d| Instant::now() + d);
    let job = Job {
        id: req.id,
        src: req.query.clone(),
        deadline,
        truth: req.truth,
        out: Arc::clone(out),
    };
    {
        let mut queue = shared.queue.lock().expect("queue poisoned");
        if shared.outstanding.load(Relaxed) >= shared.cfg.queue_capacity as u64 {
            registry.count(RegistryCounter::ServerRejectedQueueFull, 1);
            return Err(ServerError::QueueFull {
                capacity: shared.cfg.queue_capacity,
            });
        }
        shared.outstanding.fetch_add(1, Relaxed);
        queue.push_back(job);
        registry.gauge(RegistryGauge::ServerQueueDepth, 1);
    }
    shared.queue_cv.notify_one();
    Ok(())
}

/// Worker: takes a batch off the queue, then admission-checks and runs
/// each of its jobs against the batch snapshot, writing every response
/// back on its session socket as soon as that job finishes.
fn worker_loop(shared: &Arc<Shared>) {
    while let Some((snapshot, batch)) = next_batch(shared) {
        for job in batch {
            match answer(shared, &snapshot, &job) {
                Ok(res) => respond_ok(&job.out, job.id, res),
                Err(e) => respond_err(&job.out, job.id, &e),
            }
            shared.outstanding.fetch_sub(1, Relaxed);
        }
    }
}

/// Shared-snapshot batching: waits for work and takes this worker's share
/// of the queue, `⌈queued / workers⌉` jobs, with the one snapshot they all
/// read. `None` once shutdown has begun and the queue is empty.
fn next_batch(shared: &Shared) -> Option<(Arc<Database>, Vec<Job>)> {
    let registry = &shared.registry;
    let gather = shared.cfg.batch_gather;
    let mut queue = shared.queue.lock().expect("queue poisoned");
    loop {
        while queue.is_empty() {
            if shared.shutdown.load(Relaxed) {
                return None;
            }
            let (q, _) = shared
                .queue_cv
                .wait_timeout(queue, Duration::from_millis(100))
                .expect("queue poisoned");
            queue = q;
        }
        if gather.is_zero() || shared.shutdown.load(Relaxed) {
            break;
        }
        // Gather window: release the lock and let more requests
        // accumulate (a plain sleep, deliberately deaf to the condvar) so
        // the snapshot and wakeups amortize over a larger batch under
        // load. Other workers may empty the queue meanwhile.
        drop(queue);
        std::thread::sleep(gather);
        queue = shared.queue.lock().expect("queue poisoned");
        if !queue.is_empty() {
            break;
        }
    }
    let take = queue.len().div_ceil(shared.cfg.workers.max(1));
    let batch: Vec<Job> = queue.drain(..take).collect();
    registry.gauge(RegistryGauge::ServerQueueDepth, -(take as i64));
    if !queue.is_empty() {
        // Hand the rest to a waiting worker.
        shared.queue_cv.notify_one();
    }
    drop(queue);
    registry.count(RegistryCounter::ServerBatches, 1);
    registry.count(RegistryCounter::ServerBatchQueries, take as u64);
    let snapshot = Arc::clone(&shared.db.read().expect("database lock poisoned"));
    Some((snapshot, batch))
}

/// One job: pre-execution admission — the cost model's total-pairs
/// estimate against the budget — then a run on its own deadline-aware
/// context. Estimation shares the prepared-plan cache with execution,
/// so an admitted query's preparation is never repeated.
fn answer(shared: &Shared, snapshot: &Database, job: &Job) -> Result<WireResult, ServerError> {
    let registry = &shared.registry;
    let budget = shared.cfg.budget_pairs;
    match snapshot.estimate(&job.src, QueryOpts::new()) {
        Ok(est_pairs) if est_pairs > budget => {
            registry.count(RegistryCounter::ServerRejectedOverBudget, 1);
            return Err(ServerError::OverBudget { est_pairs, budget });
        }
        est => {
            // A failed estimate is not a budget/queue rejection: the
            // request was admitted and failed.
            registry.count(RegistryCounter::ServerAdmitted, 1);
            est.map_err(ServerError::Query)?;
        }
    }
    let mut ctx = ExecContext::with_threads(shared.cfg.query_threads);
    if let Some(deadline) = job.deadline {
        ctx = ctx.cancellable(CancelToken::with_deadline(deadline));
    }
    let output = snapshot
        .run(&job.src, QueryOpts::new().ctx(&ctx))
        .map_err(|e| query_err(shared, e))?;
    let truth = job
        .truth
        .then(|| output.truth_in(&ctx))
        .transpose()
        .map_err(|e| query_err(shared, DbError::Query(e)))?;
    Ok(WireResult {
        cached: output.plan_cached,
        est_pairs: output.est_total_pairs,
        temporal_vars: output.result.temporal_vars,
        data_vars: output.result.data_vars,
        result: output.result.relation.to_string(),
        truth,
    })
}

/// Maps an engine failure to the service error, counting deadline
/// cancellations as typed timeouts.
fn query_err(shared: &Shared, e: DbError) -> ServerError {
    if matches!(e, DbError::Query(QueryError::Core(CoreError::Cancelled))) {
        shared.registry.count(RegistryCounter::ServerTimeouts, 1);
        ServerError::DeadlineExceeded
    } else {
        ServerError::Query(e)
    }
}

fn respond_ok(out: &Arc<Mutex<TcpStream>>, id: u64, res: WireResult) {
    write_line(
        out,
        &wire::render_response(&Response {
            id,
            payload: Ok(res),
        }),
    );
}

fn respond_err(out: &Arc<Mutex<TcpStream>>, id: u64, err: &ServerError) {
    write_line(
        out,
        &wire::render_response(&Response {
            id,
            payload: Err(wire::error_payload(err)),
        }),
    );
}

/// Writes one frame; the per-line lock keeps concurrent workers' frames
/// from interleaving on a pipelined session.
fn write_line(out: &Arc<Mutex<TcpStream>>, line: &str) {
    let mut bytes = Vec::with_capacity(line.len() + 1);
    bytes.extend_from_slice(line.as_bytes());
    bytes.push(b'\n');
    let mut stream = out.lock().expect("session socket poisoned");
    let _ = stream.write_all(&bytes);
}

/// Plain-HTTP/1.0 endpoint: `GET /metrics` (Prometheus text exposition
/// from the shared registry, plus the process-wide storage gauges) and
/// `GET /healthz`.
fn metrics_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    while !shared.shutdown.load(Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => serve_http(shared, stream),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
}

fn serve_http(shared: &Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut buf = [0u8; 1024];
    let mut request = Vec::new();
    // Read until the header terminator (HTTP/1.0: no body on GET).
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                request.extend_from_slice(&buf[..n]);
                if request.windows(4).any(|w| w == b"\r\n\r\n")
                    || request.windows(2).any(|w| w == b"\n\n")
                {
                    break;
                }
                if request.len() > 8192 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let request_line = String::from_utf8_lossy(&request);
    let path = request_line
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .unwrap_or("");
    let (status, content_type, body) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4",
            // The storage gauges are process-wide; this endpoint's scope is
            // the serving process.
            shared.registry.snapshot().to_prometheus() + &storage_stats().to_prometheus(),
        ),
        "/healthz" => ("200 OK", "text/plain", "ok\n".to_owned()),
        _ => ("404 Not Found", "text/plain", "not found\n".to_owned()),
    };
    let _ = write!(
        stream,
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
}
