//! The query service: listener, sessions, shared-snapshot batching,
//! admission control, deadline-aware workers, and the metrics endpoint.
//!
//! # Architecture
//!
//! ```text
//! clients ──TCP──▶ session threads ──▶ bounded admission queue
//!                                          │ (reject-on-full)
//!                                          ▼
//!                                   dispatcher thread
//!                         drains the queue into ONE batch,
//!                         clones the shared Database ONCE
//!                         (O(1) Arc snapshot, shared registry)
//!                                          │
//!                          contiguous sub-batches, round-robin
//!                                          ▼
//!                                 bounded worker pool
//!                     estimate → admission check → run each →
//!                     per-response write-back to the session socket
//! ```
//!
//! Every query of a batch executes against the *same* immutable snapshot,
//! so heavy read traffic never contends with ingest: [`Server::apply`]
//! takes the write lock between batch snapshots, and a transaction
//! committed mid-batch is observed by the *next* batch, never half of the
//! current one. Admission control checks the optimizer's pre-execution
//! total-pairs estimate against [`ServerConfig::budget_pairs`]; deadlines
//! become a [`CancelToken`] in the per-query [`ExecContext`], checked at
//! chunk boundaries so a timed-out query stops burning its worker.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use itd_core::{storage_stats, CancelToken, CoreError, ExecContext, MetricsRegistry};
use itd_db::{Database, DbError, QueryOpts, QueryOutput, Txn, TxnSummary};
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
    /// even though the dispatcher drains the queue eagerly.
    pub queue_capacity: usize,
    /// Admission budget on the cost model's pre-execution total-pairs
    /// estimate; `f64::INFINITY` disables the check.
    pub budget_pairs: f64,
    /// Group-commit-style gather window: once work arrives, how long the
    /// dispatcher lets further requests accumulate before draining the
    /// batch. `Duration::ZERO` (the default) drains immediately —
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

/// A worker assignment: a contiguous sub-batch of jobs plus the shared
/// snapshot their batch resolved once.
struct SubBatch {
    snapshot: Arc<Database>,
    jobs: Vec<Job>,
}

struct Shared {
    db: RwLock<Database>,
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
    /// Binds the listeners, spawns the dispatcher, the worker pool, and
    /// (when configured) the metrics endpoint, and starts accepting
    /// connections.
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
            db: RwLock::new(db),
            registry,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            outstanding: AtomicU64::new(0),
            cfg,
            shutdown: AtomicBool::new(false),
        });

        let mut threads = Vec::new();
        // Rendezvous hand-off: a sub-batch transfers only when a worker is
        // ready for it, so when the pool saturates the dispatcher blocks,
        // the queue fills, and reject-on-full backpressure engages.
        let (tx, rx) = mpsc::sync_channel::<SubBatch>(0);
        let rx = Arc::new(Mutex::new(rx));
        for _ in 0..workers {
            let rx = Arc::clone(&rx);
            let shared2 = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || worker_loop(&shared2, &rx)));
        }
        {
            let shared2 = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || dispatcher_loop(&shared2, tx)));
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
    /// thread budget as a query ([`ServerConfig::query_threads`]). Takes
    /// the write lock, so it interleaves *between* batch snapshots: every
    /// in-flight batch keeps reading its own immutable snapshot, and the
    /// next batch observes the new state.
    ///
    /// # Errors
    /// [`ServerError::Query`] on validation failure (the batch then
    /// changed nothing).
    pub fn apply(&self, txn: Txn) -> Result<TxnSummary, ServerError> {
        let mut db = self.shared.db.write().expect("database lock poisoned");
        let ctx = ExecContext::with_threads(self.shared.cfg.query_threads);
        Ok(db.apply_with(txn, &ctx)?)
    }

    /// An O(1)-ish snapshot of the current shared database state — the
    /// same clone a batch resolves, for out-of-band comparison.
    pub fn snapshot(&self) -> Database {
        self.shared
            .db
            .read()
            .expect("database lock poisoned")
            .clone()
    }

    /// Stops accepting work, drains the threads, and returns once every
    /// session, worker, and listener has exited.
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Relaxed);
        self.shared.queue_cv.notify_all();
        for t in self.threads {
            let _ = t.join();
        }
        // Reject anything that was still queued when the dispatcher left.
        let mut queue = self.shared.queue.lock().expect("queue poisoned");
        for job in queue.drain(..) {
            self.shared.registry.server_rejected_queue_full();
            respond_err(&job.out, job.id, &ServerError::Shutdown);
            self.shared.outstanding.fetch_sub(1, Relaxed);
        }
        self.shared.registry.server_queue_depth_set(0);
    }
}

/// Accepts query connections until shutdown; each gets a session thread.
fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    let mut sessions = Vec::new();
    while !shared.shutdown.load(Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
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
    shared.registry.server_connection();
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
/// the dispatcher. The budget check happens in the worker, where the
/// batch snapshot (and therefore the estimate) lives.
fn submit(
    shared: &Arc<Shared>,
    req: &Request,
    out: &Arc<Mutex<TcpStream>>,
) -> Result<(), ServerError> {
    shared.registry.server_request();
    if shared.shutdown.load(Relaxed) {
        shared.registry.server_rejected_queue_full();
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
            shared.registry.server_rejected_queue_full();
            return Err(ServerError::QueueFull {
                capacity: shared.cfg.queue_capacity,
            });
        }
        shared.outstanding.fetch_add(1, Relaxed);
        queue.push_back(job);
        shared.registry.server_queue_depth_set(queue.len() as u64);
    }
    shared.queue_cv.notify_one();
    Ok(())
}

/// Shared-snapshot batching: drain every queued request into one batch,
/// resolve the catalog/plan-token/`Arc` relation snapshot ONCE (one
/// `Database::clone` under the read lock), and hand contiguous
/// sub-batches to the worker pool.
fn dispatcher_loop(shared: &Arc<Shared>, tx: mpsc::SyncSender<SubBatch>) {
    loop {
        let batch: Vec<Job> = {
            let mut queue = shared.queue.lock().expect("queue poisoned");
            while queue.is_empty() && !shared.shutdown.load(Relaxed) {
                let (q, _) = shared
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(100))
                    .expect("queue poisoned");
                queue = q;
            }
            if queue.is_empty() && shared.shutdown.load(Relaxed) {
                return; // dropping `tx` stops the workers
            }
            // Gather window: release the lock and let more requests
            // accumulate (a plain sleep, deliberately deaf to the
            // condvar) so the snapshot and wakeups amortize over a
            // larger batch under load.
            if !shared.cfg.batch_gather.is_zero() && !shared.shutdown.load(Relaxed) {
                drop(queue);
                std::thread::sleep(shared.cfg.batch_gather);
                queue = shared.queue.lock().expect("queue poisoned");
            }
            let drained = queue.drain(..).collect();
            shared.registry.server_queue_depth_set(0);
            drained
        };
        shared.registry.observe_server_batch(batch.len() as u64);
        let snapshot = Arc::new(shared.db.read().expect("database lock poisoned").clone());
        let per_worker = batch.len().div_ceil(shared.cfg.workers.max(1));
        let mut jobs = batch.into_iter();
        loop {
            let sub: Vec<Job> = jobs.by_ref().take(per_worker).collect();
            if sub.is_empty() {
                break;
            }
            if tx
                .send(SubBatch {
                    snapshot: Arc::clone(&snapshot),
                    jobs: sub,
                })
                .is_err()
            {
                return;
            }
        }
    }
}

/// Worker: admission-check each job of the sub-batch against the shared
/// snapshot, execute the admitted ones through the batched entry point,
/// and write every response back on its session socket.
fn worker_loop(shared: &Arc<Shared>, rx: &Mutex<mpsc::Receiver<SubBatch>>) {
    loop {
        let sub = {
            let rx = rx.lock().expect("worker channel poisoned");
            match rx.recv() {
                Ok(sub) => sub,
                Err(_) => return, // dispatcher gone: shutdown
            }
        };
        run_sub_batch(shared, &sub.snapshot, sub.jobs);
    }
}

fn run_sub_batch(shared: &Arc<Shared>, snapshot: &Database, jobs: Vec<Job>) {
    let registry = &shared.registry;
    let budget = shared.cfg.budget_pairs;
    // Pre-execution admission: the cost model's total-pairs estimate
    // against the budget. Estimation shares the prepared-plan cache with
    // execution, so an admitted query's preparation is never repeated.
    let mut admitted: Vec<Job> = Vec::with_capacity(jobs.len());
    for job in jobs {
        match snapshot.estimate(&job.src, QueryOpts::new()) {
            Err(e) => {
                // Not a budget/queue rejection: it was admitted and failed.
                registry.server_admitted();
                respond_err(&job.out, job.id, &ServerError::Query(e));
                shared.outstanding.fetch_sub(1, Relaxed);
            }
            Ok(est) if est > budget => {
                registry.server_rejected_over_budget();
                respond_err(
                    &job.out,
                    job.id,
                    &ServerError::OverBudget {
                        est_pairs: est,
                        budget,
                    },
                );
                shared.outstanding.fetch_sub(1, Relaxed);
            }
            Ok(_) => {
                registry.server_admitted();
                admitted.push(job);
            }
        }
    }
    if admitted.is_empty() {
        return;
    }
    // Run the whole sub-batch in order, each query on its own
    // deadline-aware context, then answer.
    let runs: Vec<(ExecContext, itd_db::Result<QueryOutput>)> = admitted
        .iter()
        .map(|job| {
            let mut ctx = ExecContext::with_threads(shared.cfg.query_threads);
            if let Some(deadline) = job.deadline {
                ctx = ctx.cancellable(CancelToken::with_deadline(deadline));
            }
            let result = snapshot.run(&job.src, QueryOpts::new().ctx(&ctx));
            (ctx, result)
        })
        .collect();
    for (job, (ctx, result)) in admitted.iter().zip(runs) {
        match result {
            Ok(output) => {
                let truth = if job.truth {
                    match output.truth_in(&ctx) {
                        Ok(t) => Some(t),
                        Err(e) => {
                            respond_err(&job.out, job.id, &query_err(shared, DbError::Query(e)));
                            shared.outstanding.fetch_sub(1, Relaxed);
                            continue;
                        }
                    }
                } else {
                    None
                };
                let res = WireResult {
                    cached: output.plan_cached,
                    est_pairs: output.est_total_pairs,
                    temporal_vars: output.result.temporal_vars.clone(),
                    data_vars: output.result.data_vars.clone(),
                    result: output.result.relation.to_string(),
                    truth,
                };
                respond_ok(&job.out, job.id, res);
                shared.outstanding.fetch_sub(1, Relaxed);
            }
            Err(e) => {
                respond_err(&job.out, job.id, &query_err(shared, e));
                shared.outstanding.fetch_sub(1, Relaxed);
            }
        }
    }
}

/// Maps an engine failure to the service error, counting deadline
/// cancellations as typed timeouts.
fn query_err(shared: &Arc<Shared>, e: DbError) -> ServerError {
    if matches!(e, DbError::Query(QueryError::Core(CoreError::Cancelled))) {
        shared.registry.server_timeout();
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
