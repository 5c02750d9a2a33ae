//! Concurrent query service over one shared temporal [`Database`]: the
//! "heavy traffic" half of the paper's motivation (§1 imagines millions
//! of users querying an infinite temporal database).
//!
//! The service is a hand-rolled `std::net::TcpListener` front end — the
//! build is fully offline, so there is no tonic/axum; frames are
//! newline-delimited JSON mirroring the engine's `\stats json`
//! conventions (see [`wire`]) — with three engine-level performance
//! mechanisms behind it:
//!
//! * **shared-snapshot batching** — concurrently arriving queries are
//!   drained into a batch whose catalog/plan-token/`Arc` relation
//!   snapshot is resolved once ([`Database`] clones are O(1)-ish `Arc`
//!   snapshots); every query of the batch reads the same immutable state
//!   while [`Server::apply`] transactions interleave *between* batches;
//! * **cost-based admission control** — the optimizer's closed-form
//!   total-pairs estimate (the paper's Table 2 operation counts, computed
//!   by the PR 4 cost model *before* execution) is checked against a
//!   configurable budget; over-budget queries are rejected with a typed
//!   error carrying the estimate, and a bounded queue applies
//!   reject-on-full backpressure;
//! * **deadline-aware execution** — per-request deadlines become a
//!   [`CancelToken`](itd_core::CancelToken) in the query's
//!   `ExecContext`, polled at the chunk boundaries of the parallel
//!   executor, so a timed-out query stops burning its worker without
//!   poisoning any cache (plans are logical; outcome memos are
//!   always-correct; metrics observe completed queries only).
//!
//! A second plain-HTTP/1.0 listener serves `GET /metrics` (the registry's
//! Prometheus text, plus the process-wide storage gauges) and
//! `GET /healthz`.
//!
//! [`Database`]: itd_db::Database

mod client;
mod error;
mod server;
pub mod wire;

pub use client::Client;
pub use error::ServerError;
pub use server::{Server, ServerConfig};

/// Result alias for service operations.
pub type Result<T> = std::result::Result<T, ServerError>;
