//! # smtx-serve — the simulation service
//!
//! `smtxd` turns the experiment harness into a long-lived daemon: clients
//! POST job specs over HTTP/1.1 and poll for results, and every job from
//! every client executes on **one** shared [`smtx_bench::Runner`] — the
//! result cache, reference cache and fast-forward checkpoint cache are
//! shared across the daemon's lifetime, so overlapping requests pay for
//! each unique simulation point exactly once (jobs are deduplicated by
//! `RunKey {kernel, seed, insts, config-digest}` inside the runner, and by
//! spec digest at the queue).
//!
//! Results are **byte-identical** to the figure binaries: an `experiment`
//! job runs the same `smtx_bench::figures` body the binary's `main` calls,
//! and the result payload is the same `Report::to_json` serialization the
//! binary writes via `--json`. DESIGN.md §10 documents the architecture;
//! `tests/serve_loopback.rs` (workspace root) and the `serve-smoke` CI job
//! hold the identity and shutdown guarantees.
//!
//! The job table, router and batch stream are shared with the fleet
//! coordinator: a [`Service`] runs jobs through an [`Executor`], which is
//! [`Local`] here and `smtx_fleet::coord::Remote` in `smtx-coord`.
//!
//! The implementation is std-only (nonblocking TcpListener + a
//! readiness-polling reactor, hand-rolled HTTP/JSON) because the workspace
//! builds offline. One reactor thread multiplexes every connection
//! ([`eventloop`]); the worker pool is the only per-job concurrency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eventloop;
pub mod http;
pub mod json;
pub mod metrics;
pub mod server;
pub mod service;

pub use json::Json;
pub use metrics::Metrics;
pub use server::{start, Handle};
pub use service::{Exec, Executor, JobSpec, JobState, Local, Service, ServiceConfig, Submit};
