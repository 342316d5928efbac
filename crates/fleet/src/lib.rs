//! # smtx-fleet — sharded multi-node simulation service
//!
//! A fleet is N independent `smtxd` nodes fronted by one `smtx-coord`
//! coordinator speaking the **same HTTP API** as a single node — clients
//! and tooling work against either, unchanged. The coordinator is the
//! node's own job service with a [`Remote`] executor, which adds what a
//! lone node cannot have: digest-sharded placement (the same spec always
//! lands on the same node and reuses its runner caches), work stealing
//! away from deep queues, a fleet-wide content-addressed result store
//! (the job table's finished records; cross-node cache hits are
//! first-class metrics), and redispatch of in-flight jobs when a node
//! dies. Results stay **byte-identical** to
//! a lone node's and to the figure binaries' `--json` output — the
//! simulator is deterministic, so where a job runs can never change what
//! it answers.
//!
//! `smtx-loadgen` closes the loop: a closed/open-loop load generator that
//! drives either surface and gates on p50/p99 latency budgets using the
//! same histogram schema the daemons expose (`queue_wait_ms`/`exec_ms`).
//!
//! DESIGN.md §15 documents the shard map, the steal protocol, result-store
//! coherence, and the failure model; `tests/fleet_loopback.rs` (workspace
//! root) holds the identity, steal, cross-node-hit and kill-a-node
//! guarantees.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coord;

pub use coord::{home_of, start, CoordConfig, CoordHandle, Remote};
