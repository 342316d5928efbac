//! # smtx-perfbench — the smtx benchmark
//!
//! One command runs a named workload for a fixed time and prints every
//! metric by name with its unit, then one JSON result line:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig5-window --seed 42 --seconds 30 --trace 0
//! ```
//!
//! Each repetition runs in a fresh process (so caches, result stores and
//! the resident-memory high-water mark start empty), builds a fresh
//! runner or fleet, and reports back one [`rep::RepOut`] line. The parent
//! checks the outputs, holds the deterministic counts and rows to exact
//! repetition, and reduces the repetitions to medians. Between
//! repetitions, batches of short-lived processes that only set up give
//! the cold `setup_s` samples. `--trace 1` adds a separate traced
//! repetition after each untraced one and reports the per-layer split
//! instead of the end-to-end metrics.

pub mod command;
pub mod figure;
pub mod fleet;
pub mod measure;
pub mod metrics;
pub mod rep;
pub mod span;
pub mod spec;
