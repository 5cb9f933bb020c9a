//! `dcn-benchmark`: the repository's end-to-end and per-layer benchmark.
//!
//! Four workloads drawn from the paper's evaluation run in a closed loop
//! from one client thread; each op is issued only after the previous one
//! returns. See `README.md` beside this crate for the workloads, metrics
//! and how to read a trace.

pub mod golden;
pub mod metrics;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workloads;
