//! # rafda-benchmark
//!
//! The repo benchmark: six long, round-based workloads driven through the
//! public `rafda` API (closed loop, one client, one thread, all traffic on
//! the simulated network), exact-count and host-time end-to-end metrics,
//! and an outside-in layer trace. See `README.md` beside this crate for
//! the commands, the workloads and how to read the numbers.

#![warn(missing_docs)]

pub mod calibrate;
pub mod cli;
pub mod driver;
pub mod host;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod stats;
pub mod trace;
pub mod workloads;
