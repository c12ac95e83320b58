//! `spine` — the repository's speed benchmark.
//!
//! Six closed-loop workloads drive the system through the public
//! functions of its six crates (`mseed`, `repo`, `store`, `query`, `core`,
//! `server` — the layer names), every answer is checked against an
//! oracle, and each workload reports the same end-to-end metrics. See
//! `README.md` beside this package for the tables and how to read them.
//!
//! The library holds what the end-to-end driver (`spine`) and the traced
//! driver (`spine-trace`) share; the layer probes are part of
//! `spine-trace` only.

#![warn(missing_docs)]

pub mod metrics;
pub mod oracle;
pub mod proc;
pub mod rng;
pub mod round;
pub mod scales;
pub mod stats;
pub mod trace;
pub mod workloads;
