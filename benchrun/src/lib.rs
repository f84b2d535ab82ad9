//! `benchrun`: the repo's benchmark.  Four workloads over the PASCAL/R
//! engine, each run in a process of its own; end-to-end metrics from an
//! untraced run and per-layer metrics from a separate traced run.  See
//! `README.md` beside this package and `BENCHMARK.json` at the repo root.

#![forbid(unsafe_code)]

pub mod adhoc;
pub mod cli;
pub mod compare;
pub mod counting_fs;
pub mod json;
pub mod probes;
pub mod report;
pub mod rng;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
