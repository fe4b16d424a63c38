//! End-to-end and per-layer benchmark of the swact estimator: three
//! seeded workloads, correctness-gated timings, and a traced run that
//! splits time by layer. See `README.md` in this directory.

pub mod check;
pub mod inputs;
pub mod layers;
pub mod probe;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

/// Workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["cold_corpus", "random_scenarios", "input_sweep"];
