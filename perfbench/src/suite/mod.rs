//! The three workloads, each run in its own process.

pub mod federated_load;
pub mod standing_service;
pub mod transform_genome;

/// Every workload the runner knows, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["transform_genome", "federated_load", "standing_service"];
