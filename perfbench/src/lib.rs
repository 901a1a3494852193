//! The repository benchmark: three Morphase workloads driven through the
//! public API, with end-to-end metrics from untraced runs and per-layer
//! metrics from a separate traced run. See `RATIONALE.md` beside this crate.

pub mod replay;
pub mod report;
pub mod run;
pub mod stats;
pub mod suite;
pub mod trace;
