//! # cpl
//!
//! A small complex-value query engine standing in for **CPL / Kleisli**, the
//! "database programming language for complex values developed at the
//! University of Pennsylvania" that Morphase compiles normal-form WOL programs
//! into (Section 5 of the paper). The real CPL is a closed research prototype;
//! this crate implements the fragment Morphase needs:
//!
//! * row expressions over complex values ([`expr::Expr`]): projection through
//!   object identities, record/variant construction, Skolem object creation,
//!   comparisons and boolean connectives;
//! * a physical algebra ([`plan::Plan`]): class scans, filters, binding maps,
//!   nested-loop, hash (single- or composite-key) and cross joins, and
//!   distinct;
//! * a single-pass executor ([`exec`]) that runs a plan against a set of
//!   source instances and applies *insert actions* to build the target
//!   instance, merging partial inserts by Skolem key;
//! * a cost-based join-graph planner ([`optimizer`]): decomposes a compiled
//!   plan into scans plus a conjunct pool and greedily re-joins the cheapest
//!   connected pair, fed by extent statistics and per-attribute equi-depth
//!   histograms over the live instances ([`optimizer::Statistics`],
//!   [`optimizer::CostModel`]) with ndv propagated through join outputs; the
//!   flat `1/ndv` model remains selectable as the differential baseline;
//! * execution statistics ([`exec::ExecStats`]) used by the benchmark harness.
//!
//! ## Threading model
//!
//! The executor runs morsel-style partitioned parallelism over a
//! **persistent worker pool** ([`wol_model::WorkerPool`]; long-lived
//! channel-fed workers, caller participation, panic propagation on join),
//! governed by a [`Parallelism`] knob (default: available cores, overridable
//! via the `WOL_THREADS` environment variable) threaded through
//! [`expr::EvalCtx`]. Because a pool dispatch round costs microseconds where
//! a `std::thread::scope` spawn round cost ~100µs, operators go parallel
//! from ~128 input rows instead of 1024. The contract:
//!
//! * **Shared immutably** — the source [`wol_model::Instance`]s. Extents,
//!   attribute indexes and histograms are read concurrently from every
//!   worker; the lazy index cache sits behind an `RwLock` inside `Instance`,
//!   and mutation requires `&mut`, so a parallel section can never observe a
//!   write.
//! * **Partitioned** — hash-join *build sides* and index-probed *driving
//!   rows* are sharded by key hash (a distinct key, its probe and its
//!   probe-cache entry belong to exactly one worker); scans+filters, maps and
//!   loop joins are split into contiguous input chunks.
//! * **Deterministic by construction** — partition results are reassembled
//!   in input order (chunk concatenation, or per-driving-row slots), and a
//!   key's build rows stay in build order within their shard. Skolem
//!   creation — whose identity numbering depends on first-call order — runs
//!   off the main thread only under the **two-phase key-claim protocol**
//!   ([`wol_model::SkolemClaims`]): workers record `(class, key)` claims and
//!   mint provisional identities, then a resolution pass on the owning
//!   thread replays the claims in input order against the shared factory
//!   and rewrites the outputs, so the final numbering equals the sequential
//!   run's exactly. The protocol covers `Map` bindings and the insert
//!   actions (where compiled programs put their Skolems — both restricted
//!   to *value position*, [`Expr::skolem_parallel_safe`]); Skolems anywhere
//!   else pin their operator to the sequential path. Insert actions always
//!   *apply* on the owning thread in row order. The output row stream, the
//!   target instance, and the merged [`ExecStats`] totals are therefore
//!   bit-identical at every thread count; this is enforced by the
//!   thread-matrix differential tests in `tests/properties.rs` (including
//!   the Skolem-insertion soak proptest) and the partition edge-case tests
//!   in [`exec`].

pub mod columnar;
pub mod error;
pub mod exec;
pub mod expr;
pub mod optimizer;
pub mod plan;

pub use error::CplError;
pub use exec::{
    apply_evaluated_query, evaluate_query, execute_query, run_plan, scan_order_trace,
    ColumnarStats, EvaluatedQuery, ExecStats, Row,
};
pub use expr::Expr;
pub use optimizer::{
    estimate_join_outputs, estimate_rows, optimize, optimize_with_pushdown, optimize_with_stats,
    CostModel, ExternalClassStats, JoinEstimate, PushCmp, PushdownCatalog, PushedPredicate,
    Statistics,
};
pub use plan::{InsertAction, Plan, Query};
pub use wol_model::{Parallelism, WorkerPool};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CplError>;
