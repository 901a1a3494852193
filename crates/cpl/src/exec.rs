//! Single-pass execution of plans and queries.
//!
//! Normal-form WOL clauses compile to [`Query`] values; executing all of a
//! program's queries makes exactly one pass over the source databases
//! (Section 5: "A transformation program in which all the transformation
//! clauses are in normal form can easily be implemented in a single pass").
//!
//! ## Parallel execution
//!
//! Operators over enough input rows run morsel-style over
//! [`std::thread::scope`] workers, governed by the context's
//! [`wol_model::Parallelism`] knob ([`EvalCtx::set_parallelism`]):
//!
//! * **scan+filter** partitions the class extent into contiguous chunks;
//! * **map**, **nested-loop** and **cross joins** partition the (left) input
//!   rows into contiguous chunks;
//! * **hash joins** partition the *build side by key hash* into per-worker
//!   shards and probe in parallel; on the index fast path the *driving* rows
//!   are sharded by key hash, so each distinct key — and its probe-side
//!   cache entry — is owned by exactly one worker.
//!
//! Parallelism never changes results, only wall-clock: chunks are merged in
//! input order, a key's matches live wholly in one shard in build order, and
//! expressions that create Skolem identities (whose numbering depends on
//! first-call order) pin their operator to the sequential path. The output
//! row stream — and therefore the target instance built from it — is
//! bit-identical at every thread count, and the merged [`ExecStats`] equal
//! the sequential run's totals (per-worker breakdowns are additionally kept
//! as [`EvalCtx::shard_stats`]).

use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::ops::Range;

use wol_model::{chunk_ranges, rewrite_resolved, Instance, Oid, SkolemClaims, Value};

use crate::error::CplError;
use crate::expr::{eval, eval_predicate, EvalCtx, Expr};
use crate::plan::{Plan, Query};
use crate::Result;

pub use crate::expr::Row;

/// Statistics collected while executing plans; reported by the Morphase
/// pipeline and the benchmark harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows produced by scans.
    pub rows_scanned: usize,
    /// Rows produced by all operators together.
    pub rows_produced: usize,
    /// Rows emitted by the top of each query plan.
    pub rows_output: usize,
    /// Objects inserted or merged into the target.
    pub objects_written: usize,
    /// Attribute-index probes that replaced hash-join build sides.
    pub index_probes: usize,
    /// Probe-side cache hits: driving rows whose composite key was already
    /// probed, answered without touching the attribute index again. Skewed
    /// workloads repeat the same hot keys constantly, so this is where the
    /// zipfian head stops costing per-row work.
    pub probe_cache_hits: usize,
    /// Peak number of rows materialised by any single operator — the memory
    /// high-water mark that exposes accidental cross products.
    pub max_intermediate_rows: usize,
    /// Scans executed under a delta restriction
    /// ([`EvalCtx::restrict_scan`]): how much of the work was answered from
    /// changed-identity sets instead of full extents.
    pub restricted_scans: usize,
    /// Filter conjuncts the planner pushed into backend scan providers
    /// instead of evaluating in the executor (federated pipelines only).
    pub pushed_filters: usize,
    /// Rows the scan providers read from their backends before applying
    /// pushed filters.
    pub provider_rows_in: usize,
    /// Rows the scan providers actually streamed into the source instances
    /// after pushed filters; `provider_rows_in - provider_rows_out` is the
    /// work the executor never saw.
    pub provider_rows_out: usize,
}

impl ExecStats {
    /// Accumulate another stats value into this one.
    pub fn absorb(&mut self, other: ExecStats) {
        self.rows_scanned += other.rows_scanned;
        self.rows_produced += other.rows_produced;
        self.rows_output += other.rows_output;
        self.objects_written += other.objects_written;
        self.index_probes += other.index_probes;
        self.probe_cache_hits += other.probe_cache_hits;
        self.max_intermediate_rows = self.max_intermediate_rows.max(other.max_intermediate_rows);
        self.restricted_scans += other.restricted_scans;
        self.pushed_filters += other.pushed_filters;
        self.provider_rows_in += other.provider_rows_in;
        self.provider_rows_out += other.provider_rows_out;
    }

    pub(crate) fn record_operator_output(&mut self, rows: usize) {
        self.rows_produced += rows;
        self.max_intermediate_rows = self.max_intermediate_rows.max(rows);
    }

    /// Merge a parallel worker's probe counters. Row accounting is *not*
    /// merged here: the owning operator records its merged output once,
    /// exactly like its sequential counterpart, so parallel and sequential
    /// totals stay equal by construction.
    fn absorb_probe_counters(&mut self, other: &ExecStats) {
        self.index_probes += other.index_probes;
        self.probe_cache_hits += other.probe_cache_hits;
    }
}

/// Telemetry of the columnar executor ([`crate::columnar`]). Kept separate
/// from [`ExecStats`] on purpose: the columnar/row differential contract is
/// *equal* `ExecStats` for both paths, so which path ran must not leak into
/// them. Reported by the Morphase pipeline alongside the exec stats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ColumnarStats {
    /// Scan→filter→project towers answered by the columnar executor.
    pub pipelines: usize,
    /// Rows those pipelines scanned batch-at-a-time.
    pub batch_rows: usize,
    /// Column chunks the pipelines read.
    pub chunks: usize,
}

impl ColumnarStats {
    /// Accumulate another telemetry value into this one.
    pub fn absorb(&mut self, other: &ColumnarStats) {
        self.pipelines += other.pipelines;
        self.batch_rows += other.batch_rows;
        self.chunks += other.chunks;
    }

    /// True if no columnar pipeline ran.
    pub fn is_empty(&self) -> bool {
        self.pipelines == 0
    }
}

// ---------------------------------------------------------------------------
// Parallel scaffolding: partition, spawn, merge in input order.
// ---------------------------------------------------------------------------

/// Decide whether an operator over `rows` input items may run in parallel,
/// given the expressions its workers would evaluate. Returns the worker count
/// (>= 2) or `None` for the sequential path.
///
/// Skolem creation mutates the shared factory, whose identity numbering
/// depends on first-call order, so a Skolem-bearing expression is only
/// admitted when the operator supports the two-phase key-claim protocol
/// (`claims_ok` — [`Plan::Map`] and the insert actions) *and* every Skolem
/// sits in value position ([`Expr::skolem_parallel_safe`]); otherwise the
/// operator pins itself to the sequential path.
pub(crate) fn parallel_workers<'e>(
    ctx: &EvalCtx<'_>,
    rows: usize,
    claims_ok: bool,
    exprs: impl IntoIterator<Item = &'e Expr>,
) -> Option<usize> {
    let threads = ctx.parallelism().threads();
    if threads <= 1 || rows < 2 || rows < ctx.parallel_min_rows() {
        return None;
    }
    for expr in exprs {
        if expr.contains_skolem() && !(claims_ok && expr.skolem_parallel_safe()) {
            return None;
        }
    }
    Some(threads.min(rows))
}

/// Dispatch one job per partition to the context's persistent
/// [`wol_model::WorkerPool`], each with a fresh *sequential* context over the
/// same shared sources and its own [`ExecStats`], and collect each
/// partition's result in partition order. With `with_claims`, each worker
/// context carries a [`SkolemClaims`] arena (the claim phase of the
/// two-phase protocol) and the arenas come back partition-ordered for the
/// caller to resolve; without it, workers cannot touch the Skolem factory at
/// all, which [`parallel_workers`] already guaranteed is never needed.
///
/// The workers' probe counters are merged into `stats` (row accounting stays
/// with the calling operator) and the full per-worker stats are accumulated
/// into the context's per-shard breakdown. The error of the *earliest*
/// partition propagates — the same error a sequential left-to-right run
/// would have hit first.
#[allow(clippy::type_complexity)]
pub(crate) fn run_partitioned<T, A, F>(
    ctx: &mut EvalCtx<'_>,
    stats: &mut ExecStats,
    partitions: Vec<A>,
    with_claims: bool,
    work: F,
) -> Result<(Vec<T>, Vec<Option<SkolemClaims>>)>
where
    T: Send,
    A: Send,
    F: Fn(A, &mut EvalCtx<'_>, &mut ExecStats) -> Result<T> + Sync,
{
    let pool = ctx.pool();
    let sources = ctx.sources().to_vec();
    let sources = &sources;
    let restrictions = ctx.scan_restrictions_map().clone();
    let restrictions = &restrictions;
    let work = &work;
    let jobs: Vec<wol_model::Job<'_, (ExecStats, Option<SkolemClaims>, Result<T>)>> = partitions
        .into_iter()
        .map(|partition| {
            Box::new(move || {
                let claims = with_claims.then(SkolemClaims::new);
                let mut worker_ctx = EvalCtx::worker(sources, claims);
                worker_ctx.set_scan_restrictions(restrictions.clone());
                let mut worker_stats = ExecStats::default();
                let result = work(partition, &mut worker_ctx, &mut worker_stats);
                (worker_stats, worker_ctx.take_claims(), result)
            }) as wol_model::Job<'_, _>
        })
        .collect();
    let outcomes = pool.scope(jobs);
    let worker_stats: Vec<ExecStats> = outcomes.iter().map(|(ws, _, _)| *ws).collect();
    ctx.absorb_shard_stats(&worker_stats);
    for ws in &worker_stats {
        stats.absorb_probe_counters(ws);
    }
    let mut arenas = Vec::with_capacity(outcomes.len());
    let mut results = Vec::with_capacity(outcomes.len());
    for (_, claims, result) in outcomes {
        arenas.push(claims);
        results.push(result);
    }
    let results: Result<Vec<T>> = results.into_iter().collect();
    Ok((results?, arenas))
}

/// Run `work` over contiguous chunks of `0..n` on `workers` pool workers
/// and concatenate the chunk results in input order. Claim-free: the callers
/// of this helper never evaluate Skolem-bearing expressions.
fn run_chunked<T, F>(
    ctx: &mut EvalCtx<'_>,
    stats: &mut ExecStats,
    n: usize,
    workers: usize,
    work: F,
) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(Range<usize>, &mut EvalCtx<'_>, &mut ExecStats) -> Result<Vec<T>> + Sync,
{
    let (chunks, _) = run_partitioned(ctx, stats, chunk_ranges(n, workers), false, work)?;
    Ok(chunks.into_iter().flatten().collect())
}

/// Whether a `Map`'s bindings, evaluated in order against one claim arena,
/// keep every provisional identity in value position — including identities
/// laundered through an *earlier binding of the same Map* (a later binding
/// inspecting `Var(t)` where `t` was bound to a Skolem-bearing expression
/// would observe the provisional, not the memoised real identity a
/// sequential run sees). Input rows are already resolved by the upstream
/// operator's resolution barrier, so only the Map's own bindings can taint
/// — the taint set starts empty.
fn map_bindings_claim_safe(bindings: &[(String, Expr)]) -> bool {
    crate::expr::bindings_claim_safe(bindings, &mut std::collections::BTreeSet::new())
}

/// Resolve the claim arenas a partitioned operator brought back (partition
/// order = input order) and rewrite every provisional identity in `rows` to
/// its final one. After this, no provisional identity survives in the
/// operator's output — downstream operators and the target only ever see the
/// identities a sequential run would have produced.
fn resolve_rows(rows: &mut [Row], arenas: Vec<Option<SkolemClaims>>, ctx: &mut EvalCtx<'_>) {
    let arenas: Vec<SkolemClaims> = arenas.into_iter().flatten().collect();
    if arenas.is_empty() {
        return;
    }
    let resolved = ctx.resolve_claim_arenas(&arenas);
    if resolved.is_empty() {
        return;
    }
    for row in rows.iter_mut() {
        for value in row.values_mut() {
            if value.contains_oid() {
                *value = rewrite_resolved(value, &resolved);
            }
        }
    }
}

/// Hash of a composite key tuple, used to assign build rows and driving rows
/// to shards. [`std::collections::hash_map::DefaultHasher`] is deterministic
/// across processes, so shard assignment — and everything derived from it,
/// like per-shard statistics — is reproducible.
fn key_tuple_hash(values: &[Value]) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    values.hash(&mut hasher);
    hasher.finish()
}

/// Evaluate one side's key tuples for every row, in parallel chunks when
/// worth it. `None` entries are rows whose keys hit a missing optional
/// attribute — unjoinable, exactly as the sequential paths treat them.
fn eval_key_tuples(
    rows: &[Row],
    keys: &[&Expr],
    workers: usize,
    ctx: &mut EvalCtx<'_>,
    stats: &mut ExecStats,
) -> Result<Vec<Option<Vec<Value>>>> {
    if rows.len() < 2 * workers {
        return rows.iter().map(|row| eval_keys(keys, row, ctx)).collect();
    }
    run_chunked(ctx, stats, rows.len(), workers, |range, wctx, _ws| {
        rows[range]
            .iter()
            .map(|row| eval_keys(keys, row, wctx))
            .collect()
    })
}

/// One executed join operator's actual output row count, recorded (in
/// post-order) when the context's join trace is enabled
/// ([`EvalCtx::enable_join_trace`]). Reports pair these with the planner's
/// [`crate::optimizer::estimate_join_outputs`] estimates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JoinActual {
    /// Operator kind (`HashJoin`, `NestedLoopJoin`, `CrossJoin`).
    pub kind: &'static str,
    /// Rows the join actually produced.
    pub rows: usize,
}

/// A hash-join side answerable through the instances' attribute indexes
/// ([`wol_model::index`]): a bare class scan with at least one key expression
/// that is a single attribute projection off the scanned variable.
pub(crate) struct IndexableSide {
    class: wol_model::ClassName,
    var: String,
    /// Attribute the index is probed on.
    attr: String,
    /// Which key pair the probe answers; the remaining pairs are verified
    /// against each candidate object.
    key_index: usize,
}

/// Detect an indexable side. `keys` yields this side's key expression from
/// each `(left, right)` pair. Shared with the planner
/// ([`crate::optimizer`]), which orients hash-join sides precisely so this
/// fast path fires — the two must never diverge. (The planner only asks
/// *whether* a side is indexable; which key the executor actually probes on
/// is chosen per run by [`best_indexable_side`].)
pub(crate) fn indexable_side<'p>(
    plan: &Plan,
    keys: impl Iterator<Item = &'p Expr>,
) -> Option<IndexableSide> {
    let Plan::Scan { class, var } = plan else {
        return None;
    };
    for (key_index, key) in keys.enumerate() {
        if let Expr::Proj(base, attr) = key {
            if matches!(base.as_ref(), Expr::Var(v) if v == var) {
                return Some(IndexableSide {
                    class: class.clone(),
                    var: var.clone(),
                    attr: attr.clone(),
                    key_index,
                });
            }
        }
    }
    None
}

/// Among a composite key's probe-able attributes, pick the one whose index
/// yields the smallest *expected* candidate list, estimated from the
/// attribute's own histogram as `Σ_v count(v)² / entries` — the mean bucket
/// length weighted by how often each value is probed. On skewed data this is
/// the difference between probing a zipfian attribute (hot keys return huge
/// candidate lists, over and over) and probing a uniform one; plain ndv
/// cannot see it. Histograms are only consulted when there is a genuine
/// choice (two or more probe-able keys) — the common single-key join keeps
/// the old O(1) detection.
fn best_indexable_side(
    plan: &Plan,
    keys: &[&Expr],
    sources: &[&Instance],
) -> Option<IndexableSide> {
    let Plan::Scan { class, var } = plan else {
        return None;
    };
    let candidates: Vec<(usize, &String)> = keys
        .iter()
        .enumerate()
        .filter_map(|(key_index, key)| match key {
            Expr::Proj(base, attr) if matches!(base.as_ref(), Expr::Var(v) if v == var) => {
                Some((key_index, attr))
            }
            _ => None,
        })
        .collect();
    if candidates.len() <= 1 {
        return candidates
            .into_iter()
            .next()
            .map(|(key_index, attr)| IndexableSide {
                class: class.clone(),
                var: var.clone(),
                attr: attr.clone(),
                key_index,
            });
    }
    let mut best: Option<(f64, IndexableSide)> = None;
    for (key_index, attr) in candidates {
        let mut self_join_rows = 0.0;
        let mut entries = 0.0;
        for source in sources {
            let histogram = source.attr_histogram(class, attr);
            self_join_rows += histogram.eq_join_rows(&histogram);
            entries += histogram.entries() as f64;
        }
        let expected = if entries > 0.0 {
            self_join_rows / entries
        } else {
            f64::INFINITY
        };
        if best.as_ref().is_none_or(|(cost, _)| expected < *cost) {
            best = Some((
                expected,
                IndexableSide {
                    class: class.clone(),
                    var: var.clone(),
                    attr: attr.clone(),
                    key_index,
                },
            ));
        }
    }
    best.map(|(_, side)| side)
}

/// The number of identities a plan side's underlying scan can emit under
/// the active restrictions: the restriction set's size if the scan is
/// pinned, the class's full extent size otherwise. Filters and maps only
/// shrink the row count, so this is an upper bound on the side's driving
/// cost — enough to orient a delta join so the Δ-pinned slot drives.
/// `None` when the side bottoms out in anything but a scan.
fn scan_cardinality(plan: &Plan, ctx: &EvalCtx<'_>) -> Option<usize> {
    match plan {
        Plan::Scan { class, var } => Some(match ctx.scan_restriction(var) {
            Some(keep) => keep.len(),
            None => ctx
                .sources()
                .iter()
                .map(|source| source.extent_size(class))
                .sum(),
        }),
        Plan::Filter { input, .. } | Plan::Map { input, .. } => scan_cardinality(input, ctx),
        _ => None,
    }
}

/// Describe the output order of a plan as a sequence of scan variables, or
/// `None` if no such description exists.
///
/// When this returns `Some(vars)`, a fresh (unrestricted) [`run_plan`] emits
/// rows in the lexicographic order of the tuple `(row[vars[0]], row[vars[1]],
/// …)` of object identities, and that tuple is unique per output row. The
/// incremental maintainer leans on both facts: the tuple is a stable row key
/// (source identities are never reused), and a `BTreeMap` over those keys
/// replays rows in exactly the order a from-scratch run would produce them.
///
/// The rules mirror the operator implementations in this module:
///
/// * `Scan` emits its extent in ascending identity order → `[var]`.
/// * `Filter` and `Map` preserve input order (dropping rows keeps relative
///   order, so lexicographic order over the surviving keys still holds).
/// * `NestedLoopJoin` and `CrossJoin` emit `lex(left, right)`.
/// * `HashJoin` emits `lex(probe side, build side)`: the generic path probes
///   with `right` against a build over `left`, while the index fast path
///   drives from the non-indexed side with matches in ascending extent order.
///   For unrestricted runs — the only ones this contract covers — the branch
///   is statically determined by [`indexable_side`] (statistics only pick
///   *which attribute* to probe, never whether; delta restrictions may flip
///   the driving side, but restricted emission order is not part of the
///   contract), so the order is knowable without row counts.
/// * `Distinct` keeps first occurrences, which depends on value equality
///   rather than identity tuples → untraceable.
pub fn scan_order_trace(plan: &Plan) -> Option<Vec<String>> {
    fn trace(plan: &Plan, out: &mut Vec<String>) -> bool {
        match plan {
            Plan::Scan { var, .. } => {
                out.push(var.clone());
                true
            }
            Plan::Filter { input, .. } | Plan::Map { input, .. } => trace(input, out),
            Plan::Distinct { .. } => false,
            Plan::NestedLoopJoin { left, right, .. } | Plan::CrossJoin { left, right } => {
                trace(left, out) && trace(right, out)
            }
            Plan::HashJoin { left, right, keys } => {
                let left_keys: Vec<&Expr> = keys.iter().map(|(l, _)| l).collect();
                let right_keys: Vec<&Expr> = keys.iter().map(|(_, r)| r).collect();
                if indexable_side(left, left_keys.iter().copied()).is_none()
                    && indexable_side(right, right_keys.iter().copied()).is_some()
                {
                    // Fast path probes the right index driving from `left`:
                    // left varies slowest.
                    trace(left, out) && trace(right, out)
                } else {
                    // Fast path over a left index and the generic path both
                    // probe with `right`: right varies slowest.
                    trace(right, out) && trace(left, out)
                }
            }
        }
    }
    let mut out = Vec::new();
    trace(plan, &mut out).then_some(out)
}

/// The hash-join index fast path: drive the join from `driving`'s rows,
/// answer key pair `side.key_index` by probing the indexable scan side
/// through the source instances' attribute indexes, and verify any remaining
/// key pairs against each candidate.
///
/// Repeated composite keys — the common case on skewed data, where a few hot
/// values dominate the driving side — are answered from a probe-side cache:
/// the verified identity list for a key tuple is computed once and replayed
/// for every later driving row carrying the same tuple
/// ([`ExecStats::probe_cache_hits`]).
fn probe_join(
    driving: &Plan,
    driving_keys: &[&Expr],
    scan_keys: &[&Expr],
    side: &IndexableSide,
    ctx: &mut EvalCtx<'_>,
    stats: &mut ExecStats,
) -> Result<Vec<Row>> {
    let driving_rows = run_plan(driving, ctx, stats)?;
    let gate = driving_keys.iter().chain(scan_keys.iter()).copied();
    if let Some(workers) = parallel_workers(ctx, driving_rows.len(), false, gate) {
        return par_probe_join(
            &driving_rows,
            driving_keys,
            scan_keys,
            side,
            workers,
            ctx,
            stats,
        );
    }
    let sources = ctx.sources().to_vec();
    // The cache is sound only when every scan-side key expression ranges
    // over the scanned variable alone — then the verified identity list is a
    // function of the key tuple. The planner only emits such keys, but the
    // join shape is public API, so the executor re-checks.
    let cacheable = scan_keys
        .iter()
        .all(|k| k.var_set().iter().all(|v| v == &side.var));
    let mut cache: HashMap<Vec<Value>, Vec<Oid>> = HashMap::new();
    let mut rows = Vec::new();
    'rows: for row in &driving_rows {
        let mut key_values = Vec::with_capacity(driving_keys.len());
        for key in driving_keys {
            match eval(key, row, ctx) {
                Ok(value) => key_values.push(value),
                Err(CplError::BadValue(_)) => continue 'rows,
                Err(other) => return Err(other),
            }
        }
        if cacheable {
            let matched = match cache.get(&key_values) {
                Some(hit) => {
                    stats.probe_cache_hits += 1;
                    hit
                }
                None => {
                    let fresh = verified_candidates(
                        &Row::new(),
                        &key_values,
                        scan_keys,
                        side,
                        &sources,
                        ctx,
                        stats,
                    )?;
                    cache.entry(key_values.clone()).or_insert(fresh)
                }
            };
            for oid in matched {
                let mut combined = row.clone();
                combined.insert(side.var.clone(), Value::Oid(oid.clone()));
                rows.push(combined);
            }
        } else {
            for oid in verified_candidates(row, &key_values, scan_keys, side, &sources, ctx, stats)?
            {
                let mut combined = row.clone();
                combined.insert(side.var.clone(), Value::Oid(oid));
                rows.push(combined);
            }
        }
    }
    ctx.record_join("HashJoin", rows.len());
    stats.record_operator_output(rows.len());
    Ok(rows)
}

/// The parallel index fast path: driving rows are sharded *by key hash* when
/// the probe cache is usable — a distinct key, its index probe and its cache
/// entry then belong to exactly one worker, so the merged probe and cache-hit
/// counts equal the sequential run's — and by contiguous chunks otherwise
/// (every row probes regardless, so ownership is irrelevant). Each worker
/// emits `(driving row index, produced rows)` pairs; reassembling them in
/// driving-row order reproduces the sequential output stream exactly.
#[allow(clippy::too_many_arguments)]
fn par_probe_join(
    driving_rows: &[Row],
    driving_keys: &[&Expr],
    scan_keys: &[&Expr],
    side: &IndexableSide,
    workers: usize,
    ctx: &mut EvalCtx<'_>,
    stats: &mut ExecStats,
) -> Result<Vec<Row>> {
    let key_tuples = eval_key_tuples(driving_rows, driving_keys, workers, ctx, stats)?;
    // Same soundness condition as the sequential cache (see `probe_join`).
    let cacheable = scan_keys
        .iter()
        .all(|k| k.var_set().iter().all(|v| v == &side.var));
    /// One unit of probe work: a hash-owned set of driving rows (the worker
    /// probes and caches the keys it owns), or a stolen contiguous sub-range
    /// of one *hot* key's rows sharing a pre-probed match list.
    enum ProbeShard {
        Owned(Vec<usize>),
        Hot {
            indices: Vec<usize>,
            matched: std::sync::Arc<Vec<Oid>>,
            lead: bool,
        },
    }
    let mut shards: Vec<ProbeShard> = Vec::new();
    if cacheable {
        // Group keyed rows per key tuple, in first-occurrence order.
        let mut groups: Vec<(&[Value], Vec<usize>)> = Vec::new();
        let mut group_of: HashMap<&[Value], usize> = HashMap::new();
        let mut keyed = 0usize;
        for (idx, key) in key_tuples.iter().enumerate() {
            if let Some(values) = key {
                keyed += 1;
                match group_of.get(values.as_slice()) {
                    Some(&g) => groups[g].1.push(idx),
                    None => {
                        group_of.insert(values.as_slice(), groups.len());
                        groups.push((values.as_slice(), vec![idx]));
                    }
                }
            }
        }
        // A zipfian heavy hitter hashes all of its rows into one shard and
        // serializes the join behind one worker. Keys holding at least twice
        // a fair share of the rows are split into contiguous sub-ranges that
        // idle workers steal; everyone shares the key's single pre-probed
        // match list, and the lead sub-job accounts for the one probe the
        // sequential run would have paid (the rest are cache hits), so the
        // merged totals are unchanged. Submission-order reassembly is
        // untouched — sub-jobs still emit per-driving-row slots.
        let hot_threshold = (2 * keyed.div_ceil(workers)).max(8);
        let mut owned: Vec<Vec<usize>> = vec![Vec::new(); workers];
        for (values, indices) in groups {
            if indices.len() >= hot_threshold {
                let mut scratch = ExecStats::default();
                let wsources = ctx.sources().to_vec();
                let matched = std::sync::Arc::new(verified_candidates(
                    &Row::new(),
                    values,
                    scan_keys,
                    side,
                    &wsources,
                    ctx,
                    &mut scratch,
                )?);
                for (part, range) in chunk_ranges(indices.len(), workers).into_iter().enumerate() {
                    shards.push(ProbeShard::Hot {
                        indices: indices[range].to_vec(),
                        matched: matched.clone(),
                        lead: part == 0,
                    });
                }
            } else {
                owned[(key_tuple_hash(values) % workers as u64) as usize].extend(indices);
            }
        }
        shards.extend(
            owned
                .into_iter()
                .filter(|indices| !indices.is_empty())
                .map(ProbeShard::Owned),
        );
    } else {
        // Every row probes regardless, so ownership is irrelevant: plain
        // contiguous chunks, dropping unkeyed rows and empty chunks.
        shards.extend(
            chunk_ranges(key_tuples.len(), workers)
                .into_iter()
                .map(|range| {
                    range
                        .filter(|idx| key_tuples[*idx].is_some())
                        .collect::<Vec<_>>()
                })
                .filter(|indices| !indices.is_empty())
                .map(ProbeShard::Owned),
        );
    }
    let key_tuples = &key_tuples;
    /// Rows produced for one driving-row slot, keyed for order-preserving
    /// reassembly.
    type SlotRows = Vec<(usize, Vec<Row>)>;
    let (per_shard, _): (Vec<SlotRows>, _) =
        run_partitioned(ctx, stats, shards, false, |shard, wctx, ws| {
            let indices = match &shard {
                ProbeShard::Owned(indices) => indices,
                ProbeShard::Hot { indices, .. } => indices,
            };
            let mut out = Vec::with_capacity(indices.len());
            if let ProbeShard::Hot {
                indices,
                matched,
                lead,
            } = &shard
            {
                // The lead sub-job carries the key's one probe; every other
                // row of the key — here and in sibling sub-jobs — is a cache
                // hit, exactly matching the sequential accounting.
                if *lead {
                    ws.index_probes += 1;
                    ws.probe_cache_hits += indices.len() - 1;
                } else {
                    ws.probe_cache_hits += indices.len();
                }
                for &idx in indices {
                    let row = &driving_rows[idx];
                    let mut produced = Vec::with_capacity(matched.len());
                    for oid in matched.iter() {
                        let mut combined = row.clone();
                        combined.insert(side.var.clone(), Value::Oid(oid.clone()));
                        produced.push(combined);
                    }
                    ws.rows_produced += produced.len();
                    out.push((idx, produced));
                }
                return Ok(out);
            }
            let wsources = wctx.sources().to_vec();
            let mut cache: HashMap<&[Value], Vec<Oid>> = HashMap::new();
            for &idx in indices {
                let key_values = key_tuples[idx]
                    .as_ref()
                    .expect("only keyed rows are partitioned");
                let row = &driving_rows[idx];
                let matched: Vec<Oid> = if cacheable {
                    match cache.get(key_values.as_slice()) {
                        Some(hit) => {
                            ws.probe_cache_hits += 1;
                            hit.clone()
                        }
                        None => {
                            let fresh = verified_candidates(
                                &Row::new(),
                                key_values,
                                scan_keys,
                                side,
                                &wsources,
                                wctx,
                                ws,
                            )?;
                            cache.insert(key_values.as_slice(), fresh.clone());
                            fresh
                        }
                    }
                } else {
                    verified_candidates(row, key_values, scan_keys, side, &wsources, wctx, ws)?
                };
                let mut produced = Vec::with_capacity(matched.len());
                for oid in matched {
                    let mut combined = row.clone();
                    combined.insert(side.var.clone(), Value::Oid(oid));
                    produced.push(combined);
                }
                ws.rows_produced += produced.len();
                out.push((idx, produced));
            }
            Ok(out)
        })?;
    let mut per_row: Vec<Vec<Row>> = vec![Vec::new(); driving_rows.len()];
    for shard in per_shard {
        for (idx, produced) in shard {
            per_row[idx] = produced;
        }
    }
    let rows: Vec<Row> = per_row.into_iter().flatten().collect();
    ctx.record_join("HashJoin", rows.len());
    stats.record_operator_output(rows.len());
    Ok(rows)
}

/// Probe the attribute index for the scan-side candidates of one key tuple
/// and verify every non-probed key pair against each candidate, extending
/// `base` with the candidate's identity for the verification.
fn verified_candidates(
    base: &Row,
    key_values: &[Value],
    scan_keys: &[&Expr],
    side: &IndexableSide,
    sources: &[&Instance],
    ctx: &mut EvalCtx<'_>,
    stats: &mut ExecStats,
) -> Result<Vec<Oid>> {
    stats.index_probes += 1;
    // The probed scan's delta restriction applies here, as a candidate
    // filter: the index answers from the full extent, so membership in the
    // restriction set is re-checked per candidate identity.
    let restriction = ctx.scan_restriction(&side.var).cloned();
    let mut matched = Vec::new();
    for instance in sources {
        'candidates: for oid in
            instance.lookup_by_attr(&side.class, &side.attr, &key_values[side.key_index])
        {
            if restriction
                .as_ref()
                .is_some_and(|keep| !keep.contains(&oid))
            {
                continue 'candidates;
            }
            let mut probe_row = base.clone();
            probe_row.insert(side.var.clone(), Value::Oid(oid.clone()));
            for (i, scan_key) in scan_keys.iter().enumerate() {
                if i == side.key_index {
                    continue;
                }
                match eval(scan_key, &probe_row, ctx) {
                    Ok(value) if value == key_values[i] => {}
                    Ok(_) | Err(CplError::BadValue(_)) => continue 'candidates,
                    Err(other) => return Err(other),
                }
            }
            matched.push(oid);
        }
    }
    Ok(matched)
}

/// The parallel generic hash join. The *build side* is partitioned by key
/// hash into per-worker shard tables (each worker builds the table for the
/// keys it owns, scanning the pre-evaluated key tuples), then the probe side
/// is processed in contiguous chunks: each probe row looks up the shard that
/// owns its key's hash. A key's build rows all live in one shard, in build
/// order, and probe chunks merge in probe order — so the output row stream is
/// identical to the sequential build-then-probe loop.
fn par_hash_join(
    left_rows: &[Row],
    right_rows: &[Row],
    left_keys: &[&Expr],
    right_keys: &[&Expr],
    workers: usize,
    ctx: &mut EvalCtx<'_>,
    stats: &mut ExecStats,
) -> Result<Vec<Row>> {
    let left_tuples = eval_key_tuples(left_rows, left_keys, workers, ctx, stats)?;
    let right_tuples = eval_key_tuples(right_rows, right_keys, workers, ctx, stats)?;
    let left_hashes: Vec<u64> = left_tuples
        .iter()
        .map(|tuple| tuple.as_ref().map_or(0, |values| key_tuple_hash(values)))
        .collect();
    let (left_tuples, left_hashes) = (&left_tuples, &left_hashes);
    // Shard tables map a key tuple to the build-row indices carrying it, in
    // ascending (build) order.
    let (shard_tables, _): (Vec<HashMap<&[Value], Vec<usize>>>, _) = run_partitioned(
        ctx,
        stats,
        (0..workers).collect(),
        false,
        |shard, _wctx, _ws| {
            let mut table: HashMap<&[Value], Vec<usize>> = HashMap::new();
            for (idx, tuple) in left_tuples.iter().enumerate() {
                if let Some(values) = tuple {
                    if left_hashes[idx] % workers as u64 == shard as u64 {
                        table.entry(values.as_slice()).or_default().push(idx);
                    }
                }
            }
            Ok(table)
        },
    )?;
    let (shard_tables, right_tuples) = (&shard_tables, &right_tuples);
    run_chunked(ctx, stats, right_rows.len(), workers, |range, _wctx, ws| {
        let mut out = Vec::new();
        for idx in range {
            let Some(values) = &right_tuples[idx] else {
                continue;
            };
            let table = &shard_tables[(key_tuple_hash(values) % workers as u64) as usize];
            if let Some(matches) = table.get(values.as_slice()) {
                for &left_idx in matches {
                    let mut combined = left_rows[left_idx].clone();
                    combined.extend(right_rows[idx].clone());
                    out.push(combined);
                }
            }
        }
        ws.rows_produced += out.len();
        Ok(out)
    })
}

/// Evaluate all keys of one join side against a row; `None` when a missing
/// optional attribute makes the row unjoinable.
fn eval_keys(keys: &[&Expr], row: &Row, ctx: &mut EvalCtx<'_>) -> Result<Option<Vec<Value>>> {
    let mut values = Vec::with_capacity(keys.len());
    for key in keys {
        match eval(key, row, ctx) {
            Ok(value) => values.push(value),
            Err(CplError::BadValue(_)) => return Ok(None),
            Err(other) => return Err(other),
        }
    }
    Ok(Some(values))
}

/// Every left row combined with every right row, in `lex(left, right)`
/// order, kept where `predicate` (if any) holds: the body of both loop joins.
fn loop_join(
    left_rows: &[Row],
    right_rows: &[Row],
    predicate: Option<&Expr>,
    ctx: &mut EvalCtx<'_>,
) -> Result<Vec<Row>> {
    let mut rows = Vec::with_capacity(if predicate.is_none() {
        left_rows.len() * right_rows.len()
    } else {
        0
    });
    for l in left_rows {
        for r in right_rows {
            let mut combined = l.clone();
            combined.extend(r.clone());
            if predicate.map_or(Ok(true), |p| eval_predicate(p, &combined, ctx))? {
                rows.push(combined);
            }
        }
    }
    Ok(rows)
}

/// Run a plan against the context, returning its rows.
pub fn run_plan(plan: &Plan, ctx: &mut EvalCtx<'_>, stats: &mut ExecStats) -> Result<Vec<Row>> {
    // Scan→filter→project towers over a single source run batch-at-a-time on
    // the columnar executor (identical rows and stats, proven differentially);
    // everything else — and every bail-out — takes the row path below.
    if let Some(rows) = crate::columnar::try_run(plan, ctx, stats)? {
        return Ok(rows);
    }
    let rows = match plan {
        Plan::Scan { class, var } => {
            let restriction = ctx.scan_restriction(var).cloned();
            if restriction.is_some() {
                stats.restricted_scans += 1;
            }
            let mut rows = Vec::new();
            for instance in ctx.sources().to_vec() {
                for oid in instance.extent(class) {
                    if let Some(keep) = &restriction {
                        if !keep.contains(oid) {
                            continue;
                        }
                    }
                    let mut row = Row::new();
                    row.insert(var.clone(), Value::Oid(oid.clone()));
                    rows.push(row);
                }
            }
            stats.rows_scanned += rows.len();
            rows
        }
        Plan::Filter { input, predicate } => {
            // Fused scan+filter: partition the class extent itself into
            // contiguous chunks, so row construction and the predicate both
            // run on the workers.
            if let Plan::Scan { class, var } = input.as_ref() {
                let extent_total: usize = ctx.sources().iter().map(|i| i.extent_size(class)).sum();
                if let Some(workers) = parallel_workers(ctx, extent_total, false, [predicate]) {
                    let restriction = ctx.scan_restriction(var).cloned();
                    if restriction.is_some() {
                        stats.restricted_scans += 1;
                    }
                    let oids: Vec<Oid> = ctx
                        .sources()
                        .iter()
                        .flat_map(|instance| instance.extent(class))
                        .filter(|oid| restriction.as_ref().is_none_or(|keep| keep.contains(*oid)))
                        .cloned()
                        .collect();
                    // Account for the scan exactly like the sequential path
                    // would have: every extent row is scanned and produced by
                    // the scan operator before the filter keeps its subset.
                    stats.rows_scanned += oids.len();
                    stats.record_operator_output(oids.len());
                    let oids = &oids;
                    let rows = run_chunked(ctx, stats, oids.len(), workers, |range, wctx, ws| {
                        ws.rows_scanned += range.len();
                        let mut kept = Vec::new();
                        for oid in &oids[range] {
                            let row = Row::from([(var.clone(), Value::Oid(oid.clone()))]);
                            if eval_predicate(predicate, &row, wctx)? {
                                kept.push(row);
                            }
                        }
                        ws.rows_produced += kept.len();
                        Ok(kept)
                    })?;
                    stats.record_operator_output(rows.len());
                    return Ok(rows);
                }
            }
            let input_rows = run_plan(input, ctx, stats)?;
            match parallel_workers(ctx, input_rows.len(), false, [predicate]) {
                Some(workers) => {
                    let input_rows = &input_rows;
                    run_chunked(ctx, stats, input_rows.len(), workers, |range, wctx, ws| {
                        let mut kept = Vec::new();
                        for row in &input_rows[range] {
                            if eval_predicate(predicate, row, wctx)? {
                                kept.push(row.clone());
                            }
                        }
                        ws.rows_produced += kept.len();
                        Ok(kept)
                    })?
                }
                None => {
                    let mut rows = Vec::new();
                    for row in input_rows {
                        if eval_predicate(predicate, &row, ctx)? {
                            rows.push(row);
                        }
                    }
                    rows
                }
            }
        }
        Plan::Map { input, bindings } => {
            let input_rows = run_plan(input, ctx, stats)?;
            let gate = bindings.iter().map(|(_, e)| e);
            let claims_ok = map_bindings_claim_safe(bindings);
            match parallel_workers(ctx, input_rows.len(), claims_ok, gate) {
                Some(workers) => {
                    // Skolem-bearing bindings run under the two-phase
                    // key-claim protocol: workers mint provisional
                    // identities into per-worker arenas, and the arenas are
                    // resolved in partition (= input) order afterwards, so
                    // the final numbering — and the rewritten rows — are
                    // bit-identical to a sequential evaluation.
                    let with_claims = bindings.iter().any(|(_, e)| e.contains_skolem());
                    let input_rows = &input_rows;
                    let (chunks, arenas) = run_partitioned(
                        ctx,
                        stats,
                        chunk_ranges(input_rows.len(), workers),
                        with_claims,
                        |range, wctx, ws| {
                            let mut out = Vec::new();
                            'rows: for row in &input_rows[range] {
                                let mut extended = row.clone();
                                for (var, expr) in bindings {
                                    match eval(expr, &extended, wctx) {
                                        Ok(value) => {
                                            extended.insert(var.clone(), value);
                                        }
                                        // Missing optional attribute: the row
                                        // does not contribute.
                                        Err(CplError::BadValue(_)) => continue 'rows,
                                        Err(other) => return Err(other),
                                    }
                                }
                                out.push(extended);
                            }
                            ws.rows_produced += out.len();
                            Ok(out)
                        },
                    )?;
                    let mut rows: Vec<Row> = chunks.into_iter().flatten().collect();
                    resolve_rows(&mut rows, arenas, ctx);
                    rows
                }
                None => {
                    let mut rows = Vec::new();
                    for mut row in input_rows {
                        let mut ok = true;
                        for (var, expr) in bindings {
                            match eval(expr, &row, ctx) {
                                Ok(value) => {
                                    row.insert(var.clone(), value);
                                }
                                Err(CplError::BadValue(_)) => {
                                    // A missing optional attribute: the row
                                    // does not contribute (mirrors
                                    // clause-matching semantics).
                                    ok = false;
                                    break;
                                }
                                Err(other) => return Err(other),
                            }
                        }
                        if ok {
                            rows.push(row);
                        }
                    }
                    rows
                }
            }
        }
        Plan::NestedLoopJoin { left, right, .. } | Plan::CrossJoin { left, right } => {
            let (kind, predicate) = match plan {
                Plan::NestedLoopJoin { predicate, .. } => ("NestedLoopJoin", predicate.as_ref()),
                _ => ("CrossJoin", None),
            };
            let left_rows = run_plan(left, ctx, stats)?;
            let right_rows = run_plan(right, ctx, stats)?;
            let rows = match parallel_workers(ctx, left_rows.len(), false, predicate) {
                Some(workers) => {
                    let (left_rows, right_rows) = (&left_rows, &right_rows);
                    run_chunked(ctx, stats, left_rows.len(), workers, |range, wctx, ws| {
                        let out = loop_join(&left_rows[range], right_rows, predicate, wctx)?;
                        ws.rows_produced += out.len();
                        Ok(out)
                    })?
                }
                None => loop_join(&left_rows, &right_rows, predicate, ctx)?,
            };
            ctx.record_join(kind, rows.len());
            rows
        }
        Plan::HashJoin { left, right, keys } => {
            let left_keys: Vec<&Expr> = keys.iter().map(|(l, _)| l).collect();
            let right_keys: Vec<&Expr> = keys.iter().map(|(_, r)| r).collect();
            // Index fast path: when one side is a bare scan with a key that
            // is a single attribute of the scanned object, skip materialising
            // (and hash building over) that side entirely — drive the join
            // from the other side's rows and answer each key with an
            // attribute-index probe into the source instances, probing on
            // the attribute with the smallest expected candidate lists.
            // Delta restrictions keep the fast path: the driving side
            // evaluates through `run_plan`, where its own restriction
            // applies, and `verified_candidates` post-filters probe results
            // by the indexed variable's set (the attribute indexes answer
            // from the full extent and would otherwise resurrect filtered
            // identities). This is exactly what keeps semi-naive delta
            // joins O(delta): a handful of delta rows drive index probes
            // instead of a full build/probe pass — even in the rotations
            // that pin the indexed side to the "old" (near-full) extent.
            let left_side = best_indexable_side(left, &left_keys, ctx.sources());
            let right_side = best_indexable_side(right, &right_keys, ctx.sources());
            // When both orientations are available and a rotation is active,
            // drive from whichever side is pinned to the smaller identity
            // set — the pivot slot's Δ — so the delta rows do the probing,
            // whichever side of the join they happen to land on.
            if ctx.has_scan_restrictions() {
                if let (Some(ls), Some(rs)) = (&left_side, &right_side) {
                    if let (Some(dl), Some(dr)) =
                        (scan_cardinality(left, ctx), scan_cardinality(right, ctx))
                    {
                        let side = if dl < dr { rs } else { ls };
                        let (driving, driving_keys, scan_keys) = if dl < dr {
                            (left, &left_keys, &right_keys)
                        } else {
                            (right, &right_keys, &left_keys)
                        };
                        return probe_join(driving, driving_keys, scan_keys, side, ctx, stats);
                    }
                }
            }
            if let Some(side) = left_side {
                return probe_join(right, &right_keys, &left_keys, &side, ctx, stats);
            }
            if let Some(side) = right_side {
                return probe_join(left, &left_keys, &right_keys, &side, ctx, stats);
            }
            let left_rows = run_plan(left, ctx, stats)?;
            let right_rows = run_plan(right, ctx, stats)?;
            let gate = keys.iter().flat_map(|(l, r)| [l, r]);
            let rows =
                match parallel_workers(ctx, left_rows.len().max(right_rows.len()), false, gate) {
                    Some(workers) => par_hash_join(
                        &left_rows,
                        &right_rows,
                        &left_keys,
                        &right_keys,
                        workers,
                        ctx,
                        stats,
                    )?,
                    None => {
                        // Build on the left, probe with the right.
                        let mut table: BTreeMap<Vec<Value>, Vec<&Row>> = BTreeMap::new();
                        for l in &left_rows {
                            if let Some(key) = eval_keys(&left_keys, l, ctx)? {
                                table.entry(key).or_default().push(l);
                            }
                        }
                        let mut rows = Vec::new();
                        for r in &right_rows {
                            let Some(key) = eval_keys(&right_keys, r, ctx)? else {
                                continue;
                            };
                            if let Some(matches) = table.get(&key) {
                                for l in matches {
                                    let mut combined = (*l).clone();
                                    combined.extend(r.clone());
                                    rows.push(combined);
                                }
                            }
                        }
                        rows
                    }
                };
            ctx.record_join("HashJoin", rows.len());
            rows
        }
        Plan::Distinct { input } => {
            let mut seen = std::collections::BTreeSet::new();
            let mut rows = Vec::new();
            for row in run_plan(input, ctx, stats)? {
                if seen.insert(row.clone()) {
                    rows.push(row);
                }
            }
            rows
        }
    };
    stats.record_operator_output(rows.len());
    Ok(rows)
}

/// One row's evaluated insert actions from the claim phase: the key and
/// record *values* (possibly holding provisional identities) plus the claim
/// ranges their evaluation recorded, so the apply phase can interleave claim
/// resolution with the per-row `Mk_C` calls exactly as a sequential run
/// interleaved them.
#[derive(Debug)]
struct EvaluatedInsert {
    key: Value,
    record: Value,
    key_claims: Range<usize>,
    attr_claims: Range<usize>,
}

/// Phase-1 product of one query evaluated on a claim context
/// ([`EvalCtx::claim_worker`]): everything needed to rebuild the target
/// bit-identically on the main thread, in program order. Queries whose rows
/// are independent of each other can therefore be *evaluated* concurrently —
/// the expensive part — while [`apply_evaluated_query`] keeps application
/// (and with it Skolem numbering, merge conflicts, and `objects_written`
/// accounting) strictly sequential.
#[derive(Debug)]
pub struct EvaluatedQuery {
    /// The worker's claim arena, covering plan and insert evaluation.
    arena: Option<SkolemClaims>,
    /// Claims recorded while the plan ran; resolved before any insert (a
    /// sequential run materialises all plan rows before inserting).
    plan_claims: Range<usize>,
    /// Per output row, in row order: the evaluated inserts, or the error the
    /// evaluation hit (rows before it still apply, exactly like the
    /// sequential loop that stops mid-way).
    per_row: Vec<Result<Vec<EvaluatedInsert>>>,
    /// Rows the plan emitted.
    rows: usize,
}

impl EvaluatedQuery {
    /// Rows the query's plan emitted during the claim phase.
    pub fn rows_output(&self) -> usize {
        self.rows
    }
}

/// The claim-phase insert-evaluation loop shared by [`evaluate_query`] and
/// the partitioned path of [`execute_query`]: evaluate every insert's key
/// and attributes per row, delimiting the Skolem claims each evaluation
/// recorded. Stops at the first erroring row (recording the error in its
/// slot), exactly where the sequential loop would have stopped.
fn evaluate_insert_rows<'r>(
    query: &Query,
    rows: impl Iterator<Item = &'r Row>,
    ctx: &mut EvalCtx<'_>,
) -> Vec<Result<Vec<EvaluatedInsert>>> {
    let mut out = Vec::new();
    'rows: for row in rows {
        let mut evaluated = Vec::with_capacity(query.inserts.len());
        for insert in &query.inserts {
            let before_key = ctx.claims_mark();
            let key = match eval(&insert.key, row, ctx) {
                Ok(value) => value,
                Err(err) => {
                    out.push(Err(err));
                    break 'rows;
                }
            };
            let after_key = ctx.claims_mark();
            let mut fields = BTreeMap::new();
            for (label, expr) in &insert.attrs {
                match eval(expr, row, ctx) {
                    Ok(value) => {
                        fields.insert(label.clone(), value);
                    }
                    Err(err) => {
                        out.push(Err(err));
                        break 'rows;
                    }
                }
            }
            evaluated.push(EvaluatedInsert {
                key,
                record: Value::Record(fields),
                key_claims: before_key..after_key,
                attr_claims: after_key..ctx.claims_mark(),
            });
        }
        out.push(Ok(evaluated));
    }
    out
}

/// Evaluate one query's rows and insert values without touching any shared
/// state: run the plan and the insert expressions on `ctx` — a claim context
/// ([`EvalCtx::claim_worker`]) when called off the main thread — recording
/// Skolem claims for the apply phase. `stats` (the worker's) absorbs the
/// execution counters, including `rows_output`. The returned
/// [`EvaluatedQuery`] must be applied with [`apply_evaluated_query`] on the
/// owning (main) context.
pub fn evaluate_query(
    query: &Query,
    ctx: &mut EvalCtx<'_>,
    stats: &mut ExecStats,
) -> Result<EvaluatedQuery> {
    let rows = run_plan(&query.plan, ctx, stats)?;
    stats.rows_output += rows.len();
    let plan_claims = 0..ctx.claims_mark();
    let per_row = evaluate_insert_rows(query, rows.iter(), ctx);
    Ok(EvaluatedQuery {
        arena: ctx.take_claims(),
        plan_claims,
        per_row,
        rows: rows.len(),
    })
}

/// Phase 2 of query execution: resolve the evaluated query's Skolem claims
/// against the owning context's factory — plan claims first, then per row
/// interleaved with the insert-key `Mk_C` calls, reproducing the sequential
/// first-call order exactly — and merge the rewritten records into `target`
/// in row order. The produced target is bit-identical to running the whole
/// query sequentially on `ctx`. `stats` gains the `objects_written` of the
/// application; the evaluation counters (including `rows_output`) were
/// already recorded by [`evaluate_query`] into the worker's stats.
pub fn apply_evaluated_query(
    query: &Query,
    evaluated: EvaluatedQuery,
    ctx: &mut EvalCtx<'_>,
    target: &mut Instance,
    stats: &mut ExecStats,
) -> Result<()> {
    let mut resolved: BTreeMap<Oid, Oid> = BTreeMap::new();
    if let Some(arena) = &evaluated.arena {
        let range = evaluated.plan_claims.clone();
        arena.replay_range_into(range, &mut resolved, &mut |class, key| {
            ctx.mk_skolem(class, key)
        });
    }
    apply_insert_rows(
        query,
        vec![(evaluated.arena, evaluated.per_row)],
        &mut resolved,
        ctx,
        target,
        stats,
    )
}

/// The shared apply loop: for each worker's chunk in partition (= row)
/// order, for each row in order, resolve the row's key claims, mint the
/// insert identity, resolve its attribute claims, rewrite, and merge —
/// stopping at the first row whose evaluation errored, after the rows before
/// it have been applied, exactly like the sequential loop.
#[allow(clippy::type_complexity)]
fn apply_insert_rows(
    query: &Query,
    chunks: Vec<(Option<SkolemClaims>, Vec<Result<Vec<EvaluatedInsert>>>)>,
    resolved: &mut BTreeMap<Oid, Oid>,
    ctx: &mut EvalCtx<'_>,
    target: &mut Instance,
    stats: &mut ExecStats,
) -> Result<()> {
    for (arena, rows) in chunks {
        for row in rows {
            let evaluated = row?;
            for (insert, ev) in query.inserts.iter().zip(evaluated) {
                if let Some(arena) = &arena {
                    arena.replay_range_into(ev.key_claims, resolved, &mut |class, key| {
                        ctx.mk_skolem(class, key)
                    });
                }
                // Move the evaluated values straight through when there is
                // nothing to rewrite — the common claims-free case.
                let key = if resolved.is_empty() || !ev.key.contains_oid() {
                    ev.key
                } else {
                    rewrite_resolved(&ev.key, resolved)
                };
                let oid = ctx.mk_skolem(&insert.class, &key);
                if let Some(arena) = &arena {
                    arena.replay_range_into(ev.attr_claims, resolved, &mut |class, key| {
                        ctx.mk_skolem(class, key)
                    });
                }
                let record = if resolved.is_empty() || !ev.record.contains_oid() {
                    ev.record
                } else {
                    rewrite_resolved(&ev.record, resolved)
                };
                write_object(target, oid, record, &query.name, stats)?;
            }
        }
    }
    Ok(())
}

/// Insert or key-merge one evaluated object into the target.
fn write_object(
    target: &mut Instance,
    oid: Oid,
    record: Value,
    query_name: &str,
    stats: &mut ExecStats,
) -> Result<()> {
    match target.value(&oid) {
        None => {
            target.insert(oid, record)?;
            stats.objects_written += 1;
        }
        Some(existing) => {
            let merged = existing.merge_records(&record).ok_or_else(|| {
                CplError::ConflictingInsert(format!(
                    "object {oid} receives conflicting values from query `{query_name}`"
                ))
            })?;
            target.update(&oid, merged)?;
            stats.objects_written += 1;
        }
    }
    Ok(())
}

/// Execute one query: run its plan and apply its insert actions to `target`.
///
/// With enough rows and a worker budget, the insert *evaluation* — key and
/// attribute expressions per row, the expensive part of Skolem-heavy loads —
/// runs partitioned on the pool under the two-phase key-claim protocol, while
/// application stays on the calling thread in row order; the target is
/// bit-identical to the sequential loop at every thread count.
pub fn execute_query(
    query: &Query,
    ctx: &mut EvalCtx<'_>,
    target: &mut Instance,
    stats: &mut ExecStats,
) -> Result<()> {
    let rows = run_plan(&query.plan, ctx, stats)?;
    stats.rows_output += rows.len();
    let gate = query
        .inserts
        .iter()
        .flat_map(|i| std::iter::once(&i.key).chain(i.attrs.iter().map(|(_, e)| e)));
    if let Some(workers) = parallel_workers(ctx, rows.len(), true, gate) {
        return parallel_inserts(query, &rows, workers, ctx, target, stats);
    }
    for row in rows {
        for insert in &query.inserts {
            let key = eval(&insert.key, &row, ctx)?;
            let oid = ctx.mk_skolem(&insert.class, &key);
            let mut fields = BTreeMap::new();
            for (label, expr) in &insert.attrs {
                fields.insert(label.clone(), eval(expr, &row, ctx)?);
            }
            write_object(target, oid, Value::Record(fields), &query.name, stats)?;
        }
    }
    Ok(())
}

/// The partitioned insert-evaluation path of [`execute_query`]: workers
/// evaluate contiguous row chunks (claiming Skolem identities into
/// per-worker arenas), then the claims resolve and the records apply on the
/// calling thread in row order — parallel Skolem insertion, deterministic by
/// the two-phase protocol.
fn parallel_inserts(
    query: &Query,
    rows: &[Row],
    workers: usize,
    ctx: &mut EvalCtx<'_>,
    target: &mut Instance,
    stats: &mut ExecStats,
) -> Result<()> {
    let with_claims = query
        .inserts
        .iter()
        .any(|i| i.key.contains_skolem() || i.attrs.iter().any(|(_, e)| e.contains_skolem()));
    let (chunks, arenas) = run_partitioned(
        ctx,
        stats,
        chunk_ranges(rows.len(), workers),
        with_claims,
        |range, wctx, _ws| Ok(evaluate_insert_rows(query, rows[range].iter(), wctx)),
    )?;
    let mut resolved = BTreeMap::new();
    apply_insert_rows(
        query,
        arenas.into_iter().zip(chunks).collect(),
        &mut resolved,
        ctx,
        target,
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::plan::InsertAction;
    use wol_model::{ClassName, Oid, Parallelism};

    fn euro_instance() -> Instance {
        let mut inst = Instance::new("euro");
        let uk = inst.insert_fresh(
            &ClassName::new("CountryE"),
            Value::record([
                ("name", Value::str("United Kingdom")),
                ("language", Value::str("English")),
                ("currency", Value::str("sterling")),
            ]),
        );
        let fr = inst.insert_fresh(
            &ClassName::new("CountryE"),
            Value::record([
                ("name", Value::str("France")),
                ("language", Value::str("French")),
                ("currency", Value::str("franc")),
            ]),
        );
        for (name, capital, country) in [
            ("London", true, &uk),
            ("Manchester", false, &uk),
            ("Paris", true, &fr),
        ] {
            inst.insert_fresh(
                &ClassName::new("CityE"),
                Value::record([
                    ("name", Value::str(name)),
                    ("is_capital", Value::bool(capital)),
                    ("country", Value::oid(country.clone())),
                ]),
            );
        }
        inst
    }

    #[test]
    fn scan_filter_map() {
        let inst = euro_instance();
        let refs = [&inst];
        let mut ctx = EvalCtx::new(&refs);
        let mut stats = ExecStats::default();
        let plan = Plan::scan("CityE", "E")
            .filter(Expr::var("E").proj("is_capital"))
            .map(vec![("N".to_string(), Expr::var("E").proj("name"))]);
        let rows = run_plan(&plan, &mut ctx, &mut stats).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().any(|r| r["N"] == Value::str("London")));
        assert!(rows.iter().any(|r| r["N"] == Value::str("Paris")));
        assert_eq!(stats.rows_scanned, 3);
        assert!(stats.rows_produced >= 5);
    }

    #[test]
    fn nested_loop_and_hash_join_agree() {
        let inst = euro_instance();
        let refs = [&inst];
        let mut stats = ExecStats::default();
        let nl = Plan::scan("CityE", "E").join(
            Plan::scan("CountryE", "C"),
            Some(
                Expr::var("E")
                    .path("country.name")
                    .eq(Expr::var("C").proj("name")),
            ),
        );
        let hj = Plan::scan("CityE", "E").hash_join(
            Plan::scan("CountryE", "C"),
            Expr::var("E").path("country.name"),
            Expr::var("C").proj("name"),
        );
        let mut ctx = EvalCtx::new(&refs);
        let mut nl_rows = run_plan(&nl, &mut ctx, &mut stats).unwrap();
        let mut ctx = EvalCtx::new(&refs);
        let mut hj_rows = run_plan(&hj, &mut ctx, &mut stats).unwrap();
        nl_rows.sort();
        hj_rows.sort();
        // Hash join builds on the left and probes with the right, so the row
        // contents are identical even if produced in a different order.
        assert_eq!(nl_rows.len(), 3);
        assert_eq!(nl_rows, hj_rows);
    }

    #[test]
    fn hash_join_scan_side_is_answered_by_index_probes() {
        let inst = euro_instance();
        let refs = [&inst];
        let mut stats = ExecStats::default();
        // The CountryE side is a bare scan keyed by a single attribute, so it
        // is answered by attribute-index probes: it contributes no scanned
        // rows, and one probe per driving row.
        let plan = Plan::scan("CityE", "E").hash_join(
            Plan::scan("CountryE", "C"),
            Expr::var("E").path("country.name"),
            Expr::var("C").proj("name"),
        );
        let mut ctx = EvalCtx::new(&refs);
        let rows = run_plan(&plan, &mut ctx, &mut stats).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(stats.rows_scanned, 3); // CityE only
        assert_eq!(stats.index_probes, 2); // one per *distinct* key value
        assert_eq!(stats.probe_cache_hits, 1); // Manchester reuses the UK probe
                                               // A join whose scan side is keyed by a computed expression falls back
                                               // to the generic hash join.
        let mut stats = ExecStats::default();
        let generic = Plan::scan("CityE", "E").hash_join(
            Plan::scan("CountryE", "C"),
            Expr::var("E").path("country.name"),
            Expr::var("C").path("capital.name"),
        );
        let mut ctx = EvalCtx::new(&refs);
        let _ = run_plan(&generic, &mut ctx, &mut stats);
        assert_eq!(stats.index_probes, 0);
    }

    #[test]
    fn distinct_removes_duplicates() {
        let inst = euro_instance();
        let refs = [&inst];
        let mut ctx = EvalCtx::new(&refs);
        let mut stats = ExecStats::default();
        let plan = Plan::scan("CityE", "E")
            .map(vec![(
                "L".to_string(),
                Expr::var("E").path("country.language"),
            )])
            .map(vec![("K".to_string(), Expr::var("L"))])
            .distinct();
        // Keep only the language column to create duplicates.
        let plan = Plan::Map {
            input: Box::new(plan),
            bindings: vec![],
        };
        let rows = run_plan(&plan, &mut ctx, &mut stats).unwrap();
        assert_eq!(rows.len(), 3); // rows still distinct because E differs
                                   // Project to just the language: build rows manually to check distinct.
        let lang_only = Plan::Distinct {
            input: Box::new(Plan::Map {
                input: Box::new(Plan::scan("CityE", "E")),
                bindings: vec![("L".to_string(), Expr::var("E").path("country.language"))],
            }),
        };
        let _ = lang_only; // The E binding keeps rows distinct; full projection
                           // is exercised through query execution below.
    }

    #[test]
    fn execute_query_builds_target_and_merges_by_key() {
        let inst = euro_instance();
        let refs = [&inst];
        let mut ctx = EvalCtx::new(&refs);
        let mut stats = ExecStats::default();
        let mut target = Instance::new("target");

        // Two queries that each contribute part of CountryT, keyed by name —
        // the CPL-level counterpart of partial clauses merged through keys.
        let q1 = Query {
            name: "T4".to_string(),
            plan: Plan::scan("CountryE", "C")
                .map(vec![("N".to_string(), Expr::var("C").proj("name"))]),
            inserts: vec![InsertAction {
                class: ClassName::new("CountryT"),
                key: Expr::var("N"),
                attrs: vec![
                    ("name".to_string(), Expr::var("N")),
                    ("language".to_string(), Expr::var("C").proj("language")),
                ],
            }],
        };
        let q2 = Query {
            name: "T5".to_string(),
            plan: Plan::scan("CountryE", "C")
                .map(vec![("N".to_string(), Expr::var("C").proj("name"))]),
            inserts: vec![InsertAction {
                class: ClassName::new("CountryT"),
                key: Expr::var("N"),
                attrs: vec![("currency".to_string(), Expr::var("C").proj("currency"))],
            }],
        };
        execute_query(&q1, &mut ctx, &mut target, &mut stats).unwrap();
        execute_query(&q2, &mut ctx, &mut target, &mut stats).unwrap();
        assert_eq!(target.extent_size(&ClassName::new("CountryT")), 2);
        let france = target
            .find_by_field(&ClassName::new("CountryT"), "name", &Value::str("France"))
            .unwrap();
        let value = target.value(france).unwrap();
        assert_eq!(value.project("language"), Some(&Value::str("French")));
        assert_eq!(value.project("currency"), Some(&Value::str("franc")));
        assert_eq!(stats.objects_written, 4);
        assert!(stats.rows_output >= 4);
    }

    #[test]
    fn conflicting_inserts_detected() {
        let inst = euro_instance();
        let refs = [&inst];
        let mut ctx = EvalCtx::new(&refs);
        let mut stats = ExecStats::default();
        let mut target = Instance::new("target");
        let make = |name: &str, value: Expr| Query {
            name: name.to_string(),
            plan: Plan::scan("CountryE", "C")
                .map(vec![("N".to_string(), Expr::var("C").proj("name"))]),
            inserts: vec![InsertAction {
                class: ClassName::new("CountryT"),
                key: Expr::var("N"),
                attrs: vec![("currency".to_string(), value)],
            }],
        };
        execute_query(
            &make("a", Expr::var("C").proj("currency")),
            &mut ctx,
            &mut target,
            &mut stats,
        )
        .unwrap();
        let err = execute_query(
            &make("b", Expr::Const(Value::str("euro"))),
            &mut ctx,
            &mut target,
            &mut stats,
        )
        .unwrap_err();
        assert!(matches!(err, CplError::ConflictingInsert(_)));
    }

    #[test]
    fn dangling_reference_reported() {
        let mut inst = Instance::new("euro");
        let ghost = Oid::new(ClassName::new("CountryE"), 42);
        inst.insert_fresh(
            &ClassName::new("CityE"),
            Value::record([
                ("name", Value::str("Atlantis")),
                ("country", Value::oid(ghost)),
            ]),
        );
        let refs = [&inst];
        let mut ctx = EvalCtx::new(&refs);
        let mut stats = ExecStats::default();
        let plan = Plan::scan("CityE", "E")
            .map(vec![("N".to_string(), Expr::var("E").path("country.name"))]);
        // The dangling reference surfaces as a BadValue, which Map treats as a
        // non-contributing row rather than a hard error.
        let rows = run_plan(&plan, &mut ctx, &mut stats).unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn stats_absorb_accumulates() {
        let mut a = ExecStats {
            rows_scanned: 1,
            rows_produced: 2,
            rows_output: 3,
            objects_written: 4,
            index_probes: 5,
            probe_cache_hits: 7,
            max_intermediate_rows: 6,
            restricted_scans: 8,
            pushed_filters: 9,
            provider_rows_in: 10,
            provider_rows_out: 11,
        };
        let b = a;
        a.absorb(b);
        assert_eq!(a.rows_scanned, 2);
        assert_eq!(a.restricted_scans, 16);
        assert_eq!(a.pushed_filters, 18);
        assert_eq!(a.provider_rows_in, 20);
        assert_eq!(a.provider_rows_out, 22);
        assert_eq!(a.objects_written, 8);
        assert_eq!(a.index_probes, 10);
        assert_eq!(a.probe_cache_hits, 14);
        // The high-water mark combines by max, not by sum.
        assert_eq!(a.max_intermediate_rows, 6);
    }

    #[test]
    fn cross_join_is_a_product_and_raises_the_high_water_mark() {
        let inst = euro_instance();
        let refs = [&inst];
        let mut ctx = EvalCtx::new(&refs);
        let mut stats = ExecStats::default();
        let plan = Plan::scan("CityE", "E").cross(Plan::scan("CountryE", "C"));
        let rows = run_plan(&plan, &mut ctx, &mut stats).unwrap();
        assert_eq!(rows.len(), 6); // 3 cities x 2 countries
        assert_eq!(stats.max_intermediate_rows, 6);
    }

    #[test]
    fn multi_key_hash_join_matches_composite_keys() {
        let inst = euro_instance();
        let refs = [&inst];
        // Join cities to countries on (name-of-country, language): composite
        // key through the generic hash path (left side is not a bare scan).
        let left = Plan::scan("CityE", "E").filter(Expr::var("E").proj("is_capital"));
        let plan = left.hash_join_multi(
            Plan::scan("CityE", "F").filter(Expr::var("F").proj("is_capital")),
            vec![
                (
                    Expr::var("E").path("country.name"),
                    Expr::var("F").path("country.name"),
                ),
                (Expr::var("E").proj("name"), Expr::var("F").proj("name")),
            ],
        );
        let mut ctx = EvalCtx::new(&refs);
        let mut stats = ExecStats::default();
        let rows = run_plan(&plan, &mut ctx, &mut stats).unwrap();
        // Each capital joins only with itself under the composite key.
        assert_eq!(rows.len(), 2);
        assert_eq!(stats.index_probes, 0);
    }

    #[test]
    fn probe_cache_replays_verified_matches_for_repeated_keys() {
        // Many driving rows sharing one hot key: exactly one index probe,
        // the rest served from the cache, and the row multiset is identical
        // to the generic (uncached) hash join.
        let mut inst = Instance::new("skew");
        let hub = inst.insert_fresh(
            &ClassName::new("CloneS"),
            Value::record([("name", Value::str("hot"))]),
        );
        let _ = hub;
        inst.insert_fresh(
            &ClassName::new("CloneS"),
            Value::record([("name", Value::str("cold"))]),
        );
        for i in 0..10 {
            inst.insert_fresh(
                &ClassName::new("MarkerS"),
                Value::record([
                    ("name", Value::str(format!("m{i}"))),
                    ("clone_name", Value::str(if i < 9 { "hot" } else { "cold" })),
                ]),
            );
        }
        let refs = [&inst];
        // The marker side is not a bare scan (a Map sits on it), so the
        // CloneS scan is the indexable side and the 10 marker rows drive.
        let probed = Plan::scan("MarkerS", "M").map(vec![]).hash_join(
            Plan::scan("CloneS", "C"),
            Expr::var("M").proj("clone_name"),
            Expr::var("C").proj("name"),
        );
        let mut ctx = EvalCtx::new(&refs);
        let mut stats = ExecStats::default();
        let mut rows = run_plan(&probed, &mut ctx, &mut stats).unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(stats.index_probes, 2); // "hot" once, "cold" once
        assert_eq!(stats.probe_cache_hits, 8);
        // Same rows as the generic hash join over pre-materialised sides.
        let generic = Plan::scan("MarkerS", "M")
            .map(vec![("K".to_string(), Expr::var("M").proj("clone_name"))])
            .hash_join(
                Plan::scan("CloneS", "C").map(vec![("N".to_string(), Expr::var("C").proj("name"))]),
                Expr::var("K"),
                Expr::var("N"),
            );
        let mut ctx = EvalCtx::new(&refs);
        let mut generic_stats = ExecStats::default();
        let mut generic_rows = run_plan(&generic, &mut ctx, &mut generic_stats).unwrap();
        assert_eq!(generic_stats.index_probes, 0);
        // Strip the helper bindings before comparing.
        for row in generic_rows.iter_mut() {
            row.remove("K");
            row.remove("N");
        }
        rows.sort();
        generic_rows.sort();
        assert_eq!(rows, generic_rows);
    }

    #[test]
    fn join_trace_records_actual_rows_in_post_order() {
        let inst = euro_instance();
        let refs = [&inst];
        // A hash join (probed) nested under a cross join.
        let plan = Plan::scan("CityE", "E")
            .hash_join(
                Plan::scan("CountryE", "C"),
                Expr::var("E").path("country.name"),
                Expr::var("C").proj("name"),
            )
            .cross(Plan::scan("CountryE", "D"));
        let mut ctx = EvalCtx::new(&refs);
        ctx.enable_join_trace();
        let mut stats = ExecStats::default();
        let rows = run_plan(&plan, &mut ctx, &mut stats).unwrap();
        assert_eq!(rows.len(), 6);
        let trace = ctx.take_join_trace();
        assert_eq!(
            trace,
            vec![
                JoinActual {
                    kind: "HashJoin",
                    rows: 3
                },
                JoinActual {
                    kind: "CrossJoin",
                    rows: 6
                },
            ]
        );
        // Draining leaves the trace enabled but empty.
        assert!(ctx.take_join_trace().is_empty());
        // Without enabling, nothing is recorded.
        let mut ctx = EvalCtx::new(&refs);
        let _ = run_plan(&plan, &mut ctx, &mut stats).unwrap();
        assert!(ctx.take_join_trace().is_empty());
    }

    /// Run `plan` sequentially and at each of the given thread counts (with
    /// the parallel threshold lowered so tiny inputs still exercise the
    /// partitioned paths), asserting the parallel run reproduces the
    /// sequential row *stream* (same rows, same order) and that the merged
    /// [`ExecStats`] equal the sequential totals. Returns the sequential
    /// rows and stats for further assertions.
    fn assert_parallel_matches_sequential(
        plan: &Plan,
        inst: &Instance,
        thread_counts: &[usize],
    ) -> (Vec<Row>, ExecStats) {
        let refs = [inst];
        let mut seq_ctx = EvalCtx::new(&refs).with_parallelism(Parallelism::sequential());
        let mut seq_stats = ExecStats::default();
        let seq_rows = run_plan(plan, &mut seq_ctx, &mut seq_stats).expect("sequential run");
        assert!(
            seq_ctx.shard_stats().is_empty(),
            "a sequential run must not spawn workers"
        );
        for &threads in thread_counts {
            let mut par_ctx = EvalCtx::new(&refs).with_parallelism(Parallelism::new(threads));
            par_ctx.set_parallel_min_rows(1);
            let mut par_stats = ExecStats::default();
            let par_rows = run_plan(plan, &mut par_ctx, &mut par_stats).expect("parallel run");
            assert_eq!(
                par_rows, seq_rows,
                "row stream diverged at {threads} threads"
            );
            assert_eq!(
                par_stats, seq_stats,
                "merged ExecStats diverged at {threads} threads"
            );
        }
        (seq_rows, seq_stats)
    }

    /// Partition edge case: empty extents. Scan+filter and a hash join whose
    /// build side is empty must behave identically in parallel — including
    /// producing zero rows, zero probes, and equal stats.
    #[test]
    fn parallel_partitioning_handles_empty_extents() {
        let inst = euro_instance();
        let filter = Plan::scan("GhostClass", "G").filter(Expr::var("G").proj("is_capital"));
        let (rows, _) = assert_parallel_matches_sequential(&filter, &inst, &[2, 4, 8]);
        assert!(rows.is_empty());
        let join = Plan::scan("CityE", "E").map(vec![]).hash_join(
            Plan::scan("GhostClass", "G"),
            Expr::var("E").proj("name"),
            Expr::var("G").proj("name"),
        );
        let (rows, _) = assert_parallel_matches_sequential(&join, &inst, &[2, 4, 8]);
        assert!(rows.is_empty());
    }

    /// Partition edge case: a single-row build side still joins correctly
    /// from every shard, and the merged stats equal the sequential run's.
    #[test]
    fn parallel_partitioning_handles_single_row_build_sides() {
        let mut inst = euro_instance();
        inst.insert_fresh(
            &ClassName::new("Capital"),
            Value::record([("of", Value::str("France"))]),
        );
        // The Capital side is a single-row bare scan probed by index.
        let probed = Plan::scan("CityE", "E").hash_join(
            Plan::scan("Capital", "K"),
            Expr::var("E").path("country.name"),
            Expr::var("K").proj("of"),
        );
        let (rows, stats) = assert_parallel_matches_sequential(&probed, &inst, &[2, 4, 8]);
        assert_eq!(rows.len(), 1); // only Paris reaches the single capital row
        assert!(stats.index_probes > 0);
        // The generic path (build side behind a Map) over the same data.
        let generic = Plan::scan("CityE", "E").map(vec![]).hash_join(
            Plan::scan("Capital", "K").map(vec![("O".to_string(), Expr::var("K").proj("of"))]),
            Expr::var("E").path("country.name"),
            Expr::var("O"),
        );
        let (rows, stats) = assert_parallel_matches_sequential(&generic, &inst, &[2, 4, 8]);
        assert_eq!(rows.len(), 1);
        assert_eq!(stats.index_probes, 0);
    }

    /// Partition edge case: a zipfian heavy hitter — every driving row
    /// carries the same key, so every row hashes to one shard. The other
    /// shards go idle, the hot key is probed exactly once (all later rows hit
    /// the one worker's cache), and the totals equal the sequential run's.
    #[test]
    fn parallel_partitioning_handles_all_rows_hashing_to_one_shard() {
        let mut inst = Instance::new("skew");
        inst.insert_fresh(
            &ClassName::new("CloneS"),
            Value::record([("name", Value::str("hot"))]),
        );
        for i in 0..12 {
            inst.insert_fresh(
                &ClassName::new("MarkerS"),
                Value::record([
                    ("name", Value::str(format!("m{i}"))),
                    ("clone_name", Value::str("hot")),
                ]),
            );
        }
        let probed = Plan::scan("MarkerS", "M").map(vec![]).hash_join(
            Plan::scan("CloneS", "C"),
            Expr::var("M").proj("clone_name"),
            Expr::var("C").proj("name"),
        );
        let (rows, stats) = assert_parallel_matches_sequential(&probed, &inst, &[2, 4, 8]);
        assert_eq!(rows.len(), 12);
        assert_eq!(stats.index_probes, 1); // the hot key probes once, ever
        assert_eq!(stats.probe_cache_hits, 11);
    }

    /// A zipfian hot key is split into stolen contiguous sub-ranges instead
    /// of serializing behind one hash-owned shard: the merged totals still
    /// equal the sequential run's (one probe per distinct key), and several
    /// shard slots report cache hits for the same key.
    #[test]
    fn hot_key_probe_work_is_stolen_across_shards() {
        let mut inst = Instance::new("zipf");
        inst.insert_fresh(
            &ClassName::new("CloneS"),
            Value::record([("name", Value::str("hot"))]),
        );
        for i in 0..4 {
            inst.insert_fresh(
                &ClassName::new("CloneS"),
                Value::record([("name", Value::str(format!("cold{i}")))]),
            );
        }
        for i in 0..64 {
            inst.insert_fresh(
                &ClassName::new("MarkerS"),
                Value::record([
                    ("name", Value::str(format!("m{i}"))),
                    ("clone_name", Value::str("hot")),
                ]),
            );
        }
        for i in 0..8 {
            inst.insert_fresh(
                &ClassName::new("MarkerS"),
                Value::record([
                    ("name", Value::str(format!("n{i}"))),
                    ("clone_name", Value::str(format!("cold{}", i % 4))),
                ]),
            );
        }
        let probed = Plan::scan("MarkerS", "M").map(vec![]).hash_join(
            Plan::scan("CloneS", "C"),
            Expr::var("M").proj("clone_name"),
            Expr::var("C").proj("name"),
        );
        let (rows, stats) = assert_parallel_matches_sequential(&probed, &inst, &[2, 4, 8]);
        assert_eq!(rows.len(), 72);
        assert_eq!(stats.index_probes, 5); // one per distinct key, hot included
        assert_eq!(stats.probe_cache_hits, 67);
        // At 4 workers the hot key's 64 rows outweigh twice a fair share
        // (36), so its rows are split into sub-ranges stolen by idle
        // workers: more than one shard slot reports cache hits, instead of
        // one shard absorbing all 64 rows.
        let refs = [&inst];
        let mut ctx = EvalCtx::new(&refs).with_parallelism(Parallelism::new(4));
        ctx.set_parallel_min_rows(1);
        let mut stats = ExecStats::default();
        let _ = run_plan(&probed, &mut ctx, &mut stats).unwrap();
        let stealing = ctx
            .take_shard_stats()
            .iter()
            .filter(|s| s.probe_cache_hits > 0)
            .count();
        assert!(
            stealing >= 4,
            "expected stolen hot sub-ranges, got {stealing} shards with hits"
        );
    }

    /// Partition edge case: more threads than rows. `chunk_ranges` never
    /// emits empty chunks, so a 3-row input at 8 threads runs on 3 workers
    /// and still reproduces the sequential stream and stats.
    #[test]
    fn parallel_partitioning_handles_more_threads_than_rows() {
        let inst = euro_instance();
        let filter = Plan::scan("CityE", "E").filter(Expr::var("E").proj("is_capital"));
        let (rows, stats) = assert_parallel_matches_sequential(&filter, &inst, &[8, 16]);
        assert_eq!(rows.len(), 2);
        assert_eq!(stats.rows_scanned, 3);
        let cross = Plan::scan("CityE", "E").cross(Plan::scan("CountryE", "C"));
        let (rows, _) = assert_parallel_matches_sequential(&cross, &inst, &[8]);
        assert_eq!(rows.len(), 6);
        let nested = Plan::scan("CityE", "E").join(
            Plan::scan("CountryE", "C"),
            Some(
                Expr::var("E")
                    .path("country.name")
                    .eq(Expr::var("C").proj("name")),
            ),
        );
        let (rows, _) = assert_parallel_matches_sequential(&nested, &inst, &[8]);
        assert_eq!(rows.len(), 3);
    }

    /// Maps parallelise over row chunks, including rows dropped for missing
    /// optional attributes, without disturbing order or stats.
    #[test]
    fn parallel_map_matches_sequential_including_dropped_rows() {
        let mut inst = euro_instance();
        // An object missing `country` drops out of the Map in both modes.
        inst.insert_fresh(
            &ClassName::new("CityE"),
            Value::record([("name", Value::str("Atlantis"))]),
        );
        let plan = Plan::scan("CityE", "E")
            .map(vec![("N".to_string(), Expr::var("E").path("country.name"))]);
        let (rows, _) = assert_parallel_matches_sequential(&plan, &inst, &[2, 4, 8]);
        assert_eq!(rows.len(), 3); // Atlantis contributed nothing
    }

    /// A value-position Skolem `Map` runs **parallel** under the two-phase
    /// key-claim protocol: workers claim provisional identities, resolution
    /// replays them in input order, and the produced rows — identities
    /// included — are bit-identical to the sequential run at every thread
    /// count, with the shared factory left in the identical state.
    #[test]
    fn skolem_maps_parallelise_under_the_key_claim_protocol() {
        let inst = euro_instance();
        let refs = [&inst];
        // Duplicate keys across rows (all three cities share one country
        // attribute path through `country.language` for UK cities), so
        // claims collide across workers.
        let plan = Plan::scan("CityE", "E").map(vec![
            (
                "T".to_string(),
                Expr::Skolem(
                    ClassName::new("CityT"),
                    Box::new(Expr::var("E").proj("name")),
                ),
            ),
            (
                "L".to_string(),
                Expr::Skolem(
                    ClassName::new("LangT"),
                    Box::new(Expr::var("E").path("country.language")),
                ),
            ),
        ]);
        let mut seq_ctx = EvalCtx::new(&refs).with_parallelism(Parallelism::sequential());
        let mut seq_stats = ExecStats::default();
        let seq_rows = run_plan(&plan, &mut seq_ctx, &mut seq_stats).unwrap();
        assert_eq!(seq_rows.len(), 3);
        assert_eq!(seq_ctx.factory.count(&ClassName::new("LangT")), 2);
        for threads in [2usize, 4, 8] {
            let mut ctx = EvalCtx::new(&refs).with_parallelism(Parallelism::new(threads));
            ctx.set_parallel_min_rows(1);
            let mut stats = ExecStats::default();
            let rows = run_plan(&plan, &mut ctx, &mut stats).unwrap();
            assert!(
                !ctx.shard_stats().is_empty(),
                "the map must have gone parallel"
            );
            assert_eq!(rows, seq_rows, "rows diverged at {threads} threads");
            assert_eq!(stats, seq_stats, "stats diverged at {threads} threads");
            // The factory ended in the sequential state: same identities,
            // numbered in sequential first-call order.
            assert_eq!(ctx.factory.count(&ClassName::new("CityT")), 3);
            assert_eq!(ctx.factory.count(&ClassName::new("LangT")), 2);
            assert_eq!(
                ctx.factory
                    .lookup(&ClassName::new("LangT"), &Value::str("English")),
                seq_ctx
                    .factory
                    .lookup(&ClassName::new("LangT"), &Value::str("English"))
            );
        }
    }

    /// Intra-Map taint laundering pins the operator sequential: a later
    /// binding of the same Map comparing an *earlier* Skolem-bearing
    /// binding's variable contains no Skolem node itself, but would observe
    /// the provisional identity on a worker. Sequentially, factory
    /// memoisation makes the comparison true; the gate must keep it that
    /// way at every thread count.
    #[test]
    fn intra_map_skolem_laundering_pins_to_the_sequential_path() {
        let inst = euro_instance();
        let refs = [&inst];
        let mk = || {
            Expr::Skolem(
                ClassName::new("CityT"),
                Box::new(Expr::var("E").proj("name")),
            )
        };
        // First Map resolves T to real identities (operator barrier); the
        // second Map re-mints the same keys as T2 and compares T2 with T.
        let plan = Plan::scan("CityE", "E")
            .map(vec![("T".to_string(), mk())])
            .map(vec![
                ("T2".to_string(), mk()),
                ("B".to_string(), Expr::var("T2").eq(Expr::var("T"))),
            ]);
        let mut seq_ctx = EvalCtx::new(&refs).with_parallelism(Parallelism::sequential());
        let mut seq_stats = ExecStats::default();
        let seq_rows = run_plan(&plan, &mut seq_ctx, &mut seq_stats).unwrap();
        assert!(
            seq_rows.iter().all(|r| r["B"] == Value::Bool(true)),
            "memoisation must make T2 equal T sequentially"
        );
        let mut ctx = EvalCtx::new(&refs).with_parallelism(Parallelism::new(8));
        ctx.set_parallel_min_rows(1);
        let mut stats = ExecStats::default();
        let rows = run_plan(&plan, &mut ctx, &mut stats).unwrap();
        assert_eq!(rows, seq_rows);
        // The first (laundering-free) Map may parallelise, but the second
        // must not have: every B is still true.
        assert!(rows.iter().all(|r| r["B"] == Value::Bool(true)));
        assert!(!map_bindings_claim_safe(&[
            ("T2".to_string(), mk()),
            ("B".to_string(), Expr::var("T2").eq(Expr::var("T"))),
        ]));
    }

    /// A Skolem in *inspection position* — under a comparison — still pins
    /// its operator to the sequential path: provisional identities must
    /// never be compared.
    #[test]
    fn skolem_comparisons_still_pin_to_the_sequential_path() {
        let inst = euro_instance();
        let refs = [&inst];
        let plan = Plan::scan("CityE", "E").map(vec![(
            "B".to_string(),
            Expr::Skolem(
                ClassName::new("CityT"),
                Box::new(Expr::var("E").proj("name")),
            )
            .eq(Expr::var("E")),
        )]);
        let mut ctx = EvalCtx::new(&refs).with_parallelism(Parallelism::new(8));
        ctx.set_parallel_min_rows(1);
        let mut stats = ExecStats::default();
        let rows = run_plan(&plan, &mut ctx, &mut stats).unwrap();
        assert_eq!(rows.len(), 3);
        // The factory was exercised on the main thread: the identities exist
        // and no parallel worker ran for this operator.
        assert_eq!(ctx.factory.count(&ClassName::new("CityT")), 3);
        assert!(ctx.shard_stats().is_empty());
    }

    /// Parallel Skolem **insertion**: with enough rows, `execute_query`
    /// evaluates insert keys and attributes on the pool (claiming provisional
    /// identities) and applies them in row order — the target instance is
    /// bit-identical to the sequential loop at every thread count, duplicate
    /// keys across workers included.
    #[test]
    fn parallel_skolem_insertion_is_bit_identical_to_sequential() {
        let mut inst = Instance::new("src");
        for i in 0..40 {
            inst.insert_fresh(
                &ClassName::new("CityE"),
                Value::record([
                    ("name", Value::str(format!("city{i}"))),
                    // 8 distinct country keys, repeated across the extent so
                    // different workers claim the same key.
                    ("cname", Value::str(format!("country{}", i % 8))),
                ]),
            );
        }
        let refs = [&inst];
        let query = Query {
            name: "skolem_insert".to_string(),
            plan: Plan::scan("CityE", "E"),
            inserts: vec![InsertAction {
                class: ClassName::new("CityT"),
                key: Expr::var("E").proj("name"),
                attrs: vec![
                    ("name".to_string(), Expr::var("E").proj("name")),
                    (
                        // The attribute mints a CountryT identity per row —
                        // the Skolem-heavy insertion shape of E6.
                        "country".to_string(),
                        Expr::Skolem(
                            ClassName::new("CountryT"),
                            Box::new(Expr::var("E").proj("cname")),
                        ),
                    ),
                ],
            }],
        };
        let mut seq_ctx = EvalCtx::new(&refs).with_parallelism(Parallelism::sequential());
        let mut seq_stats = ExecStats::default();
        let mut seq_target = Instance::new("target");
        execute_query(&query, &mut seq_ctx, &mut seq_target, &mut seq_stats).unwrap();
        assert_eq!(seq_target.extent_size(&ClassName::new("CityT")), 40);
        for threads in [2usize, 4, 8] {
            let mut ctx = EvalCtx::new(&refs).with_parallelism(Parallelism::new(threads));
            ctx.set_parallel_min_rows(1);
            let mut stats = ExecStats::default();
            let mut target = Instance::new("target");
            execute_query(&query, &mut ctx, &mut target, &mut stats).unwrap();
            assert_eq!(target, seq_target, "target diverged at {threads} threads");
            assert_eq!(stats, seq_stats, "stats diverged at {threads} threads");
            assert_eq!(
                ctx.factory.count(&ClassName::new("CountryT")),
                seq_ctx.factory.count(&ClassName::new("CountryT"))
            );
        }
    }

    /// The split evaluate/apply API (query-level parallelism's building
    /// block) reproduces `execute_query` exactly: evaluating on a claim
    /// context and applying on the main context yields the identical target
    /// and factory state.
    #[test]
    fn evaluate_then_apply_equals_direct_execution() {
        let inst = euro_instance();
        let refs = [&inst];
        let query = Query {
            name: "T2".to_string(),
            plan: Plan::scan("CityE", "E")
                .map(vec![("N".to_string(), Expr::var("E").proj("name"))]),
            inserts: vec![InsertAction {
                class: ClassName::new("CityT"),
                key: Expr::var("N"),
                attrs: vec![
                    ("name".to_string(), Expr::var("N")),
                    (
                        "place".to_string(),
                        Expr::Variant(
                            "euro_city".to_string(),
                            Box::new(Expr::Skolem(
                                ClassName::new("CountryT"),
                                Box::new(Expr::var("E").path("country.name")),
                            )),
                        ),
                    ),
                ],
            }],
        };
        let mut direct_ctx = EvalCtx::new(&refs).with_parallelism(Parallelism::sequential());
        let mut direct_stats = ExecStats::default();
        let mut direct_target = Instance::new("target");
        execute_query(
            &query,
            &mut direct_ctx,
            &mut direct_target,
            &mut direct_stats,
        )
        .unwrap();

        let mut worker_ctx = EvalCtx::claim_worker(&refs);
        let mut worker_stats = ExecStats::default();
        let evaluated = evaluate_query(&query, &mut worker_ctx, &mut worker_stats).unwrap();
        assert_eq!(evaluated.rows_output(), 3);
        // The worker never touched a real factory.
        assert!(worker_ctx.factory.is_empty());
        let mut main_ctx = EvalCtx::new(&refs).with_parallelism(Parallelism::sequential());
        let mut main_stats = ExecStats::default();
        let mut target = Instance::new("target");
        apply_evaluated_query(
            &query,
            evaluated,
            &mut main_ctx,
            &mut target,
            &mut main_stats,
        )
        .unwrap();
        assert_eq!(target, direct_target);
        // Worker stats (evaluation) + main stats (application) together
        // equal the direct run's counters.
        main_stats.absorb(worker_stats);
        assert_eq!(main_stats, direct_stats);
        assert_eq!(
            main_ctx.factory.count(&ClassName::new("CountryT")),
            direct_ctx.factory.count(&ClassName::new("CountryT"))
        );
        assert_eq!(
            main_ctx
                .factory
                .lookup(&ClassName::new("CountryT"), &Value::str("France")),
            direct_ctx
                .factory
                .lookup(&ClassName::new("CountryT"), &Value::str("France"))
        );
    }

    /// The per-shard breakdown accumulated by a parallel run sums to the
    /// merged totals for the worker-side counters.
    #[test]
    fn shard_stats_sum_to_the_merged_probe_totals() {
        let source = {
            let mut inst = Instance::new("s");
            for i in 0..16 {
                inst.insert_fresh(
                    &ClassName::new("CloneS"),
                    Value::record([("name", Value::str(format!("c{}", i % 4)))]),
                );
                inst.insert_fresh(
                    &ClassName::new("MarkerS"),
                    Value::record([
                        ("name", Value::str(format!("m{i}"))),
                        ("clone_name", Value::str(format!("c{}", i % 4))),
                    ]),
                );
            }
            inst
        };
        let refs = [&source];
        let probed = Plan::scan("MarkerS", "M").map(vec![]).hash_join(
            Plan::scan("CloneS", "C"),
            Expr::var("M").proj("clone_name"),
            Expr::var("C").proj("name"),
        );
        let mut ctx = EvalCtx::new(&refs).with_parallelism(Parallelism::new(4));
        ctx.set_parallel_min_rows(1);
        let mut stats = ExecStats::default();
        let _ = run_plan(&probed, &mut ctx, &mut stats).unwrap();
        let shards = ctx.take_shard_stats();
        assert!(!shards.is_empty());
        let probes: usize = shards.iter().map(|s| s.index_probes).sum();
        let hits: usize = shards.iter().map(|s| s.probe_cache_hits).sum();
        assert_eq!(probes, stats.index_probes);
        assert_eq!(hits, stats.probe_cache_hits);
        // Draining leaves the accumulator empty for the next run.
        assert!(ctx.shard_stats().is_empty());
    }

    #[test]
    fn multi_key_probe_join_verifies_secondary_keys() {
        let inst = euro_instance();
        let refs = [&inst];
        // The CountryE side is a bare scan: probed on `name`, with the
        // second (language vs country.language) pair verified per candidate.
        let plan = Plan::scan("CityE", "E").hash_join_multi(
            Plan::scan("CountryE", "C"),
            vec![
                (
                    Expr::var("E").path("country.name"),
                    Expr::var("C").proj("name"),
                ),
                (
                    Expr::var("E").path("country.language"),
                    Expr::var("C").proj("language"),
                ),
            ],
        );
        let mut ctx = EvalCtx::new(&refs);
        let mut stats = ExecStats::default();
        let rows = run_plan(&plan, &mut ctx, &mut stats).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(stats.index_probes, 2); // London and Manchester share a key
        assert_eq!(stats.probe_cache_hits, 1);
        // A mismatched secondary key filters every candidate out.
        let plan = Plan::scan("CityE", "E").hash_join_multi(
            Plan::scan("CountryE", "C"),
            vec![
                (
                    Expr::var("E").path("country.name"),
                    Expr::var("C").proj("name"),
                ),
                (Expr::var("E").proj("name"), Expr::var("C").proj("language")),
            ],
        );
        let mut ctx = EvalCtx::new(&refs);
        let mut stats = ExecStats::default();
        let rows = run_plan(&plan, &mut ctx, &mut stats).unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn scan_restrictions_narrow_extents_and_bypass_index_probes() {
        let inst = euro_instance();
        let refs = [&inst];
        let cities: Vec<Oid> = inst.extent(&ClassName::new("CityE")).cloned().collect();
        // Restricting CityE — the *driving* side — keeps the index fast
        // path: the one surviving delta row probes the CountryE index, and
        // the restriction applies where the driving rows are produced.
        let plan = Plan::scan("CityE", "E").hash_join(
            Plan::scan("CountryE", "C"),
            Expr::var("E").path("country.name"),
            Expr::var("C").proj("name"),
        );
        let mut ctx = EvalCtx::new(&refs);
        ctx.restrict_scan(
            "E",
            std::sync::Arc::new(std::iter::once(cities[2].clone()).collect()),
        );
        let mut stats = ExecStats::default();
        let rows = run_plan(&plan, &mut ctx, &mut stats).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0]["E"], Value::Oid(cities[2].clone()));
        assert_eq!(stats.index_probes, 1);
        assert_eq!(stats.restricted_scans, 1);
        // Restricting CountryE — the *indexed* side — also keeps the fast
        // path: the index answers from the full extent, and the probe
        // filters each candidate against the restriction set, so the
        // filtered-out identities never resurface. No scan of C actually
        // runs, so no restricted scan is recorded.
        let countries: Vec<Oid> = inst.extent(&ClassName::new("CountryE")).cloned().collect();
        let mut ctx = EvalCtx::new(&refs);
        ctx.restrict_scan(
            "C",
            std::sync::Arc::new(std::iter::once(countries[0].clone()).collect()),
        );
        let mut stats = ExecStats::default();
        let rows = run_plan(&plan, &mut ctx, &mut stats).unwrap();
        assert!(stats.index_probes > 0);
        assert_eq!(stats.restricted_scans, 0);
        assert!(!rows.is_empty());
        assert!(rows
            .iter()
            .all(|row| row["C"] == Value::Oid(countries[0].clone())));
        // An empty restriction yields no rows at all.
        let mut ctx = EvalCtx::new(&refs);
        ctx.restrict_scan("E", std::sync::Arc::new(Default::default()));
        let mut stats = ExecStats::default();
        let rows = run_plan(&plan, &mut ctx, &mut stats).unwrap();
        assert!(rows.is_empty());
        // Clearing restrictions restores the full result and the fast path.
        let mut ctx = EvalCtx::new(&refs);
        ctx.restrict_scan("E", std::sync::Arc::new(Default::default()));
        ctx.clear_scan_restrictions();
        let mut stats = ExecStats::default();
        let rows = run_plan(&plan, &mut ctx, &mut stats).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(stats.restricted_scans, 0);
        assert!(stats.index_probes > 0);
    }

    #[test]
    fn scan_order_trace_mirrors_operator_order() {
        // Scan → its own var; Filter/Map pass through.
        let plan = Plan::scan("CityE", "E")
            .filter(Expr::var("E").proj("is_capital"))
            .map(vec![("N".to_string(), Expr::var("E").proj("name"))]);
        assert_eq!(scan_order_trace(&plan), Some(vec!["E".to_string()]));
        // Nested loop: left varies slowest.
        let plan = Plan::scan("CityE", "E").join(Plan::scan("CountryE", "C"), None);
        assert_eq!(
            scan_order_trace(&plan),
            Some(vec!["E".to_string(), "C".to_string()])
        );
        // Hash join with an indexable right side probes with the left, so
        // the left side varies slowest.
        let plan = Plan::scan("CityE", "E").hash_join(
            Plan::scan("CountryE", "C"),
            Expr::var("E").path("country.name"),
            Expr::var("C").proj("name"),
        );
        assert_eq!(
            scan_order_trace(&plan),
            Some(vec!["E".to_string(), "C".to_string()])
        );
        // Generic hash join (computed keys both sides) probes with the
        // right side, so the right varies slowest.
        let plan = Plan::scan("CityE", "E").hash_join(
            Plan::scan("CountryE", "C"),
            Expr::var("E").path("country.name"),
            Expr::var("C").path("capital.name"),
        );
        assert_eq!(
            scan_order_trace(&plan),
            Some(vec!["C".to_string(), "E".to_string()])
        );
        // Distinct is untraceable: first-occurrence order depends on values.
        let plan = Plan::scan("CityE", "E").distinct();
        assert_eq!(scan_order_trace(&plan), None);
    }

    #[test]
    fn restricted_runs_match_filtered_full_runs() {
        // A restricted evaluation must produce exactly the rows of the full
        // evaluation whose restricted scan var falls in the kept set — the
        // correctness contract the delta evaluator depends on.
        let inst = euro_instance();
        let refs = [&inst];
        let cities: Vec<Oid> = inst.extent(&ClassName::new("CityE")).cloned().collect();
        let keep: std::collections::BTreeSet<Oid> =
            [cities[0].clone(), cities[2].clone()].into_iter().collect();
        let plan = Plan::scan("CityE", "E")
            .join(
                Plan::scan("CountryE", "C"),
                Some(
                    Expr::var("E")
                        .path("country.name")
                        .eq(Expr::var("C").proj("name")),
                ),
            )
            .filter(Expr::var("E").proj("is_capital"));
        let mut ctx = EvalCtx::new(&refs);
        let mut stats = ExecStats::default();
        let full = run_plan(&plan, &mut ctx, &mut stats).unwrap();
        let expected: Vec<Row> = full
            .iter()
            .filter(|row| matches!(&row["E"], Value::Oid(o) if keep.contains(o)))
            .cloned()
            .collect();
        let mut ctx = EvalCtx::new(&refs);
        ctx.restrict_scan("E", std::sync::Arc::new(keep));
        let mut stats = ExecStats::default();
        let restricted = run_plan(&plan, &mut ctx, &mut stats).unwrap();
        assert_eq!(restricted, expected);
    }
}
