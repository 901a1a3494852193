//! The Morphase pipeline replayed stage by stage through each layer's public
//! functions, with a span around every call. The replay mirrors what
//! `Morphase::transform` and `Morphase::transform_federated` do inside; its
//! target must deep-equal theirs, which the workloads check.

use std::collections::{BTreeMap, BTreeSet};

use cpl::expr::EvalCtx;
use cpl::{ExecStats, ExternalClassStats, Plan, PushCmp, PushdownCatalog, PushedPredicate, Query};
use morphase::{
    compile_program_pushdown, compile_program_with, generate_key_clauses, plan_schedule,
    PipelineOptions, PlanMode,
};
use storage::{PushOp, Pushdown, PushedFilter, ScanProvider, DEFAULT_CHUNK_ROWS};
use wol_engine::normalize::{NormalProgram, NormalizeOptions};
use wol_engine::snf::{program_to_snf, snf_stats};
use wol_lang::program::Program;
use wol_model::{ClassName, Instance};

use crate::trace::Tracer;

/// The compile side of a replayed run.
pub struct Compiled {
    /// The program with generated key and merge-key clauses added.
    pub augmented: Program,
    /// The normal-form program.
    pub normal: NormalProgram,
    /// One compiled query per normal clause.
    pub queries: Vec<Query>,
    /// The planner's per-join estimates, per query.
    pub join_estimates: Vec<Vec<cpl::JoinEstimate>>,
    /// Predicates the pushdown planner reported, per query (empty unless a
    /// catalog was given).
    pub pushed: Vec<Vec<PushedPredicate>>,
    /// Clauses the metadata stage generated.
    pub generated: usize,
    /// Atoms after snf rewriting.
    pub snf_atoms: usize,
}

/// What a replayed execution produced and counted.
pub struct Executed {
    /// The target instance.
    pub target: Instance,
    /// Executor counters over every query.
    pub exec: ExecStats,
    /// Rows the columnar executor covered.
    pub columnar_rows: usize,
    /// The busiest worker's produced rows over the mean (1 when sequential).
    pub shard_imbalance: f64,
    /// The largest estimated-versus-actual join error ratio (>= 1).
    pub join_error_max: f64,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Parse `text` into `base` (a program with no clauses) and run stages 0–4:
/// metadata, validation, snf, normalisation, statistics and translation.
pub fn compile(
    tr: &mut Tracer,
    base: &Program,
    text: &str,
    sources: &[&Instance],
    external: &[ExternalClassStats],
    catalog: Option<&PushdownCatalog>,
) -> Result<Compiled, String> {
    let options = PipelineOptions::default();
    let clauses = tr.span("wol_lang.parse", || wol_lang::parse_program(text));
    let mut augmented = base.clone();
    augmented.clauses = clauses.map_err(err)?;

    let generated = tr.span("morphase.metadata", || {
        let mut added = generate_key_clauses(&augmented.target.schema, &augmented.target.keys);
        for binding in &augmented.sources {
            added.extend(morphase::metadata::generate_merge_key_clauses(
                &binding.schema,
                &binding.keys,
            ));
        }
        let generated = added.len();
        augmented.clauses.extend(added);
        generated
    });
    tr.span("wol_lang.validate", || augmented.validate())
        .map_err(err)?;
    let snf_atoms = tr.span("wol_engine.snf", || {
        let snf = program_to_snf(&augmented.clauses);
        snf_stats(&augmented.clauses, &snf).atoms_after
    });
    let normalize_options = NormalizeOptions {
        use_target_keys: options.use_target_keys,
        use_source_constraints: options.use_source_constraints,
        ..NormalizeOptions::default()
    };
    let normal = tr
        .span("wol_engine.normalize", || {
            wol_engine::normalize(&augmented, &normalize_options)
        })
        .map_err(err)?;
    let stats = tr.span("cpl.statistics", || {
        cpl::Statistics::from_instances(sources)
            .with_external(external.to_vec())
            .with_cost_model(options.cost_model)
    });
    let id = tr.begin("morphase.compile");
    let compiled = match catalog {
        Some(catalog) => compile_program_pushdown(&normal, &stats, catalog),
        None => compile_program_with(&normal, PlanMode::PlannerWithStats(&stats))
            .map(|q| (q, Vec::new())),
    };
    let (queries, pushed) = match compiled {
        Ok(out) => out,
        Err(e) => {
            tr.end(id);
            return Err(err(e));
        }
    };
    let join_estimates = queries
        .iter()
        .map(|q| cpl::estimate_join_outputs(&q.plan, &stats))
        .collect();
    tr.end(id);
    Ok(Compiled {
        augmented,
        normal,
        queries,
        join_estimates,
        pushed,
        generated,
        snf_atoms,
    })
}

/// Stage 5: execute the compiled queries in schedule order, one
/// `execute_query` span per query.
pub fn execute(
    tr: &mut Tracer,
    compiled: &Compiled,
    sources: &[&Instance],
    parallelism: cpl::Parallelism,
) -> Result<Executed, String> {
    let mut ctx = EvalCtx::new(sources).with_parallelism(parallelism);
    ctx.enable_join_trace();
    let mut target = Instance::new(compiled.augmented.target.schema.name());
    let mut exec = ExecStats::default();
    let mut join_error_max: f64 = 1.0;
    let schedule = tr.span("morphase.schedule", || plan_schedule(&compiled.queries));
    for &qi in schedule.stages.iter().flatten() {
        let query = &compiled.queries[qi];
        tr.span("cpl.execute_query", || {
            cpl::execute_query(query, &mut ctx, &mut target, &mut exec)
        })
        .map_err(err)?;
        for (est, act) in compiled.join_estimates[qi]
            .iter()
            .zip(ctx.take_join_trace())
        {
            let (e, a) = (est.rows.round().max(1.0), (act.rows as f64).max(1.0));
            join_error_max = join_error_max.max(e.max(a) / e.min(a));
        }
    }
    let shards = ctx.take_shard_stats();
    let produced: Vec<f64> = shards.iter().map(|s| s.rows_produced as f64).collect();
    let mean = produced.iter().sum::<f64>() / produced.len().max(1) as f64;
    let shard_imbalance = if mean > 0.0 {
        produced.iter().cloned().fold(0.0, f64::max) / mean
    } else {
        1.0
    };
    Ok(Executed {
        target,
        exec,
        columnar_rows: ctx.take_columnar_stats().batch_rows,
        shard_imbalance,
        join_error_max,
    })
}

/// Stage 6: check the target against the target schema and keys, then its
/// non-Skolem-key constraints.
pub fn verify(tr: &mut Tracer, augmented: &Program, target: &Instance) -> Result<(), String> {
    let id = tr.begin("wol_engine.verify");
    let result = (|| {
        wol_model::validate::check_keyed_instance(
            target,
            &augmented.target.schema,
            &augmented.target.keys,
        )
        .map_err(err)?;
        let constraints: Vec<&wol_lang::Clause> = augmented
            .target_constraints()
            .into_iter()
            .map(|(_, c)| c)
            .filter(|c| {
                !matches!(
                    wol_engine::classify_constraint(c),
                    wol_engine::ConstraintClass::SkolemKey(_)
                )
            })
            .collect();
        let refs = [target];
        wol_engine::enforce_constraints(&constraints, &wol_engine::Databases::new(&refs))
            .map_err(err)
    })();
    tr.end(id);
    result
}

/// Provider statistics and the pushdown catalog allowing every attribute a
/// provider reports, with the owning provider of each class.
pub fn provider_catalog(
    providers: &[&dyn ScanProvider],
) -> (
    Vec<ExternalClassStats>,
    PushdownCatalog,
    BTreeMap<ClassName, usize>,
) {
    let mut external = Vec::new();
    let mut catalog = PushdownCatalog::default();
    let mut owner = BTreeMap::new();
    for (index, provider) in providers.iter().enumerate() {
        for class in provider.classes() {
            if let Some(stats) = provider.stats(&class) {
                for attr in stats.ndvs.keys() {
                    catalog.allow(&stats.class, attr);
                }
                external.push(ExternalClassStats {
                    class: stats.class,
                    rows: stats.rows,
                    ndvs: stats.ndvs,
                });
            }
            owner.insert(class, index);
        }
    }
    (external, catalog, owner)
}

/// The filters to push per class: a class qualifies only when every scan of
/// it across the program reported the same predicate set, so a filter never
/// starves another scan of the shared extent.
pub fn pushed_filters(compiled: &Compiled) -> BTreeMap<ClassName, Vec<PushedFilter>> {
    fn count_scans(plan: &Plan, counts: &mut BTreeMap<ClassName, usize>) {
        match plan {
            Plan::Scan { class, .. } => *counts.entry(class.clone()).or_default() += 1,
            Plan::Filter { input, .. } | Plan::Map { input, .. } | Plan::Distinct { input } => {
                count_scans(input, counts)
            }
            Plan::NestedLoopJoin { left, right, .. }
            | Plan::HashJoin { left, right, .. }
            | Plan::CrossJoin { left, right } => {
                count_scans(left, counts);
                count_scans(right, counts);
            }
        }
    }
    let mut scans = BTreeMap::new();
    for query in &compiled.queries {
        count_scans(&query.plan, &mut scans);
    }
    type Key = (String, String, String);
    let mut per_scan: BTreeMap<ClassName, BTreeMap<(usize, String), BTreeSet<Key>>> =
        BTreeMap::new();
    for (query, predicates) in compiled.pushed.iter().enumerate() {
        for p in predicates {
            per_scan
                .entry(p.class.clone())
                .or_default()
                .entry((query, p.var.clone()))
                .or_default()
                .insert((
                    p.attr.clone(),
                    format!("{:?}", p.cmp),
                    format!("{:?}", p.value),
                ));
        }
    }
    let mut out: BTreeMap<ClassName, Vec<PushedFilter>> = BTreeMap::new();
    for predicate in compiled.pushed.iter().flatten() {
        let class = &predicate.class;
        let eligible = per_scan.get(class).is_some_and(|s| {
            scans.get(class) == Some(&s.len()) && s.values().collect::<BTreeSet<_>>().len() == 1
        });
        if !eligible {
            continue;
        }
        let filter = PushedFilter {
            attr: predicate.attr.clone(),
            op: match predicate.cmp {
                PushCmp::Eq => PushOp::Eq,
                PushCmp::Neq => PushOp::Neq,
                PushCmp::Lt => PushOp::Lt,
                PushCmp::Leq => PushOp::Leq,
                PushCmp::Gt => PushOp::Gt,
                PushCmp::Geq => PushOp::Geq,
            },
            value: predicate.value.clone(),
        };
        let entry = out.entry(class.clone()).or_default();
        if !entry.contains(&filter) {
            entry.push(filter);
        }
    }
    out
}

/// Stream every provider class into one instance, one span per class named
/// after the provider.
pub fn ingest(
    tr: &mut Tracer,
    schema: &str,
    providers: &[&dyn ScanProvider],
    owner: &BTreeMap<ClassName, usize>,
    mut filters: BTreeMap<ClassName, Vec<PushedFilter>>,
) -> Result<(Instance, usize, usize), String> {
    let mut instance = Instance::new(schema);
    let (mut rows_in, mut rows_out) = (0, 0);
    for (class, &index) in owner {
        let pushdown = Pushdown {
            filters: filters.remove(class).unwrap_or_default(),
            projection: None,
        };
        let provider = providers[index];
        let name = format!("storage.{}.ingest", provider.name());
        let stats = tr
            .span(&name, || {
                storage::ingest_class(
                    &mut instance,
                    provider,
                    class,
                    &pushdown,
                    DEFAULT_CHUNK_ROWS,
                )
            })
            .map_err(err)?;
        rows_in += stats.rows_in;
        rows_out += stats.rows_out;
    }
    Ok((instance, rows_in, rows_out))
}

/// The layer counters of one replayed run, keyed by per-layer metric name.
pub fn counters(compiled: &Compiled, executed: &Executed) -> BTreeMap<String, f64> {
    let e = &executed.exec;
    let output_per_produced = if e.rows_produced > 0 {
        e.objects_written as f64 / e.rows_produced as f64
    } else {
        0.0
    };
    [
        ("morphase.generated_clauses", compiled.generated as f64),
        ("wol_engine.snf_atoms", compiled.snf_atoms as f64),
        (
            "wol_engine.normal_clauses",
            compiled.normal.clauses.len() as f64,
        ),
        ("cpl.join_estimate_error_max", executed.join_error_max),
        ("cpl.rows_scanned", e.rows_scanned as f64),
        ("cpl.rows_produced", e.rows_produced as f64),
        ("cpl.max_intermediate_rows", e.max_intermediate_rows as f64),
        ("cpl.index_probes", e.index_probes as f64),
        ("cpl.probe_cache_hits", e.probe_cache_hits as f64),
        ("cpl.columnar_rows", executed.columnar_rows as f64),
        ("cpl.objects_written", e.objects_written as f64),
        ("cpl.output_per_produced", output_per_produced),
        ("cpl.shard_imbalance", executed.shard_imbalance),
    ]
    .iter()
    .map(|&(k, v)| (k.to_string(), v))
    .collect()
}

/// Stages 0–6 over in-memory sources: the replay of `Morphase::transform`.
pub fn transform(
    tr: &mut Tracer,
    base: &Program,
    text: &str,
    sources: &[&Instance],
) -> Result<(Compiled, Executed), String> {
    let compiled = compile(tr, base, text, sources, &[], None)?;
    let executed = execute(tr, &compiled, sources, cpl::Parallelism::from_env())?;
    verify(tr, &compiled.augmented, &executed.target)?;
    Ok((compiled, executed))
}

/// `program` with its clauses removed, and its clauses as parseable text.
pub fn split_program(program: &Program) -> (Program, String) {
    let mut base = program.clone();
    base.clauses.clear();
    (base, wol_lang::render_program(&program.clauses))
}
