//! `federated_load`: the warehouse integrated from CSV, ACeDB-style and
//! relational providers by `Morphase::transform_federated`, with filter
//! pushdown and chunked streaming ingest, in one closed loop per core.

use std::collections::BTreeMap;

use morphase::{Morphase, MorphaseRun, PipelineOptions};
use storage::ScanProvider;
use workloads::federated::{self, FederatedParams};

use crate::replay;
use crate::report::Outcome;
use crate::run::{self, Ctx};
use crate::trace::Tracer;

/// The source shape: E13 scaled 4x.
pub fn params(seed: u64) -> FederatedParams {
    FederatedParams {
        clones: 400,
        markers: 1_200,
        assays: 80_000,
        seed,
    }
}

/// A federated load; 450 to 650 of them per 36 s run over both callers, so
/// p90 has at least 40 samples beyond it.
const OP: run::Op = run::Op {
    alias: "transform",
    note: "one Morphase::transform_federated: compile, ingest, execute, verify",
    tail_at: 90,
};

/// The traced replay of `transform_federated`: compile against provider
/// statistics with the pushdown planner, ingest every class with the filters
/// it pushed, execute and verify.
fn replay(
    tr: &mut Tracer,
    base: &wol_lang::program::Program,
    text: &str,
    providers: &[&dyn ScanProvider],
) -> Result<(wol_model::Instance, BTreeMap<String, f64>), String> {
    let (external, catalog, owner) = tr.span("storage.provider_stats", || {
        replay::provider_catalog(providers)
    });
    let compiled = replay::compile(tr, base, text, &[], &external, Some(&catalog))?;
    let filters = replay::pushed_filters(&compiled);
    let pushed: usize = filters.values().map(Vec::len).sum();
    let schema = base.sources[0].schema.name().to_string();
    let (instance, rows_in, rows_out) = replay::ingest(tr, &schema, providers, &owner, filters)?;
    let executed = replay::execute(tr, &compiled, &[&instance], cpl::Parallelism::from_env())?;
    replay::verify(tr, &compiled.augmented, &executed.target)?;
    let mut counters = replay::counters(&compiled, &executed);
    counters.insert("storage.provider_rows_in".into(), rows_in as f64);
    counters.insert("storage.provider_rows_out".into(), rows_out as f64);
    counters.insert(
        "storage.pushdown_keep_ratio".into(),
        rows_out as f64 / rows_in.max(1) as f64,
    );
    counters.insert("storage.pushed_filters".into(), pushed as f64);
    Ok((executed.target, counters))
}

pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let params = params(ctx.seed);
    out.note(
        "shape",
        "federated E13x4 (400 clones, 1200 markers, 80000 assay CSV rows), pushdown on; \
         one closed-loop caller per core",
    );
    let ((csv, ace, rel), setup) =
        run::repeated_setup(ctx.threads(), |_| federated::providers(&params));
    let providers: [&dyn ScanProvider; 3] = [&csv, &ace, &rel];
    let program = federated::program();
    let (base, _) = replay::split_program(&program);
    let text = federated::program_text();
    let morphase = Morphase::new();
    let reference = match morphase.transform_federated(&program, &providers) {
        Ok(run) => run,
        Err(e) => return out.check("warm-up transform", Err(e.to_string())),
    };
    out.note("pushdown", morphase.options.pushdown);
    let transform = || {
        let providers: [&dyn ScanProvider; 3] = [&csv, &ace, &rel];
        morphase
            .transform_federated(&program, &providers)
            .map_err(|e| e.to_string())
    };
    let same = |run: MorphaseRun| run::same_target(&run.target, &reference.target);
    run::reset_peak_rss(out);

    if ctx.trace {
        let mut tracer = Tracer::default();
        let mut counters = BTreeMap::new();
        let (traced, untraced, errors) = run::traced_loop(
            ctx.seconds,
            &mut tracer,
            |tracer| {
                let root = tracer.begin("bench.transform_federated");
                let result = replay(tracer, &base, text, &providers);
                tracer.end(root);
                let (target, c) = result?;
                counters = c;
                Ok(target)
            },
            |target| run::same_target(&target, &reference.target),
        );
        run::record_peak_rss(out);
        run::count_ops(out, "replay", &traced, &errors);
        run::count_ops(out, "unrecorded replay", &untraced, &[]);
        run::per_layer(out, tracer, &traced, &untraced, &counters);
    } else {
        let (ops, errors) = run::closed_loops(ctx.threads(), ctx.seconds, transform, same);
        run::record_peak_rss(out);
        run::count_ops(out, "federated transform", &ops, &errors);
        run::end_to_end(out, &setup, &ops, &OP);
        out.check(
            "stage-by-stage replay target deep-equals transform_federated",
            replay(&mut Tracer::default(), &base, text, &providers)
                .and_then(|(target, _)| run::same_target(&target, &reference.target)),
        );
    }

    let full_ingest = PipelineOptions {
        pushdown: false,
        ..PipelineOptions::default()
    };
    out.check(
        "pushdown target deep-equals the full-ingest (pushdown: false) target",
        Morphase::with_options(full_ingest)
            .transform_federated(&program, &providers)
            .map_err(|e| e.to_string())
            .and_then(|run| run::same_target(&run.target, &reference.target)),
    );
}
