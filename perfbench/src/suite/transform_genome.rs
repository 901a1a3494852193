//! `transform_genome`: the paper's motivating integration, the ACeDB-style
//! genome source loaded into the warehouse by `Morphase::transform`, in a
//! closed loop with one caller.

use std::collections::BTreeMap;

use morphase::{Morphase, PipelineOptions};
use workloads::genome::{self, GenomeParams};

use crate::replay;
use crate::report::Outcome;
use crate::run::{self, Ctx};
use crate::trace::Tracer;

/// A transform; 210 to 400 of them per 36 s run, so p90 whichever side of
/// 200 a run lands.
const OP: run::Op = run::Op {
    alias: "transform",
    note: "one Morphase::transform: compile, execute, verify",
    tail_at: 90,
};

/// The source shape: E6 scaled 8x.
pub fn params(seed: u64) -> GenomeParams {
    GenomeParams {
        clones: 800,
        markers: 2_400,
        density: 0.6,
        seed,
    }
}

pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let params = params(ctx.seed);
    out.note(
        "shape",
        "genome E6x8 (800 clones, 2400 markers, density 0.6); closed loop, one caller",
    );
    let ((program, source), setup) = run::repeated_setup(ctx.threads(), |_| {
        (genome::program(), genome::generate_source(&params))
    });
    let (base, _) = replay::split_program(&program);
    let text = genome::program_text();
    let morphase = Morphase::new();
    let reference = match morphase.transform(&program, &[&source]) {
        Ok(run) => run,
        Err(e) => return out.check("warm-up transform", Err(e.to_string())),
    };
    let transform = || {
        morphase
            .transform(&program, &[&source])
            .map_err(|e| e.to_string())
    };
    let same = |run: morphase::MorphaseRun| run::same_target(&run.target, &reference.target);
    run::reset_peak_rss(out);

    if ctx.trace {
        let mut tracer = Tracer::default();
        let mut counters = BTreeMap::new();
        let (traced, untraced, errors) = run::traced_loop(
            ctx.seconds,
            &mut tracer,
            |tracer| {
                let root = tracer.begin("bench.transform");
                let result = replay::transform(tracer, &base, text, &[&source]);
                tracer.end(root);
                let (compiled, executed) = result?;
                counters = replay::counters(&compiled, &executed);
                Ok(executed.target)
            },
            |target| run::same_target(&target, &reference.target),
        );
        run::record_peak_rss(out);
        run::count_ops(out, "replay", &traced, &errors);
        run::count_ops(out, "unrecorded replay", &untraced, &[]);
        run::per_layer(out, tracer, &traced, &untraced, &counters);
    } else {
        let (ops, errors) = run::closed_loop(ctx.seconds, transform, same);
        run::record_peak_rss(out);
        run::count_ops(out, "transform", &ops, &errors);
        run::end_to_end(out, &setup, &ops, &OP);
        let mut tracer = Tracer::default();
        out.check(
            "stage-by-stage replay target deep-equals Morphase::transform",
            replay::transform(&mut tracer, &base, text, &[&source])
                .and_then(|(_, executed)| run::same_target(&executed.target, &reference.target)),
        );
    }

    let sequential = PipelineOptions {
        parallelism: cpl::Parallelism::new(1),
        ..PipelineOptions::default()
    };
    out.check(
        "threads=1 target deep-equals the default-threads target",
        Morphase::with_options(sequential)
            .transform(&program, &[&source])
            .map_err(|e| e.to_string())
            .and_then(|run| run::same_target(&run.target, &reference.target)),
    );
    out.check(
        "target verification stayed on",
        if PipelineOptions::default().verify_target && !reference.timings.verify.is_zero() {
            Ok(())
        } else {
            Err("verify_target is off or verification did not run".into())
        },
    );
}
