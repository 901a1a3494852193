//! `standing_service`: the warehouse kept standing by `PipelineService` over
//! a durable `MaterializedPipeline`. One writer applies 2-operation batches
//! in a closed loop while one reader takes snapshots and resolves
//! marker-to-clone references with a fixed think time. After the stream the
//! service shuts down and the pipeline is reopened from its journal.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use morphase::{
    BatchConstraintMode, BatchOutcome, BatchReport, DurableOptions, MaintainStats,
    MaterializedPipeline, PipelineOptions, PipelineService,
};
use wol_model::{ClassName, Instance, Value};
use workloads::genome::{self, GenomeParams};
use workloads::traffic::{TrafficGen, TrafficWeights};

use crate::replay;
use crate::report::{self, Outcome};
use crate::run::{self, Ctx};
use crate::stats::{median, Samples};
use crate::trace::Tracer;

/// Operations per mutation batch. Two rather than four: with four, about a
/// third of the batches rebuild, a share that varies with the seed, and the
/// batch median sits at about the in-place 78th percentile and moves with it
/// (see `RATIONALE.md`).
const BATCH_OPS: usize = 2;
/// Markers whose clone reference one read resolves.
const PROBE_MARKERS: usize = 32;
/// The reader's pause between reads.
const THINK: Duration = Duration::from_millis(2);
/// How many times the journal is reopened; `recover_s` is the median.
const REOPENS: usize = 5;

/// A batch; 900 to 1,400 of them per 36 s run, so p95 with room to spare.
const OP: run::Op = run::Op {
    alias: "batch",
    note: "PipelineService::apply call to return",
    tail_at: 95,
};

/// The source shape: genome E6x2.
pub fn params(seed: u64) -> GenomeParams {
    GenomeParams {
        seed,
        ..GenomeParams::scaled(2)
    }
}

/// A source constraint the traffic never violates (clone names are unique,
/// and renames pick fresh names), so the incremental checker has a merge key
/// to validate on every batch that touches a clone and to skip otherwise.
const CLONE_NAME_KEY: &str = "S1: X = Y <= X in CloneS, Y in CloneS, X.name = Y.name;";

/// The genome warehouse program plus [`CLONE_NAME_KEY`].
fn program() -> wol_lang::program::Program {
    genome::program().with_text(CLONE_NAME_KEY)
}

fn options() -> PipelineOptions {
    PipelineOptions {
        batch_constraints: BatchConstraintMode::Report,
        ..PipelineOptions::default()
    }
}

/// Resolve the clone reference of `PROBE_MARKERS` markers of `snapshot`,
/// starting at a position that moves with `read`. Every reference must
/// resolve to a clone in the same snapshot.
fn probe(snapshot: &Instance, read: usize) -> Result<(), String> {
    let markers = ClassName::new("MarkerD");
    let size = snapshot.extent_size(&markers);
    let skip = (read * 37) % size.saturating_sub(PROBE_MARKERS).max(1);
    for oid in snapshot.extent(&markers).skip(skip).take(PROBE_MARKERS) {
        let value = snapshot.value(oid).ok_or("marker vanished")?;
        if let Some(Value::Oid(clone)) = value.project("clone") {
            if snapshot.value(clone).is_none() {
                return Err(format!("{oid} references missing {clone}"));
            }
        }
    }
    Ok(())
}

/// Per-batch tallies the reports carry.
#[derive(Default)]
struct Tally {
    inplace: Samples,
    rebuild: Samples,
    kinds: BTreeMap<String, f64>,
}

impl Tally {
    fn add(&mut self, report: &BatchReport, secs: f64) {
        match report.outcome {
            BatchOutcome::InPlace => self.inplace.ok(secs),
            _ => self.rebuild.ok(secs),
        }
        if let Some(reason) = &report.rebuild_reason {
            *self
                .kinds
                .entry(format!(
                    "maintain.rebuilds.{}",
                    report::rebuild_kind(reason)
                ))
                .or_default() += 1.0;
        }
    }
}

/// What the writer/reader stream measured.
struct Stream {
    batches: Samples,
    batch_errors: Vec<String>,
    reads: Samples,
    read_errors: Vec<String>,
    snapshots: Samples,
    poisoned: bool,
}

/// Stand the service up over `pipeline`, stream for `seconds`, shut down.
fn serve(
    pipeline: MaterializedPipeline,
    traffic: &mut TrafficGen,
    seconds: f64,
    tally: &mut Tally,
) -> (Result<MaterializedPipeline, String>, Stream) {
    let service = PipelineService::start(pipeline);
    let done = AtomicBool::new(false);
    let mut batches = Samples::default();
    let mut batch_errors = Vec::new();
    let (reads, read_errors, snapshots) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let (mut reads, mut snapshots, mut errors) =
                (Samples::default(), Samples::default(), Vec::new());
            let mut read = 0;
            while !done.load(Ordering::Acquire) {
                let start = Instant::now();
                let snapshot = service.snapshot();
                let snap_secs = start.elapsed().as_secs_f64();
                let result = probe(&snapshot, read);
                let secs = start.elapsed().as_secs_f64();
                snapshots.ok(snap_secs);
                match result {
                    Ok(()) => reads.ok(secs),
                    Err(e) => {
                        reads.fail();
                        if errors.len() < 3 {
                            errors.push(e);
                        }
                    }
                }
                read += 1;
                std::thread::sleep(THINK);
            }
            (reads, errors, snapshots)
        });
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        while Instant::now() < deadline {
            let batch = traffic.next_batch(BATCH_OPS);
            let (result, secs) = run::timed(|| service.apply(batch));
            match result {
                Ok(report) => {
                    batches.ok(secs);
                    tally.add(&report, secs);
                }
                Err(e) => {
                    batches.fail();
                    if batch_errors.len() < 3 {
                        batch_errors.push(e.to_string());
                    }
                }
            }
        }
        done.store(true, Ordering::Release);
        reader.join().expect("reader thread panicked")
    });
    let poisoned = service.is_poisoned();
    let pipeline = service.shutdown().map_err(|e| e.to_string());
    let stream = Stream {
        batches,
        batch_errors,
        reads,
        read_errors,
        snapshots,
        poisoned,
    };
    (pipeline, stream)
}

/// The traced run's second half: drive `apply_batch` directly, with a span
/// per batch named by its outcome and a span for the snapshot publish.
/// Recording is on for every other batch and off for the rest; returns the
/// samples of each and the errors.
fn traced_stream(
    pipeline: &mut MaterializedPipeline,
    traffic: &mut TrafficGen,
    seconds: f64,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> (Samples, Samples, Vec<String>) {
    let mut samples = Samples::default();
    let mut errors = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let batch = traffic.next_batch(BATCH_OPS);
        let recording = tracer.next_request() % 2 == 1;
        tracer.set_recording(recording);
        let start = Instant::now();
        let root = tracer.begin("bench.batch");
        let id = tracer.begin("maintain.apply_batch");
        let result = pipeline.apply_batch(&batch);
        tracer.end(id);
        if let Ok(report) = &result {
            let outcome = match report.outcome {
                BatchOutcome::InPlace => "inplace",
                BatchOutcome::Rebuild => "rebuild",
                BatchOutcome::FullRerun => "full_rerun",
            };
            tracer.rename(id, format!("maintain.apply_batch.{outcome}"));
            let published = tracer.span("service.publish", || Arc::new(pipeline.target().clone()));
            drop(published);
        }
        tracer.end(root);
        let secs = start.elapsed().as_secs_f64();
        match result {
            Ok(report) => {
                samples.ok(secs);
                tally.add(&report, secs);
            }
            Err(e) => {
                samples.fail();
                if errors.len() < 3 {
                    errors.push(e.to_string());
                }
            }
        }
    }
    tracer.set_recording(true);
    let (on, off) = run::alternate(samples.values());
    (on, off, errors)
}

/// The maintainer's counters per batch applied between `before` and
/// `after`, keyed by per-layer metric name, so that they do not grow with the
/// number of batches a run gets through. `max_intermediate_rows` is a
/// high-water mark, so it is reported as read, over the pipeline's life.
fn per_batch_counters(before: &MaintainStats, after: &MaintainStats) -> BTreeMap<String, f64> {
    let batches = after.batches.saturating_sub(before.batches).max(1) as f64;
    let per = |a: u64, b: u64| a.saturating_sub(b) as f64 / batches;
    let (de, db) = (&after.delta_exec, &before.delta_exec);
    let exec = |a: usize, b: usize| per(a as u64, b as u64);
    let checked = after.constraints_checked - before.constraints_checked;
    let skipped = after.constraints_skipped - before.constraints_skipped;
    [
        (
            "maintain.inplace_ratio",
            (after.inplace_batches - before.inplace_batches) as f64 / batches,
        ),
        (
            "maintain.rows_added",
            per(after.rows_added, before.rows_added),
        ),
        (
            "maintain.rows_removed",
            per(after.rows_removed, before.rows_removed),
        ),
        (
            "maintain.objects_repaired",
            per(after.objects_repaired, before.objects_repaired),
        ),
        (
            "maintain.delta_rows_produced",
            exec(de.rows_produced, db.rows_produced),
        ),
        ("cpl.rows_scanned", exec(de.rows_scanned, db.rows_scanned)),
        (
            "cpl.rows_produced",
            exec(de.rows_produced, db.rows_produced),
        ),
        ("cpl.max_intermediate_rows", de.max_intermediate_rows as f64),
        ("cpl.index_probes", exec(de.index_probes, db.index_probes)),
        (
            "cpl.probe_cache_hits",
            exec(de.probe_cache_hits, db.probe_cache_hits),
        ),
        (
            "cpl.objects_written",
            exec(de.objects_written, db.objects_written),
        ),
        ("constraints.checked", per(checked, 0)),
        ("constraints.skipped", per(skipped, 0)),
        (
            "constraints.skip_ratio",
            skipped as f64 / (checked + skipped).max(1) as f64,
        ),
        (
            "constraints.objects",
            per(after.constraint_objects, before.constraint_objects),
        ),
        (
            "constraints.probes",
            per(after.constraint_probes, before.constraint_probes),
        ),
    ]
    .iter()
    .map(|&(k, v)| (k.to_string(), v))
    .collect()
}

/// Reopen the journal `REOPENS` times; every recovered target must equal
/// `expected` and account for `batches` committed batches.
fn recover(
    out: &mut Outcome,
    program: &wol_lang::program::Program,
    dir: &Path,
    expected: &Instance,
    batches: u64,
) -> Vec<f64> {
    let mut times = Vec::new();
    let mut result = Ok(());
    for _ in 0..REOPENS {
        let (reopened, secs) = run::timed(|| {
            MaterializedPipeline::new_durable(
                program,
                vec![Instance::new("ace22")],
                options(),
                &DurableOptions::new(dir),
            )
        });
        times.push(secs);
        result = reopened.map_err(|e| e.to_string()).and_then(|p| {
            if p.recovered_batches() != batches {
                return Err(format!(
                    "recovered {} batches, acknowledged {batches}",
                    p.recovered_batches()
                ));
            }
            run::same_target(p.target(), expected)
        });
        if result.is_err() {
            break;
        }
    }
    out.check(
        "every target recovered from the journal deep-equals the final target",
        result,
    );
    times
}

pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let program = program();
    out.note(
        "shape",
        format!(
            "genome E6x2 (200 clones, 600 markers), durable journal, constraints reported; \
             one writer, closed loop of {BATCH_OPS}-op batches of TrafficWeights::mixed; one reader, closed loop, \
             snapshot + {PROBE_MARKERS} clone refs, {} ms think time; one maintainer thread",
            THINK.as_millis()
        ),
    );
    let journals = ctx.fresh_dir("journals");
    let ((built, source, dir), setup) = run::repeated_setup(ctx.threads(), |rep| {
        let source = genome::generate_source(&params(ctx.seed));
        let dir = journals.join(format!("journal-{rep}"));
        let built = MaterializedPipeline::new_durable(
            &program,
            vec![source.clone()],
            options(),
            &DurableOptions::new(&dir),
        );
        (built, source, dir)
    });
    let mut pipeline = match built {
        Ok(p) => p,
        Err(e) => return out.check("durable pipeline build", Err(e.to_string())),
    };
    let seeded_bytes = report::dir_bytes(&dir);
    let mut traffic = TrafficGen::new(&source, ctx.seed, TrafficWeights::mixed());
    let mut tally = Tally::default();
    let stream_secs = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    run::reset_peak_rss(out);

    let (served, stream) = serve(pipeline, &mut traffic, stream_secs, &mut tally);
    run::record_peak_rss(out);
    run::count_ops(out, "batch", &stream.batches, &stream.batch_errors);
    run::count_ops(out, "read", &stream.reads, &stream.read_errors);
    out.check(
        "the service never poisoned its pipeline",
        if stream.poisoned {
            Err("poisoned".into())
        } else {
            Ok(())
        },
    );
    pipeline = match served {
        Ok(p) => p,
        Err(e) => return out.check("service shutdown", Err(e)),
    };
    let mut acked = stream.batches.attempted() - stream.batches.failed();

    if ctx.trace {
        let mut tracer = Tracer::default();
        tracer.next_request();
        let root = tracer.begin("bench.front_end");
        let (base, text) = replay::split_program(&program);
        let compiled = match pipeline.source(0) {
            Some(source) => replay::compile(&mut tracer, &base, &text, &[source], &[], None),
            None => Err("pipeline has no source".to_string()),
        };
        tracer.end(root);
        let mut counters = match compiled {
            Ok(c) => BTreeMap::from([
                ("morphase.generated_clauses".to_string(), c.generated as f64),
                ("wol_engine.snf_atoms".to_string(), c.snf_atoms as f64),
                (
                    "wol_engine.normal_clauses".to_string(),
                    c.normal.clauses.len() as f64,
                ),
            ]),
            Err(e) => {
                out.check("front-end replay", Err(e));
                BTreeMap::new()
            }
        };
        let before = pipeline.stats().clone();
        let (traced, untraced, errors) = traced_stream(
            &mut pipeline,
            &mut traffic,
            stream_secs,
            &mut tally,
            &mut tracer,
        );
        run::count_ops(out, "traced batch", &traced, &errors);
        run::count_ops(out, "unrecorded batch", &untraced, &[]);
        acked += traced.attempted() - traced.failed() + untraced.attempted() - untraced.failed();
        counters.extend(per_batch_counters(&before, pipeline.stats()));
        let journal = report::dir_bytes(&dir);
        counters.insert(
            "persist.wal_bytes_per_batch".to_string(),
            journal.saturating_sub(seeded_bytes) as f64 / acked.max(1) as f64,
        );
        counters.insert("persist.journal_bytes".to_string(), seeded_bytes as f64);
        for (kind, count) in &tally.kinds {
            counters.insert(kind.clone(), count / acked.max(1) as f64);
        }
        if let Some(m) = stream.snapshots.p50() {
            let n = stream.snapshots.attempted();
            out.info("service.snapshot_s", "s", m, n, "service reader, median");
        }
        run::per_layer(out, tracer, &traced, &untraced, &counters);
    } else {
        run::end_to_end(out, &setup, &stream.batches, &OP);
        let n = stream.batches.attempted();
        out.info("batches_per_s", "1/s", stream.batches.throughput(), n, "");
        let reads = stream.reads.attempted();
        if let Some(v) = stream.reads.p50() {
            out.info("read_p50_s", "s", v, reads, "snapshot + probe");
        }
        if let Some(v) = stream.reads.percentile(99) {
            let beyond = reads - (99 * reads).div_ceil(100);
            let note = format!("snapshot + probe; {beyond} samples beyond");
            out.info("read_p99_s", "s", v, reads, &note);
        }
    }
    for (name, samples) in [
        ("maintain.inplace_p50_s", &tally.inplace),
        ("maintain.rebuild_p50_s", &tally.rebuild),
    ] {
        if let Some(v) = samples.p50() {
            out.info(name, "s", v, samples.attempted(), "per batch, by outcome");
        }
    }
    out.note(
        "rebuilds",
        format!("{} of {acked} batches", tally.rebuild.attempted()),
    );

    let final_target = pipeline.target().clone();
    out.check(
        "the maintained target deep-equals rerun_oracle()",
        pipeline
            .rerun_oracle()
            .map_err(|e| e.to_string())
            .and_then(|run| run::same_target(&final_target, &run.target)),
    );
    let batches = pipeline.stats().batches;
    drop(pipeline);
    let reopens = recover(out, &program, &dir, &final_target, batches);
    if let Some(m) = median(&reopens) {
        out.info(
            "recover_s",
            "s",
            m,
            reopens.len(),
            "median of journal reopens",
        );
    }
    let _ = std::fs::remove_dir_all(&journals);
}
