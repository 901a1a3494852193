//! What every workload shares: the run context, the closed loop, and the
//! conversion of samples, spans and counters into the reported metrics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::report::{self, Outcome};
use crate::stats::{median, Samples};
use crate::trace::{self, Span, Tracer};

/// A workload sets up its inputs at least this many times, and for at least
/// [`SETUP_SECONDS`], on every core at once; `setup_s` is the median. A
/// single-threaded set-up beside an idle core ran up to a third faster on
/// some runs than on others (see `RATIONALE.md`).
pub const SETUP_REPS: usize = 9;

/// The least time spent repeating set-up.
pub const SETUP_SECONDS: f64 = 0.5;

/// One run's parameters, from the command line.
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds the measured loop runs.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Directory for span files, results and journals, inside the checkout.
    pub out_dir: PathBuf,
}

impl Ctx {
    /// A fresh, empty directory path for this run, under the output directory.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self
            .out_dir
            .join(format!("tmp-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The worker threads the engine runs with.
    pub fn threads(&self) -> usize {
        cpl::Parallelism::from_env().threads()
    }
}

/// Seconds `f` took, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Run `setup` on `threads` threads at once, at least [`SETUP_REPS`] times in
/// all and for at least [`SETUP_SECONDS`]. Each call gets its own repetition
/// number. Returns the calling thread's last result and every duration.
pub fn repeated_setup<T: Send>(threads: usize, setup: impl Fn(usize) -> T + Sync) -> (T, Vec<f64>) {
    let start = Instant::now();
    let next = AtomicUsize::new(0);
    let repeat = || {
        let mut times = Vec::new();
        loop {
            let (out, secs) = timed(|| setup(next.fetch_add(1, Ordering::Relaxed)));
            times.push(secs);
            if times.len() * threads >= SETUP_REPS && start.elapsed().as_secs_f64() >= SETUP_SECONDS
            {
                return (out, times);
            }
        }
    };
    std::thread::scope(|scope| {
        let others: Vec<_> = (1..threads).map(|_| scope.spawn(repeat)).collect();
        let (out, mut times) = repeat();
        for other in others {
            times.extend(other.join().expect("set-up thread panicked").1);
        }
        (out, times)
    })
}

/// A closed loop with one caller: run `step` until `seconds` have passed.
/// Only `step` is timed; `check` then inspects its output untimed, and a
/// failed step or check counts as a failed operation.
pub fn closed_loop<T>(
    seconds: f64,
    mut step: impl FnMut() -> Result<T, String>,
    mut check: impl FnMut(T) -> Result<(), String>,
) -> (Samples, Vec<String>) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut samples = Samples::default();
    let mut errors = Vec::new();
    while Instant::now() < deadline {
        let (out, secs) = timed(&mut step);
        match out.and_then(&mut check) {
            Ok(()) => samples.ok(secs),
            Err(e) => {
                samples.fail();
                if errors.len() < 3 {
                    errors.push(e);
                }
            }
        }
    }
    (samples, errors)
}

/// [`closed_loop`] on `callers` threads at once, with their samples pooled
/// and up to three errors kept.
pub fn closed_loops<T>(
    callers: usize,
    seconds: f64,
    step: impl Fn() -> Result<T, String> + Sync,
    check: impl Fn(T) -> Result<(), String> + Sync,
) -> (Samples, Vec<String>) {
    let loops: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..callers.max(1))
            .map(|_| scope.spawn(|| closed_loop(seconds, &step, &check)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });
    let mut values = Vec::new();
    let mut errors = Vec::new();
    for (samples, errs) in loops {
        values.extend_from_slice(samples.values());
        errors.extend(errs);
    }
    errors.truncate(3);
    (Samples::from_values(values), errors)
}

/// The closed loop of a traced run: [`closed_loop`] over `step`, with
/// recording in `tracer` switched on for every other request and off for the
/// rest, so both halves run the same code under the same conditions.
/// Returns the samples with recording on, then off, and the errors.
pub fn traced_loop<T>(
    seconds: f64,
    tracer: &mut Tracer,
    mut step: impl FnMut(&mut Tracer) -> Result<T, String>,
    check: impl FnMut(T) -> Result<(), String>,
) -> (Samples, Samples, Vec<String>) {
    let (all, errors) = closed_loop(
        seconds,
        || {
            let recording = tracer.next_request() % 2 == 1;
            tracer.set_recording(recording);
            step(tracer)
        },
        check,
    );
    tracer.set_recording(true);
    let (on, off) = alternate(all.values());
    (on, off, errors)
}

/// Split samples taken with recording alternately on and off, starting on.
pub fn alternate(values: &[f64]) -> (Samples, Samples) {
    let pick = |parity| {
        Samples::from_values(
            values
                .iter()
                .skip(parity)
                .step_by(2)
                .copied()
                .collect::<Vec<_>>(),
        )
    };
    (pick(0), pick(1))
}

/// `Ok` when `a` and `b` are the same instance, identities included.
pub fn same_target(a: &wol_model::Instance, b: &wol_model::Instance) -> Result<(), String> {
    match a.deep_eq_report(b) {
        None => Ok(()),
        Some(diff) => Err(diff.lines().take(3).collect::<Vec<_>>().join(" | ")),
    }
}

/// Fold an operation's samples into the outcome's attempted/failed counts,
/// plus one check that every operation succeeded and passed its output
/// check (showing up to three errors when not).
pub fn count_ops(out: &mut Outcome, name: &str, samples: &Samples, errors: &[String]) {
    out.attempted += samples.attempted();
    out.failed += samples.failed();
    let result = if samples.attempted() == 0 {
        Err("no operation completed".to_string())
    } else if !errors.is_empty() {
        Err(errors.join(" | "))
    } else if samples.failed() > 0 {
        Err(format!("{} failed", samples.failed()))
    } else {
        Ok(())
    };
    out.check(
        &format!(
            "every {name} ({}) succeeded and matched its oracle",
            samples.attempted()
        ),
        result,
    );
}

/// What a workload's operation is, for its end-to-end metrics.
pub struct Op {
    /// The workload's name for it (`transform`, `batch`).
    pub alias: &'static str,
    /// What one operation covers.
    pub note: &'static str,
    /// The tail percentile its usual sample count supports (see
    /// [`Samples::tail`]).
    pub tail_at: u32,
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(out: &mut Outcome, setup: &[f64], ops: &Samples, op: &Op) {
    out.metric_noted(
        "setup_s",
        "s",
        median(setup).unwrap_or(f64::NAN),
        setup.len(),
        "median of repeated set-ups",
    );
    let n = ops.attempted();
    if let Some(p50) = ops.p50() {
        out.metric_noted("op_p50_s", "s", p50, n, op.note);
        out.info(&format!("{}_p50_s", op.alias), "s", p50, n, op.note);
    }
    match ops.tail(op.tail_at) {
        Some(tail) => {
            let note = format!("p{} with {} samples beyond", tail.percentile, tail.beyond);
            out.metric_noted("op_tail_s", "s", tail.value, n, &note);
            out.info(&format!("{}_tail_s", op.alias), "s", tail.value, n, &note);
        }
        None => out.note(
            "skipped",
            format!("op_tail_s: {n} samples leave fewer than ten beyond any tail percentile"),
        ),
    }
    out.metric_noted(
        "ops_per_s",
        "1/s",
        ops.throughput(),
        n,
        "successful operations per second spent in them",
    );
}

/// Start the peak-RSS reading afresh, once set-up and warm-up are done, so
/// that `peak_rss_mb` covers the timed operations only.
pub fn reset_peak_rss(out: &mut Outcome) {
    if let Err(e) = report::reset_peak_rss() {
        out.note(
            "peak_rss_mb",
            format!("could not reset the high-water mark ({e}); it covers set-up too"),
        );
    }
}

/// Record the peak RSS; called right after the timed loop, before any
/// oracle or output check runs.
pub fn record_peak_rss(out: &mut Outcome) {
    if let Some(mb) = report::peak_rss_mb() {
        out.metric_noted("peak_rss_mb", "MiB", mb, 1, "VmHWM over the timed loop");
    }
}

/// Spans whose per-request totals are reported as per-layer time metrics on
/// every workload: the compile front end, which every traced run reaches.
const FRONT_END_TIMES: [(&str, &str); 7] = [
    ("wol_lang.parse_s", "wol_lang.parse"),
    ("wol_lang.validate_s", "wol_lang.validate"),
    ("morphase.metadata_s", "morphase.metadata"),
    ("wol_engine.snf_s", "wol_engine.snf"),
    ("wol_engine.normalize_s", "wol_engine.normalize"),
    ("cpl.statistics_s", "cpl.statistics"),
    ("morphase.compile_s", "morphase.compile"),
];

/// The per-layer metrics of a traced run: span timings and layer self times
/// from `tracer`, the tracing overhead (median request time with recording
/// on minus the median of the same requests with recording off), and the
/// layer counters in `counters` (absent ones report zero).
pub fn per_layer(
    out: &mut Outcome,
    tracer: Tracer,
    traced: &Samples,
    untraced: &Samples,
    counters: &BTreeMap<String, f64>,
) {
    let spans = tracer.spans();
    let requests = spans
        .iter()
        .map(|s| s.request)
        .collect::<std::collections::BTreeSet<_>>()
        .len()
        .max(1);
    for (metric, span) in FRONT_END_TIMES {
        let totals = trace::per_request_totals(spans, span);
        if let Some(m) = median(&totals) {
            out.metric_noted(metric, "s", m, totals.len(), "median per request");
        }
    }
    // Every other span name, text only: the layers a workload alone has.
    let mut names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    for name in names {
        if FRONT_END_TIMES.iter().any(|(_, p)| *p == name) {
            continue;
        }
        let totals = trace::per_request_totals(spans, name);
        if let Some(m) = median(&totals) {
            out.info(
                &format!("{name}_s"),
                "s",
                m,
                totals.len(),
                "median per request",
            );
        }
    }
    let layers = trace::layer_self_times(spans);
    let total: u64 = layers.values().sum();
    for (layer, ns) in &layers {
        out.info(
            &format!("self_s.{layer}"),
            "s",
            *ns as f64 * 1e-9 / requests as f64,
            requests,
            "mean self time per request",
        );
        let share = if total > 0 {
            100.0 * *ns as f64 / total as f64
        } else {
            0.0
        };
        out.metric(&format!("self_share.{layer}"), "%", share, requests);
    }
    if let (Some(t), Some(u)) = (traced.p50(), untraced.p50()) {
        let note = format!(
            "median {t} s over {} requests recording spans minus median {u} s over {} \
             requests of the same replay not recording",
            traced.attempted(),
            untraced.attempted()
        );
        out.metric_noted("trace.overhead_s", "s", t - u, traced.attempted(), &note);
    }
    out.metric("trace.spans", "count", spans.len() as f64, 1);
    for (name, unit) in report::per_layer() {
        if out.metrics.iter().any(|m| m.name == name) || unit == "s" {
            continue;
        }
        let value = counters.get(&name).copied().unwrap_or(0.0);
        out.metric(&name, unit, value, 1);
    }
    out.spans = tracer.into_spans();
}

/// Write the spans and the rendered report under the output directory.
pub fn write_files(ctx: &Ctx, spans: &[Span], rendered: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(&ctx.out_dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        ctx.workload,
        ctx.seed,
        u8::from(ctx.trace)
    );
    if ctx.trace {
        std::fs::write(
            ctx.out_dir.join(format!("{stem}-spans.json")),
            trace::spans_json(spans),
        )?;
    }
    std::fs::write(ctx.out_dir.join(format!("{stem}.txt")), rendered)
}
