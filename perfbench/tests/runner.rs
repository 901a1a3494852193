//! Self-tests of the benchmark runner: tail selection, failure counting,
//! self time from nested spans, the compile front end against hand-derived
//! normal-clause counts, and agreement with `BENCHMARK.json`.

use morphase::Morphase;
use perfbench::report::{self, Outcome};
use perfbench::run;
use perfbench::stats::Samples;
use perfbench::trace::{self, Span, Tracer};
use wol_lang::program::Program;
use workloads::{constrained, federated, genome, skewed, variants, wide};
use workloads::{CitiesWorkload, PeopleWorkload};

fn samples(n: usize) -> Samples {
    let mut s = Samples::default();
    for i in 1..=n {
        s.ok(i as f64);
    }
    s
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    let t = samples(100).tail(99).unwrap();
    assert_eq!((t.percentile, t.value, t.beyond), (90, 90.0, 10));
    let t = samples(199).tail(99).unwrap();
    // The p90 rank of 199 samples is 180 (nearest rank rounds up).
    assert_eq!((t.percentile, t.beyond), (90, 19));
    let t = samples(200).tail(99).unwrap();
    assert_eq!((t.percentile, t.value, t.beyond), (95, 190.0, 10));
    let t = samples(999).tail(99).unwrap();
    assert_eq!(t.percentile, 95);
    let t = samples(1000).tail(99).unwrap();
    assert_eq!((t.percentile, t.value, t.beyond), (99, 990.0, 10));
}

#[test]
fn tail_stays_at_or_below_the_workloads_percentile() {
    // A run with more samples than usual keeps the workload's percentile.
    let t = samples(1000).tail(90).unwrap();
    assert_eq!((t.percentile, t.value, t.beyond), (90, 900.0, 100));
    // 99 samples leave only nine beyond p90: p75 is the last resort.
    let t = samples(99).tail(90).unwrap();
    assert_eq!((t.percentile, t.beyond), (75, 24));
    // 39 samples leave nine beyond p75: no tail at all.
    assert_eq!(samples(39).tail(99), None);
}

#[test]
fn median_uses_the_nearest_rank() {
    assert_eq!(samples(5).p50(), Some(3.0));
    assert_eq!(samples(4).p50(), Some(2.0));
    assert_eq!(Samples::default().p50(), None);
    assert_eq!(perfbench::stats::median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
}

#[test]
fn a_forced_failure_counts_as_failed_and_as_missing_the_tail() {
    let mut calls = 0;
    let (ops, errors) = run::closed_loop(
        0.05,
        || {
            calls += 1;
            if calls == 3 {
                Err("forced".to_string())
            } else {
                Ok(calls)
            }
        },
        |_| Ok(()),
    );
    assert_eq!(ops.failed(), 1);
    assert_eq!(errors, vec!["forced".to_string()]);
    assert!(ops.attempted() > 3);

    // A failure sorts beyond every success: with eleven failures among a
    // hundred operations the p90 tail lands on one.
    let mut s = samples(89);
    for _ in 0..11 {
        s.fail();
    }
    let tail = s.tail(99).unwrap();
    assert_eq!(tail.percentile, 90);
    assert!(tail.value.is_infinite());
    assert_eq!(s.throughput(), 89.0 / (89.0 * 90.0 / 2.0));

    let mut out = Outcome::default();
    run::count_ops(&mut out, "op", &s, &["forced".to_string()]);
    out.check("an output check that failed", Err("differs".into()));
    assert_eq!(out.attempted, 100 + 2);
    assert_eq!(out.failed, 11 + 2);
    assert!(!out.correct());
    let rendered = out.render(&[("op_tail_s".to_string(), "s")]);
    assert!(rendered.contains("metric fail_ratio = "));
    assert!(rendered.contains("skipped op_tail_s"));
    let json = rendered.lines().last().unwrap();
    assert_eq!(
        json,
        "{\"correct\": false, \"attempted\": 102, \"failed\": 13, \"metrics\": \
         {\"op_tail_s\": {\"value\": null, \"unit\": \"s\"}}}"
    );
}

#[test]
fn concurrent_callers_pool_their_samples_and_failures() {
    let calls = std::sync::atomic::AtomicUsize::new(0);
    let (ops, errors) = run::closed_loops(
        2,
        0.05,
        || {
            let n = calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            std::thread::sleep(std::time::Duration::from_millis(1));
            Ok(n)
        },
        |n| {
            if n % 5 == 0 {
                Err(format!("call {n}"))
            } else {
                Ok(())
            }
        },
    );
    let calls = calls.into_inner();
    assert_eq!(ops.attempted(), calls);
    assert_eq!(ops.failed(), calls.div_ceil(5));
    assert_eq!(errors.len(), 3);
    assert!(ops
        .values()
        .iter()
        .filter(|v| v.is_finite())
        .all(|&v| v >= 0.001));
}

fn span(name: &str, start: u64, end: u64, parent: Option<usize>, request: u64) -> Span {
    Span {
        name: name.to_string(),
        start,
        end,
        parent,
        request,
    }
}

#[test]
fn self_time_subtracts_the_union_of_direct_children() {
    let spans = vec![
        span("bench.request", 0, 100, None, 1),
        span("wol_lang.parse", 10, 40, Some(0), 1),
        span("cpl.execute_query", 30, 60, Some(0), 1),
        span("wol_engine.snf", 15, 20, Some(1), 1),
        span("cpl.execute_query", 200, 260, None, 2),
    ];
    assert_eq!(trace::self_times(&spans), vec![50, 25, 30, 5, 60]);
    let layers = trace::layer_self_times(&spans);
    assert_eq!(layers["bench"], 50);
    assert_eq!(layers["wol_lang"], 25);
    assert_eq!(layers["wol_engine"], 5);
    assert_eq!(layers["cpl.exec"], 90);
    assert_eq!(layers.values().sum::<u64>(), 50 + 25 + 30 + 5 + 60);
    let totals: Vec<u64> = trace::per_request_totals(&spans, "cpl.execute_query")
        .iter()
        .map(|s| (s * 1e9).round() as u64)
        .collect();
    assert_eq!(totals, vec![30, 60]);
}

#[test]
fn the_tracer_nests_spans_under_the_open_one() {
    let mut tr = Tracer::default();
    tr.next_request();
    let root = tr.begin("bench.op");
    let child = tr.begin("maintain.apply_batch");
    tr.span("service.publish", || ());
    tr.end(child);
    tr.rename(child, "maintain.apply_batch.inplace");
    tr.end(root);
    let spans = tr.spans();
    assert_eq!(spans.len(), 3);
    assert_eq!(spans[0].parent, None);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[2].parent, Some(1));
    assert_eq!(spans[1].name, "maintain.apply_batch.inplace");
    assert!(spans.iter().all(|s| s.request == 1 && s.start <= s.end));
    let self_ns = trace::self_times(spans);
    assert_eq!(self_ns[0] + self_ns[1] + self_ns[2], spans[0].duration());
    assert!(trace::spans_json(spans).contains("\"parent\": 1"));
}

#[test]
fn recording_off_records_nothing_and_alternates_with_on() {
    let mut tr = Tracer::default();
    tr.set_recording(false);
    let root = tr.begin("bench.op");
    let child = tr.begin("wol_lang.parse");
    tr.rename(child, "wol_lang.validate");
    assert_eq!(tr.span("cpl.execute_query", || 7), 7);
    tr.end(child);
    tr.end(root);
    assert!(tr.spans().is_empty());

    let mut calls = 0;
    let (on, off, errors) = run::traced_loop(
        0.05,
        &mut tr,
        |tr| {
            calls += 1;
            tr.span("wol_lang.parse", || Ok(calls))
        },
        |_| Ok(()),
    );
    assert!(errors.is_empty());
    assert_eq!(on.attempted() + off.attempted(), calls);
    assert_eq!(on.attempted(), calls.div_ceil(2));
    assert_eq!(tr.spans().len(), on.attempted());
    assert!(tr.spans().iter().all(|s| s.request % 2 == 1));

    let (on, off) = run::alternate(&[1.0, 2.0, 3.0, f64::INFINITY, 5.0]);
    assert_eq!(on.values(), &[1.0, 3.0, 5.0]);
    assert_eq!((off.attempted(), off.failed()), (2, 1));
}

#[test]
fn rebuild_reasons_are_counted_by_kind_without_identifiers() {
    assert_eq!(
        report::rebuild_kind(
            "fresh identity #MarkerD:12 minted before the class's latest first mint"
        ),
        "fresh_mint_before_latest_first_mint"
    );
    assert_eq!(
        report::rebuild_kind("object #CloneD:3 has conflicting contributions for `lab`"),
        "conflicting_contributions"
    );
    assert_eq!(
        report::rebuild_kind("17 first-minted identities were not restored"),
        "first_mints_not_restored"
    );
    assert_eq!(report::rebuild_kind("something new"), "other");
}

/// Hand-derived normal-clause counts, one `name count` line per program.
const EXPECTED: &str = include_str!("../expected/normal_clauses.txt");

/// The expected counts, in file order.
fn expected() -> Vec<(String, usize)> {
    EXPECTED
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .map(|l| {
            let mut parts = l.split_whitespace();
            let name = parts.next().unwrap().to_string();
            (name, parts.next().unwrap().parse().unwrap())
        })
        .collect()
}

/// The nine workload programs, by the names the expected file uses.
fn programs() -> Vec<(&'static str, Program)> {
    let cities = CitiesWorkload::new();
    vec![
        ("cities_euro", cities.euro_program()),
        ("cities_us", cities.us_program()),
        ("people", PeopleWorkload::new().program()),
        ("genome", genome::program()),
        ("federated", federated::program()),
        ("constrained", constrained::program()),
        ("skewed", skewed::program()),
        ("wide_48_12_keyed", wide::partial_program(48, 12, true)),
        ("variants_8", variants::wol_program(8)),
    ]
}

#[test]
fn every_program_compiles_to_its_hand_derived_normal_clause_count() {
    let morphase = Morphase::new();
    let mut counts = Vec::new();
    for (name, program) in programs() {
        let run = morphase.compile(&program).expect(name);
        assert_eq!(run.plans.len(), run.normal.clauses.len(), "{name}");
        // The replay's compile parses the rendered clause text again, so it
        // covers the parser as well.
        let (base, text) = perfbench::replay::split_program(&program);
        let replayed =
            perfbench::replay::compile(&mut Tracer::default(), &base, &text, &[], &[], None)
                .expect(name);
        assert_eq!(
            replayed.normal.clauses.len(),
            run.normal.clauses.len(),
            "{name}"
        );
        counts.push((name.to_string(), run.normal.clauses.len()));
    }
    assert_eq!(counts, expected());
}

#[test]
fn benchmark_json_names_what_the_runner_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let section = |key: &str| {
        let start = text.find(&format!("\"{key}\"")).expect(key);
        let rest = &text[start..];
        let end = rest.find(']').unwrap();
        rest[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().unwrap().to_string())
            .collect::<Vec<_>>()
    };
    let end_to_end: Vec<String> = report::END_TO_END
        .iter()
        .map(|(n, _)| n.to_string())
        .collect();
    let per_layer: Vec<String> = report::per_layer().into_iter().map(|(n, _)| n).collect();
    let runnable: Vec<String> = perfbench::suite::WORKLOADS
        .iter()
        .map(|w| w.to_string())
        .collect();
    assert_eq!(section("end_to_end"), end_to_end);
    assert_eq!(section("per_layer"), per_layer);
    assert_eq!(section("workloads"), runnable);
    for (name, unit) in report::per_layer() {
        assert!(
            text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} in {unit}"
        );
    }
}
