//! One run's outcome: output checks, metrics, and the stamp, printed as text
//! lines and as the final JSON line.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// The end-to-end metrics every workload reports with tracing off, with
/// their units. Each workload gives `op` its own meaning (see RATIONALE.md).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("ops_per_s", "1/s"),
];

/// Rebuild reasons with identifiers stripped (see [`rebuild_kind`]) and the
/// short kind each counts under; anything else counts as `other`.
pub const REBUILD_KINDS: [(&str, &str); 9] = [
    (
        "fresh_identity_minted_before_the_class_s_latest_first_mint",
        "fresh_mint_before_latest_first_mint",
    ),
    (
        "first_mint_of_would_move_earlier",
        "first_mint_would_move_earlier",
    ),
    (
        "displaced_identity_re_minted_at_a_different_position",
        "displaced_reminted_elsewhere",
    ),
    ("identity_has_unknown_provenance", "unknown_provenance"),
    (
        "row_references_before_its_first_mint",
        "ref_before_first_mint",
    ),
    (
        "row_references_whose_first_mint_is_displaced_or_unknown",
        "ref_to_displaced_or_unknown_mint",
    ),
    (
        "first_minted_identities_were_not_restored",
        "first_mints_not_restored",
    ),
    (
        "object_lost_all_contributions",
        "object_lost_all_contributions",
    ),
    (
        "object_has_conflicting_contributions_for",
        "conflicting_contributions",
    ),
];

/// The per-layer metrics every workload reports with tracing on, with their
/// units. Layers a workload does not reach report zero.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("wol_lang.parse_s", "s"),
        ("wol_lang.validate_s", "s"),
        ("morphase.metadata_s", "s"),
        ("morphase.generated_clauses", "count"),
        ("wol_engine.snf_s", "s"),
        ("wol_engine.snf_atoms", "count"),
        ("wol_engine.normalize_s", "s"),
        ("wol_engine.normal_clauses", "count"),
        ("cpl.statistics_s", "s"),
        ("morphase.compile_s", "s"),
        ("cpl.join_estimate_error_max", "ratio"),
        ("cpl.rows_scanned", "count"),
        ("cpl.rows_produced", "count"),
        ("cpl.max_intermediate_rows", "count"),
        ("cpl.index_probes", "count"),
        ("cpl.probe_cache_hits", "count"),
        ("cpl.columnar_rows", "count"),
        ("cpl.objects_written", "count"),
        ("cpl.output_per_produced", "ratio"),
        ("cpl.shard_imbalance", "ratio"),
        ("storage.provider_rows_in", "count"),
        ("storage.provider_rows_out", "count"),
        ("storage.pushdown_keep_ratio", "ratio"),
        ("storage.pushed_filters", "count"),
        ("maintain.inplace_ratio", "ratio"),
        ("maintain.rows_added", "count"),
        ("maintain.rows_removed", "count"),
        ("maintain.objects_repaired", "count"),
        ("maintain.delta_rows_produced", "count"),
        ("constraints.checked", "count"),
        ("constraints.skipped", "count"),
        ("constraints.skip_ratio", "ratio"),
        ("constraints.objects", "count"),
        ("constraints.probes", "count"),
        ("persist.wal_bytes_per_batch", "B"),
        ("persist.journal_bytes", "B"),
        ("trace.overhead_s", "s"),
        ("trace.spans", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    out.extend(
        REBUILD_KINDS
            .iter()
            .map(|(_, kind)| *kind)
            .chain(["other"])
            .map(|kind| (format!("maintain.rebuilds.{kind}"), "ratio")),
    );
    out.extend(
        crate::trace::LAYERS
            .iter()
            .map(|l| (format!("self_share.{l}"), "%")),
    );
    out
}

/// The kind a rebuild reason counts under: its words with identifiers
/// stripped (words carrying digits, such as object ids and counts, and
/// quoted labels are dropped), looked up in [`REBUILD_KINDS`].
pub fn rebuild_kind(reason: &str) -> &'static str {
    let words: Vec<String> = reason
        .split_whitespace()
        .filter(|w| !w.contains('`') && !w.chars().any(|c| c.is_ascii_digit()))
        .map(|w| {
            w.chars()
                .map(|c| {
                    if c.is_ascii_alphabetic() {
                        c.to_ascii_lowercase()
                    } else {
                        '_'
                    }
                })
                .collect::<String>()
        })
        .collect();
    let joined = words.join("_");
    let kind: Vec<&str> = joined.split('_').filter(|p| !p.is_empty()).collect();
    let stripped = kind.join("_");
    REBUILD_KINDS
        .iter()
        .find(|(text, _)| *text == stripped)
        .map_or("other", |(_, kind)| kind)
}

/// One named value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Samples behind the value (1 for a single reading).
    pub samples: usize,
    /// Free-text qualifier, such as the percentile behind a tail.
    pub note: String,
}

/// One output check.
#[derive(Clone, Debug)]
pub struct Check {
    /// What was compared.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// What differed, when it did not.
    pub detail: String,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted, checks included.
    pub attempted: usize,
    /// Operations that failed, failed checks included.
    pub failed: usize,
    /// Output checks, in the order they ran.
    pub checks: Vec<Check>,
    /// Metrics reported in the JSON line.
    pub metrics: Vec<Metric>,
    /// Metrics printed as text only: per-workload names of the end-to-end
    /// metrics (`transform_p50_s`, `batch_tail_s`, ...) and layer timings
    /// a workload alone has.
    pub info: Vec<Metric>,
    /// Context lines (workload shape, thread counts, stamp).
    pub notes: Vec<(String, String)>,
    /// Spans of the traced run, written out when the run ends.
    pub spans: Vec<crate::trace::Span>,
}

impl Outcome {
    /// Record a reported metric.
    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.metric_noted(name, unit, value, samples, "");
    }

    /// Record a reported metric with a qualifier.
    pub fn metric_noted(
        &mut self,
        name: &str,
        unit: &'static str,
        value: f64,
        samples: usize,
        note: &str,
    ) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
            note: note.to_string(),
        });
    }

    /// Record a text-only metric.
    pub fn info(&mut self, name: &str, unit: &'static str, value: f64, samples: usize, note: &str) {
        self.info.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
            note: note.to_string(),
        });
    }

    /// Record a context line.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Record an output check; a failed check counts as a failed operation.
    pub fn check(&mut self, name: &str, result: Result<(), String>) {
        self.attempted += 1;
        let passed = result.is_ok();
        if !passed {
            self.failed += 1;
        }
        self.checks.push(Check {
            name: name.to_string(),
            passed,
            detail: result.err().unwrap_or_default(),
        });
    }

    /// Whether every check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.passed)
    }

    /// The text report followed by the JSON line, given the metric names the
    /// JSON line must carry. A name with no recorded value is printed as
    /// skipped and carried as `null`.
    pub fn render(&self, expected: &[(String, &'static str)]) -> String {
        let mut text = String::new();
        for (key, value) in &self.notes {
            let _ = writeln!(text, "# {key}: {value}");
        }
        for check in &self.checks {
            let verdict = if check.passed { "pass" } else { "FAIL" };
            let _ = writeln!(text, "check {verdict} {} {}", check.name, check.detail);
        }
        let ratio = if self.attempted > 0 {
            self.failed as f64 / self.attempted as f64
        } else {
            0.0
        };
        let _ = writeln!(
            text,
            "metric fail_ratio = {ratio} failed/attempted ({} of {})",
            self.failed, self.attempted
        );
        for m in self.info.iter().chain(&self.metrics) {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("; {}", m.note)
            };
            let _ = writeln!(
                text,
                "metric {} = {} {} (n={}{note})",
                m.name,
                number(m.value),
                m.unit,
                m.samples
            );
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in expected.iter().enumerate() {
            let value = match self.metrics.iter().find(|m| &m.name == name) {
                Some(m) => number(m.value),
                None => {
                    let _ = writeln!(text, "skipped {name}: this run could not support it");
                    "null".to_string()
                }
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        text.push_str(&json);
        text
    }
}

/// A JSON number with all its digits, or `null` when not finite.
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// Reset this process's `VmHWM` to its current resident set size.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The first line a command prints, or `unknown` when it cannot run.
pub fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Total size of the regular files under `dir`, in bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
