//! Spans recorded from the benchmark's own code around calls into the
//! program's public functions.
//!
//! Spans are kept in memory and written out once, when the run ends. A span
//! has a name, a start and an end (nanoseconds since the tracer started), the
//! span that was open when it began, and the id of the request it belongs
//! to. A layer's self time is its spans' durations minus the part of each
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// What ran, as `<layer prefix>.<call>`.
    pub name: String,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request this span served.
    pub request: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span recorder for one thread of control. Recording can be
/// switched off, so that the same code runs with and without spans and the
/// difference is the cost of recording them.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
    recording: bool,
}

/// The id [`Tracer::begin`] returns while recording is off.
const NOT_RECORDED: usize = usize::MAX;

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            recording: true,
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Switch recording on or off; switch only between requests.
    pub fn set_recording(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "no span may be open");
        self.recording = on;
    }

    /// Open a span; later spans nest under it until [`Tracer::end`].
    pub fn begin(&mut self, name: impl Into<String>) -> usize {
        if !self.recording {
            return NOT_RECORDED;
        }
        let start = self.now();
        self.spans.push(Span {
            name: name.into(),
            start,
            end: start,
            parent: self.open.last().copied(),
            request: self.request,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        if id == NOT_RECORDED {
            return;
        }
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end = self.now();
    }

    /// Rename a span after the fact (for names known only once the call
    /// returns, such as a batch's outcome).
    pub fn rename(&mut self, id: usize, name: impl Into<String>) {
        if id == NOT_RECORDED {
            return;
        }
        self.spans[id].name = name.into();
    }

    /// Open a new request: the next root span starts it.
    pub fn next_request(&mut self) -> u64 {
        self.request += 1;
        self.request
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span recorded, consuming the tracer.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, in nanoseconds: its duration minus the union of
/// its direct children's intervals, clipped to its own interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let (start, end) = (span.start.max(p.start), span.end.min(p.end));
            if start < end {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut covered)| {
            covered.sort_unstable();
            let mut union = 0u64;
            let mut reach = 0u64;
            for (start, end) in covered {
                let start = start.max(reach);
                if end > start {
                    union += end - start;
                    reach = end;
                }
            }
            span.duration().saturating_sub(union)
        })
        .collect()
}

/// The repository layer a span name belongs to.
pub fn layer_of(name: &str) -> &'static str {
    const PREFIXES: [(&str, &str); 10] = [
        ("wol_lang.", "wol_lang"),
        ("morphase.metadata", "morphase.metadata"),
        ("wol_engine.", "wol_engine"),
        ("cpl.statistics", "morphase.compile"),
        ("morphase.", "morphase.compile"),
        ("cpl.", "cpl.exec"),
        ("storage.", "storage.provider"),
        ("maintain.", "morphase.maintain"),
        ("service.", "morphase.service"),
        ("persist.", "storage.persist"),
    ];
    PREFIXES
        .iter()
        .find(|(prefix, _)| name.starts_with(prefix))
        .map(|&(_, layer)| layer)
        .unwrap_or("bench")
}

/// Every layer self time is attributed to, in pipeline order.
pub const LAYERS: [&str; 10] = [
    "wol_lang",
    "morphase.metadata",
    "wol_engine",
    "morphase.compile",
    "cpl.exec",
    "storage.provider",
    "morphase.maintain",
    "morphase.service",
    "storage.persist",
    "bench",
];

/// Total self time per layer, in nanoseconds.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out: BTreeMap<&'static str, u64> = LAYERS.iter().map(|&l| (l, 0)).collect();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        *out.entry(layer_of(&span.name)).or_default() += self_ns;
    }
    out
}

/// Per request, the summed duration, in seconds, of the spans named `name`;
/// requests without such a span are left out.
pub fn per_request_totals(spans: &[Span], name: &str) -> Vec<f64> {
    let mut totals: BTreeMap<u64, u64> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.name == name) {
        *totals.entry(span.request).or_default() += span.duration();
    }
    totals.values().map(|&ns| ns as f64 * 1e-9).collect()
}

/// Spans as a JSON array.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, span) in spans.iter().enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
            span.name, span.start, span.end, span.request
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}
