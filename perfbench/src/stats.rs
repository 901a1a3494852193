//! Sample sets and the order statistics the benchmark reports.
//!
//! Latencies are kept in seconds. A failed operation is recorded as an
//! infinite latency: it counts against every percentile, so a failure can
//! never make a median or a tail look better.

/// The percentiles a tail may be reported at, highest first. p75 is the last
/// resort of a run too short for p90 (fewer than 100 samples).
pub const TAIL_PERCENTILES: [u32; 4] = [99, 95, 90, 75];

/// The fewest samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Latency samples of one operation kind, successes and failures together.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    failed: usize,
}

/// A tail latency and the percentile it was read at.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, one of [`TAIL_PERCENTILES`].
    pub percentile: u32,
    /// The latency at that percentile, in seconds (infinite when it falls on
    /// a failed operation).
    pub value: f64,
    /// How many samples lie beyond it.
    pub beyond: usize,
}

impl Samples {
    /// Record a successful operation that took `seconds`.
    pub fn ok(&mut self, seconds: f64) {
        self.values.push(seconds);
    }

    /// Record a failed or refused operation.
    pub fn fail(&mut self) {
        self.values.push(f64::INFINITY);
        self.failed += 1;
    }

    /// Rebuild a sample set from [`Samples::values`]; infinite values are
    /// failures.
    pub fn from_values(values: Vec<f64>) -> Samples {
        let failed = values.iter().filter(|v| v.is_infinite()).count();
        Samples { values, failed }
    }

    /// Every recorded latency in recording order, failures as infinity.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Operations recorded, failures included.
    pub fn attempted(&self) -> usize {
        self.values.len()
    }

    /// Failed operations recorded.
    pub fn failed(&self) -> usize {
        self.failed
    }

    /// Total seconds spent in successful operations.
    pub fn busy_seconds(&self) -> f64 {
        self.values.iter().filter(|v| v.is_finite()).sum()
    }

    /// Successful operations per second of time spent in them.
    pub fn throughput(&self) -> f64 {
        let busy = self.busy_seconds();
        if busy > 0.0 {
            (self.attempted() - self.failed) as f64 / busy
        } else {
            0.0
        }
    }

    fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
    }

    /// The nearest-rank percentile `p` (0 < p < 100), if there are samples.
    pub fn percentile(&self, p: u32) -> Option<f64> {
        let sorted = self.sorted();
        rank(sorted.len(), p).map(|r| sorted[r - 1])
    }

    /// The median.
    pub fn p50(&self) -> Option<f64> {
        self.percentile(50)
    }

    /// The highest of [`TAIL_PERCENTILES`] up to `highest` with at least
    /// [`MIN_BEYOND`] samples beyond it; `None` when the sample set is too
    /// small for any. A workload passes as `highest` the percentile its usual
    /// sample count supports with room to spare, so that a run a little
    /// faster than usual does not report a different percentile.
    pub fn tail(&self, highest: u32) -> Option<Tail> {
        let sorted = self.sorted();
        let n = sorted.len();
        TAIL_PERCENTILES
            .iter()
            .filter(|&&p| p <= highest)
            .find_map(|&p| {
                let r = rank(n, p)?;
                let beyond = n - r;
                (beyond >= MIN_BEYOND).then(|| Tail {
                    percentile: p,
                    value: sorted[r - 1],
                    beyond,
                })
            })
    }
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: u32) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let r = (p as usize * n).div_ceil(100);
    Some(r.clamp(1, n))
}

/// The median of plain values (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}
