//! Fixed-size latency histograms, so recording a sample costs no
//! allocation and the benchmark's own memory stays out of `peak_rss_mb`.

/// Relative width of one bucket.
const RESOLUTION: f64 = 0.01;
/// Smallest value told apart, in the recorded unit.
const MIN: f64 = 0.1;
/// Buckets spanning `MIN ..= MIN · 10⁹`.
const BUCKETS: usize = 2084;

/// A log-bucketed histogram with 1% resolution.
#[derive(Clone)]
pub struct Hist {
    counts: Box<[u32]>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            n: 0,
        }
    }
}

impl Hist {
    pub fn record(&mut self, value: f64) {
        let b = ((value.max(MIN) / MIN).ln() / RESOLUTION.ln_1p()) as usize;
        self.counts[b.min(BUCKETS - 1)] += 1;
        self.n += 1;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// The `q`-quantile, interpolated geometrically inside its bucket;
    /// NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return f64::NAN;
        }
        let rank = q.clamp(0.0, 1.0) * (self.n - 1) as f64;
        let mut below = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + u64::from(c)) as f64 > rank {
                let within = (rank - below as f64 + 0.5) / f64::from(c);
                return MIN * (1.0 + RESOLUTION).powf(b as f64 + within);
            }
            below += u64::from(c);
        }
        f64::NAN
    }
}

/// Observations cut into fixed windows of a stage: a count and a
/// histogram per window. Each figure is taken per window and the median
/// over windows reported, so a burst of outside load spoils a window,
/// not the run.
pub struct Windows {
    width_s: f64,
    counts: Vec<f64>,
    hists: Vec<Hist>,
}

impl Windows {
    /// Whole windows of `width_s` seconds covering `duration_s`.
    pub fn new(duration_s: f64, width_s: f64) -> Windows {
        let n = ((duration_s / width_s) as usize).max(1);
        Windows {
            width_s,
            counts: vec![0.0; n],
            hists: vec![Hist::default(); n],
        }
    }

    /// Records `count` completions and one latency `at` seconds into
    /// the stage; observations past the last whole window are dropped.
    pub fn record(&mut self, at: f64, count: f64, latency: f64) {
        let w = (at / self.width_s) as usize;
        if w < self.counts.len() {
            self.counts[w] += count;
            self.hists[w].record(latency);
        }
    }

    /// Median over windows of the completion rate of `self` and `other`
    /// together, per second.
    pub fn joint_rate(&self, other: &Windows) -> f64 {
        let rates: Vec<f64> = self
            .counts
            .iter()
            .zip(&other.counts)
            .map(|(a, b)| (a + b) / self.width_s)
            .collect();
        crate::report::median(&rates)
    }

    /// Median over non-empty windows of each window's `q`-quantile.
    pub fn quantile(&self, q: f64) -> f64 {
        let per_window: Vec<f64> = self
            .hists
            .iter()
            .filter(|h| h.len() > 0)
            .map(|h| h.quantile(q))
            .collect();
        crate::report::median(&per_window)
    }

    /// Latencies recorded.
    pub fn samples(&self) -> u64 {
        self.hists.iter().map(Hist::len).sum()
    }
}
