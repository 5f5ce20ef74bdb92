//! The benchmark's one quantile definition and the metric record every
//! reported number goes through.

/// Nearest-rank quantile of an ascending sample: the smallest value with
/// at least `q · n` samples at or below it. Every quantile this benchmark
/// reports uses this definition.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples that lie strictly beyond the nearest-rank `q` quantile.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// A high quantile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// Samples per segment of a tail estimate ([`Samples::tail`]): enough for
/// a p99 with [`MIN_BEYOND`] samples beyond it.
pub const SEGMENT: usize = 1_000;

/// An unsorted sample of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Self {
        Self {
            values: Vec::with_capacity(n),
        }
    }

    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sorted(&self) -> Vec<f64> {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn median(&self) -> Option<f64> {
        (!self.values.is_empty()).then(|| quantile(&self.sorted(), 0.5))
    }

    /// The `q` quantile, or `None` when fewer than [`MIN_BEYOND`] samples
    /// lie beyond it.
    pub fn high(&self, q: f64) -> Option<f64> {
        (beyond(self.values.len(), q) >= MIN_BEYOND).then(|| quantile(&self.sorted(), q))
    }

    /// The benchmark's tail estimate: with at least two [`SEGMENT`]s of
    /// samples, the median over consecutive segments (in recording order)
    /// of each segment's nearest-rank `q` quantile — so an isolated
    /// multi-millisecond stall of a shared host moves one segment, not the
    /// estimate; otherwise [`Samples::high_or_supported`] of the whole
    /// sample. Returns the value, the quantile used and the segment count.
    pub fn tail(&self, q: f64) -> Option<(f64, f64, usize)> {
        let n = self.values.len();
        let segments = n / SEGMENT;
        if segments < 2 || beyond(SEGMENT, q) < MIN_BEYOND {
            return self.high_or_supported(q).map(|(v, q)| (v, q, 1));
        }
        let mut per_segment = Samples::with_capacity(segments);
        for k in 0..segments {
            // The last segment absorbs the remainder.
            let end = if k + 1 == segments {
                n
            } else {
                (k + 1) * SEGMENT
            };
            let mut part = self.values[k * SEGMENT..end].to_vec();
            part.sort_by(f64::total_cmp);
            per_segment.push(quantile(&part, q));
        }
        Some((per_segment.median().expect("segments"), q, segments))
    }

    /// The `q` quantile when the sample supports it, else the highest
    /// quantile it does support (with that quantile), so a thin sample is
    /// reported as what it is rather than dropped.
    pub fn high_or_supported(&self, q: f64) -> Option<(f64, f64)> {
        let n = self.values.len();
        if n == 0 {
            return None;
        }
        if let Some(v) = self.high(q) {
            return Some((v, q));
        }
        let supported = (n.saturating_sub(MIN_BEYOND) as f64 / n as f64).max(0.5);
        Some((quantile(&self.sorted(), supported), supported))
    }
}

/// One reported metric: name, value, unit and the sample count behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (quantiles, medians and means); `None` for
    /// a single measured quantity.
    pub n: Option<usize>,
    /// Free-text qualifier printed beside the value.
    pub note: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit,
            n: None,
            note: String::new(),
        }
    }

    pub fn named(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    pub fn with_n(mut self, n: usize) -> Self {
        self.n = Some(n);
        self
    }

    /// Appends a qualifier to the printed note.
    pub fn note(mut self, note: impl Into<String>) -> Self {
        let note = note.into();
        self.note = if self.note.is_empty() {
            note
        } else {
            format!("{note}; {}", self.note)
        };
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_order_statistics() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(beyond(1000, 0.99), 10);
    }

    #[test]
    fn tail_is_the_median_of_segment_quantiles() {
        let mut s = Samples::default();
        for seg in 0..5 {
            for i in 0..1_000 {
                // One segment holds a stall: all its samples are huge.
                s.push(if seg == 2 { 1e6 } else { f64::from(i) });
            }
        }
        assert_eq!(s.tail(0.99), Some((989.0, 0.99, 5)));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let mut s = Samples::default();
        for i in 0..999 {
            s.push(f64::from(i));
        }
        assert!(s.high(0.99).is_none());
        s.push(999.0);
        assert_eq!(s.high(0.99), Some(989.0));
        let (_, q) = Samples {
            values: vec![1.0; 200],
        }
        .high_or_supported(0.99)
        .expect("non-empty");
        assert!((q - 0.95).abs() < 1e-12);
    }
}
