//! Sample sets and the metrics they are reported as.

/// A metric as the benchmark reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// How many samples the value summarises (1 for a single reading).
    pub samples: u64,
    /// What the value is, when that is not obvious from the name (for
    /// example the percentile actually reported).
    pub note: String,
}

impl Metric {
    /// A metric with no note.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: u64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            samples,
            note: String::new(),
        }
    }

    /// Attach a note.
    pub fn noted(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// Raw latency samples in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    /// Record one sample.
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> u64 {
        self.ns.len() as u64
    }

    /// True when no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// Sum in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
    }

    /// The `q`-quantile (nearest rank) in microseconds, together with the
    /// quantile actually reported: when fewer than ten samples lie beyond
    /// `q`, the highest quantile that has ten beyond it is reported instead
    /// (the median always is reported). Zero samples read as 0.
    pub fn quantile_us(&mut self, q: f64) -> (f64, f64) {
        self.sort();
        let n = self.ns.len();
        if n == 0 {
            return (0.0, q);
        }
        let mut q = q;
        if q > 0.5 && ((1.0 - q) * n as f64) < 10.0 {
            q = (1.0 - 10.0 / n as f64).max(0.5);
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        (self.ns[rank - 1] as f64 / 1e3, q)
    }
}

/// A latency metric at quantile `q`, noting the sample count and, when
/// the samples did not allow `q`, the quantile reported instead.
pub fn quantile_metric(name: &str, samples: &mut Samples, q: f64) -> Metric {
    let (value, used) = samples.quantile_us(q);
    let m = Metric::new(name, "us", value, samples.len());
    if (used - q).abs() > 1e-9 {
        m.noted(format!(
            "p{:.1}: too few samples for p{}",
            used * 100.0,
            q * 100.0
        ))
    } else {
        m
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_respect_the_ten_beyond_rule() {
        let mut s = Samples::default();
        for v in 1..=100u64 {
            s.push(v * 1000);
        }
        assert_eq!(s.quantile_us(0.5), (50.0, 0.5));
        // p99 of 100 samples has one sample beyond it: fall back to p90.
        let (v, q) = s.quantile_us(0.99);
        assert!((q - 0.9).abs() < 1e-9);
        assert_eq!(v, 90.0);
        for v in 101..=2000u64 {
            s.push(v * 1000);
        }
        assert_eq!(s.quantile_us(0.99), (1980.0, 0.99));
    }
}
