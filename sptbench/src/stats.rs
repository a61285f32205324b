//! Statistics over per-op latency samples grouped by input class.
//!
//! Every latency figure the benchmark gates is a per-class quantile
//! combined across classes with a geometric mean, so a percentile never
//! straddles two programs whose op times differ by an order of magnitude.

/// Quantile `q` (0..=1) of an ascending-sorted sample, interpolating
/// linearly between the two closest ranks (Hyndman–Fan type 7, the
/// default of R and NumPy). `None` for an empty sample.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Geometric mean of the positive values; `None` when there are none.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> Option<f64> {
    let (mut log_sum, mut n) = (0.0, 0usize);
    for v in values.into_iter().filter(|v| *v > 0.0) {
        log_sum += v.ln();
        n += 1;
    }
    (n > 0).then(|| (log_sum / n as f64).exp())
}

/// One class's quantile, with how many samples back it.
#[derive(Clone, Debug, PartialEq)]
pub struct ClassQuantile {
    /// Class name (a program, or a program × request kind).
    pub name: String,
    /// Samples in the class.
    pub count: usize,
    /// The quantile value.
    pub value: f64,
    /// Samples strictly above the quantile value.
    pub beyond: usize,
}

/// Latency samples grouped by input class.
#[derive(Clone, Debug, Default)]
pub struct ClassSamples {
    names: Vec<String>,
    samples: Vec<Vec<f64>>,
}

impl ClassSamples {
    /// Empty sample sets for the given classes, indexed in order.
    pub fn new(names: impl IntoIterator<Item = String>) -> Self {
        let names: Vec<String> = names.into_iter().collect();
        let samples = vec![Vec::new(); names.len()];
        ClassSamples { names, samples }
    }

    /// Records one sample for class `class`.
    pub fn push(&mut self, class: usize, value: f64) {
        self.samples[class].push(value);
    }

    /// Moves every sample of `other` (same class list) into `self`.
    pub fn absorb(&mut self, other: ClassSamples) {
        for (mine, theirs) in self.samples.iter_mut().zip(other.samples) {
            mine.extend(theirs);
        }
    }

    /// Total samples across classes.
    pub fn total(&self) -> usize {
        self.samples.iter().map(Vec::len).sum()
    }

    /// Quantile `q` of every non-empty class, in class order.
    pub fn per_class(&self, q: f64) -> Vec<ClassQuantile> {
        self.names
            .iter()
            .zip(&self.samples)
            .filter(|(_, s)| !s.is_empty())
            .map(|(name, s)| {
                let mut sorted = s.clone();
                sorted.sort_by(f64::total_cmp);
                let value = quantile_sorted(&sorted, q).unwrap_or(0.0);
                ClassQuantile {
                    name: name.clone(),
                    count: sorted.len(),
                    value,
                    beyond: sorted.iter().filter(|&&v| v > value).count(),
                }
            })
            .collect()
    }

    /// Geometric mean across classes of each class's quantile `q`; `None`
    /// when no class has a sample.
    pub fn geomean_quantile(&self, q: f64) -> Option<f64> {
        geomean(self.per_class(q).into_iter().map(|c| c.value))
    }

    /// Samples beyond each class's quantile `q`, summed over classes. Fewer
    /// than ten means the quantile rests on too few slow ops to be trusted.
    pub fn beyond_total(&self, q: f64) -> usize {
        self.per_class(q).iter().map(|c| c.beyond).sum()
    }
}

/// Median of an unsorted sample (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, 0.5)
}
