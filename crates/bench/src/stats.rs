//! Shared summary statistics for the bench binaries.
//!
//! `scaling_par` and `evalsuite` summarise the same quantities — mean
//! per-batch imbalance, max/mean shard ratios, work fractions, medians
//! over repetitions — and previously each carried its own inline
//! arithmetic. One definition here keeps the two artifacts comparable.

/// Arithmetic mean; `0.0` for an empty iterator.
///
/// ```
/// use fmossim_bench::stats::mean;
///
/// assert_eq!(mean([1.0, 2.0, 6.0]), 3.0);
/// assert_eq!(mean([]), 0.0);
/// ```
#[must_use]
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The element with the median `key` (the upper median for an even
/// count) — used to pick a representative repetition out of noisy
/// timing runs without averaging away its internal consistency.
///
/// # Panics
///
/// Panics on an empty vector.
///
/// ```
/// use fmossim_bench::stats::median_by;
///
/// let runs = vec![("a", 9.0), ("b", 1.0), ("c", 4.0)];
/// assert_eq!(median_by(runs, |r| r.1).0, "c");
/// ```
#[must_use]
pub fn median_by<T>(mut items: Vec<T>, key: impl Fn(&T) -> f64) -> T {
    assert!(!items.is_empty(), "median of an empty set");
    items.sort_by(|a, b| key(a).total_cmp(&key(b)));
    let mid = items.len() / 2;
    items.swap_remove(mid)
}

/// The load-imbalance ratio `max / mean` (`1.0` = perfectly balanced;
/// `>= 1` whenever the inputs come from the same population). A
/// non-positive mean — an empty or all-zero measurement — reports the
/// balanced `1.0` rather than dividing by zero, matching the per-batch
/// telemetry convention of batched parallel runs.
///
/// ```
/// use fmossim_bench::stats::imbalance;
///
/// assert_eq!(imbalance(2.0, 1.0), 2.0);
/// assert_eq!(imbalance(0.0, 0.0), 1.0);
/// ```
#[must_use]
pub fn imbalance(max: f64, mean: f64) -> f64 {
    if mean > 0.0 {
        max / mean
    } else {
        1.0
    }
}

/// The share `part / whole`, guarded against a zero denominator and
/// clamped to `[0, 1]` — for work fractions like the good machine's
/// share of solver effort.
///
/// ```
/// use fmossim_bench::stats::fraction;
///
/// assert_eq!(fraction(1.0, 4.0), 0.25);
/// assert_eq!(fraction(0.0, 0.0), 0.0);
/// ```
#[must_use]
pub fn fraction(part: f64, whole: f64) -> f64 {
    (part / whole.max(f64::MIN_POSITIVE)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_handles_empty_and_singleton() {
        assert_eq!(mean([]), 0.0);
        assert_eq!(mean([7.5]), 7.5);
    }

    #[test]
    fn median_by_even_count_takes_upper() {
        let xs = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(median_by(xs, |&x| x), 3.0);
    }

    #[test]
    #[should_panic(expected = "median of an empty set")]
    fn median_by_rejects_empty() {
        let _ = median_by(Vec::<f64>::new(), |&x| x);
    }

    #[test]
    fn imbalance_is_guarded() {
        assert_eq!(imbalance(3.0, 1.5), 2.0);
        assert_eq!(imbalance(0.0, -1.0), 1.0);
    }

    #[test]
    fn fraction_is_clamped() {
        assert_eq!(fraction(5.0, 4.0), 1.0);
        assert_eq!(fraction(-1.0, 4.0), 0.0);
    }
}
