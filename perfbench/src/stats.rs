//! Summary statistics, the detection fingerprint, and the seeded
//! generator the workloads draw their inputs from.

use fmossim_core::Detection;
use fmossim_faults::FaultId;

/// Median of `values` (mean of the middle pair for an even count);
/// `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Smallest of `values`; `None` when empty.
///
/// The benchmark reports a repeated timing as its fastest repetition:
/// on a shared host, interference only ever adds time to a fixed piece
/// of work, so the fastest repetition is the one closest to the
/// program's own cost, and it moves far less from run to run than the
/// median when the host's load changes during a run.
#[must_use]
pub fn min(values: &[f64]) -> Option<f64> {
    values.iter().copied().reduce(f64::min)
}

/// Mean of `values`; `0.0` when empty.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Samples a tail percentile must leave beyond itself to be reported.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile of a sample that still has [`TAIL_BEYOND`]
/// samples above it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// Its quantile, `(n - 10) / n`: the share of samples at or below it.
    pub quantile: f64,
    /// Samples strictly beyond it (always [`TAIL_BEYOND`]).
    pub beyond: usize,
    /// Sample count.
    pub n: usize,
}

/// The tail rule: of `n` samples sorted ascending, the one at rank
/// `n - 11` (zero-based) is the highest with ten samples beyond it.
/// `None` when fewer than eleven samples exist.
#[must_use]
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Tail {
        value: v[n - TAIL_BEYOND - 1],
        quantile: (n - TAIL_BEYOND) as f64 / n as f64,
        beyond: TAIL_BEYOND,
        n,
    })
}

/// FNV-1a over the canonical detection keys
/// ([`Detection::canonical_key`], each followed by `;`) in
/// `(pattern, phase, fault)` order, after mapping every fault id
/// through `canon` — the same fingerprint `evalsuite` archives, taken
/// over the unpermuted fault numbering so it does not depend on the
/// seed's fault order. Returns `(detections, fingerprint)`.
#[must_use]
pub fn fingerprint(detections: &[Detection], canon: &[u32]) -> (usize, u64) {
    let mut ds: Vec<Detection> = detections
        .iter()
        .map(|d| Detection {
            fault: FaultId(canon[d.fault.index()]),
            ..*d
        })
        .collect();
    ds.sort_by_key(|d| (d.pattern, d.phase, d.fault.index()));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for d in &ds {
        for &b in d.canonical_key().as_bytes().iter().chain(b";") {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    (ds.len(), h)
}

/// SplitMix64: a small, well-mixed seeded generator. Every input the
/// benchmark derives from `--seed` comes from one of these.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A seeded Fisher–Yates permutation of `0..n`.
    #[must_use]
    pub fn permutation(&mut self, n: usize) -> Vec<u32> {
        let mut p: Vec<u32> = (0..n)
            .map(|i| u32::try_from(i).expect("index fits u32"))
            .collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            p.swap(i, j);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmossim_netlist::Logic;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn min_of_values_and_empty() {
        assert_eq!(min(&[3.0, 1.5, 2.0]), Some(1.5));
        assert_eq!(min(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten), None, "10 samples leave nothing with 10 beyond");
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&eleven).unwrap();
        assert_eq!((t.value, t.beyond, t.n), (0.0, 10, 11));
        // 100 samples 1..=100 in shuffled order: rank 89 holds 90, p90.
        let mut hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        hundred.reverse();
        let t = tail(&hundred).unwrap();
        assert_eq!(t.value, 90.0);
        assert!((t.quantile - 0.9).abs() < 1e-12);
        let beyond = hundred.iter().filter(|&&v| v > t.value).count();
        assert_eq!(beyond, t.beyond);
    }

    #[test]
    fn fingerprint_is_order_and_numbering_invariant() {
        let d = |fault: u32, pattern: usize| Detection {
            fault: FaultId(fault),
            pattern,
            phase: 1,
            good: Logic::L,
            faulty: Logic::H,
        };
        let identity = [0, 1, 2];
        let a = fingerprint(&[d(0, 3), d(2, 1)], &identity);
        let b = fingerprint(&[d(2, 1), d(0, 3)], &identity);
        assert_eq!(a, b, "occurrence order does not matter");
        // Under a permutation whose canonical map is `canon`, faults 2
        // and 0 run as 0 and 1.
        let canon = [2, 0, 1];
        assert_eq!(fingerprint(&[d(0, 1), d(1, 3)], &canon), a);
        assert_ne!(fingerprint(&[d(0, 1), d(2, 3)], &identity), a);
    }

    #[test]
    fn permutation_is_seeded_and_complete() {
        let p = SplitMix64::new(7).permutation(50);
        assert_eq!(p, SplitMix64::new(7).permutation(50));
        assert_ne!(p, SplitMix64::new(8).permutation(50));
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }
}
