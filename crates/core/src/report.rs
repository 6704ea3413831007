//! Detection records and run reports — the measurements behind the
//! paper's figures.

use fmossim_faults::FaultId;
use fmossim_netlist::Logic;

/// When is a good/faulty output difference a *detection*?
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DetectionPolicy {
    /// Any difference on an observed output detects the fault,
    /// including `X` vs. definite — the paper's rule ("produces a
    /// result on the output data pin different than the good circuit").
    #[default]
    AnyDifference,
    /// Only definite, opposite values (`0` vs `1`) detect; `X`
    /// differences are recorded as *potential* detections but the
    /// circuit keeps simulating.
    DefiniteOnly,
}

/// One fault detection event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Detection {
    /// Which fault was detected.
    pub fault: FaultId,
    /// Zero-based index of the detecting pattern.
    pub pattern: usize,
    /// Zero-based phase index within the pattern.
    pub phase: usize,
    /// The good circuit's output value at the strobe.
    pub good: Logic,
    /// The faulty circuit's output value at the strobe.
    pub faulty: Logic,
}

impl Detection {
    /// True iff the difference involved an `X` (a *potential* rather
    /// than definite detection).
    #[must_use]
    pub fn is_potential(&self) -> bool {
        !(self.good.is_definite() && self.faulty.is_definite())
    }

    /// The canonical textual key of this detection —
    /// `f<fault> p<pattern> ph<phase> <good>-><faulty>` — the single
    /// definition of "the same detection" that the cross-backend
    /// conformance tests (`tests/zoo_equivalence.rs`,
    /// `tests/adaptive_equivalence.rs`, `tests/replay_equivalence.rs`)
    /// all compare on.
    #[must_use]
    pub fn canonical_key(&self) -> String {
        format!(
            "f{} p{} ph{} {}->{}",
            self.fault.index(),
            self.pattern,
            self.phase,
            self.good,
            self.faulty
        )
    }
}

/// Per-pattern measurements, mirroring the two curves of the paper's
/// Figures 1 and 2.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PatternStats {
    /// Wall-clock seconds spent simulating this pattern (all phases,
    /// good + all live faulty circuits).
    pub seconds: f64,
    /// Faults detected during this pattern.
    pub detected: usize,
    /// Faulty circuits alive when the pattern started.
    pub live_before: usize,
    /// Vicinities solved for the good circuit.
    pub good_groups: usize,
    /// Vicinities solved across all faulty circuits.
    pub faulty_groups: usize,
    /// Faulty circuit settles executed (events processed).
    pub circuit_settles: usize,
    /// True iff any settle (good or faulty) hit the oscillation cap and
    /// was X-damped during this pattern.
    pub damped: bool,
}

impl PatternStats {
    /// Folds another shard's statistics for the same pattern into this
    /// one: counters add up (`seconds` becomes aggregate CPU seconds
    /// across shards), `damped` ors.
    pub fn absorb(&mut self, other: &PatternStats) {
        self.seconds += other.seconds;
        self.detected += other.detected;
        self.live_before += other.live_before;
        self.good_groups += other.good_groups;
        self.faulty_groups += other.faulty_groups;
        self.circuit_settles += other.circuit_settles;
        self.damped |= other.damped;
    }
}

/// The result of a full concurrent fault-simulation run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunReport {
    /// Per-pattern statistics, in pattern order.
    pub patterns: Vec<PatternStats>,
    /// All detections, in occurrence order.
    pub detections: Vec<Detection>,
    /// Total number of faults simulated.
    pub num_faults: usize,
    /// Total wall-clock seconds.
    pub total_seconds: f64,
}

impl RunReport {
    /// Number of faults detected.
    #[must_use]
    pub fn detected(&self) -> usize {
        self.detections.len()
    }

    /// Fault coverage in `[0, 1]` (detected / simulated).
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.num_faults == 0 {
            0.0
        } else {
            self.detected() as f64 / self.num_faults as f64
        }
    }

    /// The rising curve of Figures 1/2: cumulative detections after
    /// each pattern.
    #[must_use]
    pub fn cumulative_detections(&self) -> Vec<usize> {
        let mut acc = 0;
        self.patterns
            .iter()
            .map(|p| {
                acc += p.detected;
                acc
            })
            .collect()
    }

    /// The falling curve of Figures 1/2: seconds per pattern.
    #[must_use]
    pub fn seconds_per_pattern(&self) -> Vec<f64> {
        self.patterns.iter().map(|p| p.seconds).collect()
    }

    /// Seconds consumed by the first `head` patterns as a fraction of
    /// the total (the paper: "71% of the time consumed during the first
    /// 87 patterns").
    #[must_use]
    pub fn head_time_fraction(&self, head: usize) -> f64 {
        if self.total_seconds == 0.0 {
            return 0.0;
        }
        let head_secs: f64 = self.patterns.iter().take(head).map(|p| p.seconds).sum();
        head_secs / self.total_seconds
    }

    /// Rewrites every detection's fault id through `map` — used by
    /// shard runners to translate shard-local ids (fault `k` of the
    /// shard universe) back to ids in the parent universe before
    /// merging.
    pub fn relabel_faults(&mut self, map: impl Fn(FaultId) -> FaultId) {
        for d in &mut self.detections {
            d.fault = map(d.fault);
        }
    }

    /// Folds per-shard reports of the *same pattern sequence* over
    /// disjoint fault sets into one report:
    ///
    /// * `num_faults` adds up (the shards partition one universe);
    /// * per-pattern statistics are absorbed element-wise
    ///   ([`PatternStats::absorb`] — `seconds` becomes aggregate CPU
    ///   seconds across shards);
    /// * detections are concatenated and canonically ordered by
    ///   `(pattern, phase, fault)`, so the merged detection list is
    ///   independent of how the universe was sharded;
    /// * `total_seconds` is the maximum over shards (the makespan when
    ///   shards run concurrently); drivers that measured real
    ///   wall-clock time should overwrite it.
    ///
    /// Callers must [`RunReport::relabel_faults`] first if shard
    /// reports carry shard-local ids.
    #[must_use]
    pub fn merge(reports: impl IntoIterator<Item = RunReport>) -> RunReport {
        let mut merged = RunReport::default();
        for rep in reports {
            merged.num_faults += rep.num_faults;
            if merged.patterns.len() < rep.patterns.len() {
                merged
                    .patterns
                    .resize(rep.patterns.len(), PatternStats::default());
            }
            for (acc, p) in merged.patterns.iter_mut().zip(&rep.patterns) {
                acc.absorb(p);
            }
            merged.detections.extend(rep.detections);
            merged.total_seconds = merged.total_seconds.max(rep.total_seconds);
        }
        merged
            .detections
            .sort_by_key(|d| (d.pattern, d.phase, d.fault.index()));
        merged
    }

    /// For each fault: the number of patterns until detection, or
    /// `patterns.len()` if never detected — the quantity the paper's
    /// serial-time estimator integrates.
    #[must_use]
    pub fn patterns_to_detect(&self) -> Vec<usize> {
        let total = self.patterns.len();
        let mut out = vec![total; self.num_faults];
        for d in &self.detections {
            out[d.fault.index()] = d.pattern + 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        RunReport {
            patterns: vec![
                PatternStats {
                    seconds: 3.0,
                    detected: 2,
                    live_before: 4,
                    ..PatternStats::default()
                },
                PatternStats {
                    seconds: 1.0,
                    detected: 0,
                    live_before: 2,
                    ..PatternStats::default()
                },
                PatternStats {
                    seconds: 1.0,
                    detected: 1,
                    live_before: 2,
                    ..PatternStats::default()
                },
            ],
            detections: vec![
                Detection {
                    fault: FaultId(0),
                    pattern: 0,
                    phase: 5,
                    good: Logic::H,
                    faulty: Logic::L,
                },
                Detection {
                    fault: FaultId(2),
                    pattern: 0,
                    phase: 5,
                    good: Logic::H,
                    faulty: Logic::X,
                },
                Detection {
                    fault: FaultId(1),
                    pattern: 2,
                    phase: 5,
                    good: Logic::L,
                    faulty: Logic::H,
                },
            ],
            num_faults: 4,
            total_seconds: 5.0,
        }
    }

    #[test]
    fn aggregates() {
        let r = report();
        assert_eq!(r.detected(), 3);
        assert!((r.coverage() - 0.75).abs() < 1e-12);
        assert_eq!(r.cumulative_detections(), vec![2, 2, 3]);
        assert_eq!(r.seconds_per_pattern(), vec![3.0, 1.0, 1.0]);
        assert!((r.head_time_fraction(1) - 0.6).abs() < 1e-12);
        assert_eq!(r.patterns_to_detect(), vec![1, 3, 1, 3]);
    }

    #[test]
    fn potential_detection_flag() {
        let r = report();
        assert!(!r.detections[0].is_potential());
        assert!(r.detections[1].is_potential());
    }

    #[test]
    fn merge_folds_shard_reports() {
        let mut a = report();
        // Pretend `a` came from a shard whose local faults 0..3 are
        // global faults 4..7.
        let map = [FaultId(4), FaultId(5), FaultId(6), FaultId(7)];
        a.relabel_faults(|f| map[f.index()]);
        let b = report();
        let merged = RunReport::merge(vec![b, a]);
        assert_eq!(merged.num_faults, 8);
        assert_eq!(merged.detected(), 6);
        assert!((merged.coverage() - 0.75).abs() < 1e-12);
        assert_eq!(merged.patterns.len(), 3);
        assert_eq!(merged.patterns[0].detected, 4);
        assert!((merged.patterns[0].seconds - 6.0).abs() < 1e-12);
        assert_eq!(merged.patterns[0].live_before, 8);
        assert!((merged.total_seconds - 5.0).abs() < 1e-12, "max, not sum");
        // Canonical order: (pattern, phase, fault id).
        let order: Vec<(usize, usize, usize)> = merged
            .detections
            .iter()
            .map(|d| (d.pattern, d.phase, d.fault.index()))
            .collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted);
        assert_eq!(merged.cumulative_detections(), vec![4, 4, 6]);
    }

    /// Shards complete in scheduling-dependent order under
    /// `run_streaming`; the driver sorts by shard index before
    /// merging, but `merge` itself must already be input-order
    /// invariant for everything the reports promise — canonical
    /// detections, integer counters, and (for exactly representable
    /// seconds) the per-pattern sums. Regression guard for the
    /// relabel-then-merge pipeline.
    #[test]
    fn merge_is_invariant_under_shard_completion_order() {
        // Three disjoint "shards": local reports relabelled to global
        // ids 0..4, 4..8, 8..12, with power-of-two seconds so float
        // sums are exact under any association.
        let shard = |base: u32, secs: f64| {
            let mut r = report();
            r.relabel_faults(|f| FaultId(base + f.0));
            for p in &mut r.patterns {
                p.seconds = secs;
            }
            r
        };
        let shards = [shard(0, 0.25), shard(4, 0.5), shard(8, 2.0)];
        let in_order = RunReport::merge(shards.clone());
        for permutation in [[2, 1, 0], [1, 2, 0], [0, 2, 1], [2, 0, 1], [1, 0, 2]] {
            let scrambled = RunReport::merge(permutation.map(|i| shards[i].clone()));
            assert_eq!(
                scrambled, in_order,
                "merge depends on completion order: {permutation:?}"
            );
        }
        // The merged detections really are canonical and globally
        // relabelled: strictly sorted, ids spanning every shard.
        let keys: Vec<_> = in_order
            .detections
            .iter()
            .map(|d| (d.pattern, d.phase, d.fault.index()))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(keys, sorted, "canonical order with no duplicates");
        assert!(in_order.detections.iter().any(|d| d.fault.index() >= 8));
        assert_eq!(in_order.num_faults, 12);
    }

    #[test]
    fn merge_pads_shorter_pattern_lists() {
        let a = report();
        let b = RunReport {
            patterns: vec![PatternStats {
                seconds: 1.0,
                ..PatternStats::default()
            }],
            num_faults: 1,
            ..RunReport::default()
        };
        let merged = RunReport::merge(vec![b, a]);
        assert_eq!(merged.patterns.len(), 3);
        assert!((merged.patterns[0].seconds - 4.0).abs() < 1e-12);
        assert!((merged.patterns[2].seconds - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report() {
        let r = RunReport::default();
        assert_eq!(r.detected(), 0);
        assert_eq!(r.coverage(), 0.0);
        assert_eq!(r.head_time_fraction(5), 0.0);
    }
}
