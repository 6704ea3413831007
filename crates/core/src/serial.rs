//! The serial fault-simulation baseline and the paper's serial-time
//! estimator.
//!
//! Serial simulation runs each faulty circuit individually, from reset,
//! through the pattern sequence until it produces an observed output
//! different from the good circuit (then it stops — "simulated
//! individually until it produces an output different from that of the
//! good machine", §5). Total time is the sum over faults.
//!
//! The paper *estimated* most serial times rather than running them
//! ("All serial fault simulation times were estimated by summing over
//! all faults the number of patterns required to detect the fault times
//! the average time to simulate the good circuit for 1 pattern");
//! [`SerialReport::paper_estimate_seconds`] reproduces exactly that
//! estimator, and the benches report both the measured and the
//! estimated serial time.

use crate::overlay::{Overrides, SerialState};
use crate::pattern::Pattern;
use crate::report::{Detection, DetectionPolicy};
use fmossim_faults::{Fault, FaultId};
use fmossim_netlist::{Logic, Network, NodeId};
use fmossim_switch::{Engine, EngineConfig, LogicSim, SwitchState};
use std::time::Instant;

/// Configuration of the serial simulator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SerialConfig {
    /// Scheduler configuration.
    pub engine: EngineConfig,
    /// What counts as a detection.
    pub policy: DetectionPolicy,
    /// Stop simulating a fault at its first detection (the baseline's
    /// defining behaviour). Disable to collect full output traces for
    /// equivalence checking against the concurrent simulator.
    pub stop_at_detection: bool,
}

impl SerialConfig {
    /// The paper's baseline behaviour.
    #[must_use]
    pub fn paper() -> Self {
        SerialConfig {
            stop_at_detection: true,
            ..SerialConfig::default()
        }
    }
}

/// The good circuit's observed outputs: for every pattern, for every
/// strobe phase, the output values — plus timing of the good-only
/// simulation (the paper's "simulation of the good circuit alone").
///
/// Naming note: this is an *observation log* (strobed output values),
/// not a waveform ([`fmossim_switch::Trace`]) and not a replay log
/// ([`GoodTape`](crate::GoodTape)).
#[derive(Clone, Debug, Default)]
pub struct GoodObservations {
    /// `strobes[pattern][strobe_index][output_index]`.
    pub strobes: Vec<Vec<Vec<Logic>>>,
    /// Seconds per pattern for the good-only simulation.
    pub pattern_seconds: Vec<f64>,
    /// Total good-only seconds.
    pub total_seconds: f64,
}

impl GoodObservations {
    /// Average good-circuit time per pattern — the unit of the paper's
    /// serial estimator.
    #[must_use]
    pub fn avg_pattern_seconds(&self) -> f64 {
        if self.pattern_seconds.is_empty() {
            0.0
        } else {
            self.total_seconds / self.pattern_seconds.len() as f64
        }
    }
}

/// Result of serially simulating one fault.
#[derive(Clone, Debug, PartialEq)]
pub struct SerialOutcome {
    /// The simulated fault.
    pub fault: FaultId,
    /// First detection, if any.
    pub detection: Option<Detection>,
    /// Patterns simulated before stopping (all of them if undetected or
    /// `stop_at_detection` is off).
    pub patterns_run: usize,
    /// Wall-clock seconds for this fault.
    pub seconds: f64,
    /// Observed-output log (only collected when `stop_at_detection`
    /// is off): `strobes[pattern][strobe_index][output_index]`.
    pub strobes: Vec<Vec<Vec<Logic>>>,
    /// True iff any settle hit the oscillation cap and was X-damped.
    pub damped: bool,
}

/// Aggregate result of a serial run over a fault list.
#[derive(Clone, Debug, Default)]
pub struct SerialReport {
    /// Per-fault outcomes, in fault order.
    pub outcomes: Vec<SerialOutcome>,
    /// Total measured wall-clock seconds across all faults (excluding
    /// the good-only reference run).
    pub total_seconds: f64,
    /// The good-only reference observations and timing.
    pub good: GoodObservations,
}

impl SerialReport {
    /// Number of detected faults.
    #[must_use]
    pub fn detected(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.detection.is_some())
            .count()
    }

    /// The paper's serial-time estimator: Σ over faults of
    /// (patterns to detect, or the whole sequence if undetected) ×
    /// (average good-circuit seconds per pattern).
    #[must_use]
    pub fn paper_estimate_seconds(&self, total_patterns: usize) -> f64 {
        let avg = self.good.avg_pattern_seconds();
        self.outcomes
            .iter()
            .map(|o| {
                let patterns = o.detection.map_or(total_patterns, |d| d.pattern + 1);
                patterns as f64 * avg
            })
            .sum()
    }
}

/// The serial fault simulator.
///
/// # Example
///
/// ```
/// use fmossim_netlist::{Network, Logic, Size, Drive, TransistorType};
/// use fmossim_faults::FaultUniverse;
/// use fmossim_core::{SerialSim, SerialConfig, Pattern, Phase};
///
/// let mut net = Network::new();
/// let vdd = net.add_input("Vdd", Logic::H);
/// let gnd = net.add_input("Gnd", Logic::L);
/// let a = net.add_input("A", Logic::L);
/// let out = net.add_storage("OUT", Size::S1);
/// net.add_transistor(TransistorType::P, Drive::D2, a, vdd, out);
/// net.add_transistor(TransistorType::N, Drive::D2, a, out, gnd);
///
/// let universe = FaultUniverse::stuck_nodes(&net);
/// let patterns = vec![
///     Pattern::new(vec![Phase::strobe(vec![(a, Logic::L)])]),
///     Pattern::new(vec![Phase::strobe(vec![(a, Logic::H)])]),
/// ];
/// let sim = SerialSim::new(&net, SerialConfig::paper());
/// let report = sim.run(universe.faults(), &patterns, &[out]);
/// assert_eq!(report.detected(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct SerialSim<'n> {
    net: &'n Network,
    config: SerialConfig,
}

impl<'n> SerialSim<'n> {
    /// Creates a serial simulator for `net`.
    #[must_use]
    pub fn new(net: &'n Network, config: SerialConfig) -> Self {
        SerialSim { net, config }
    }

    /// Simulates the fault-free circuit through `patterns`, recording
    /// the observed outputs at every strobe and per-pattern timing.
    #[must_use]
    pub fn observe_good(&self, patterns: &[Pattern], outputs: &[NodeId]) -> GoodObservations {
        let t0 = Instant::now();
        let mut sim = LogicSim::with_config(self.net, self.config.engine);
        let mut trace = GoodObservations::default();
        for pattern in patterns {
            let p0 = Instant::now();
            let mut strobes = Vec::new();
            for phase in &pattern.phases {
                for &(n, v) in &phase.inputs {
                    sim.set_input(n, v);
                }
                sim.settle();
                if phase.strobe {
                    strobes.push(outputs.iter().map(|&o| sim.get(o)).collect());
                }
            }
            trace.pattern_seconds.push(p0.elapsed().as_secs_f64());
            trace.strobes.push(strobes);
        }
        trace.total_seconds = t0.elapsed().as_secs_f64();
        trace
    }

    /// Simulates one fault through `patterns`, comparing observed
    /// outputs against `good` at every strobe.
    #[must_use]
    pub fn run_fault(
        &self,
        fault_id: FaultId,
        fault: Fault,
        patterns: &[Pattern],
        outputs: &[NodeId],
        good: &GoodObservations,
    ) -> SerialOutcome {
        let t0 = Instant::now();
        let ov = Overrides::from_effect(fault.effect());
        let mut st = SerialState::new(self.net, ov);
        let mut engine = Engine::with_config(self.net, self.config.engine);
        engine.perturb_all_storage(&st);
        // The fault is active from reset: wake its neighbourhood.
        for n in fault.initial_seeds(self.net) {
            engine.perturb(n);
        }
        let mut outcome = SerialOutcome {
            fault: fault_id,
            detection: None,
            patterns_run: 0,
            seconds: 0.0,
            strobes: Vec::new(),
            damped: false,
        };
        'patterns: for (pi, pattern) in patterns.iter().enumerate() {
            let mut strobe_idx = 0;
            let mut pattern_strobes = Vec::new();
            for (phi, phase) in pattern.phases.iter().enumerate() {
                for &(n, v) in &phase.inputs {
                    // A forced input (stuck control) ignores stimulus.
                    if st.is_input(n) && st.overrides().forced_value(n).is_none() {
                        engine.apply_input(&mut st, n, v);
                    }
                }
                outcome.damped |= engine.settle(&mut st).oscillation_damped;
                if phase.strobe {
                    let values: Vec<Logic> = outputs.iter().map(|&o| st.node_state(o)).collect();
                    let goodv = &good.strobes[pi][strobe_idx];
                    if outcome.detection.is_none() {
                        for (oi, (&f, &g)) in values.iter().zip(goodv.iter()).enumerate() {
                            let differs = f != g;
                            let counts = match self.config.policy {
                                DetectionPolicy::AnyDifference => differs,
                                DetectionPolicy::DefiniteOnly => {
                                    differs && f.is_definite() && g.is_definite()
                                }
                            };
                            if counts {
                                outcome.detection = Some(Detection {
                                    fault: fault_id,
                                    pattern: pi,
                                    phase: phi,
                                    good: g,
                                    faulty: f,
                                });
                                let _ = oi;
                                break;
                            }
                        }
                    }
                    strobe_idx += 1;
                    pattern_strobes.push(values);
                }
            }
            outcome.patterns_run = pi + 1;
            if !self.config.stop_at_detection {
                outcome.strobes.push(pattern_strobes);
            }
            if self.config.stop_at_detection && outcome.detection.is_some() {
                break 'patterns;
            }
        }
        outcome.seconds = t0.elapsed().as_secs_f64();
        outcome
    }

    /// Simulates every fault serially. The good reference trace is
    /// computed first and included in the report.
    #[must_use]
    pub fn run(&self, faults: &[Fault], patterns: &[Pattern], outputs: &[NodeId]) -> SerialReport {
        let good = self.observe_good(patterns, outputs);
        let t0 = Instant::now();
        let outcomes = faults
            .iter()
            .enumerate()
            .map(|(k, &f)| {
                self.run_fault(
                    FaultId(u32::try_from(k).expect("fault id fits")),
                    f,
                    patterns,
                    outputs,
                    &good,
                )
            })
            .collect();
        SerialReport {
            outcomes,
            total_seconds: t0.elapsed().as_secs_f64(),
            good,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Phase;
    use fmossim_faults::FaultUniverse;
    use fmossim_netlist::{Drive, Size, TransistorType};

    fn inverter() -> (Network, NodeId, NodeId) {
        let mut net = Network::new();
        let vdd = net.add_input("Vdd", Logic::H);
        let gnd = net.add_input("Gnd", Logic::L);
        let a = net.add_input("A", Logic::L);
        let out = net.add_storage("OUT", Size::S1);
        net.add_transistor(TransistorType::P, Drive::D2, a, vdd, out);
        net.add_transistor(TransistorType::N, Drive::D2, a, out, gnd);
        (net, a, out)
    }

    fn toggles(a: NodeId) -> Vec<Pattern> {
        vec![
            Pattern::new(vec![Phase::strobe(vec![(a, Logic::L)])]),
            Pattern::new(vec![Phase::strobe(vec![(a, Logic::H)])]),
        ]
    }

    #[test]
    fn observe_good_records_outputs() {
        let (net, a, out) = inverter();
        let sim = SerialSim::new(&net, SerialConfig::paper());
        let trace = sim.observe_good(&toggles(a), &[out]);
        assert_eq!(trace.strobes.len(), 2);
        assert_eq!(trace.strobes[0], vec![vec![Logic::H]]);
        assert_eq!(trace.strobes[1], vec![vec![Logic::L]]);
        assert_eq!(trace.pattern_seconds.len(), 2);
        assert!(trace.avg_pattern_seconds() >= 0.0);
    }

    #[test]
    fn detects_and_stops_early() {
        let (net, a, out) = inverter();
        let universe = FaultUniverse::stuck_nodes(&net);
        let sim = SerialSim::new(&net, SerialConfig::paper());
        let report = sim.run(universe.faults(), &toggles(a), &[out]);
        assert_eq!(report.detected(), 2);
        // stuck-at-0 detected on pattern 0 → stops after 1 pattern.
        assert_eq!(report.outcomes[0].patterns_run, 1);
        assert_eq!(report.outcomes[1].patterns_run, 2);
    }

    #[test]
    fn full_trace_mode_keeps_going() {
        let (net, a, out) = inverter();
        let universe = FaultUniverse::stuck_nodes(&net);
        let sim = SerialSim::new(
            &net,
            SerialConfig {
                stop_at_detection: false,
                ..SerialConfig::default()
            },
        );
        let report = sim.run(universe.faults(), &toggles(a), &[out]);
        for o in &report.outcomes {
            assert_eq!(o.patterns_run, 2);
            assert_eq!(o.strobes.len(), 2);
        }
        // OUT stuck-at-0: output reads 0 under both patterns.
        assert_eq!(report.outcomes[0].strobes[0][0], vec![Logic::L]);
        assert_eq!(report.outcomes[0].strobes[1][0], vec![Logic::L]);
    }

    #[test]
    fn estimator_matches_hand_calculation() {
        let (net, a, out) = inverter();
        let universe = FaultUniverse::stuck_nodes(&net);
        let sim = SerialSim::new(&net, SerialConfig::paper());
        let report = sim.run(universe.faults(), &toggles(a), &[out]);
        let avg = report.good.avg_pattern_seconds();
        // Fault 0 detected at pattern 1 (1 pattern), fault 1 at 2.
        let want = (1.0 + 2.0) * avg;
        let got = report.paper_estimate_seconds(2);
        assert!((want - got).abs() < 1e-12, "want {want}, got {got}");
    }

    #[test]
    fn undetected_fault_runs_all_patterns() {
        let (mut net, a, out) = inverter();
        let gnd = net.find_node("Gnd").expect("exists");
        let dead = net.add_storage("DEAD", Size::S1);
        let en = net.add_input("EN", Logic::L);
        net.add_transistor(TransistorType::N, Drive::D2, en, dead, gnd);
        let faults = vec![Fault::NodeStuck {
            node: dead,
            value: Logic::H,
        }];
        let sim = SerialSim::new(&net, SerialConfig::paper());
        let report = sim.run(&faults, &toggles(a), &[out]);
        assert_eq!(report.detected(), 0);
        assert_eq!(report.outcomes[0].patterns_run, 2);
        // Estimator charges the full sequence for undetected faults.
        let avg = report.good.avg_pattern_seconds();
        assert!((report.paper_estimate_seconds(2) - 2.0 * avg).abs() < 1e-12);
    }
}
