//! The benchmark circuit zoo: one named registry of ready-to-run
//! fault-grading workloads (circuit + stimulus + observed outputs),
//! shared by the CLI (`faultsim --circuit`) and the differential
//! conformance tests (`tests/zoo_equivalence.rs`).
//!
//! The paper argues FMOSSIM's worth by measuring it across a spread of
//! MOS circuits; the zoo is that spread for this reproduction — the
//! paper's two RAM scales plus structurally different members (pure
//! pipeline, deep feedback, dynamic planes, muxed datapath, register
//! array, adder, and seeded random logic), each with a deliberately
//! different observability profile.

use crate::netgen::{RandomNetSpec, RandomNetlist};
use crate::sequence::TestSequence;
use fmossim_circuits::{
    AluDatapath, Pla, PlaSpec, Ram, RegisterFile, RippleAdder, RippleCounter, ShiftRegister,
    ALU_OPS,
};
use fmossim_core::{Pattern, Phase};
use fmossim_netlist::{Logic, Network, NetworkStats, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The zoo's fixed seed (the paper's publication date), used wherever
/// a member needs seeded randomness — programmings, random netlists,
/// operand streams. Everything derived from it is reproducible.
pub const ZOO_SEED: u64 = 850_715;

/// The zoo members, in registry order. `ZOO[i].0` is the name
/// [`build_zoo`] accepts, `ZOO[i].1` a one-line description.
pub const ZOO: [(&str, &str); 10] = [
    (
        "ram4x4",
        "4x4 3T dynamic RAM, full paper sequence (control + marches)",
    ),
    (
        "ram64",
        "the paper's RAM64 (8x8 3T dynamic RAM), sequence 2 (march only)",
    ),
    (
        "regfile4x4",
        "4-word x 4-bit register file, write/read/overwrite sweep",
    ),
    (
        "adder8",
        "8-bit ripple-carry adder, carry-chain corners + random operands",
    ),
    (
        "shift16",
        "16-stage two-phase dynamic shift register, random bit stream",
    ),
    (
        "counter6",
        "6-bit clocked counter with rippling carry enable, clear/count/hold",
    ),
    (
        "pla6",
        "dynamic NOR-NOR PLA (6 in, 10 products, 4 out), exhaustive inputs",
    ),
    (
        "alu4",
        "4-bit 4-function ALU datapath, all ops x corner + random operands",
    ),
    (
        "rand-small",
        "seeded random acyclic logic (4 in, 16 gates), random vectors",
    ),
    (
        "rand-wide",
        "seeded random acyclic logic (8 in, 64 gates), random vectors",
    ),
];

/// One ready-to-run workload from the zoo.
#[derive(Clone, Debug)]
pub struct ZooWorkload {
    /// Registry name.
    pub name: &'static str,
    /// One-line description (matches [`ZOO`]).
    pub description: &'static str,
    /// The circuit.
    pub net: Network,
    /// The observed output nodes.
    pub outputs: Vec<NodeId>,
    /// The stimulus.
    pub patterns: Vec<Pattern>,
}

impl ZooWorkload {
    /// Summary statistics of the circuit.
    #[must_use]
    pub fn stats(&self) -> NetworkStats {
        NetworkStats::of(&self.net)
    }
}

/// The registry names, in order.
#[must_use]
pub fn zoo_names() -> Vec<&'static str> {
    ZOO.iter().map(|&(name, _)| name).collect()
}

/// Builds the named zoo workload.
///
/// # Errors
///
/// Returns a message listing the registry on an unknown name.
pub fn build_zoo(name: &str) -> Result<ZooWorkload, String> {
    let (reg_name, description) =
        ZOO.iter()
            .find(|&&(n, _)| n == name)
            .copied()
            .ok_or_else(|| {
                format!(
                    "unknown zoo circuit `{name}` (expected one of: {})",
                    zoo_names().join(", ")
                )
            })?;
    let (net, outputs, patterns) = match name {
        "ram4x4" => {
            let ram = Ram::new(4, 4);
            let seq = TestSequence::full(&ram);
            (
                ram.network().clone(),
                ram.observed_outputs().to_vec(),
                seq.patterns().to_vec(),
            )
        }
        "ram64" => {
            let ram = Ram::new(8, 8);
            let seq = TestSequence::march_only(&ram);
            (
                ram.network().clone(),
                ram.observed_outputs().to_vec(),
                seq.patterns().to_vec(),
            )
        }
        "regfile4x4" => {
            let rf = RegisterFile::new(4, 4);
            let patterns = regfile_sequence(&rf);
            (
                rf.network().clone(),
                rf.observed_outputs().to_vec(),
                patterns,
            )
        }
        "adder8" => {
            let adder = RippleAdder::new(8);
            let patterns = adder_sequence(&adder, 24, ZOO_SEED);
            (adder.network().clone(), adder.observed_outputs(), patterns)
        }
        "shift16" => {
            let sr = ShiftRegister::new(16);
            let patterns = shift_sequence(&sr, 2 * sr.stages() + 8, ZOO_SEED);
            (
                sr.network().clone(),
                sr.observed_outputs().to_vec(),
                patterns,
            )
        }
        "counter6" => {
            let counter = RippleCounter::new(6);
            let patterns = counter_sequence(&counter);
            (
                counter.network().clone(),
                counter.observed_outputs().to_vec(),
                patterns,
            )
        }
        "pla6" => {
            let pla = Pla::new(PlaSpec::random(6, 10, 4, ZOO_SEED));
            let patterns = pla_sequence(&pla);
            (
                pla.network().clone(),
                pla.observed_outputs().to_vec(),
                patterns,
            )
        }
        "alu4" => {
            let alu = AluDatapath::new(4);
            let patterns = alu_sequence(&alu, 12, ZOO_SEED);
            (alu.network().clone(), alu.observed_outputs(), patterns)
        }
        "rand-small" => {
            let rn = RandomNetlist::generate(RandomNetSpec::small(ZOO_SEED));
            let patterns = rn.patterns(24, ZOO_SEED ^ 1);
            (
                rn.network().clone(),
                rn.observed_outputs().to_vec(),
                patterns,
            )
        }
        "rand-wide" => {
            let rn = RandomNetlist::generate(RandomNetSpec::wide(ZOO_SEED));
            let patterns = rn.patterns(32, ZOO_SEED ^ 2);
            (
                rn.network().clone(),
                rn.observed_outputs().to_vec(),
                patterns,
            )
        }
        _ => unreachable!("registry names are matched above"),
    };
    Ok(ZooWorkload {
        name: reg_name,
        description,
        net,
        outputs,
        patterns,
    })
}

/// Write/read/overwrite sweep for a register file: write every word
/// ascending, read every word, overwrite descending with the
/// complement, read again — every cell is written and observed in
/// both polarities.
#[must_use]
pub fn regfile_sequence(rf: &RegisterFile) -> Vec<Pattern> {
    let io = rf.io();
    let mask = (1u32 << rf.bits()) - 1;
    let value_of = |w: usize| (w as u32).wrapping_mul(5) & mask;
    let write = |w: usize, value: u32| -> Pattern {
        let mut setup = rf.addr_assignments(w);
        for (b, &d) in io.din.iter().enumerate() {
            setup.push((d, Logic::from_bool((value >> b) & 1 == 1)));
        }
        Pattern::labelled(
            vec![
                Phase::strobe(setup),
                Phase::strobe(vec![(io.wr, Logic::H)]),
                Phase::strobe(vec![(io.wr, Logic::L)]),
            ],
            format!("w{value:x}@{w}"),
        )
    };
    let read = |w: usize| {
        Pattern::labelled(
            vec![Phase::strobe(rf.addr_assignments(w))],
            format!("r@{w}"),
        )
    };
    let mut patterns = Vec::new();
    for w in 0..rf.words() {
        patterns.push(write(w, value_of(w)));
    }
    for w in 0..rf.words() {
        patterns.push(read(w));
    }
    for w in (0..rf.words()).rev() {
        patterns.push(write(w, !value_of(w) & mask));
    }
    for w in 0..rf.words() {
        patterns.push(read(w));
    }
    patterns
}

/// Adder stimulus: the carry-chain corners (all-ones plus one,
/// alternating operands) followed by seeded random operand pairs.
#[must_use]
pub fn adder_sequence(adder: &RippleAdder, random_pairs: usize, seed: u64) -> Vec<Pattern> {
    let bits = adder.bits();
    let max = (1u64 << bits) - 1;
    let alt = {
        let mut v = 0u64;
        for i in (0..bits).step_by(2) {
            v |= 1 << i;
        }
        v
    };
    let mut cases: Vec<(u64, u64, bool)> = vec![
        (0, 0, false),
        (max, 0, true),
        (max, max, true),
        (alt, max & !alt, false),
        (alt, max & !alt, true),
        (1, max, false),
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..random_pairs {
        cases.push((
            rng.gen_range(0..=max),
            rng.gen_range(0..=max),
            rng.gen_bool(0.5),
        ));
    }
    cases
        .into_iter()
        .map(|(a, b, cin)| {
            Pattern::labelled(
                vec![Phase::strobe(adder.operand_assignments(a, b, cin))],
                format!("{a}+{b}+{}", u8::from(cin)),
            )
        })
        .collect()
}

/// Shift-register stimulus: `cycles` full clock cycles carrying a
/// seeded random bit stream (one pattern per cycle).
#[must_use]
pub fn shift_sequence(sr: &ShiftRegister, cycles: usize, seed: u64) -> Vec<Pattern> {
    let io = sr.io();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..cycles)
        .map(|k| {
            let bit = rng.gen_bool(0.5);
            Pattern::labelled(
                vec![
                    Phase::strobe(vec![(io.sin, Logic::from_bool(bit)), (io.phi1, Logic::H)]),
                    Phase::strobe(vec![(io.phi1, Logic::L)]),
                    Phase::strobe(vec![(io.phi2, Logic::H)]),
                    Phase::strobe(vec![(io.phi2, Logic::L)]),
                ],
                format!("s{}@{k}", u8::from(bit)),
            )
        })
        .collect()
}

/// Counter stimulus: clear, count through the first carry into the
/// MSB, hold, clear again, count a little more — every bit toggles
/// and both controls are exercised.
#[must_use]
pub fn counter_sequence(counter: &RippleCounter) -> Vec<Pattern> {
    let io = counter.io();
    let cycle = |en: bool, clr: bool, label: String| {
        Pattern::labelled(
            vec![
                Phase::strobe(vec![
                    (io.en, Logic::from_bool(en)),
                    (io.clr, Logic::from_bool(clr)),
                    (io.phi1, Logic::H),
                ]),
                Phase::strobe(vec![(io.phi1, Logic::L)]),
                Phase::strobe(vec![(io.phi2, Logic::H)]),
                Phase::strobe(vec![(io.phi2, Logic::L)]),
            ],
            label,
        )
    };
    let mut patterns = vec![cycle(false, true, "clr".into())];
    let msb_carry = 1usize << (counter.bits() - 1);
    for k in 0..=msb_carry {
        patterns.push(cycle(true, false, format!("cnt{k}")));
    }
    for k in 0..3 {
        patterns.push(cycle(false, false, format!("hold{k}")));
    }
    patterns.push(cycle(true, true, "clr2".into()));
    for k in 0..5 {
        patterns.push(cycle(true, false, format!("cnt2.{k}")));
    }
    patterns
}

/// PLA stimulus: every input vector, exhaustively, each evaluated on
/// the full three-phase clock cycle.
#[must_use]
pub fn pla_sequence(pla: &Pla) -> Vec<Pattern> {
    let io = pla.io();
    let width = pla.spec().inputs;
    (0..1usize << width)
        .map(|v| {
            let bits: Vec<bool> = (0..width).map(|i| (v >> i) & 1 == 1).collect();
            let mut setup = pla.input_assignments(&bits);
            setup.push((io.phi1, Logic::H));
            Pattern::labelled(
                vec![
                    Phase::strobe(setup),
                    Phase::strobe(vec![(io.phi1, Logic::L)]),
                    Phase::strobe(vec![(io.phi2, Logic::H)]),
                    Phase::strobe(vec![(io.phi2, Logic::L)]),
                    Phase::strobe(vec![(io.phi3, Logic::H)]),
                    Phase::strobe(vec![(io.phi3, Logic::L)]),
                ],
                format!("x{v:02x}"),
            )
        })
        .collect()
}

/// ALU stimulus: for every operation, the operand corners (zeros,
/// all-ones, alternating) plus `random_pairs` seeded random pairs.
#[must_use]
pub fn alu_sequence(alu: &AluDatapath, random_pairs: usize, seed: u64) -> Vec<Pattern> {
    let max = (1u64 << alu.bits()) - 1;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut patterns = Vec::new();
    for op in ALU_OPS {
        let mut cases: Vec<(u64, u64, bool)> = vec![
            (0, 0, false),
            (max, max, true),
            (
                max & 0x5555_5555_5555_5555,
                max & 0xAAAA_AAAA_AAAA_AAAA,
                false,
            ),
        ];
        for _ in 0..random_pairs {
            cases.push((
                rng.gen_range(0..=max),
                rng.gen_range(0..=max),
                rng.gen_bool(0.5),
            ));
        }
        for (a, b, cin) in cases {
            patterns.push(Pattern::labelled(
                vec![Phase::strobe(alu.operand_assignments(op, a, b, cin))],
                format!("{op:?} {a},{b},{}", u8::from(cin)),
            ));
        }
    }
    patterns
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmossim_switch::LogicSim;

    #[test]
    fn every_member_builds_and_is_well_formed() {
        for (name, _) in ZOO {
            let w = build_zoo(name).expect(name);
            assert_eq!(w.name, name);
            w.net.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!w.outputs.is_empty(), "{name}: no observed outputs");
            assert!(!w.patterns.is_empty(), "{name}: no stimulus");
            let stats = w.stats();
            assert!(stats.transistors > 0, "{name}: empty circuit");
            // Outputs are real nodes of this network.
            for &o in &w.outputs {
                assert!(o.index() < stats.nodes, "{name}: foreign output node");
            }
        }
    }

    #[test]
    fn unknown_name_lists_the_registry() {
        let err = build_zoo("nope").unwrap_err();
        for (name, _) in ZOO {
            assert!(err.contains(name), "error should list {name}: {err}");
        }
    }

    #[test]
    fn zoo_members_settle_through_their_stimulus() {
        for (name, _) in ZOO {
            let w = build_zoo(name).expect(name);
            let mut sim = LogicSim::new(&w.net);
            sim.settle();
            for pattern in &w.patterns {
                for phase in &pattern.phases {
                    for &(n, v) in &phase.inputs {
                        sim.set_input(n, v);
                    }
                    let report = sim.settle();
                    assert!(
                        !report.oscillation_damped,
                        "{name}: pattern `{}` oscillated",
                        pattern.label
                    );
                }
            }
        }
    }

    #[test]
    fn building_twice_is_deterministic() {
        for (name, _) in ZOO {
            let a = build_zoo(name).expect(name);
            let b = build_zoo(name).expect(name);
            assert_eq!(
                fmossim_netlist::write_netlist(&a.net),
                fmossim_netlist::write_netlist(&b.net),
                "{name}: circuit not reproducible"
            );
            assert_eq!(a.patterns.len(), b.patterns.len());
            for (x, y) in a.patterns.iter().zip(&b.patterns) {
                assert_eq!(x.label, y.label, "{name}: stimulus not reproducible");
            }
        }
    }

    #[test]
    fn registry_listing_matches_builders() {
        assert_eq!(zoo_names().len(), ZOO.len());
        assert_eq!(zoo_names()[0], "ram4x4");
    }
}
