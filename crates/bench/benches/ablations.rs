//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **Dynamic vs. static locality** — the paper (§4) contrasts
//!   MOSSIM II's conduction-bounded vicinities against earlier
//!   simulators partitioning "only according to DC-connected
//!   components". Static locality is functionally identical but solves
//!   far larger groups.
//! * **Fault dropping on/off** — detected circuits are dropped; without
//!   dropping, the cheap tail disappears and every pattern pays for all
//!   428 circuits.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fmossim_bench::{paper_universe, ram_with_bridges, SEED};
use fmossim_core::{ConcurrentConfig, ConcurrentSim};
use fmossim_switch::{EngineConfig, LocalityMode, LogicSim};
use fmossim_testgen::TestSequence;

fn bench_locality(c: &mut Criterion) {
    let ram = fmossim_circuits::Ram::new(8, 8);
    let seq = TestSequence::full(&ram);
    let mut g = c.benchmark_group("ablation_locality/good_sim_ram64");
    g.sample_size(10);
    for (label, mode) in [
        ("dynamic", LocalityMode::Dynamic),
        ("static", LocalityMode::Static),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(label), &mode, |b, &mode| {
            b.iter(|| {
                let mut sim = LogicSim::with_config(
                    ram.network(),
                    EngineConfig {
                        locality: mode,
                        ..EngineConfig::default()
                    },
                );
                sim.settle();
                for pattern in seq.patterns() {
                    for phase in &pattern.phases {
                        for &(n, v) in &phase.inputs {
                            sim.set_input(n, v);
                        }
                        sim.settle();
                    }
                }
                std::hint::black_box(sim.get(ram.io().dout))
            });
        });
    }
    g.finish();
}

fn bench_dropping(c: &mut Criterion) {
    let (ram, bridges) = ram_with_bridges(8, 8);
    let universe = paper_universe(&ram, bridges).sample(428, SEED);
    let seq = TestSequence::full(&ram);
    let mut g = c.benchmark_group("ablation_dropping/ram64_428_faults");
    g.sample_size(10);
    for (label, drop) in [("drop_on_detect", true), ("keep_all", false)] {
        g.bench_with_input(BenchmarkId::from_parameter(label), &drop, |b, &drop| {
            b.iter(|| {
                let mut sim = ConcurrentSim::new(
                    ram.network(),
                    universe.faults(),
                    ConcurrentConfig {
                        drop_on_detect: drop,
                        ..ConcurrentConfig::paper()
                    },
                );
                std::hint::black_box(sim.run(seq.patterns(), ram.observed_outputs()).detected())
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_locality, bench_dropping);
criterion_main!(benches);
