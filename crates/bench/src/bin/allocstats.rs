//! Allocator-traffic measurement for the arena/SoA data layout.
//!
//! **Steady-state hot loop.** A single `ConcurrentSim` is warmed with
//! two passes of the pattern sequence (growing every scratch buffer —
//! the flat event queue, the strobe snapshot, the record lists — to its
//! fixed point), then a third pass is measured pattern by pattern,
//! counting every `alloc`/`realloc` call through a counting
//! `#[global_allocator]` wrapper around [`System`]. The flat-queue/CSR
//! layout targets **zero** allocator calls per pattern here; the binary
//! prints one JSON document and asserts it.
//!
//! Usage: `allocstats [--dim 8] [--sample K]`

use fmossim_bench::Flags;
use fmossim_circuits::Ram;
use fmossim_core::{ConcurrentConfig, ConcurrentSim};
use fmossim_faults::{FaultUniverse, DEFAULT_SEED};
use fmossim_testgen::TestSequence;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts calls into the system allocator. `Relaxed` is enough: the
/// measured loop is single-threaded.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() {
    let flags = Flags::from_env(&[], &["--dim", "--sample"]);
    let dim = flags.value("--dim").unwrap_or(8);
    let sample: Option<usize> = flags.value("--sample");

    let ram = Ram::new(dim, dim);
    let seq = TestSequence::march_only(&ram);
    let mut universe = FaultUniverse::stuck_nodes(ram.network());
    if let Some(k) = sample {
        universe = universe.sample(k, DEFAULT_SEED);
    }

    // Steady-state hot loop: warm a single simulator with two full
    // passes (all detectable faults drop in pass one; pass two runs
    // the surviving set over the periodic state trajectory, growing
    // every scratch buffer to its fixed point), then measure pass
    // three pattern by pattern. With the arena layout the loop should
    // not touch the allocator at all.
    let (steady_calls, steady_max, steady_patterns) = {
        let mut sim =
            ConcurrentSim::new(ram.network(), universe.faults(), ConcurrentConfig::paper());
        let outputs = ram.observed_outputs();
        for pass in 0..2 {
            for (pi, p) in seq.patterns().iter().enumerate() {
                let _ = sim.step_pattern(p, outputs, pass * seq.len() + pi);
            }
        }
        let mut total = 0u64;
        let mut max = 0u64;
        for (pi, p) in seq.patterns().iter().enumerate() {
            let c0 = ALLOC_CALLS.load(Ordering::Relaxed);
            let _ = sim.step_pattern(p, outputs, 2 * seq.len() + pi);
            let d = ALLOC_CALLS.load(Ordering::Relaxed) - c0;
            total += d;
            max = max.max(d);
        }
        (total, max, seq.len())
    };

    println!("{{");
    println!("  \"circuit\": \"RAM{} ({})\",", dim * dim, ram.stats());
    println!("  \"faults\": {},", universe.len());
    println!("  \"patterns\": {},", seq.len());
    println!(
        "  \"steady_state\": {{\"patterns\": {steady_patterns}, \"alloc_calls\": {steady_calls}, \
         \"max_per_pattern\": {steady_max}}}"
    );
    println!("}}");
    assert_eq!(
        steady_calls, 0,
        "steady-state concurrent loop should make zero per-pattern allocations"
    );
}
