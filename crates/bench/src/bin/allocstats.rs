//! Allocator-traffic measurements for the arena/SoA data layout.
//!
//! Two measurements, one JSON document:
//!
//! 1. **Batch-rebuild A/B.** A batched parallel run rebuilds one
//!    `ConcurrentSim` per shard at every batch boundary; without reuse
//!    each rebuild allocates a fresh engine, record store, structural
//!    tables and queues — all sized for the network. The
//!    [`ArenaPool`] recycles those buffers across batches instead.
//!    This binary runs one batch of shard work through
//!    [`run_shards`] twice — with fresh arenas, then drawing on a pool
//!    a warm-up call has filled — counts every `alloc`/`realloc` call
//!    and requested byte through a counting `#[global_allocator]`
//!    wrapper around [`System`], and asserts the detection sets are
//!    bit-identical.
//! 2. **Steady-state hot loop.** A single `ConcurrentSim` is warmed
//!    with two passes of the pattern sequence (growing every scratch
//!    buffer — the flat event queue, the strobe snapshot, the record
//!    lists — to its fixed point), then a third pass is measured
//!    pattern by pattern. The flat-queue/CSR layout targets **zero**
//!    allocator calls per pattern here; the binary asserts it.
//!
//! Usage: `allocstats [--dim 8] [--batch 8] [--jobs 2] [--sample K]`
//!
//! Allocation *counts* are near-deterministic per mode on a given
//! build (the shard work itself is deterministic; only wall-clock and
//! which worker parks which arena vary), so the printed delta is a
//! stable measurement, not a noisy benchmark.

use fmossim_bench::arg_value;
use fmossim_circuits::Ram;
use fmossim_core::{ConcurrentConfig, ConcurrentSim, Detection, GoodTape};
use fmossim_faults::{FaultUniverse, DEFAULT_SEED};
use fmossim_par::{run_shards, ArenaPool, ScopedPool, ShardPlan, ShardStrategy, ShardWork};
use fmossim_telemetry::Registry;
use fmossim_testgen::TestSequence;
use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Counts calls into the system allocator. `Relaxed` is enough: the
/// totals are read only between runs, after the worker threads have
/// been joined.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One mode's measurement: allocator traffic across one batch.
struct Measurement {
    calls: u64,
    bytes: u64,
    wall_seconds: f64,
    /// The batch's detections, in canonical order.
    detections: Vec<Detection>,
}

/// Runs every shard of `work` on `jobs` workers, counting allocator
/// traffic from the first shard build to the last shard's result.
fn measure(work: ShardWork<'_>, jobs: usize) -> Measurement {
    let calls0 = ALLOC_CALLS.load(Ordering::Relaxed);
    let bytes0 = ALLOC_BYTES.load(Ordering::Relaxed);
    let t0 = Instant::now();
    let mut detections = Vec::new();
    run_shards(
        &ScopedPool::new(jobs),
        Arc::new(work),
        &Registry::null(),
        |r| {
            detections.extend(r.report.detections);
            ControlFlow::Continue(())
        },
    );
    let wall_seconds = t0.elapsed().as_secs_f64();
    let calls = ALLOC_CALLS.load(Ordering::Relaxed) - calls0;
    let bytes = ALLOC_BYTES.load(Ordering::Relaxed) - bytes0;
    detections.sort_by_key(|d| (d.pattern, d.phase, d.fault.index()));
    Measurement {
        calls,
        bytes,
        wall_seconds,
        detections,
    }
}

fn main() {
    let parse = |name: &str| arg_value(name).and_then(|s| s.parse::<usize>().ok());
    let dim = parse("--dim").unwrap_or(8);
    let batch = parse("--batch").unwrap_or(8);
    let jobs = parse("--jobs").unwrap_or(2);
    let sample = parse("--sample");

    let ram = Ram::new(dim, dim);
    let seq = TestSequence::march_only(&ram);
    let mut universe = FaultUniverse::stuck_nodes(ram.network());
    if let Some(k) = sample {
        universe = universe.sample(k, DEFAULT_SEED);
    }

    // One batch of shard work — the first `batch` patterns, replayed
    // from a recorded good tape — as a batched run rebuilds it at every
    // batch boundary.
    let sim = ConcurrentConfig::paper();
    let patterns = &seq.patterns()[..batch.min(seq.len())];
    let tape = GoodTape::record(ram.network(), patterns, sim.engine);
    let plan = ShardPlan::build(ram.network(), &universe, jobs, ShardStrategy::CostEstimated);
    let work = ShardWork {
        tape: Some(&tape),
        ..ShardWork::new(
            ram.network(),
            &universe,
            &plan,
            patterns,
            ram.observed_outputs(),
            sim,
        )
    };
    let pool = ArenaPool::new();
    let pooled_work = ShardWork {
        arenas: Some(&pool),
        ..work
    };

    // Warm-up call: one-time lazy initialisation (thread stacks, stdio
    // buffers) is not attributed to the first measured mode, and the
    // shards park their arenas in the pool for the pooled mode.
    let _ = measure(pooled_work, jobs);
    let fresh = measure(work, jobs);
    let pooled = measure(pooled_work, jobs);
    assert_eq!(
        fresh.detections, pooled.detections,
        "arena reuse changed the detection set"
    );

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

    let saved_calls = fresh.calls.saturating_sub(pooled.calls);
    let saved_bytes = fresh.bytes.saturating_sub(pooled.bytes);
    println!("{{");
    println!("  \"circuit\": \"RAM{} ({})\",", dim * dim, ram.stats());
    println!("  \"faults\": {},", universe.len());
    println!("  \"patterns\": {},", seq.len());
    println!("  \"batch\": {batch},");
    println!("  \"jobs\": {jobs},");
    println!(
        "  \"fresh\":  {{\"alloc_calls\": {}, \"alloc_bytes\": {}, \"wall_seconds\": {:.4}}},",
        fresh.calls, fresh.bytes, fresh.wall_seconds
    );
    println!(
        "  \"pooled\": {{\"alloc_calls\": {}, \"alloc_bytes\": {}, \"wall_seconds\": {:.4}}},",
        pooled.calls, pooled.bytes, pooled.wall_seconds
    );
    println!(
        "  \"saved\":  {{\"alloc_calls\": {saved_calls}, \"alloc_bytes\": {saved_bytes}, \
         \"calls_pct\": {:.2}, \"bytes_pct\": {:.2}}},",
        100.0 * saved_calls as f64 / fresh.calls.max(1) as f64,
        100.0 * saved_bytes as f64 / fresh.bytes.max(1) as f64,
    );
    println!(
        "  \"steady_state\": {{\"patterns\": {steady_patterns}, \"alloc_calls\": {steady_calls}, \
         \"max_per_pattern\": {steady_max}}}"
    );
    println!("}}");
    assert!(
        pooled.calls < fresh.calls,
        "arena pool should reduce allocator calls ({} -> {})",
        fresh.calls,
        pooled.calls
    );
    assert_eq!(
        steady_calls, 0,
        "steady-state concurrent loop should make zero per-pattern allocations"
    );
}
