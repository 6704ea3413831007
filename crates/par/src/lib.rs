//! Fault-parallel execution for the FMOSSIM reproduction.
//!
//! The paper's concurrent algorithm grades many faulty circuits in one
//! simulation pass, but a single [`fmossim_core::ConcurrentSim`] is
//! strictly sequential. This crate adds the execution layer above it:
//!
//! * [`ShardPlan`] partitions a [`fmossim_faults::FaultUniverse`] into
//!   `K` disjoint shards — [`ShardStrategy::RoundRobin`],
//!   [`ShardStrategy::Contiguous`], or [`ShardStrategy::CostEstimated`]
//!   (greedy LPT over per-fault footprint costs).
//! * [`run_shards`] is the one shard executor: it runs one
//!   `ConcurrentSim` per shard on a [`ShardPool`] — [`ScopedPool`]'s
//!   scoped `std::thread` workers offline, the server's shared pool in
//!   `fmossim-serve` — and streams completions back to the caller.
//!   Workers pull shards from a shared queue, so oversharding
//!   ([`ParallelConfig::shards`]` > `[`ParallelConfig::jobs`]) load
//!   balances uneven shards. Within each shard the usual per-shard
//!   drop-on-detect applies: a detected fault stops consuming time.
//! * [`ParallelSim`] is the one-shot driver: it plans the shards,
//!   streams the good tape from shard 0 to the others when more than
//!   one shard shares it, runs every shard over the whole sequence
//!   through the executor, and merges.
//! * The per-shard [`fmossim_core::RunReport`]s are folded by
//!   [`fmossim_core::RunReport::merge`] into a single report whose
//!   detection set and coverage are identical to a one-shard run —
//!   sharding is a pure throughput lever.
//!
//! The classical trade-off of fault-partitioned simulation — every
//! shard re-simulating the *good* circuit — is retired by the
//! record/replay tape: whenever more than one shard runs, shard 0 leads
//! — it settles the good machine live and publishes each phase into a
//! [`fmossim_core::TapeStream`] — and every other shard *replays* the
//! published phases behind it, re-deriving triggering and private
//! events without re-settling the good circuit. Replay is
//! bit-identical to recompute, so one good pass is paid regardless of
//! the shard count, inside the leader rather than before the pool
//! starts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
mod exec;
mod jobs;
mod plan;

pub use driver::{ParallelConfig, ParallelRun, ParallelSim, ShardOutcome, TapeStats};
pub use exec::{
    run_shards, ScopedPool, ShardJob, ShardPool, ShardResult, ShardTape, ShardTask, ShardWork,
};
pub use jobs::{Jobs, AUTO_COST_PER_WORKER};
pub use plan::{fault_cost, ShardPlan, ShardStrategy};
