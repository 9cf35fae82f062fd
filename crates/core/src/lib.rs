//! # parlo-core — the fine-grain parallel loop scheduler
//!
//! This crate implements the primary contribution of *"Reducing the Burden of Parallel
//! Loop Schedulers for Many-Core Processors"* (PPoPP 2018): a loop scheduler tuned to
//! fine-grain (micro-second-scale) parallel loops whose per-loop synchronization cost is
//! a single **half-barrier** — a release-only fork phase plus a join-only completion
//! phase — instead of the two (or, with reductions, three) full barriers executed by
//! conventional OpenMP-style runtimes.
//!
//! ## Quick start
//!
//! ```
//! use parlo_core::FineGrainPool;
//!
//! let mut pool = FineGrainPool::with_threads(4);
//!
//! // A statically scheduled parallel loop with a reduction merged into the join phase.
//! let data: Vec<u64> = (0..10_000).collect();
//! let sum = pool.parallel_reduce(
//!     0..data.len(),
//!     || 0u64,
//!     |acc, i| acc + data[i],
//!     |a, b| a + b,
//! );
//! assert_eq!(sum, data.iter().sum::<u64>());
//! ```
//!
//! ## Structure
//!
//! * [`LoopEngine`] — the half-barrier loop engine: job slot, epochs, detach cycle,
//!   lease registration, master pinning and the loop/phase/combine counters.  It runs
//!   one typed [`Harness`] per loop (any `Fn(id, epoch)` closure, or [`Merged`] for a
//!   reduction folded pairwise over padded [`Views`] inside the join phase).  Both
//!   the fine-grain pool and `parlo-steal`'s stealing pool are an engine plus their
//!   own harnesses.
//! * [`FineGrainPool`] — the engine plus the fine-grain harnesses: one master thread
//!   plus `P − 1` workers that wait on the fork half-barrier between loops.
//! * [`Config`] / [`BarrierKind`] — selects the synchronization structure: the paper's
//!   *fine-grain tree* (default), *fine-grain centralized*, or the *full-barrier*
//!   variants used as ablations in Table 1.
//! * Loop entry points: [`FineGrainPool::parallel_for`],
//!   [`FineGrainPool::parallel_for_blocks`], [`FineGrainPool::parallel_for_chunked`],
//!   [`FineGrainPool::parallel_for_dynamic`], [`FineGrainPool::broadcast`].
//! * Reductions merged into the join phase: [`FineGrainPool::parallel_reduce`] (exactly
//!   `P − 1` combines, distributed over the join tree) and
//!   [`FineGrainPool::parallel_reduce_ordered`] (non-commutative operators).
//! * [`StatsSnapshot`] — instrumentation counters used to verify the structural claims
//!   (barrier phases per loop, combines per reduction).
//! * [`LoopRuntime`] / [`SyncStats`] — the object-safe runtime abstraction every
//!   scheduler in the workspace implements, with [`Sequential`] as the inline
//!   reference; workloads and harnesses program against `dyn LoopRuntime`.
//! * [`StatsSource`] / [`StatsRegistry`] / [`stats_family!`] — the unified stats
//!   surface: every counter family in the workspace is declared through the macro
//!   (deriving `since`/`merged` and a flattened sample view) and any set of live
//!   families can be rendered as one text metrics page.
//!
//! Building with `--features stats-off` compiles the engine's counters down to
//! nothing: every `record_*` call becomes an empty inline function and
//! [`StatsSnapshot`] / [`SyncStats`] read as all-zero.  Because the stealing pool runs
//! on the same engine, its loop/reduction/phase/combine counters compile to zero too
//! (its steal and sticky-affinity counters are its own and stay live).  Results are
//! unaffected — only the accounting disappears.

#![warn(missing_docs)]

mod config;
mod engine;
mod job;
mod loops;
mod pool;
mod range;
mod reduce;
mod runtime;
mod source;
mod stats;

pub use config::{BarrierKind, Config, ConfigBuilder};
pub use engine::{Harness, LoopEngine};
pub use pool::{FineGrainPool, WorkerInfo};
pub use range::{static_block, static_chunks, DynamicChunks, GuidedChunks, StaticSchedule};
pub use reduce::{Merged, Views};
pub use runtime::{LoopRuntime, Sequential, SyncStats};
pub use source::{CounterField, StatsRegistry, StatsSource};
pub use stats::StatsSnapshot;

// Re-export the pieces callers commonly need to configure a pool.
pub use parlo_affinity::{PinPolicy, PlacementConfig, Topology, TopologySource};
pub use parlo_barrier::{Epoch, HierarchyStats, WaitMode, WaitPolicy};
