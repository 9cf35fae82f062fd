//! # parlo-serve — multi-tenant loop serving on the shared substrate
//!
//! The pools in this workspace are *single-driver*: a [`parlo_core::FineGrainPool`]
//! serves exactly one master thread, and before partition leases existed a second
//! concurrent driver on one substrate crashed racily (or worse, silently corrupted a
//! hand-off).  This crate turns the substrate into a **loop server** instead: many
//! tenant threads submit parallel loops to one [`Server`], which space-shares the
//! `P − 1` substrate workers among *gangs* and runs every loop to completion without
//! ever spawning an extra OS thread.
//!
//! ## Architecture
//!
//! The server splits its worker budget into gangs of `g` workers each, sized by the
//! paper's burden model ([`GangSizing::Model`] routes through
//! [`parlo_adaptive::gang_size_hint`]: `g* = ceil(sqrt(T/d))`).  Each gang is two
//! partition leases on the shared [`parlo_exec::Executor`]:
//!
//! * a **driver lease** over the gang's first worker, whose body is the serving loop:
//!   it pops requests from the admission queue and plays the *master* role;
//! * a **pool lease** over the remaining `g − 1` workers, held by a
//!   [`parlo_core::FineGrainPool`] built with [`parlo_core::FineGrainPool::new_on_partition`]
//!   (pool-local participant ids, no re-pinning), which the driver drives through the
//!   ordinary half-barrier loop entry points.
//!
//! Disjoint partitions may be active simultaneously (see the `parlo-exec` crate docs
//! for the multi-driver contract), so all gangs serve concurrently while the total
//! worker census stays bounded by the substrate capacity.
//!
//! ## Queueing discipline
//!
//! * **Admission control**: the queue is bounded. [`Server::try_submit`] fails fast
//!   with [`Rejected::QueueFull`]; [`Server::submit`] applies backpressure by waiting
//!   for room — a bounded spin, then yields, then a parked condvar wait (queued
//!   submitters never busy-spin).
//! * **Completion — help first on pool-less gangs**: when the server's gangs have
//!   one worker each (`gang_size` 1, no pool — the default on a 2-CPU host),
//!   [`JobHandle::wait`] on a served handle helps until its own job is done.  It
//!   pops the next fused batch of queued `for` requests (the drivers' round-robin
//!   pop) and serves it on the waiting thread, through the same batch-serving
//!   function the drivers use, so the caller's CPU does the driver's sequential
//!   work instead of idling.  A gang with a pool runs a loop in parallel, so there
//!   a waiter does not help: it would run the loop sequentially in the gang's
//!   place.  Sums are never helped: they stay on the gangs, so a sum's result bits
//!   do not depend on which thread ran it.  When it does not help, or no `for`
//!   request is queued, the waiter falls back to a bounded spin → yield → condvar
//!   park.  Wakes are skipped when nobody is parked.
//! * **Small-loop batching**: consecutive queued `for`-loops are fused into one
//!   half-barrier cycle — the driver concatenates their index spaces with a prefix
//!   sum and runs a single `parallel_for`, so a backlog of micro-loops pays one
//!   fork/join instead of one per loop.
//! * **Fairness**: requests are keyed by [`LoopSite`]; the queue holds one FIFO per
//!   site and the driver pops round-robin across sites, so a chatty tenant cannot
//!   starve the others.  The FIFO fixes the dispatch order only (see the body
//!   contract below).
//!
//! On a machine with no workers to lease (capacity 0) the server degenerates to
//! inline execution on the submitting thread — same results, no threads.
//!
//! ## Contract for request bodies
//!
//! * A body must not block on something the waiting thread does only after its
//!   `wait` returns: the waiting thread may be the one running that body.
//! * Per-site FIFO covers the dispatch order only.  Two gangs, or a gang and a
//!   helping waiter, may run requests of the same site at the same time, and a
//!   later request may finish before an earlier one.
//! * A panic in a served body aborts the process, whichever thread runs it (a gang
//!   driver or a helping waiter), so no other tenant's handle in the same batch is
//!   left pending.
//!
//! ## Example
//!
//! ```
//! use parlo_serve::{LoopRequest, Server, ServeConfig};
//! use parlo_adaptive::LoopSite;
//! use parlo_sync::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! let server = Server::new(ServeConfig::default().with_workers(3));
//! let hits = Arc::new(AtomicU64::new(0));
//! let h = {
//!     let hits = hits.clone();
//!     server
//!         .submit(LoopRequest::for_each(LoopSite::new(1), 0..100, move |_i| {
//!             hits.fetch_add(1, Ordering::Relaxed);
//!         }))
//!         .unwrap()
//! };
//! h.wait();
//! assert_eq!(hits.load(Ordering::Relaxed), 100);
//! ```

#![warn(missing_docs)]

mod queue;
mod server;

pub use parlo_adaptive::LoopSite;
pub use queue::{completion_pair, Completer, JobHandle, Rejected};
pub use server::{GangSizing, LoopRequest, ServeConfig, ServeStats, Server};
