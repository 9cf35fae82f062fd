//! A panic in the master's own share of a loop reaches the caller, and the pool
//! survives it.
//!
//! The workers of a loop read the harness on the master's stack until they arrive at
//! the join.  So when the master's share unwinds, the engine must first finish the
//! join (without combining) and release the pool, and only then let the unwind
//! continue.  The stealing pool must also leave no chunk of the failed loop behind
//! in its deques.  Each test drives one loop whose body panics only on the calling
//! thread, catches the panic, and then checks that the next loop on the same pool
//! returns the exact sum.

use parlo_core::FineGrainPool;
use parlo_steal::StealPool;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::ThreadId;

/// A loop body that panics when it runs on `caller` and does nothing elsewhere.
fn panics_on(caller: ThreadId) -> impl Fn(usize) + Sync {
    move |_| {
        if std::thread::current().id() == caller {
            panic!("master share failed");
        }
    }
}

/// Asserts that `drive` panicked with the body's message.
fn assert_reaches_caller(drive: impl FnOnce()) {
    let err = catch_unwind(AssertUnwindSafe(drive)).expect_err("the panic reaches the caller");
    assert_eq!(err.downcast_ref::<&str>(), Some(&"master share failed"));
}

#[test]
fn fine_grain_pool_survives_a_master_share_panic() {
    let mut pool = FineGrainPool::with_threads(2);
    let body = panics_on(std::thread::current().id());
    for _ in 0..3 {
        assert_reaches_caller(|| pool.parallel_for(0..1000, &body));
        let sum = pool.parallel_sum(0..1000, |i| i as f64);
        assert_eq!(sum, 499_500.0);
    }
}

#[test]
fn steal_pool_survives_a_master_share_panic() {
    let mut pool = StealPool::with_threads(2);
    let body = panics_on(std::thread::current().id());
    for _ in 0..3 {
        assert_reaches_caller(|| pool.steal_for(0..1000, &body));
        let sum = pool.steal_reduce(0..1000, || 0u64, |a, i| a + i as u64, |a, b| a + b);
        assert_eq!(sum, 499_500);
        assert_reaches_caller(|| pool.steal_for_with_chunk(0..1000, 8, &body));
        let sum =
            pool.steal_reduce_with_chunk(0..1000, 8, || 0u64, |a, i| a + i as u64, |a, b| a + b);
        assert_eq!(sum, 499_500);
    }
}

#[test]
fn single_thread_steal_pool_drops_the_failed_loop_chunks() {
    // With no worker to drain the master's deque, the guard itself must empty it.
    let mut pool = StealPool::with_threads(1);
    let body = panics_on(std::thread::current().id());
    assert_reaches_caller(|| pool.steal_for_with_chunk(0..1000, 8, &body));
    let sum = pool.steal_reduce(0..1000, || 0u64, |a, i| a + i as u64, |a, b| a + b);
    assert_eq!(sum, 499_500);
}
