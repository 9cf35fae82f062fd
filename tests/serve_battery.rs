//! Multi-tenant serving battery for `parlo-serve`.
//!
//! The bug class the server exists to fix: before partition leases, a second
//! concurrent driver of the substrate panicked (racily at best) instead of sharing
//! it.  The battery asserts the shared-substrate contract end to end:
//!
//! * (a) **tenancy** — several tenant threads submit through one [`Server`] on one
//!   executor; every tenant's sums are bit-equal to the sequential reference, while
//!   the substrate census (via [`ExecStats`] and a name-filtered `/proc/self/task`
//!   count) never exceeds `P − 1`;
//! * (b) **batching** — queued micro-loops are fused so a backlog costs fewer
//!   half-barrier cycles than requests ([`ServeStats::fused`] observes it);
//! * (c) **admission** — a full queue rejects `try_submit` with
//!   [`Rejected::QueueFull`] instead of blocking or corrupting, and every accepted
//!   job still completes exactly;
//! * (d) **lease churn** — a seeded proptest builds and drops servers of varying
//!   gang sizes on one long-lived executor; results stay exact and no activation or
//!   worker leaks across the churn;
//! * (e) **helping** — a tenant waiting on a `for` request serves queued `for`
//!   loops itself while the only (pool-less) gang is stalled, and never runs a sum;
//!   it never serves in place of a gang that has a pool; a panic in a body it helps
//!   with aborts the process with a message naming the serve layer.
//!
//! The census is process-wide, so the tests serialize on a file-local mutex, exactly
//! like the substrate battery.

use parlo_affinity::PinPolicy;
use parlo_exec::Executor;
use parlo_serve::{GangSizing, LoopRequest, LoopSite, Rejected, ServeConfig, Server};
use parlo_sync::{AtomicBool, AtomicU64, Ordering};
use proptest::prelude::*;
use std::sync::{Arc, Mutex, MutexGuard};

/// Serializes the tests of this binary: they all measure the process-wide thread
/// census, so they must not overlap.
fn census_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// Counts the live threads of this process whose name starts with `parlo-exec`
/// (substrate workers are named `parlo-exec-<id>`).  `None` where `/proc` is absent.
fn substrate_thread_census() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    let mut count = 0;
    for task in tasks.flatten() {
        if let Ok(name) = std::fs::read_to_string(task.path().join("comm")) {
            if name.trim_end().starts_with("parlo-exec") {
                count += 1;
            }
        }
    }
    Some(count)
}

/// The machine size the CI matrix pins via `PARLO_THREADS`; 4 when unset so a local
/// run still exercises a multi-gang server.
fn pinned_threads() -> usize {
    parlo_bench::env_threads().unwrap_or(4).clamp(2, 8)
}

/// A `P`-core substrate with no OS pinning (the battery runs on arbitrary hosts).
fn executor(cores: usize) -> Arc<Executor> {
    Executor::new(
        &parlo_affinity::Topology::flat(cores).expect("flat topology"),
        PinPolicy::None,
    )
}

/// `sum(0..n) of i` — integer-valued, so any scheduling or batching corruption
/// (a lost iteration, a double-executed fused segment) breaks exact equality.
fn expected_sum(n: usize) -> f64 {
    (0..n).map(|i| i as f64).sum()
}

/// A request that holds its gang until `release` is raised and raises `entered`
/// once a gang runs it.
fn gate_request(
    site: LoopSite,
    entered: &Arc<AtomicBool>,
    release: &Arc<AtomicBool>,
) -> LoopRequest {
    let (entered, release) = (Arc::clone(entered), Arc::clone(release));
    LoopRequest::for_each(site, 0..1, move |_| {
        entered.store(true, Ordering::Release);
        while !release.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
    })
}

#[test]
fn tenants_share_one_substrate_with_bit_equal_results_and_bounded_census() {
    let _guard = census_lock();
    let cores = pinned_threads();
    let executor = executor(cores);
    let server = Arc::new(Server::on_executor(
        ServeConfig::default().with_gang(GangSizing::Fixed(2)),
        &executor,
    ));

    // (a) Four tenant threads, each its own loop site, each checking every result
    // against the sequential reference — concurrently, through one server.
    let tenants: Vec<_> = (0..4)
        .map(|t| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let site = LoopSite::new(t as u64);
                for round in 0..20 {
                    let n = 500 + 37 * t + round;
                    let handle = server
                        .submit(LoopRequest::sum(site, 0..n, |i| i as f64))
                        .expect("server accepts while alive");
                    assert_eq!(
                        handle.wait(),
                        expected_sum(n),
                        "tenant {t} round {round}: result not bit-equal to sequential"
                    );
                }
            })
        })
        .collect();
    for t in tenants {
        t.join().expect("tenant thread");
    }

    // The substrate never grew past its capacity: P − 1 workers serve every gang
    // (driver workers included), however many tenants submit.
    let stats = executor.stats();
    assert!(
        stats.workers < cores,
        "substrate spawned {} workers on a {cores}-core machine (cap is P - 1)",
        stats.workers
    );
    if let Some(census) = substrate_thread_census() {
        assert!(
            census < cores,
            "/proc census found {census} substrate threads, expected <= {}",
            cores - 1
        );
    }
    let serve = server.stats();
    assert_eq!(serve.submitted, 80, "4 tenants x 20 rounds");
    assert_eq!(serve.completed, 80);
    assert_eq!(serve.rejected, 0);

    // Teardown joins everything synchronously — nothing leaks.
    drop(server);
    drop(executor);
    if let Some(census) = substrate_thread_census() {
        assert_eq!(census, 0, "substrate threads leaked past executor drop");
    }
}

#[test]
fn queued_micro_loops_are_batched_through_one_barrier_cycle() {
    let _guard = census_lock();
    let cores = pinned_threads();
    let executor = executor(cores);
    let server = Server::on_executor(
        ServeConfig::default().with_gang(GangSizing::Fixed(cores - 1)),
        &executor,
    );
    let site = LoopSite::new(7);

    // (b) Stall the single gang inside a first request, pile up a backlog of
    // same-site micro-loops behind it, then release: the drained backlog must fuse.
    // Only `For` loops fuse (a `Sum` needs its own reduction tree and rides alone),
    // so the backlog sums through side effects and checks exactness that way.
    let (entered, release) = (Arc::default(), Arc::new(AtomicBool::new(false)));
    let gate = server
        .submit(gate_request(site, &entered, &release))
        .expect("gate accepted");
    let sums: Arc<Vec<AtomicU64>> = Arc::new((0..32).map(|_| AtomicU64::new(0)).collect());
    let handles: Vec<_> = (0..32usize)
        .map(|k| {
            let sums = Arc::clone(&sums);
            server
                .submit(LoopRequest::for_each(site, 0..100 + k, move |i| {
                    sums[k].fetch_add(i as u64, Ordering::Relaxed);
                }))
                .expect("backlog accepted")
        })
        .collect();
    release.store(true, Ordering::Release);
    gate.wait();
    for (k, h) in handles.iter().enumerate() {
        h.wait();
        assert_eq!(
            sums[k].load(Ordering::Relaxed),
            expected_sum(100 + k) as u64,
            "backlog job {k}: fused execution lost or duplicated iterations"
        );
    }

    let stats = server.stats();
    assert_eq!(stats.completed, 33);
    assert!(
        stats.fused >= 1,
        "a 32-deep micro-loop backlog must fuse requests into shared batches: {stats:?}"
    );
    assert!(
        stats.batches < stats.completed,
        "fusion must spend fewer barrier cycles than requests: {stats:?}"
    );
}

#[test]
fn a_waiting_tenant_serves_queued_for_loops_but_never_sums() {
    let _guard = census_lock();
    // One pool-less gang: the only server shape whose waiters help.
    let executor = executor(pinned_threads());
    let server = Server::on_executor(
        ServeConfig::default()
            .with_workers(1)
            .with_gang(GangSizing::Fixed(1)),
        &executor,
    );
    let (gate_site, sum_site, for_site) = (LoopSite::new(1), LoopSite::new(2), LoopSite::new(3));

    // (e) Stall the single gang inside a gate.  Queue behind it only once a gang
    // runs the gate: a gate still queued could be popped by the waiting test thread
    // itself, whose wait would then spin on a release that only it can give.
    let entered = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let gate = server
        .submit(gate_request(gate_site, &entered, &release))
        .expect("gate accepted");
    while !entered.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    let sum = server
        .submit(LoopRequest::sum(sum_site, 0..1000, |i| i as f64))
        .expect("sum accepted");
    let visits: Arc<Vec<AtomicU64>> = Arc::new((0..300).map(|_| AtomicU64::new(0)).collect());
    let for_each = {
        let visits = Arc::clone(&visits);
        server
            .submit(LoopRequest::for_each(for_site, 0..300, move |i| {
                visits[i].fetch_add(1, Ordering::Relaxed);
            }))
            .expect("for_each accepted")
    };

    // The gang cannot serve anything before the release, so only the waiting
    // thread can have run the for_each.
    assert_eq!(for_each.wait(), 0.0);
    assert!(!gate.is_done(), "the gate is still closed");
    assert!(
        visits.iter().all(|v| v.load(Ordering::Relaxed) == 1),
        "the helped for_each visited some index other than exactly once"
    );
    let stats = server.stats();
    assert_eq!(
        stats.helped, 1,
        "the helper ran only the for_each: {stats:?}"
    );
    assert!(
        !sum.is_done(),
        "a sum is never helped: it waits for the gang"
    );

    release.store(true, Ordering::Release);
    assert_eq!(sum.wait(), expected_sum(1000), "the sum ran on the gang");
    gate.wait();
    let stats = server.stats();
    assert_eq!((stats.completed, stats.helped), (3, 1), "{stats:?}");
}

/// (e) A gang with a pool runs a loop in parallel, so a waiter must not pop the loop
/// and run it sequentially in the gang's place: behind a stalled pooled gang, a
/// waited-on `for_each` stays pending until the gang is released.
#[test]
fn a_waiting_tenant_never_serves_in_place_of_a_pooled_gang() {
    let _guard = census_lock();
    // Capacity 2: one gang of a driver plus a 1-worker pool.
    let executor = executor(3);
    let server = Server::on_executor(
        ServeConfig::default().with_gang(GangSizing::Fixed(2)),
        &executor,
    );
    assert_eq!((server.stats().gangs, server.stats().gang_size), (1, 2));
    let (entered, release) = (Arc::new(AtomicBool::new(false)), Arc::default());
    let gate = server
        .submit(gate_request(LoopSite::new(1), &entered, &release))
        .expect("gate accepted");
    while !entered.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    let visits: Arc<Vec<AtomicU64>> = Arc::new((0..300).map(|_| AtomicU64::new(0)).collect());
    let for_each = {
        let visits = Arc::clone(&visits);
        server
            .submit(LoopRequest::for_each(LoopSite::new(2), 0..300, move |i| {
                visits[i].fetch_add(1, Ordering::Relaxed);
            }))
            .expect("for_each accepted")
    };
    let waiter = {
        let for_each = for_each.clone();
        std::thread::spawn(move || for_each.wait())
    };
    // Give a (wrongly) helping waiter ample time to pop and run the for_each.  Read
    // before the release, assert after it: a failed assert with the gate still
    // closed would hang the server's drop.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let done_early = for_each.is_done();
    let helped_early = server.stats().helped;
    release.store(true, Ordering::Release);
    assert!(!done_early, "the waiter ran the pooled gang's loop");
    assert_eq!(helped_early, 0);
    assert_eq!(waiter.join().expect("waiter"), 0.0);
    gate.wait();
    assert!(visits.iter().all(|v| v.load(Ordering::Relaxed) == 1));
    let stats = server.stats();
    assert_eq!((stats.completed, stats.helped), (2, 0), "{stats:?}");
}

/// Set in the child process of [`a_panic_in_a_helped_body_aborts_the_process`].
const PANIC_CHILD: &str = "SERVE_BATTERY_PANIC_CHILD";

/// (e) A panic in a body the waiting thread helps with must abort, not unwind out
/// of `wait`: the other requests of its batch would stay pending.  The test runs
/// itself in a child process, which must die by `SIGABRT` with the serve layer's
/// message.
#[test]
fn a_panic_in_a_helped_body_aborts_the_process() {
    const NAME: &str = "a_panic_in_a_helped_body_aborts_the_process";
    if std::env::var_os(PANIC_CHILD).is_some() {
        let server = Server::on_executor(
            ServeConfig::default().with_gang(GangSizing::Fixed(1)),
            &executor(2),
        );
        let (entered, release) = (Arc::default(), Arc::new(AtomicBool::new(false)));
        let _gate = server.submit(gate_request(LoopSite::new(1), &entered, &release));
        while !entered.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        let failing = server
            .submit(LoopRequest::for_each(LoopSite::new(2), 0..4, |_| {
                panic!("served body failed")
            }))
            .expect("accepted");
        failing.wait();
        unreachable!("the helped body's panic must abort the process");
    }
    let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
        .args(["--exact", NAME, "--nocapture", "--test-threads=1"])
        .env(PANIC_CHILD, "1")
        .output()
        .expect("child test process runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "the child survived: {stderr}");
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        assert_eq!(out.status.signal(), Some(6), "SIGABRT expected: {stderr}");
    }
    assert!(
        stderr.contains("parlo-serve: a served request body panicked on thread"),
        "the abort names the serve layer: {stderr}"
    );
}

#[test]
fn full_queue_rejects_try_submit_without_losing_accepted_jobs() {
    let _guard = census_lock();
    let cores = pinned_threads();
    let executor = executor(cores);
    // batch_max = 1 so the stalled gate job cannot drag queued jobs into its own
    // batch, and a tiny queue so the backlog hits capacity after a handful of pushes.
    let server = Server::on_executor(
        ServeConfig::default()
            .with_gang(GangSizing::Fixed(cores - 1))
            .with_queue_capacity(2)
            .with_batch_max(1),
        &executor,
    );
    let site = LoopSite::new(0);

    let (entered, release) = (Arc::default(), Arc::new(AtomicBool::new(false)));
    let gate = server
        .submit(gate_request(site, &entered, &release))
        .expect("gate accepted");

    // (c) With the gang stalled, keep pushing until admission control says full:
    // at most gate + capacity jobs fit, so the 4th push can never be accepted.
    let mut accepted = Vec::new();
    let mut saw_full = false;
    for k in 0..4 {
        match server.try_submit(LoopRequest::sum(site, 0..50 + k, |i| i as f64)) {
            Ok(h) => accepted.push((k, h)),
            Err(e) => {
                assert_eq!(e, Rejected::QueueFull);
                saw_full = true;
                break;
            }
        }
    }
    assert!(
        saw_full,
        "a capacity-2 queue accepted 4 jobs behind a stalled gang"
    );

    release.store(true, Ordering::Release);
    gate.wait();
    for (k, h) in &accepted {
        assert_eq!(h.wait(), expected_sum(50 + k), "accepted job {k} lost");
    }
    let stats = server.stats();
    assert!(stats.rejected >= 1, "rejection must be counted: {stats:?}");
    assert_eq!(stats.completed, 1 + accepted.len() as u64);
}

/// (d) Lease churn: servers of the given gang sizes come and go on one long-lived
/// executor, interleaved with checked submissions.  Partition leases are carved,
/// activated, revoked and re-carved over the same worker ids every round — any stale
/// activation, worker-id overlap or epoch desync across the churn breaks exactness,
/// panics the overlap guard, or hangs the drop.
fn churn_gangs(gang_sizes: &[usize], iters: usize) {
    let _guard = census_lock();
    let cores = pinned_threads();
    let executor = executor(cores);
    for (round, g) in gang_sizes.iter().enumerate() {
        let server = Server::on_executor(
            ServeConfig::default().with_gang(GangSizing::Fixed(*g)),
            &executor,
        );
        for t in 0..3u64 {
            let n = iters + round + t as usize;
            let handle = server
                .submit(LoopRequest::sum(LoopSite::new(t), 0..n, |i| i as f64))
                .expect("server accepts while alive");
            assert_eq!(handle.wait(), expected_sum(n));
        }
        let stats = server.stats();
        assert_eq!(stats.completed, 3);
        drop(server);
        assert!(
            executor.stats().active.is_empty(),
            "round {round} (gang size {g}) leaked an activation"
        );
    }
    assert!(executor.stats().workers < cores);
}

/// The lease-churn input that once leaked an activation past `drop(server)`: a
/// substrate worker kept the last clone of a gang's body (and with it the gang's
/// pool and lease) alive after the lease was dropped.
#[test]
fn lease_churn_regression_gang_sizes_2_4_3() {
    churn_gangs(&[2, 4, 3], 178);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (d) Lease churn over proptest-chosen gang sizes (see [`churn_gangs`]).
    #[test]
    fn lease_churn_across_gang_sizes_preserves_results(
        gang_sizes in proptest::collection::vec(1usize..5, 1..6),
        iters in 64usize..512,
    ) {
        churn_gangs(&gang_sizes, iters);
    }
}
