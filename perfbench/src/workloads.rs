//! The four workloads, each a closed loop of *ops* issued by one caller thread.
//!
//! An op is one loop (`fine-loops`, `irregular-steal`), one MPDATA time step
//! (`mpdata`) or one served request (`serve-closed`).  Every op's result is checked
//! through a [`Checker`]; the inputs are generated from the run's seed by
//! [`Inputs::new`], so the program under test only ever sees generated data.

use parlo_core::{FineGrainPool, LoopRuntime, Sequential, SyncStats};
use parlo_exec::Executor;
use parlo_serve::{JobHandle, LoopRequest, LoopSite, ServeConfig, ServeStats, Server};
use parlo_steal::{StealPool, StealStats};
use parlo_workloads::irregular::skewed_weight;
use parlo_workloads::microbench::work_unit;
use parlo_workloads::{Mesh, Mpdata};
use std::collections::VecDeque;
use std::ops::Range;
use std::str::FromStr;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// `fine-loops`: iterations and work units per iteration of the micro-benchmark.
const FINE_N: usize = 512;
const FINE_UNITS: usize = 4;
/// `irregular-steal`: iterations and base work units of the skewed sum.
const SKEW_N: usize = 2048;
const SKEW_UNITS: usize = 4;
/// `mpdata`: the paper's mesh shape, 96 × 58 = 5 568 nodes / 16 397 edges.
const MESH_NX: usize = 96;
const MESH_NY: usize = 58;
/// The solver's own test bound on relative mass drift.
const MASS_DRIFT_BOUND: f64 = 1e-10;
/// `serve-closed`: requests kept outstanding, iterations per request, loop sites.
pub const SERVE_WINDOW: usize = 8;
const SERVE_N: usize = 2048;
const SERVE_SITES: u64 = 4;
/// Distinct `sum` request bodies (salts) whose exact results are tabulated at set-up.
const SERVE_SALTS: usize = 16;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    FineLoops,
    Mpdata,
    IrregularSteal,
    ServeClosed,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::FineLoops,
        Kind::Mpdata,
        Kind::IrregularSteal,
        Kind::ServeClosed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::FineLoops => "fine-loops",
            Kind::Mpdata => "mpdata",
            Kind::IrregularSteal => "irregular-steal",
            Kind::ServeClosed => "serve-closed",
        }
    }

    /// Whether the workload's ops are loops on one pool driven by the caller, so the
    /// traced run can pair its barrier phases by epoch.
    pub fn is_loop(self) -> bool {
        self != Kind::ServeClosed
    }

    /// Ops per trace window: small enough that no track's ring (65 536 events) wraps
    /// between two snapshots.
    pub fn trace_batch(self) -> usize {
        match self {
            Kind::FineLoops => 4000,
            Kind::Mpdata => 400,
            Kind::IrregularSteal => 1000,
            Kind::ServeClosed => 4000,
        }
    }
}

impl FromStr for Kind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Kind::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| format!("unknown workload {s:?}"))
    }
}

/// The generated inputs of one run; the same seed gives the same inputs.  The seed
/// changes values, never sizes, so every seed costs the same work.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Index offset fed to the micro-benchmark's work generator (`fine-loops`).
    pub fine_offset: usize,
    /// Index offset fed to the skewed sum's work generator (`irregular-steal`).
    pub skew_offset: usize,
    /// Jitter seed of the MPDATA mesh.
    pub mesh_seed: u64,
    /// Multipliers of the `serve-closed` sum bodies.
    pub salts: Vec<u64>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Inputs {
    pub fn new(seed: u64) -> Inputs {
        let mut s = seed;
        Inputs {
            fine_offset: (splitmix64(&mut s) % 1_000_000) as usize,
            skew_offset: (splitmix64(&mut s) % 1_000_000) as usize,
            mesh_seed: splitmix64(&mut s),
            salts: (0..SERVE_SALTS)
                .map(|_| splitmix64(&mut s) % 1000 + 1)
                .collect(),
        }
    }
}

/// Counts checked ops and failed ones.  `corrupt_op` makes the self-test corrupt the
/// result of one op (1-based) before it is checked.
#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    corrupt_op: Option<u64>,
}

impl Checker {
    pub fn new(corrupt_op: Option<u64>) -> Checker {
        Checker {
            corrupt_op,
            ..Checker::default()
        }
    }

    /// Checks one op's result `value` with `ok`; returns the verdict.
    pub fn check(&mut self, value: f64, ok: impl FnOnce(f64) -> bool) -> bool {
        self.attempted += 1;
        let value = if self.corrupt_op == Some(self.attempted) {
            value + 1.0
        } else {
            value
        };
        let passed = ok(value);
        if !passed {
            self.failed += 1;
        }
        passed
    }

    /// Counts an op that was rejected or never completed.
    pub fn lost(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    pub fn failed_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// The counters the layers export, read between ops.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub sync: SyncStats,
    pub steal: Option<StealStats>,
    pub serve: Option<ServeStats>,
}

impl Counters {
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            sync: self.sync.since(&earlier.sync),
            steal: self
                .steal
                .as_ref()
                .zip(earlier.steal.as_ref())
                .map(|(a, b)| a.since(b)),
            serve: self
                .serve
                .as_ref()
                .zip(earlier.serve.as_ref())
                .map(|(a, b)| a.since(b)),
        }
    }
}

/// A workload instance ready to issue ops.
pub trait Workload {
    /// Runs one op, checks its result, and returns its latency in nanoseconds as the
    /// caller saw it (the check itself is not timed).
    fn op(&mut self, check: &mut Checker) -> u64;
    /// Completes every op still in flight and returns their latencies.
    fn drain(&mut self, _check: &mut Checker) -> Vec<u64> {
        Vec::new()
    }
    fn counters(&self) -> Counters;
    fn executor(&self) -> Option<&Arc<Executor>>;
    /// The wait policy the workload's synchronization runs with.
    fn wait_policy(&self) -> String;
    /// Starts timing each call into the layer under the op: each loop call into the
    /// pool, or each `Server::submit`.
    fn time_calls(&mut self);
    /// The call times recorded since [`Workload::time_calls`], in nanoseconds.
    fn take_call_times(&mut self) -> Vec<u64>;
}

/// A runtime the loop workloads run on: the parallel pools and the `Sequential`
/// control.
pub trait Backend: LoopRuntime {
    fn executor(&self) -> Option<&Arc<Executor>> {
        None
    }
    fn steal_stats(&self) -> Option<StealStats> {
        None
    }
    fn wait_policy(&self) -> String {
        "none (inline)".into()
    }
}

impl Backend for Sequential {}

impl Backend for FineGrainPool {
    fn executor(&self) -> Option<&Arc<Executor>> {
        Some(FineGrainPool::executor(self))
    }
    fn wait_policy(&self) -> String {
        format!("{:?}", self.config().wait)
    }
}

impl Backend for StealPool {
    fn executor(&self) -> Option<&Arc<Executor>> {
        Some(StealPool::executor(self))
    }
    fn steal_stats(&self) -> Option<StealStats> {
        Some(self.stats())
    }
    fn wait_policy(&self) -> String {
        format!("{:?}", self.config().wait)
    }
}

/// A [`LoopRuntime`] wrapper that, once switched on, times every call into the
/// runtime it wraps.
pub struct Timed<R> {
    inner: R,
    times: Option<Vec<u64>>,
}

impl<R: LoopRuntime> Timed<R> {
    fn timed<T>(&mut self, call: impl FnOnce(&mut R) -> T) -> T {
        match &mut self.times {
            None => call(&mut self.inner),
            Some(times) => {
                let t = Instant::now();
                let out = call(&mut self.inner);
                times.push(ns_since(t));
                out
            }
        }
    }
}

impl<R: LoopRuntime> LoopRuntime for Timed<R> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn threads(&self) -> usize {
        self.inner.threads()
    }

    fn parallel_for(&mut self, range: Range<usize>, body: &(dyn Fn(usize) + Sync)) {
        self.timed(|rt| rt.parallel_for(range, body));
    }

    fn parallel_reduce(
        &mut self,
        range: Range<usize>,
        init: f64,
        fold: &(dyn Fn(f64, usize) -> f64 + Sync),
        combine: &(dyn Fn(f64, f64) -> f64 + Sync),
    ) -> f64 {
        self.timed(|rt| rt.parallel_reduce(range, init, fold, combine))
    }

    fn sync_stats(&self) -> SyncStats {
        self.inner.sync_stats()
    }
}

/// What one loop workload computes per op, and how its result is checked.
trait Kernel {
    /// Runs the op on `rt` and returns the value its check inspects.
    fn run(&mut self, rt: &mut dyn LoopRuntime) -> f64;
    fn check(&mut self, value: f64, check: &mut Checker);
}

fn fine_term(offset: usize, i: usize) -> f64 {
    work_unit(offset + i, FINE_UNITS)
}

/// `fine-loops`: one `parallel_sum` of the uniform micro-benchmark.
struct FineSum {
    offset: usize,
    reference: f64,
    first: Option<f64>,
}

impl Kernel for FineSum {
    fn run(&mut self, rt: &mut dyn LoopRuntime) -> f64 {
        let offset = self.offset;
        rt.parallel_sum(0..FINE_N, &|i| fine_term(offset, i))
    }

    fn check(&mut self, value: f64, check: &mut Checker) {
        let reference = self.reference;
        let first = self.first;
        let passed = check.check(value, |v| {
            ((v - reference) / reference).abs() <= 1e-12
                && first.is_none_or(|f| f.to_bits() == v.to_bits())
        });
        if passed && first.is_none() {
            self.first = Some(value);
        }
    }
}

fn skewed_term(offset: usize, i: usize) -> f64 {
    work_unit(offset + i, SKEW_UNITS * skewed_weight(i, SKEW_N)).floor()
}

/// `irregular-steal`: one `parallel_sum` of the skewed-geometric kernel, whose
/// integer-valued terms make the sum exact on every schedule.
struct SkewedSum {
    offset: usize,
    reference: f64,
}

impl Kernel for SkewedSum {
    fn run(&mut self, rt: &mut dyn LoopRuntime) -> f64 {
        let offset = self.offset;
        rt.parallel_sum(0..SKEW_N, &|i| skewed_term(offset, i))
    }

    fn check(&mut self, value: f64, check: &mut Checker) {
        let reference = self.reference;
        check.check(value, |v| v == reference);
    }
}

/// `mpdata`: one `Mpdata::step` (3 `parallel_for` + 2 reductions).
struct MpdataStep {
    solver: Mpdata,
    mass0: f64,
}

impl Kernel for MpdataStep {
    fn run(&mut self, rt: &mut dyn LoopRuntime) -> f64 {
        self.solver.step(rt).total_mass
    }

    fn check(&mut self, value: f64, check: &mut Checker) {
        let mass0 = self.mass0;
        check.check(value, |m| ((m - mass0) / mass0).abs() < MASS_DRIFT_BOUND);
    }
}

/// The exactly summable body of a `serve-closed` sum request.
fn serve_term(salt: u64, i: usize) -> f64 {
    ((i as u64).wrapping_mul(salt) % 97) as f64
}

fn serve_reference(salt: u64) -> f64 {
    (0..SERVE_N).map(|i| serve_term(salt, i)).sum()
}

fn visit_counters() -> Arc<[AtomicU32]> {
    (0..SERVE_N).map(|_| AtomicU32::new(0)).collect()
}

/// Every index of a `for_each` body visited exactly `times` times in total.
fn visited(counts: &[AtomicU32], times: u32) -> bool {
    counts.iter().all(|c| c.load(Ordering::Relaxed) == times)
}

/// The `serve-closed` request bodies run inline on a [`LoopRuntime`]: the
/// sequential control of that workload.  Ops alternate a `for_each` and a sum.
struct ServeBodies {
    salts: Vec<u64>,
    references: Vec<f64>,
    visits: Arc<[AtomicU32]>,
    uses: u32,
    next: usize,
}

impl Kernel for ServeBodies {
    fn run(&mut self, rt: &mut dyn LoopRuntime) -> f64 {
        self.next += 1;
        if self.next % 2 == 1 {
            let visits = &self.visits;
            rt.parallel_for(0..SERVE_N, &|i| {
                visits[i].fetch_add(1, Ordering::Relaxed);
            });
            0.0
        } else {
            let salt = self.salts[(self.next / 2) % SERVE_SALTS];
            rt.parallel_sum(0..SERVE_N, &|i| serve_term(salt, i))
        }
    }

    fn check(&mut self, value: f64, check: &mut Checker) {
        if self.next % 2 == 1 {
            self.uses += 1;
            let (visits, uses) = (&self.visits, self.uses);
            check.check(value, |v| v == 0.0 && visited(visits, uses));
        } else {
            let reference = self.references[(self.next / 2) % SERVE_SALTS];
            check.check(value, |v| v == reference);
        }
    }
}

/// Builds the kernel of a workload from its inputs (mesh, reference results).
fn kernel(kind: Kind, inputs: &Inputs) -> Box<dyn Kernel> {
    match kind {
        Kind::FineLoops => Box::new(FineSum {
            offset: inputs.fine_offset,
            reference: (0..FINE_N).map(|i| fine_term(inputs.fine_offset, i)).sum(),
            first: None,
        }),
        Kind::IrregularSteal => Box::new(SkewedSum {
            offset: inputs.skew_offset,
            reference: (0..SKEW_N)
                .map(|i| skewed_term(inputs.skew_offset, i))
                .sum(),
        }),
        Kind::Mpdata => {
            let mut solver =
                Mpdata::new(Mesh::triangulated_grid(MESH_NX, MESH_NY, inputs.mesh_seed));
            let mass0 = solver.total_mass(&mut Sequential);
            Box::new(MpdataStep { solver, mass0 })
        }
        Kind::ServeClosed => Box::new(ServeBodies {
            references: inputs.salts.iter().map(|&s| serve_reference(s)).collect(),
            salts: inputs.salts.clone(),
            visits: visit_counters(),
            uses: 0,
            next: 0,
        }),
    }
}

/// A loop workload: a kernel issued back to back on one runtime.
struct LoopBench<R> {
    rt: Timed<R>,
    kernel: Box<dyn Kernel>,
}

impl<R: Backend> Workload for LoopBench<R> {
    fn op(&mut self, check: &mut Checker) -> u64 {
        let t = Instant::now();
        let value = self.kernel.run(&mut self.rt);
        let ns = ns_since(t);
        self.kernel.check(value, check);
        ns
    }

    fn counters(&self) -> Counters {
        Counters {
            sync: self.rt.inner.sync_stats(),
            steal: self.rt.inner.steal_stats(),
            serve: None,
        }
    }

    fn executor(&self) -> Option<&Arc<Executor>> {
        self.rt.inner.executor()
    }

    fn wait_policy(&self) -> String {
        self.rt.inner.wait_policy()
    }

    fn time_calls(&mut self) {
        self.rt.times = Some(Vec::new());
    }

    fn take_call_times(&mut self) -> Vec<u64> {
        self.rt.times.replace(Vec::new()).unwrap_or_default()
    }
}

/// What a served request's result is checked against.
enum Expect {
    Sum(f64),
    /// A `for_each` over visit-counter slot `slot`, whose every index must read
    /// `uses` once the request completes.
    Visits {
        slot: usize,
        uses: u32,
    },
}

struct Pending {
    handle: JobHandle,
    submitted: Instant,
    expect: Expect,
}

/// `serve-closed`: one client keeps [`SERVE_WINDOW`] requests outstanding, waiting
/// for the oldest before submitting the next.  Requests alternate a fusable
/// `for_each` and a non-fusable sum, round-robin over [`SERVE_SITES`] sites.
struct ServeClosed {
    outstanding: VecDeque<Pending>,
    server: Server,
    salts: Vec<u64>,
    references: Vec<f64>,
    /// One visit-counter slot per request that can be in flight.
    slots: Vec<Arc<[AtomicU32]>>,
    slot_uses: Vec<u32>,
    free_slots: Vec<usize>,
    next: u64,
    submit_times: Option<Vec<u64>>,
}

impl ServeClosed {
    fn new(inputs: &Inputs) -> ServeClosed {
        ServeClosed {
            outstanding: VecDeque::with_capacity(SERVE_WINDOW),
            server: Server::new(ServeConfig::default()),
            references: inputs.salts.iter().map(|&s| serve_reference(s)).collect(),
            salts: inputs.salts.clone(),
            slots: (0..SERVE_WINDOW).map(|_| visit_counters()).collect(),
            slot_uses: vec![0; SERVE_WINDOW],
            free_slots: (0..SERVE_WINDOW).collect(),
            next: 0,
            submit_times: None,
        }
    }

    fn submit_next(&mut self, check: &mut Checker) {
        let k = self.next;
        self.next += 1;
        let site = LoopSite::new(1 + k % SERVE_SITES);
        let (request, expect) = if k.is_multiple_of(2) {
            let slot = self
                .free_slots
                .pop()
                .expect("a window of requests never holds more for_each than slots");
            self.slot_uses[slot] += 1;
            let counts = Arc::clone(&self.slots[slot]);
            let request = LoopRequest::for_each(site, 0..SERVE_N, move |i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            let uses = self.slot_uses[slot];
            (request, Expect::Visits { slot, uses })
        } else {
            let j = (k / 2) as usize % SERVE_SALTS;
            let salt = self.salts[j];
            let request = LoopRequest::sum(site, 0..SERVE_N, move |i| serve_term(salt, i));
            (request, Expect::Sum(self.references[j]))
        };
        let submitted = Instant::now();
        match self.server.submit(request) {
            Ok(handle) => {
                if let Some(times) = &mut self.submit_times {
                    times.push(ns_since(submitted));
                }
                self.outstanding.push_back(Pending {
                    handle,
                    submitted,
                    expect,
                });
            }
            Err(_) => {
                check.lost();
                if let Expect::Visits { slot, .. } = expect {
                    // The request never ran: roll its slot back.
                    self.slot_uses[slot] -= 1;
                    self.free_slots.push(slot);
                }
            }
        }
    }

    /// Waits for the oldest outstanding request, checks it, and returns its latency
    /// from `submit` until its `wait` returned.
    fn complete_oldest(&mut self, check: &mut Checker) -> Option<u64> {
        let p = self.outstanding.pop_front()?;
        let value = p.handle.wait();
        let ns = ns_since(p.submitted);
        match p.expect {
            Expect::Sum(reference) => {
                check.check(value, |v| v == reference);
            }
            Expect::Visits { slot, uses } => {
                let counts = &self.slots[slot];
                check.check(value, |v| v == 0.0 && visited(counts, uses));
                self.free_slots.push(slot);
            }
        }
        Some(ns)
    }
}

impl Workload for ServeClosed {
    fn op(&mut self, check: &mut Checker) -> u64 {
        for _ in self.outstanding.len()..SERVE_WINDOW {
            self.submit_next(check);
        }
        // Zero only if every submission was rejected, which the checker counted.
        self.complete_oldest(check).unwrap_or(0)
    }

    fn drain(&mut self, check: &mut Checker) -> Vec<u64> {
        std::iter::from_fn(|| self.complete_oldest(check)).collect()
    }

    fn counters(&self) -> Counters {
        Counters {
            serve: Some(self.server.stats()),
            ..Counters::default()
        }
    }

    fn executor(&self) -> Option<&Arc<Executor>> {
        Some(self.server.executor())
    }

    fn wait_policy(&self) -> String {
        let threads = self.server.stats().gang_size.max(1);
        format!(
            "{:?} (gang pools, {threads} threads)",
            parlo_core::WaitPolicy::auto_for(threads)
        )
    }

    fn time_calls(&mut self) {
        self.submit_times = Some(Vec::new());
    }

    fn take_call_times(&mut self) -> Vec<u64> {
        self.submit_times.replace(Vec::new()).unwrap_or_default()
    }
}

/// Builds a workload on the parallel system with `threads` threads (the caller plus
/// `threads − 1` substrate workers): the mesh or reference table first, then the
/// pool or server.
pub fn build(kind: Kind, inputs: &Inputs, threads: usize) -> Box<dyn Workload> {
    match kind {
        Kind::FineLoops | Kind::Mpdata => {
            let kernel = kernel(kind, inputs);
            Box::new(LoopBench {
                rt: Timed {
                    inner: FineGrainPool::with_threads(threads),
                    times: None,
                },
                kernel,
            })
        }
        Kind::IrregularSteal => {
            let kernel = kernel(kind, inputs);
            Box::new(LoopBench {
                rt: Timed {
                    inner: StealPool::with_threads(threads),
                    times: None,
                },
                kernel,
            })
        }
        Kind::ServeClosed => Box::new(ServeClosed::new(inputs)),
    }
}

/// Builds the same ops on [`Sequential`]: the host-speed control.
pub fn build_sequential(kind: Kind, inputs: &Inputs) -> Box<dyn Workload> {
    Box::new(LoopBench {
        rt: Timed {
            inner: Sequential,
            times: None,
        },
        kernel: kernel(kind, inputs),
    })
}
