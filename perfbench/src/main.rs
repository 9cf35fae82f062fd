//! The parlo benchmark: four closed-loop workloads, each run in its own process on
//! the caller plus `nproc − 1` substrate workers, timed from outside through the
//! layers' public calls.  See `perfbench/README.md` for the workloads, the metrics
//! and the layer each metric belongs to.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! perfbench compare <result.json> <result.json>
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics, with `--trace 1` the
//! per-layer ones.  The last line of standard output is the result as one JSON
//! object; the same result, stamped with the run's metadata, goes to
//! `perfbench/results/`.

mod phases;
mod report;
mod workloads;

use parlo_affinity::CpuSet;
use parlo_bench::measured::HostFingerprint;
use parlo_exec::ExecStats;
use phases::PhaseStats;
use report::{metric, Meta, Metric, Outcome};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{ratio, Checker, Counters, Kind, Workload};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Set-ups per traced run, whose `LeaseAttach` spans give `exec.lease_attach_us_p50`.
const TRACED_SETUP_REPS: usize = 5;
/// How long a traced run lets workers finish recording before each snapshot.
const SETTLE: Duration = Duration::from_micros(200);

#[derive(Debug, Clone, Copy)]
struct RunArgs {
    seed: u64,
    seconds: f64,
    trace: bool,
    /// The self-test corrupts the result of this op (1-based) before its check.
    corrupt_op: Option<u64>,
}

fn usage() -> String {
    let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
    format!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench compare <result.json> <result.json>",
        names.join("|")
    )
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| format!("{name} needs a value")),
    }
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag(args, name)?
        .map(|v| v.parse().map_err(|_| format!("bad value {v:?} for {name}")))
        .transpose()
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let seconds: f64 = parsed(args, "--seconds")?.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match flag(args, "--trace")?.unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    Ok(RunArgs {
        seed: parsed(args, "--seed")?.unwrap_or(1),
        seconds,
        trace,
        corrupt_op: None,
    })
}

/// The nearest-rank `q` quantile of sorted samples; 0 for none.
fn nearest_rank(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

fn percentile(samples: &[u64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    nearest_rank(&sorted, q)
}

fn p50_us(samples: &[u64]) -> f64 {
    percentile(samples, 0.50) / 1e3
}

fn p99_us(samples: &[u64]) -> f64 {
    percentile(samples, 0.99) / 1e3
}

/// A window's figures are medians over short slices.  A slice closes once it has
/// lasted `SLICE_SECS` and holds `MIN_SLICE_OPS` ops (so ten ops lie beyond its
/// 90th percentile).  Host steal comes in stalls of a few milliseconds; while they
/// hit fewer than half the slices, they do not move the medians.
const SLICE_SECS: f64 = 0.02;
const MIN_SLICE_OPS: usize = 100;
/// The 99th percentile is taken per one-second stretch, which holds enough ops for
/// ten to lie beyond it on every workload.
const P99_SECS: f64 = 1.0;

/// The figures of one slice of a window.
#[derive(Debug, Clone, Copy)]
struct Slice {
    ops: usize,
    secs: f64,
    p50_us: f64,
    p90_us: f64,
}

impl Slice {
    /// Summarizes a slice's op latencies (nanoseconds; sorted in place).
    fn of(lat: &mut [u64], secs: f64) -> Slice {
        lat.sort_unstable();
        Slice {
            ops: lat.len(),
            secs,
            p50_us: nearest_rank(lat, 0.50) / 1e3,
            p90_us: nearest_rank(lat, 0.90) / 1e3,
        }
    }

    fn ops_per_s(&self) -> f64 {
        ratio(self.ops as f64, self.secs)
    }
}

/// Ops issued back to back for a stretch of time, summarized as it runs so the
/// benchmark holds at most one second of latency samples.
struct Window {
    ops: usize,
    slices: Vec<Slice>,
    /// The 99th percentile of each one-second stretch, in microseconds.
    p99s_us: Vec<f64>,
    delta: Counters,
}

impl Window {
    /// The median over the window's slices of `stat`.
    fn median_of(&self, stat: impl Fn(&Slice) -> f64) -> f64 {
        let mut per_slice: Vec<f64> = self.slices.iter().map(stat).collect();
        median(&mut per_slice)
    }

    fn p99_us(&self) -> f64 {
        median(&mut self.p99s_us.clone())
    }
}

/// Snapshot-and-clear tracing of a window: every `batch` ops the in-flight ops are
/// completed, the rings are read back and cleared, so no ring wraps.
struct Tracer<'a> {
    phases: &'a mut PhaseStats,
    batch: usize,
    pair_loops: bool,
}

impl Tracer<'_> {
    fn collect(&mut self) {
        std::thread::sleep(SETTLE);
        let snap = parlo_trace::snapshot();
        parlo_trace::clear();
        self.phases.add_window(&snap, self.pair_loops);
    }
}

/// Issues ops on `w` for `secs` seconds (then completes those in flight).
fn window(
    w: &mut dyn Workload,
    check: &mut Checker,
    secs: f64,
    mut tracer: Option<Tracer<'_>>,
) -> Window {
    if tracer.is_some() {
        parlo_trace::clear();
        parlo_trace::enable();
    }
    let before = w.counters();
    let start = Instant::now();
    let (mut slice_start, mut p99_start) = (start, start);
    let (mut slices, mut p99s_us) = (Vec::new(), Vec::new());
    // The latencies of the current one-second stretch; its open slice starts at
    // `slice_from`.
    let mut lat = Vec::new();
    let mut slice_from = 0;
    let mut ops = 0;
    let mut since_collect = 0;
    loop {
        let now = Instant::now();
        if (now - start).as_secs_f64() >= secs {
            break;
        }
        let slice_secs = (now - slice_start).as_secs_f64();
        if slice_secs >= SLICE_SECS && lat.len() - slice_from >= MIN_SLICE_OPS {
            slices.push(Slice::of(&mut lat[slice_from..], slice_secs));
            slice_from = lat.len();
            if (now - p99_start).as_secs_f64() >= P99_SECS {
                lat.sort_unstable();
                p99s_us.push(nearest_rank(&lat, 0.99) / 1e3);
                ops += lat.len();
                lat.clear();
                slice_from = 0;
                p99_start = Instant::now();
            }
            // The summaries above are not part of the next slice.
            slice_start = Instant::now();
        }
        lat.push(w.op(check));
        if let Some(t) = &mut tracer {
            since_collect += 1;
            if since_collect == t.batch {
                since_collect = 0;
                lat.extend(w.drain(check));
                t.collect();
            }
        }
    }
    lat.extend(w.drain(check));
    let slice_secs = slice_start.elapsed().as_secs_f64();
    if slices.is_empty() || lat.len() - slice_from >= MIN_SLICE_OPS {
        slices.push(Slice::of(&mut lat[slice_from..], slice_secs));
    }
    if p99s_us.is_empty() || p99_start.elapsed().as_secs_f64() >= P99_SECS / 2.0 {
        lat.sort_unstable();
        p99s_us.push(nearest_rank(&lat, 0.99) / 1e3);
    }
    ops += lat.len();
    if let Some(t) = &mut tracer {
        t.collect();
        parlo_trace::disable();
    }
    Window {
        ops,
        slices,
        p99s_us,
        delta: w.counters().since(&before),
    }
}

/// Restores the caller's affinity to all `threads` CPUs.  A pool pins its caller,
/// and the caller's affinity decides the default wait policy of the next pool, so
/// every instance starts from the state the first one in a process sees.
/// (`parlo_affinity::unpin` sizes its set from the pinned mask, so it cannot.)
fn unpin_caller(threads: usize) {
    let _ = parlo_affinity::pin_to_set(&CpuSet::first_n(threads));
}

/// Builds the workload `reps` times, each time through its first op; returns the
/// set-up times in seconds and the last instance, which is the one measured.
fn set_up(
    kind: Kind,
    inputs: &workloads::Inputs,
    threads: usize,
    check: &mut Checker,
    reps: usize,
) -> (Vec<f64>, Box<dyn Workload>) {
    let mut times = Vec::with_capacity(reps);
    let mut bench: Option<Box<dyn Workload>> = None;
    for _ in 0..reps {
        // The previous instance completes its ops and is dropped (its workers
        // joined) before timing starts.
        if let Some(mut w) = bench.take() {
            w.drain(check);
            drop(w);
            unpin_caller(threads);
        }
        let start = Instant::now();
        let mut w = workloads::build(kind, inputs, threads);
        w.op(check);
        times.push(start.elapsed().as_secs_f64());
        bench = Some(w);
    }
    (times, bench.expect("at least one set-up"))
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

fn run(kind: Kind, args: RunArgs) -> (Meta, Outcome) {
    // Read before any pool pins the caller, which narrows what the process sees.
    let host = HostFingerprint::detect();
    let threads = host.cpus as usize;
    let ticks = report::cpu_ticks();
    let inputs = workloads::Inputs::new(args.seed);

    // The sequential control runs before any executor or pool exists.
    let mut seq_check = Checker::new(None);
    let seq = {
        let mut seq = workloads::build_sequential(kind, &inputs);
        window(
            seq.as_mut(),
            &mut seq_check,
            (0.04 * args.seconds).max(0.2),
            None,
        )
    };

    let mut check = Checker::new(args.corrupt_op);
    let mut phases = PhaseStats::default();
    let (mut setups, mut bench) = if args.trace {
        parlo_trace::clear();
        parlo_trace::enable();
        let built = set_up(kind, &inputs, threads, &mut check, TRACED_SETUP_REPS);
        parlo_trace::disable();
        let mut setup_phases = PhaseStats::default();
        setup_phases.add_window(&parlo_trace::snapshot(), false);
        parlo_trace::clear();
        phases.lease_attach = setup_phases.lease_attach;
        phases.dropped = setup_phases.dropped;
        built
    } else {
        set_up(kind, &inputs, threads, &mut check, SETUP_REPS)
    };
    // Warm-up: caches, lazily grown buffers, the workers' spin state.
    window(
        bench.as_mut(),
        &mut check,
        (0.03 * args.seconds).max(0.1),
        None,
    );

    let mut invariants_ok = true;
    // End-to-end runs measure one untraced window; traced runs an untraced half
    // (with the call timers on) and a traced half.
    let (plain, calls, traced) = if args.trace {
        bench.time_calls();
        let plain = window(bench.as_mut(), &mut check, args.seconds / 2.0, None);
        let calls = bench.take_call_times();
        let tracer = Tracer {
            phases: &mut phases,
            batch: kind.trace_batch(),
            pair_loops: kind.is_loop(),
        };
        let traced = window(bench.as_mut(), &mut check, args.seconds / 2.0, Some(tracer));
        if kind.is_loop() && !phases.phase_sum_ok() {
            eprintln!(
                "perfbench: phase-sum check failed: {} loops paired, {} unpaired",
                phases.loops, phases.unpaired
            );
            invariants_ok = false;
        }
        if phases.dropped > 0 {
            eprintln!("perfbench: the trace dropped {} events", phases.dropped);
            invariants_ok = false;
        }
        (plain, calls, Some(traced))
    } else {
        let plain = window(bench.as_mut(), &mut check, args.seconds, None);
        (plain, Vec::new(), None)
    };

    let exec = bench.executor().map(|e| e.stats());
    let exec_workers = exec.as_ref().map_or(0, |s| s.workers);
    if exec_workers > threads.saturating_sub(1) {
        eprintln!("perfbench: {exec_workers} substrate workers exceed nproc - 1");
        invariants_ok = false;
    }
    let (metrics, info) = match &traced {
        None => (
            vec![
                metric("op_p50_us", "us", plain.median_of(|s| s.p50_us)),
                metric("op_p90_us", "us", plain.median_of(|s| s.p90_us)),
                metric("ops_per_s", "1/s", plain.median_of(Slice::ops_per_s)),
                metric("setup_s", "s", median(&mut setups)),
                metric("peak_rss_mb", "MB", report::peak_rss_mb()),
            ],
            // The 99th percentile moves with host steal several-fold between runs
            // on a shared VM, so it carries no regression bound.
            vec![
                metric("op_p99_us", "us", plain.p99_us()),
                metric("ops_measured", "count", plain.ops as f64),
            ],
        ),
        Some(traced) => {
            let layers = Layers {
                kind,
                seq: &seq,
                plain: &plain,
                calls: &calls,
                traced,
                phases: &phases,
                exec: exec.as_ref(),
                rejected: bench.counters().serve.map_or(0, |s| s.rejected),
                failed_frac: check.failed_frac(),
            };
            (layers.metrics(), Vec::new())
        }
    };
    let meta = Meta {
        workload: kind.name().into(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        host,
        threads,
        wait_policy: format!(
            "{} (PARLO_WAIT={})",
            bench.wait_policy(),
            std::env::var("PARLO_WAIT").unwrap_or_else(|_| "unset".into())
        ),
        pin_map: exec.map(|s| s.pin_map).unwrap_or_default(),
        exec_workers,
        process_threads: parlo_exec::process_thread_count(),
        git_sha: report::git_sha(),
        seq_op_us_p50: seq.median_of(|s| s.p50_us),
        host_steal_pct: report::steal_pct(ticks, report::cpu_ticks()),
    };
    drop(bench);
    unpin_caller(threads);
    let outcome = Outcome {
        correct: check.failed == 0 && seq_check.failed == 0 && invariants_ok,
        attempted: check.attempted,
        failed: check.failed,
        metrics,
        info,
    };
    (meta, outcome)
}

/// What a traced run's per-layer metrics are computed from.
struct Layers<'a> {
    kind: Kind,
    seq: &'a Window,
    plain: &'a Window,
    /// Call times of the untraced half: loop calls or `Server::submit` calls.
    calls: &'a [u64],
    traced: &'a Window,
    phases: &'a PhaseStats,
    exec: Option<&'a ExecStats>,
    rejected: u64,
    failed_frac: f64,
}

impl Layers<'_> {
    /// The per-layer metrics, in the order the README lists them.
    fn metrics(&self) -> Vec<Metric> {
        let Layers {
            kind,
            seq,
            plain,
            calls,
            traced,
            phases: ph,
            exec,
            ..
        } = *self;
        let ops = plain.ops as f64;
        let sync = &plain.delta.sync;
        let steal = plain.delta.steal.clone().unwrap_or_default();
        let serve = plain.delta.serve.clone().unwrap_or_default();
        let chunks = steal.chunks_executed() as f64;
        let loop_calls: &[u64] = if kind.is_loop() { calls } else { &[] };
        let submit_calls: &[u64] = if kind.is_loop() { &[] } else { calls };
        let untraced_p50 = plain.median_of(|s| s.p50_us);
        vec![
            metric("workloads.seq_op_us_p50", "us", seq.median_of(|s| s.p50_us)),
            metric("core.loops_per_op", "count", ratio(sync.loops as f64, ops)),
            metric(
                "core.barrier_phases_per_loop",
                "count",
                ratio(sync.barrier_phases as f64, sync.loops as f64),
            ),
            metric(
                "core.combines_per_reduction",
                "count",
                ratio(sync.combine_ops as f64, sync.reductions as f64),
            ),
            metric("core.loop_us_p50", "us", p50_us(loop_calls)),
            metric("core.loop_span_us_p50", "us", p50_us(&ph.loop_span)),
            metric("core.loop_self_us_p50", "us", p50_us(&ph.loop_self)),
            metric(
                "barrier.release_to_dispatch_us_p50",
                "us",
                p50_us(&ph.release_to_dispatch),
            ),
            metric(
                "barrier.release_to_dispatch_us_p99",
                "us",
                p99_us(&ph.release_to_dispatch),
            ),
            metric("barrier.arrival_us_p50", "us", p50_us(&ph.arrival)),
            metric("barrier.join_wait_us_p50", "us", p50_us(&ph.join_wait)),
            metric("barrier.join_wait_us_p99", "us", p99_us(&ph.join_wait)),
            metric(
                "barrier.combines_per_loop",
                "count",
                ratio(ph.combines as f64, ph.loops as f64),
            ),
            metric(
                "steal.steals_per_op",
                "count",
                ratio(steal.steals_hit as f64, ops),
            ),
            metric(
                "steal.hit_ratio",
                "ratio",
                ratio(steal.steals_hit as f64, steal.steals_attempted as f64),
            ),
            metric("steal.chunks_per_op", "count", ratio(chunks, ops)),
            metric(
                "steal.master_chunk_share",
                "ratio",
                ratio(
                    steal.chunks_per_worker.first().copied().unwrap_or(0) as f64,
                    chunks,
                ),
            ),
            metric(
                "steal.sweeps_per_op",
                "count",
                ratio(ph.sweeps as f64, traced.ops as f64),
            ),
            metric("serve.submit_us_p50", "us", p50_us(submit_calls)),
            metric(
                "serve.fused_frac",
                "ratio",
                ratio(serve.fused as f64, serve.completed as f64),
            ),
            metric("serve.batch_us_p50", "us", p50_us(&ph.batch)),
            metric("serve.rejected", "count", self.rejected as f64),
            metric(
                "exec.workers",
                "count",
                exec.map_or(0, |s| s.workers) as f64,
            ),
            metric(
                "exec.lease_switches",
                "count",
                exec.map_or(0, |s| s.switches) as f64,
            ),
            metric("exec.lease_attach_us_p50", "us", p50_us(&ph.lease_attach)),
            metric(
                "trace.overhead_pct",
                "%",
                (ratio(traced.median_of(|s| s.p50_us), untraced_p50) - 1.0) * 100.0,
            ),
            metric("trace.dropped_events", "count", ph.dropped as f64),
            metric("trace.unpaired_loops", "count", ph.unpaired as f64),
            metric("failed_frac", "ratio", self.failed_frac),
        ]
    }
}

/// Runs one workload and prints its metadata, its metric table and, last, its
/// result line.
fn run_one(kind: Kind, args: RunArgs) -> ExitCode {
    let (meta, outcome) = run(kind, args);
    meta.print();
    outcome.print_table(kind.name());
    match report::write_result(&meta, &outcome) {
        Ok(path) => println!("# result file: {path}"),
        Err(e) => eprintln!("perfbench: could not write the result file: {e}"),
    }
    let line = parlo_trace::serde_json::to_string(&outcome.to_value())
        .expect("metric values are finite, so the result serializes");
    println!("{line}");
    ExitCode::SUCCESS
}

/// Runs every workload in both modes, each in a child process of its own (a
/// workload's sequential control must run before any pool exists in its process),
/// printing each child's metadata, metric table and result line.
fn run_all(args: RunArgs) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find its own executable: {e}");
            return ExitCode::from(1);
        }
    };
    for kind in Kind::ALL {
        for trace in ["0", "1"] {
            let status = std::process::Command::new(&exe)
                .args(["--workload", kind.name(), "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .status();
            if !status.as_ref().is_ok_and(|s| s.success()) {
                eprintln!("perfbench: the {} run failed: {status:?}", kind.name());
                return ExitCode::from(1);
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match &args[1..] {
            [a, b] => ExitCode::from(report::compare(a, b) as u8),
            _ => {
                eprintln!("{}", usage());
                ExitCode::from(2)
            }
        };
    }
    let parsed = parse_run_args(&args).and_then(|run| {
        let workload = flag(&args, "--workload")?.ok_or("--workload is required")?;
        Ok((workload.to_string(), run))
    });
    match parsed {
        Ok((w, run)) if w == "all" => run_all(run),
        Ok((w, run)) => match w.parse::<Kind>() {
            Ok(kind) => run_one(kind, run),
            Err(e) => {
                eprintln!("perfbench: {e}\n{}", usage());
                ExitCode::from(2)
            }
        },
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Runs share the process-wide trace rings and the machine's cores: one at a time.
    static SERIAL: Mutex<()> = Mutex::new(());

    /// The self-test: corrupting one op's result must show as a failure on every
    /// workload, in the result line's `failed` count and in `failed_frac`.
    #[test]
    fn a_corrupted_result_counts_as_failed() {
        let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        for kind in Kind::ALL {
            let args = RunArgs {
                seed: 7,
                seconds: 0.2,
                trace: true,
                corrupt_op: Some(3),
            };
            let (_, outcome) = run(kind, args);
            assert!(!outcome.correct, "{}", kind.name());
            assert_eq!(outcome.failed, 1, "{}", kind.name());
            let frac = outcome
                .metrics
                .iter()
                .find(|m| m.name == "failed_frac")
                .map(|m| m.value);
            assert!(frac.is_some_and(|f| f > 0.0), "{}", kind.name());
        }
    }

    #[test]
    fn clean_runs_check_out() {
        let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        for kind in Kind::ALL {
            let args = RunArgs {
                seed: 7,
                seconds: 0.2,
                trace: false,
                corrupt_op: None,
            };
            let (_, outcome) = run(kind, args);
            assert!(outcome.correct, "{}", kind.name());
            assert_eq!(outcome.failed, 0, "{}", kind.name());
            assert!(outcome.attempted > 0, "{}", kind.name());
        }
    }

    #[test]
    fn percentiles_use_the_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 0.5), 50.0);
        assert_eq!(percentile(&samples, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
