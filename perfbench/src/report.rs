//! Metrics, the result line, the stamped result file and the comparison of two
//! result files.

use parlo_bench::measured::HostFingerprint;
use parlo_trace::serde::Value;
use std::path::Path;
use std::process::Command;

/// Where result files go, relative to the checkout root the benchmark runs from.
pub const RESULTS_DIR: &str = "perfbench/results";

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        // JSON has no NaN or infinity; a ratio over nothing reads as 0.
        value: if value.is_finite() { value } else { 0.0 },
    }
}

/// What a run measured and how it checked out.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Figures printed and stamped into the result file but not in the result
    /// line: they have no regression bound.
    pub info: Vec<Metric>,
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_value(&self) -> Value {
        Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::U64(self.attempted)),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), metrics_value(&self.metrics)),
        ])
    }

    /// Prints every metric by name, with its unit.
    pub fn print_table(&self, title: &str) {
        println!(
            "# {title}: correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        );
        for m in &self.metrics {
            println!("{:<36} {:>16.4} {}", m.name, m.value, m.unit);
        }
        for m in &self.info {
            println!("{:<36} {:>16.4} {} (info)", m.name, m.value, m.unit);
        }
    }
}

fn metrics_value(metrics: &[Metric]) -> Value {
    Value::Map(
        metrics
            .iter()
            .map(|m| {
                let entry = Value::Map(vec![
                    ("value".into(), Value::F64(m.value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]);
                (m.name.clone(), entry)
            })
            .collect(),
    )
}

/// The run metadata every result file is stamped with.
#[derive(Debug, Clone)]
pub struct Meta {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub host: HostFingerprint,
    pub threads: usize,
    pub wait_policy: String,
    pub pin_map: Vec<Option<usize>>,
    pub exec_workers: usize,
    pub process_threads: Option<usize>,
    pub git_sha: String,
    pub seq_op_us_p50: f64,
    /// Share of the host's CPU time the hypervisor gave to other guests during
    /// the run: a noise indicator for the figures.
    pub host_steal_pct: f64,
}

fn opt_u64(v: Option<usize>) -> Value {
    v.map_or(Value::Null, |n| Value::U64(n as u64))
}

impl Meta {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("workload".into(), Value::Str(self.workload.clone())),
            ("seed".into(), Value::U64(self.seed)),
            ("seconds".into(), Value::F64(self.seconds)),
            ("trace".into(), Value::Bool(self.trace)),
            (
                "host".into(),
                Value::Map(vec![
                    ("cpus".into(), Value::U64(self.host.cpus)),
                    ("parlo_threads".into(), Value::U64(self.host.parlo_threads)),
                ]),
            ),
            ("threads".into(), Value::U64(self.threads as u64)),
            ("wait_policy".into(), Value::Str(self.wait_policy.clone())),
            (
                "pin_map".into(),
                Value::Seq(self.pin_map.iter().map(|&c| opt_u64(c)).collect()),
            ),
            (
                "census".into(),
                Value::Map(vec![
                    ("exec_workers".into(), Value::U64(self.exec_workers as u64)),
                    ("process_threads".into(), opt_u64(self.process_threads)),
                ]),
            ),
            ("git_sha".into(), Value::Str(self.git_sha.clone())),
            ("seq_op_us_p50".into(), Value::F64(self.seq_op_us_p50)),
            ("host_steal_pct".into(), Value::F64(self.host_steal_pct)),
        ])
    }

    pub fn print(&self) {
        println!(
            "# {} seed={} seconds={} trace={} host=[{}] threads={} git={}",
            self.workload,
            self.seed,
            self.seconds,
            self.trace as u8,
            self.host.describe(),
            self.threads,
            self.git_sha
        );
        println!(
            "# wait={} pin_map={:?} exec_workers={} process_threads={:?}",
            self.wait_policy, self.pin_map, self.exec_workers, self.process_threads
        );
        println!(
            "# seq_op_us_p50={:.3} host_steal_pct={:.2}",
            self.seq_op_us_p50, self.host_steal_pct
        );
    }
}

/// The commit of the checkout, read from its own `.git` only (never a parent's);
/// `unknown` where the checkout is not a git repository.
pub fn git_sha() -> String {
    Command::new("git")
        .args(["--git-dir", ".git", "rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The host's `(steal, total)` CPU time so far from `/proc/stat`, in ticks.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Steal time between two [`cpu_ticks`] readings, in percent.
pub fn steal_pct(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, 0 where `/proc` is missing.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Writes the stamped result file and returns its path.
pub fn write_result(meta: &Meta, outcome: &Outcome) -> std::io::Result<String> {
    std::fs::create_dir_all(RESULTS_DIR)?;
    let path = format!(
        "{RESULTS_DIR}/{}-seed{}-trace{}.json",
        meta.workload, meta.seed, meta.trace as u8
    );
    let doc = Value::Map(vec![
        ("meta".into(), meta.to_value()),
        ("result".into(), outcome.to_value()),
        ("info".into(), metrics_value(&outcome.info)),
    ]);
    let text = parlo_trace::serde_json::to_string(&doc).map_err(std::io::Error::other)?;
    std::fs::write(&path, text + "\n")?;
    Ok(path)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    parlo_trace::serde_json::from_str::<Value>(&text).map_err(|e| format!("{path}: {e}"))
}

fn field<'a>(v: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter()
        .try_fold(v, |v, key| parlo_trace::serde::map_get(v.as_map()?, key))
}

fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::F64(x) => Some(*x),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

/// Compares two result files metric by metric.  Refuses (exit code 3) when their
/// host fingerprints differ and (exit code 2) when they measured different
/// workloads or modes; returns the process exit code.
pub fn compare(a_path: &str, b_path: &str) -> i32 {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench compare: {e}");
            return 2;
        }
    };
    let host = |v: &Value| {
        field(v, &["meta", "host"]).and_then(|h| parlo_trace::serde_json::to_string(h).ok())
    };
    if host(&a).is_none() || host(&a) != host(&b) {
        eprintln!(
            "perfbench compare: refusing to compare results from different hosts: {} vs {}",
            host(&a).unwrap_or_default(),
            host(&b).unwrap_or_default()
        );
        return 3;
    }
    for key in ["workload", "trace"] {
        if field(&a, &["meta", key]) != field(&b, &["meta", key]) {
            eprintln!("perfbench compare: the two results differ in {key}");
            return 2;
        }
    }
    let control = |v: &Value| number(field(v, &["meta", "seq_op_us_p50"])).unwrap_or(0.0);
    println!(
        "# sequential control seq_op_us_p50: {:.3} -> {:.3} ({:+.1}%), which moves with the host, not the scheduler",
        control(&a),
        control(&b),
        pct_change(control(&a), control(&b))
    );
    let Some(metrics) = field(&a, &["result", "metrics"]).and_then(Value::as_map) else {
        eprintln!("perfbench compare: {a_path} holds no metrics");
        return 2;
    };
    for (name, entry) in metrics {
        let unit = field(entry, &["unit"])
            .and_then(Value::as_str)
            .unwrap_or("");
        let x = number(field(entry, &["value"])).unwrap_or(0.0);
        match number(field(&b, &["result", "metrics", name, "value"])) {
            Some(y) => println!(
                "{name:<36} {x:>14.4} {y:>14.4} {unit:<6} {:+.1}%",
                pct_change(x, y)
            ),
            None => println!("{name:<36} {x:>14.4} {:>14} {unit}", "missing"),
        }
    }
    0
}

fn pct_change(from: f64, to: f64) -> f64 {
    if from == 0.0 {
        0.0
    } else {
        (to / from - 1.0) * 100.0
    }
}
