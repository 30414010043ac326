//! End-to-end and per-layer benchmark of the TIP reproduction.
//!
//! `tip-perfbench --workload <campaign|serve|pgo> --seed N --seconds S
//! --trace <0|1>` runs one workload in-process and prints, as its last
//! line, one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! With `--trace 0` the metrics are the end-to-end set, measured with no
//! spans; with `--trace 1` they are the per-layer set, timed from spans
//! this benchmark records around calls into each crate's public functions.
//! The workload seed orders the jobs. Every job simulates the suite's fixed
//! generated programs with the simulation seed of a default campaign, so the
//! simulated results, and the metrics computed from them, repeat exactly
//! from run to run and seed to seed; only host time varies. Host times are
//! scaled to a reference host speed measured by a fixed probe between
//! iterations (see [`measure::HostSpeed`]); `NOTES.md` says why.

mod campaign;
mod measure;
mod pgo;
mod replay;
mod serve;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use measure::{median, percentile, HostSpeed};

/// End-to-end metrics: every workload reports every one of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("tip_fn_error_pct", "%"),
];

/// Per-layer metrics of the traced run. A layer the workload never calls
/// reads 0.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("workloads.generate_ms", "ms"),
    ("ooo.raw_mcycles_per_s", "Mcycles/s"),
    ("core.bank_run_ms", "ms"),
    ("core.bank_share", "ratio"),
    ("core.finish_ms", "ms"),
    ("core.flush_deltas_ms", "ms"),
    ("core.flushes", "count"),
    ("bench.ledger_commit_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.done_ms", "ms"),
    ("serve.result_ms", "ms"),
    ("serve.result_bytes", "count"),
    ("serve.overhead_ratio", "x"),
    ("serve.deltas", "count"),
    ("serve.streamed", "count"),
    ("serve.worker_utilization", "ratio"),
    ("serve.mean_queue_wait_ms", "ms"),
    ("pgo.baseline_ms", "ms"),
    ("pgo.pass_ms", "ms"),
    ("pgo.equiv_ms", "ms"),
    ("pgo.resim_ms", "ms"),
    ("pgo.rewrites", "count"),
    ("pgo.optimized_cycles", "count"),
    ("pgo.speedup", "x"),
    ("ooo.cycles", "count"),
    ("ooo.instructions", "count"),
    ("mem.l1d_misses", "count"),
    ("mem.llc_misses", "count"),
    ("mem.dram_accesses", "count"),
    ("core.samples", "count"),
    ("traced.iteration_ms", "ms"),
];

/// Operations a run completes at least, so that the p95 latency has
/// [`measure::MIN_BEYOND`] samples beyond it.
pub const MIN_OPS: usize = 200;

/// Iterations (campaigns, serve passes, pgo rounds) whose peak resident
/// memory `peak_rss_mb` takes the median of: a fixed prefix, so the figure
/// does not depend on how many iterations the host's speed allows.
pub const RSS_ITERATIONS: usize = 8;

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 21;

/// What a workload needs to know about its run.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Workload seed: the order jobs run in.
    pub seed: u64,
    /// Simulation seed of every job.
    pub sim_seed: u64,
    /// Measured time the run spans at least.
    pub seconds: Duration,
    /// Record spans and report the per-layer set.
    pub trace: bool,
    /// Scratch directory for campaign and daemon output (inside the
    /// checkout the benchmark runs from).
    pub dir: PathBuf,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: jobs, or the loop's steps for `pgo`.
    pub attempted: u64,
    /// Operations that failed, were refused, or produced wrong output.
    pub failed: u64,
    /// Every failed check, for the log.
    pub errors: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// Peak resident memory of each iteration: the peak mark is reset before
/// the iteration and read after it.
#[derive(Debug, Default)]
pub struct PeakRss {
    peaks: Vec<f64>,
    reset: bool,
}

impl PeakRss {
    /// Resets the peak mark before an iteration.
    pub fn begin(&mut self) {
        self.reset = measure::reset_peak_rss();
    }

    /// Reads the peak mark after an iteration.
    pub fn end(&mut self) {
        if let Some(p) = measure::peak_rss_mib() {
            self.peaks.push(p);
        }
    }

    /// Sets `peak_rss_mb` to the median over the first [`RSS_ITERATIONS`].
    pub fn report(&self, out: &mut Outcome) {
        let first = &self.peaks[..self.peaks.len().min(RSS_ITERATIONS)];
        if first.is_empty() {
            out.error("peak_rss_mb: /proc/self/status unreadable");
            return;
        }
        out.notes.push(format!(
            "peak_rss_mb: median of {} per-iteration peaks{}",
            first.len(),
            if self.reset {
                ""
            } else {
                " (peak mark could not be reset)"
            }
        ));
        out.set("peak_rss_mb", median(first));
    }
}

/// Notes the median untraced iteration time (scaled), the baseline the
/// traced run's `traced.iteration_ms` is compared with.
pub fn note_iterations(walls_ms: &[f64], out: &mut Outcome) {
    if !walls_ms.is_empty() {
        out.notes.push(format!(
            "untraced iteration: median {:.3} ms over {} iterations",
            median(walls_ms),
            walls_ms.len()
        ));
    }
}

/// Notes the host-speed probe readings of a run.
pub fn note_speed(speed: &HostSpeed, out: &mut Outcome) {
    let r = speed.readings();
    let (lo, hi) = r
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    out.notes.push(format!(
        "host speed: {} probe readings, median {:.3} ms (min {lo:.3}, max {hi:.3}); reference {} ms",
        r.len(),
        median(r),
        measure::PROBE_REF_MS
    ));
}

impl Outcome {
    /// Records a failed check.
    pub fn error(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        eprintln!("check failed: {msg}");
        self.errors.push(msg);
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Sets `latency_p50_ms` and `latency_p95_ms` from per-operation
    /// latencies (failed operations enter as +inf, so they miss any limit).
    pub fn set_latencies(&mut self, lat_ms: &[f64]) {
        for (name, p) in [("latency_p50_ms", 50.0), ("latency_p95_ms", 95.0)] {
            match percentile(lat_ms, p) {
                Some((v, beyond)) => {
                    self.notes.push(format!(
                        "{name}: {v:.4} ms over {} operations ({beyond} beyond)",
                        lat_ms.len()
                    ));
                    self.set(name, v);
                }
                None => self.error(format!(
                    "{name}: {} operations leave fewer than {} beyond p{p}",
                    lat_ms.len(),
                    measure::MIN_BEYOND
                )),
            }
        }
    }

    /// Sets the median of per-iteration values, noting the sample count.
    pub fn set_median(&mut self, name: &'static str, per_iter: &[f64]) {
        if per_iter.is_empty() {
            self.error(format!("{name}: no iterations"));
            return;
        }
        let m = median(per_iter);
        self.notes.push(format!(
            "{name}: median {m:.6} over {} iterations",
            per_iter.len()
        ));
        self.set(name, m);
    }
}

/// Holds values that must repeat exactly across a run's iterations (the
/// simulated quantities), and records a failure when one does not.
#[derive(Debug, Default)]
pub struct Exact {
    seen: BTreeMap<&'static str, f64>,
}

impl Exact {
    /// Checks `value` against the value `name` had in earlier iterations,
    /// and sets it as the metric `name`.
    pub fn check(&mut self, name: &'static str, value: f64, out: &mut Outcome) {
        match self.seen.get(name) {
            None => {
                self.seen.insert(name, value);
            }
            Some(first) if first.to_bits() != value.to_bits() => {
                out.error(format!(
                    "{name} changed between iterations: {first} then {value}"
                ));
            }
            Some(_) => {}
        }
        out.set(name, value);
    }
}

/// Times `setup` [`SETUP_REPEATS`] times, passing each result to the
/// untimed `after`; sets `setup_s` to the median time scaled to the
/// reference host speed, and returns the last value of `after`.
pub fn timed_setup<T, U>(
    speed: &mut HostSpeed,
    out: &mut Outcome,
    mut setup: impl FnMut() -> T,
    mut after: impl FnMut(T) -> U,
) -> U {
    let mut secs = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let value = std::hint::black_box(setup());
        secs.push(t.elapsed().as_secs_f64());
        last = Some(after(value));
    }
    let scale = speed.next_scale();
    out.notes.push(format!(
        "setup_s: median {:.6} s measured over {SETUP_REPEATS} set-ups, scale {scale:.4}",
        median(&secs)
    ));
    out.set("setup_s", median(&secs) * scale);
    last.expect("at least one set-up")
}

/// Per-iteration values of metrics, already scaled to the reference host
/// speed; each metric reports their median.
#[derive(Debug, Default)]
pub struct PerIter(BTreeMap<&'static str, Vec<f64>>);

impl PerIter {
    /// Adds one iteration's value of `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Adds the iteration's total time in each span, as `(metric, span)`
    /// pairs, for spans recorded from index `from` on.
    pub fn push_spans(
        &mut self,
        tracer: &measure::Tracer,
        from: usize,
        scale: f64,
        pairs: &[(&'static str, &str)],
    ) {
        for (metric, span) in pairs {
            self.push(metric, tracer.total_ms(span, from) * scale);
        }
    }

    /// The values of `name` so far.
    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// Sets every metric to the median of its values.
    pub fn report(&self, out: &mut Outcome) {
        for (name, values) in &self.0 {
            out.set_median(name, values);
        }
    }
}

/// Whether the timed loop should run another iteration: until `--seconds`
/// have passed, and untraced until [`MIN_OPS`] operations have run.
pub fn keep_going(start: Instant, cfg: &RunCfg, ops: u64, iterations: u64) -> bool {
    iterations == 0 || start.elapsed() < cfg.seconds || (!cfg.trace && ops < MIN_OPS as u64)
}

/// A fresh, empty directory under the run's scratch directory.
pub fn fresh_dir(cfg: &RunCfg, name: &str) -> PathBuf {
    let dir = cfg.dir.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory is writable");
    dir
}

fn host_identity() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned());
    format!(
        "host: nproc={nproc} cpu=\"{cpu}\" kernel={kernel} commit={}",
        git_commit(Path::new("."))
    )
}

/// The checked-out commit, read from `.git` without running git; a
/// checkout without history reports `unknown`.
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_owned(),
        Some(r) => std::fs::read_to_string(git.join(r)).map_or_else(
            |_| {
                std::fs::read_to_string(git.join("packed-refs"))
                    .ok()
                    .and_then(|p| {
                        p.lines()
                            .find(|l| l.ends_with(r))
                            .map(|l| l[..l.find(' ').unwrap_or(0)].to_owned())
                    })
                    .unwrap_or_else(|| "unknown".to_owned())
            },
            |s| s.trim().to_owned(),
        ),
    }
}

/// Renders a metric value as JSON; non-finite values (a latency sample
/// poisoned by a failed operation) become the largest finite double.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        format!("{:?}", f64::MAX)
    }
}

fn result_line(out: &Outcome, set: &[(&str, &str)]) -> String {
    let mut m = String::new();
    for (i, (name, unit)) in set.iter().enumerate() {
        let v = out.metrics.get(name).copied().unwrap_or(f64::NAN);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(v)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        out.errors.is_empty() && out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !["campaign", "serve", "pgo"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tip-perfbench: {e}");
            eprintln!(
                "usage: tip-perfbench --workload campaign|serve|pgo [--seed N] [--seconds S] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    let cfg = RunCfg {
        seed: args.seed,
        sim_seed: tip_bench::CampaignConfig::default().seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        dir: PathBuf::from(".perfbench_run").join(format!(
            "{}-{}-{}",
            args.workload,
            args.seed,
            std::process::id()
        )),
    };
    std::fs::create_dir_all(&cfg.dir).expect("scratch directory is writable");
    println!("{}", host_identity());
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let started = Instant::now();
    let mut out = match args.workload.as_str() {
        "campaign" => campaign::run(&cfg),
        "serve" => serve::run(&cfg),
        _ => pgo::run(&cfg),
    };
    let set: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, _) in set {
        if !out.metrics.contains_key(name) {
            if args.trace {
                out.set(name, 0.0);
            } else {
                out.error(format!("metric {name} was not measured"));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&cfg.dir);
    for note in &out.notes {
        println!("  {note}");
    }
    for (name, unit) in set {
        println!("{name:<28} {:>16.6} {unit}", out.metrics[name]);
    }
    println!(
        "attempted={} failed={} checks_failed={} wall_s={:.3}",
        out.attempted,
        out.failed,
        out.errors.len(),
        started.elapsed().as_secs_f64()
    );
    println!("{}", result_line(&out, set));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_tables_match_benchmark_json() {
        let json =
            std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json beside perfbench");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"name\": ").count(),
            END_TO_END.len() + PER_LAYER.len() + 3,
            "three workloads plus every metric, each named once"
        );
    }

    #[test]
    fn result_line_prints_every_metric_of_the_set() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            out.set(name, i as f64 + 0.5);
        }
        let line = result_line(&out, &END_TO_END);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        out.failed = 1;
        assert!(result_line(&out, &END_TO_END).starts_with("{\"correct\": false"));
        assert_eq!(json_number(f64::INFINITY), format!("{:?}", f64::MAX));
    }
}
