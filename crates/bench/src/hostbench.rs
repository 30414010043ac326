//! Host-throughput benchmark harness behind the `hostbench` binary.
//!
//! The paper's methodology runs every benchmark *to completion* under many
//! profiler configurations (TIP §5, Table 1), so the wall-clock cost of a
//! campaign is `Core::step` × ~10⁷ cycles × jobs — host throughput is the
//! binding constraint on how many scenarios we can cover. This module
//! measures that throughput reproducibly: a fixed benchmark × mode matrix,
//! each cell reporting simulated cycles per host-second (and MB/s for the
//! tracing mode), with aggregates emitted as `BENCH_PR4.json` so future PRs
//! extend a perf trajectory instead of guessing.
//!
//! Four modes isolate where host time goes:
//!
//! * `raw`    — the bare simulator (`()` sink): the floor everything else
//!   pays on top of.
//! * `bank`   — the fig08-style profiler matrix (Software, Dispatch, LCI,
//!   NCI, TIP-ILP, TIP) plus the Oracle, all on one sampling schedule.
//!   This is the number campaigns are bound by, and the one the PR-4
//!   acceptance criterion compares against its baseline.
//! * `stream` — `bank` plus a delta flush every
//!   [`DEFAULT_STREAM_CYCLES`] simulated cycles, exactly as a streaming
//!   campaign pays it: the slice loop, [`ProfilerBank::flush_deltas`],
//!   and the discarded [`tip_core::BankDeltas`]. The `bank`→`stream` gap
//!   is the delta-flush overhead the PR-8 acceptance criterion bounds
//!   below 3%.
//! * `trace`  — a framed [`TraceWriter`] into a byte-counting null sink:
//!   encode + CRC throughput in MB/s.
//!
//! The same throughput arithmetic is reused by the campaign layer to report
//! `--jobs N` scaling efficiency in `metrics.txt` (see [`ScalingReport`]).

use std::fmt::Write as _;
use std::io;
use std::time::Instant;

use crate::run::{DEFAULT_INTERVAL, DEFAULT_STREAM_CYCLES};
use crate::table::Table;
use tip_core::{ProfilerBank, ProfilerId, SamplerConfig};
use tip_isa::Granularity;
use tip_ooo::{Core, CoreConfig, RunExit};
use tip_trace::TraceWriter;
use tip_workloads::{benchmark, SuiteScale};

/// The fig08-style profiler matrix: the six profilers of the paper's
/// function-level error figure, run side by side on one schedule.
pub const FIG08_PROFILERS: [ProfilerId; 6] = [
    ProfilerId::Software,
    ProfilerId::Dispatch,
    ProfilerId::Lci,
    ProfilerId::Nci,
    ProfilerId::TipIlp,
    ProfilerId::Tip,
];

/// Benchmarks measured by the full matrix: two per workload class
/// (Compute / Flush / Stall), so the aggregate is not dominated by one
/// commit-stage behaviour.
pub const FULL_MATRIX: [&str; 6] = [
    "exchange2",
    "namd",
    "imagick",
    "perlbench",
    "mcf",
    "xalancbmk",
];

/// Benchmarks measured by `--quick`: one per workload class.
pub const QUICK_MATRIX: [&str; 3] = ["exchange2", "imagick", "mcf"];

/// Seed used for every measurement run (throughput must not depend on it,
/// but determinism keeps the simulated work identical across builds).
pub const HOSTBENCH_SEED: u64 = 42;

/// How a measurement cell exercised the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Bare simulator, `()` sink.
    Raw,
    /// Full fig08 profiler bank + Oracle.
    Bank,
    /// `Bank` plus a delta flush every [`DEFAULT_STREAM_CYCLES`] cycles.
    Stream,
    /// Framed trace encoding into a null writer.
    Trace,
}

impl Mode {
    /// Stable lower-case name used in tables and JSON.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Mode::Raw => "raw",
            Mode::Bank => "bank",
            Mode::Stream => "stream",
            Mode::Trace => "trace",
        }
    }
}

/// One measured cell of the matrix.
#[derive(Debug, Clone)]
pub struct HostBenchRow {
    /// Benchmark name.
    pub bench: &'static str,
    /// Which mode was measured.
    pub mode: Mode,
    /// Simulated cycles executed.
    pub cycles: u64,
    /// Instructions committed.
    pub instructions: u64,
    /// Best wall-clock seconds over the configured trials.
    pub wall_s: f64,
    /// Encoded trace payload bytes (0 outside `trace` mode).
    pub trace_bytes: u64,
    /// Delta flushes taken (0 outside `stream` mode).
    pub flushes: u64,
}

impl HostBenchRow {
    /// Simulated megacycles per host second.
    #[must_use]
    pub fn mcycles_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.cycles as f64 / self.wall_s / 1e6
        } else {
            0.0
        }
    }

    /// Trace megabytes per host second (0 outside `trace` mode).
    #[must_use]
    pub fn mb_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.trace_bytes as f64 / self.wall_s / 1e6
        } else {
            0.0
        }
    }
}

/// Options for one hostbench invocation.
#[derive(Debug, Clone)]
pub struct HostBenchOptions {
    /// Use the reduced matrix and a single trial (CI-friendly).
    pub quick: bool,
    /// Suite scale to generate benchmarks at.
    pub scale: SuiteScale,
    /// Cap on simulated cycles per cell (a cell that hits the cap still
    /// measures throughput; it just bounds host time).
    pub budget: u64,
    /// Timed trials per cell; the best (highest-throughput) trial wins.
    pub trials: u32,
}

impl HostBenchOptions {
    /// The full-matrix defaults.
    #[must_use]
    pub fn full() -> Self {
        HostBenchOptions {
            quick: false,
            scale: SuiteScale::Small,
            budget: 8_000_000,
            trials: 2,
        }
    }

    /// The `--quick` defaults: one trial, one benchmark per class, a
    /// tighter cycle cap.
    #[must_use]
    pub fn quick() -> Self {
        HostBenchOptions {
            quick: true,
            scale: SuiteScale::Small,
            budget: 1_500_000,
            trials: 1,
        }
    }

    fn matrix(&self) -> &'static [&'static str] {
        if self.quick {
            &QUICK_MATRIX
        } else {
            &FULL_MATRIX
        }
    }
}

/// Aggregate throughput over the matrix (total cycles / total host time,
/// per mode — the "campaign-shaped" average rather than a mean of rates).
#[derive(Debug, Clone, Copy)]
pub struct Aggregate {
    /// `raw` mode, Mcycles/s.
    pub raw_mcycles_per_s: f64,
    /// `bank` mode, Mcycles/s — the headline number.
    pub bank_mcycles_per_s: f64,
    /// `stream` mode, Mcycles/s — `bank` plus periodic delta flushes.
    /// `0.0` when read back from a pre-v2 report without the mode.
    pub stream_mcycles_per_s: f64,
    /// `trace` mode, Mcycles/s.
    pub trace_mcycles_per_s: f64,
    /// `trace` mode, MB/s of encoded payload.
    pub trace_mb_per_s: f64,
}

impl Aggregate {
    /// Fractional throughput lost to streaming delta flushes:
    /// `1 - stream/bank`, negative when `stream` measured faster (noise).
    /// `0.0` when either mode is missing. The PR-8 acceptance criterion
    /// requires this below 0.03.
    #[must_use]
    pub fn stream_overhead(&self) -> f64 {
        if self.bank_mcycles_per_s > 0.0 && self.stream_mcycles_per_s > 0.0 {
            1.0 - self.stream_mcycles_per_s / self.bank_mcycles_per_s
        } else {
            0.0
        }
    }
}

/// A completed hostbench report.
#[derive(Debug, Clone)]
pub struct HostBenchReport {
    /// The options that produced it.
    pub options: HostBenchOptions,
    /// Every measured cell, in matrix × mode order.
    pub rows: Vec<HostBenchRow>,
}

impl HostBenchReport {
    /// Totals a mode's cells into (cycles, wall seconds, trace bytes).
    fn totals(&self, mode: Mode) -> (u64, f64, u64) {
        let mut cycles = 0;
        let mut wall = 0.0;
        let mut bytes = 0;
        for r in self.rows.iter().filter(|r| r.mode == mode) {
            cycles += r.cycles;
            wall += r.wall_s;
            bytes += r.trace_bytes;
        }
        (cycles, wall, bytes)
    }

    /// Aggregate throughput per mode.
    #[must_use]
    pub fn aggregate(&self) -> Aggregate {
        let rate = |cycles: u64, wall: f64| {
            if wall > 0.0 {
                cycles as f64 / wall / 1e6
            } else {
                0.0
            }
        };
        let (rc, rw, _) = self.totals(Mode::Raw);
        let (bc, bw, _) = self.totals(Mode::Bank);
        let (sc, sw, _) = self.totals(Mode::Stream);
        let (tc, tw, tb) = self.totals(Mode::Trace);
        Aggregate {
            raw_mcycles_per_s: rate(rc, rw),
            bank_mcycles_per_s: rate(bc, bw),
            stream_mcycles_per_s: rate(sc, sw),
            trace_mcycles_per_s: rate(tc, tw),
            trace_mb_per_s: if tw > 0.0 { tb as f64 / tw / 1e6 } else { 0.0 },
        }
    }

    /// Renders the human-readable throughput table.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut t = Table::new(["benchmark", "mode", "cycles", "wall_s", "Mcycles/s", "MB/s"]);
        for r in &self.rows {
            t.row([
                r.bench.to_owned(),
                r.mode.name().to_owned(),
                r.cycles.to_string(),
                format!("{:.3}", r.wall_s),
                format!("{:.2}", r.mcycles_per_s()),
                if r.mode == Mode::Trace {
                    format!("{:.2}", r.mb_per_s())
                } else {
                    String::new()
                },
            ]);
        }
        let a = self.aggregate();
        t.row([
            "[aggregate]".to_owned(),
            "raw".to_owned(),
            String::new(),
            String::new(),
            format!("{:.2}", a.raw_mcycles_per_s),
            String::new(),
        ]);
        t.row([
            "[aggregate]".to_owned(),
            "bank".to_owned(),
            String::new(),
            String::new(),
            format!("{:.2}", a.bank_mcycles_per_s),
            String::new(),
        ]);
        t.row([
            "[aggregate]".to_owned(),
            "stream".to_owned(),
            String::new(),
            String::new(),
            format!("{:.2}", a.stream_mcycles_per_s),
            String::new(),
        ]);
        t.row([
            "[aggregate]".to_owned(),
            "trace".to_owned(),
            String::new(),
            String::new(),
            format!("{:.2}", a.trace_mcycles_per_s),
            format!("{:.2}", a.trace_mb_per_s),
        ]);
        t.render()
    }

    /// Serializes the report (plus an optional baseline aggregate) as a
    /// perf-trajectory point (`BENCH_PR4.json`, `BENCH_PR8.json`, ...).
    ///
    /// The file is plain JSON written by hand (the workspace deliberately
    /// has no JSON dependency); [`extract_number`] can read the aggregate
    /// numbers back out of a previous file for baseline comparison.
    #[must_use]
    pub fn to_json(&self, baseline: Option<&Aggregate>) -> String {
        let a = self.aggregate();
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"schema\": \"tip-hostbench-v2\",\n");
        let _ = writeln!(s, "  \"quick\": {},", self.options.quick);
        let _ = writeln!(s, "  \"scale\": \"{:?}\",", self.options.scale);
        let _ = writeln!(s, "  \"budget_cycles\": {},", self.options.budget);
        let _ = writeln!(s, "  \"trials\": {},", self.options.trials);
        let _ = writeln!(s, "  \"sampler_interval\": {DEFAULT_INTERVAL},");
        s.push_str("  \"profilers\": [");
        for (i, p) in FIG08_PROFILERS.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{}\"", p.label());
        }
        s.push_str("],\n");
        s.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"bench\": \"{}\", \"mode\": \"{}\", \"cycles\": {}, \"instructions\": {}, \"wall_s\": {:.6}, \"mcycles_per_s\": {:.3}, \"trace_mb_per_s\": {:.3}, \"flushes\": {}}}",
                r.bench,
                r.mode.name(),
                r.cycles,
                r.instructions,
                r.wall_s,
                r.mcycles_per_s(),
                r.mb_per_s(),
                r.flushes,
            );
            s.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ],\n");
        let _ = write!(
            s,
            "  \"aggregate\": {{\"raw_mcycles_per_s\": {:.3}, \"bank_mcycles_per_s\": {:.3}, \"stream_mcycles_per_s\": {:.3}, \"trace_mcycles_per_s\": {:.3}, \"trace_mb_per_s\": {:.3}, \"stream_overhead\": {:.4}}}",
            a.raw_mcycles_per_s,
            a.bank_mcycles_per_s,
            a.stream_mcycles_per_s,
            a.trace_mcycles_per_s,
            a.trace_mb_per_s,
            a.stream_overhead(),
        );
        if let Some(b) = baseline {
            s.push_str(",\n");
            let _ = writeln!(
                s,
                "  \"baseline\": {{\"raw_mcycles_per_s\": {:.3}, \"bank_mcycles_per_s\": {:.3}, \"stream_mcycles_per_s\": {:.3}, \"trace_mcycles_per_s\": {:.3}, \"trace_mb_per_s\": {:.3}}},",
                b.raw_mcycles_per_s,
                b.bank_mcycles_per_s,
                b.stream_mcycles_per_s,
                b.trace_mcycles_per_s,
                b.trace_mb_per_s
            );
            let ratio = |new: f64, old: f64| if old > 0.0 { new / old } else { 0.0 };
            let _ = write!(
                s,
                "  \"speedup\": {{\"raw\": {:.3}, \"bank\": {:.3}, \"stream\": {:.3}, \"trace\": {:.3}, \"trace_mb\": {:.3}}}",
                ratio(a.raw_mcycles_per_s, b.raw_mcycles_per_s),
                ratio(a.bank_mcycles_per_s, b.bank_mcycles_per_s),
                ratio(a.stream_mcycles_per_s, b.stream_mcycles_per_s),
                ratio(a.trace_mcycles_per_s, b.trace_mcycles_per_s),
                ratio(a.trace_mb_per_s, b.trace_mb_per_s),
            );
        }
        s.push_str("\n}\n");
        s
    }
}

/// Measures one cell: `bench` under `mode`, best of `trials`.
fn measure_cell(
    name: &'static str,
    mode: Mode,
    scale: SuiteScale,
    budget: u64,
    trials: u32,
) -> HostBenchRow {
    let b = benchmark(name, scale);
    let mut best: Option<HostBenchRow> = None;
    for _ in 0..trials.max(1) {
        let mut core = Core::new(&b.program, CoreConfig::default(), HOSTBENCH_SEED);
        let row = match mode {
            Mode::Raw => {
                let mut sink = ();
                let start = Instant::now();
                let summary = core.run(&mut sink, budget);
                let wall_s = start.elapsed().as_secs_f64();
                HostBenchRow {
                    bench: name,
                    mode,
                    cycles: summary.cycles,
                    instructions: summary.instructions,
                    wall_s,
                    trace_bytes: 0,
                    flushes: 0,
                }
            }
            Mode::Bank => {
                let mut bank = ProfilerBank::new(
                    &b.program,
                    SamplerConfig::periodic(DEFAULT_INTERVAL),
                    &FIG08_PROFILERS,
                );
                let start = Instant::now();
                let summary = core.run(&mut bank, budget);
                let wall_s = start.elapsed().as_secs_f64();
                // Finishing the bank is not timed: campaigns pay it once per
                // run, not per cycle.
                let _ = bank.finish();
                HostBenchRow {
                    bench: name,
                    mode,
                    cycles: summary.cycles,
                    instructions: summary.instructions,
                    wall_s,
                    trace_bytes: 0,
                    flushes: 0,
                }
            }
            Mode::Stream => {
                // The streaming campaign path, timed end to end: the sliced
                // `Core::run` loop plus a delta flush per slice boundary,
                // exactly as `run_profiled_sliced` pays it. The deltas go
                // to a black box — the consumer side (wire, aggregate) runs
                // on other threads in a real campaign and is measured by the
                // serve layer, not here.
                let mut bank = ProfilerBank::new(
                    &b.program,
                    SamplerConfig::periodic(DEFAULT_INTERVAL),
                    &FIG08_PROFILERS,
                );
                let map = b.program.symbol_map(Granularity::Function);
                let mut flushes = 0u64;
                let start = Instant::now();
                let summary = loop {
                    let stop = core
                        .stats()
                        .cycles
                        .saturating_add(DEFAULT_STREAM_CYCLES)
                        .min(budget);
                    let summary = core.run(&mut bank, stop);
                    std::hint::black_box(bank.flush_deltas(&map));
                    flushes += 1;
                    match summary.exit {
                        RunExit::CycleLimit if stop < budget => {}
                        _ => break summary,
                    }
                };
                let wall_s = start.elapsed().as_secs_f64();
                let _ = bank.finish();
                HostBenchRow {
                    bench: name,
                    mode,
                    cycles: summary.cycles,
                    instructions: summary.instructions,
                    wall_s,
                    trace_bytes: 0,
                    flushes,
                }
            }
            Mode::Trace => {
                let mut writer = TraceWriter::new(io::sink());
                let start = Instant::now();
                let summary = core.run(&mut writer, budget);
                writer.flush().expect("null sink cannot fail");
                let wall_s = start.elapsed().as_secs_f64();
                HostBenchRow {
                    bench: name,
                    mode,
                    cycles: summary.cycles,
                    instructions: summary.instructions,
                    wall_s,
                    trace_bytes: writer.bytes(),
                    flushes: 0,
                }
            }
        };
        let better = match &best {
            None => true,
            Some(prev) => row.mcycles_per_s() > prev.mcycles_per_s(),
        };
        if better {
            best = Some(row);
        }
    }
    best.expect("at least one trial ran")
}

/// Runs the configured matrix and returns the report.
///
/// Cells run serially on purpose: throughput numbers from co-scheduled
/// cells would measure host contention, not the simulator.
#[must_use]
pub fn run_hostbench(options: &HostBenchOptions) -> HostBenchReport {
    let mut rows = Vec::new();
    for &name in options.matrix() {
        for mode in [Mode::Raw, Mode::Bank, Mode::Stream, Mode::Trace] {
            rows.push(measure_cell(
                name,
                mode,
                options.scale,
                options.budget,
                options.trials,
            ));
        }
    }
    HostBenchReport {
        options: options.clone(),
        rows,
    }
}

/// Pulls `"key": <number>` out of a hostbench JSON file.
///
/// This is not a JSON parser — it only needs to read back files produced by
/// [`HostBenchReport::to_json`], whose keys are unique per aggregate object.
/// The *first* occurrence of the key wins, which for our layout is the
/// current run's aggregate (the baseline block repeats the key names but
/// appears later).
#[must_use]
pub fn extract_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Reads the per-mode aggregate back out of a previously written report.
#[must_use]
pub fn read_aggregate(json: &str) -> Option<Aggregate> {
    Some(Aggregate {
        raw_mcycles_per_s: extract_number(json, "raw_mcycles_per_s")?,
        bank_mcycles_per_s: extract_number(json, "bank_mcycles_per_s")?,
        // Absent from pre-v2 reports (BENCH_PR4.json): 0.0, not a refusal,
        // so old baselines keep working.
        stream_mcycles_per_s: extract_number(json, "stream_mcycles_per_s").unwrap_or(0.0),
        trace_mcycles_per_s: extract_number(json, "trace_mcycles_per_s")?,
        trace_mb_per_s: extract_number(json, "trace_mb_per_s")?,
    })
}

/// Throughput and scaling figures for a campaign run, derived from the same
/// arithmetic hostbench uses — so `metrics.txt` and `BENCH_PR4.json` speak
/// the same units (cycles per host-second).
#[derive(Debug, Clone, Copy)]
pub struct ScalingReport {
    /// Total simulated cycles across all completed jobs.
    pub total_cycles: u64,
    /// Aggregate simulated cycles per wall-clock second.
    pub cycles_per_s: f64,
    /// Per-worker simulated cycles per second of summed job CPU time —
    /// the single-worker throughput the parallel run achieved.
    pub per_worker_cycles_per_s: f64,
    /// Parallel efficiency: speedup / workers, in `[0, 1]` for an ideal
    /// scaler (can exceed 1 with cache effects).
    pub efficiency: f64,
    /// Mean per-job queue wait in milliseconds — how much of the wall/cpu
    /// gap is queueing rather than compute. `0.0` when the caller has no
    /// per-job waits (e.g. hostbench's single-job cells).
    pub mean_queue_wait_ms: f64,
}

impl ScalingReport {
    /// Builds the report from campaign totals.
    ///
    /// `wall_ms` is the end-to-end campaign wall time, `cpu_ms` the sum of
    /// per-job wall times (the "serial equivalent"), `workers` the worker
    /// thread count.
    #[must_use]
    pub fn new(total_cycles: u64, wall_ms: u64, cpu_ms: u64, workers: usize) -> Self {
        let per_s = |cycles: u64, ms: u64| {
            if ms > 0 {
                cycles as f64 / (ms as f64 / 1e3)
            } else {
                0.0
            }
        };
        let cycles_per_s = per_s(total_cycles, wall_ms);
        let per_worker = per_s(total_cycles, cpu_ms);
        let speedup = if wall_ms > 0 {
            cpu_ms as f64 / wall_ms as f64
        } else {
            0.0
        };
        let efficiency = if workers > 0 {
            speedup / workers as f64
        } else {
            0.0
        };
        ScalingReport {
            total_cycles,
            cycles_per_s,
            per_worker_cycles_per_s: per_worker,
            efficiency,
            mean_queue_wait_ms: 0.0,
        }
    }

    /// Attaches the mean per-job queue wait (milliseconds) measured by the
    /// executor, closing the wall-vs-cpu gap this report used to leave
    /// unexplained.
    #[must_use]
    pub fn with_queue_wait(mut self, mean_queue_wait_ms: f64) -> Self {
        self.mean_queue_wait_ms = mean_queue_wait_ms;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_matrix_measures_all_modes() {
        let opts = HostBenchOptions {
            quick: true,
            scale: SuiteScale::Test,
            budget: 20_000,
            trials: 1,
        };
        let report = run_hostbench(&opts);
        assert_eq!(report.rows.len(), QUICK_MATRIX.len() * 4);
        for r in &report.rows {
            assert!(
                r.cycles > 0,
                "{}:{} simulated nothing",
                r.bench,
                r.mode.name()
            );
            assert!(r.wall_s > 0.0);
            if r.mode == Mode::Trace {
                assert!(r.trace_bytes > 0, "trace mode must encode bytes");
            }
            if r.mode == Mode::Stream {
                assert!(r.flushes >= 1, "stream mode must flush at least once");
            }
        }
        let a = report.aggregate();
        assert!(a.bank_mcycles_per_s > 0.0);
        assert!(a.stream_mcycles_per_s > 0.0);
        assert!(a.trace_mb_per_s > 0.0);
        // Streaming must not change the simulation itself: the sliced run
        // resumes bit-exactly, so each bench simulates the same cycle and
        // instruction counts in `bank` and `stream` mode. (The wall-clock
        // overhead bound is asserted over the committed BENCH_PR8.json, not
        // here — CI hosts are too noisy for a timing gate in a unit test.)
        for name in QUICK_MATRIX {
            let of = |mode: Mode| {
                report
                    .rows
                    .iter()
                    .find(|r| r.bench == name && r.mode == mode)
                    .map(|r| (r.cycles, r.instructions))
                    .expect("cell measured")
            };
            assert_eq!(
                of(Mode::Bank),
                of(Mode::Stream),
                "{name}: sliced run drifted"
            );
        }
    }

    #[test]
    fn json_round_trips_aggregate_and_speedup() {
        let opts = HostBenchOptions {
            quick: true,
            scale: SuiteScale::Test,
            budget: 5_000,
            trials: 1,
        };
        let report = run_hostbench(&opts);
        let json = report.to_json(None);
        let back = read_aggregate(&json).expect("aggregate is readable back");
        let a = report.aggregate();
        assert!((back.bank_mcycles_per_s - a.bank_mcycles_per_s).abs() < 1e-3);
        // With itself as the baseline, every speedup is 1.0.
        let with_base = report.to_json(Some(&back));
        assert!(read_aggregate(&with_base).is_some());
        let speedup = extract_number(&with_base, "bank").expect("speedup block present");
        assert!(
            (speedup - 1.0).abs() < 0.01,
            "self-baseline speedup ~1, got {speedup}"
        );
    }

    #[test]
    fn scaling_report_matches_hand_math() {
        // 10 Mcycles in 2 s wall over 4 workers that each burned 2 s of CPU.
        let r = ScalingReport::new(10_000_000, 2_000, 8_000, 4);
        assert!((r.cycles_per_s - 5_000_000.0).abs() < 1.0);
        assert!((r.per_worker_cycles_per_s - 1_250_000.0).abs() < 1.0);
        assert!((r.efficiency - 1.0).abs() < 1e-9, "ideal scaling");
        assert_eq!(r.mean_queue_wait_ms, 0.0);
        assert_eq!(r.with_queue_wait(12.5).mean_queue_wait_ms, 12.5);
        let degenerate = ScalingReport::new(0, 0, 0, 0);
        assert_eq!(degenerate.cycles_per_s, 0.0);
        assert_eq!(degenerate.efficiency, 0.0);
    }
}
