//! What the workloads share about simulated results: the exact values they
//! guard, and the traced replay of a job through each layer's public calls.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

use tip_bench::campaign::CompletedBench;
use tip_bench::executor::JobMetrics;
use tip_bench::experiments::{error_rows, mean_errors, SuiteRun};
use tip_bench::run::{ProfiledRun, DEFAULT_INTERVAL, MAX_CYCLES};
use tip_core::{ProfilerBank, ProfilerId, SamplerConfig};
use tip_isa::{Granularity, Program};
use tip_ooo::{Core, CoreConfig, RunExit};

use crate::measure::{mcycles_per_s, median, Tracer};
use crate::{Exact, Outcome, RunCfg};

/// Mean function-level TIP error against the Oracle over `runs`, percent.
pub fn tip_fn_error_pct(runs: &[SuiteRun]) -> f64 {
    let rows = error_rows(runs, Granularity::Function, &[ProfilerId::Tip]);
    100.0 * mean_errors(&rows, &[ProfilerId::Tip])[0].1
}

/// Checks the simulated counters summed over one iteration's runs against
/// earlier iterations', and sets them as metrics.
pub fn report_counters<'a>(
    runs: impl Iterator<Item = &'a ProfiledRun>,
    exact: &mut Exact,
    out: &mut Outcome,
) {
    let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
    for run in runs {
        let samples = run.bank.samples.iter().map(|(_, s)| s.len() as u64).sum();
        for (name, v) in [
            ("ooo.cycles", run.stats.cycles),
            ("ooo.instructions", run.stats.committed),
            ("mem.l1d_misses", run.mem_stats.l1d.misses),
            ("mem.llc_misses", run.mem_stats.llc.misses),
            ("mem.dram_accesses", run.mem_stats.dram_accesses),
            ("core.samples", samples),
        ] {
            *totals.entry(name).or_insert(0) += v;
        }
    }
    for (name, v) in totals {
        exact.check(name, v as f64, out);
    }
}

/// Host accounting for a replayed job's ledger row; the ledger writes it to
/// `metrics.txt` only, never into the result files the checks compare.
pub fn job_metrics(c: &CompletedBench) -> JobMetrics {
    JobMetrics {
        wall: Duration::ZERO,
        queue_wait: Duration::ZERO,
        worker: 0,
        assignments: 1,
        daemon: 0,
        cycles: c.run.run.summary.cycles,
        instructions: c.run.run.summary.instructions,
        ipc: c.run.run.ipc(),
    }
}

/// Replays jobs through the same public calls the library makes for them,
/// each in a span, plus a bankless run of every program, which bounds what
/// the profiler bank costs.
pub struct Replayer {
    /// The span recorder (disabled for untraced runs).
    pub tracer: Tracer,
    raw_cycles: u64,
    raw_ms: f64,
    bank_shares: Vec<f64>,
}

impl Replayer {
    /// A replayer whose spans are recorded when `traced`.
    pub fn new(traced: bool) -> Self {
        Replayer {
            tracer: Tracer::new(traced),
            raw_cycles: 0,
            raw_ms: 0.0,
            bank_shares: Vec::new(),
        }
    }

    /// Replays one job as operation `op`: a bankless `Core::run`, then the
    /// bank run, `ProfilerBank::finish`, and the result `run_profiled`
    /// would return. With `stream_every`, the bank run advances in slices of
    /// that many cycles with a delta flush after each, exactly as
    /// `run_profiled_streaming` does for a served job. A run that does not
    /// complete is a failed operation.
    pub fn job(
        &mut self,
        op: u64,
        program: &Program,
        profilers: &[ProfilerId],
        seed: u64,
        stream_every: Option<u64>,
        out: &mut Outcome,
    ) -> ProfiledRun {
        let from = self.tracer.spans().len();
        let tracer = &mut self.tracer;
        let config = CoreConfig::default();
        self.raw_cycles += tracer.span("ooo.raw_run", op, |_| {
            let mut core = Core::new(program, config.clone(), seed);
            core.run(&mut (), MAX_CYCLES).cycles
        });
        let mut bank = ProfilerBank::new(
            program,
            SamplerConfig::periodic(DEFAULT_INTERVAL),
            profilers,
        );
        let mut core = Core::new(program, config, seed);
        let summary = match stream_every {
            None => tracer.span("core.bank_run", op, |_| core.run(&mut bank, MAX_CYCLES)),
            Some(every) => {
                let map = program.symbol_map(Granularity::Function);
                loop {
                    let stop = core.stats().cycles.saturating_add(every).min(MAX_CYCLES);
                    let s = tracer.span("core.bank_run", op, |_| core.run(&mut bank, stop));
                    let deltas = tracer.span("core.flush_deltas", op, |_| bank.flush_deltas(&map));
                    std::hint::black_box(deltas);
                    if !matches!(s.exit, RunExit::CycleLimit) || stop >= MAX_CYCLES {
                        break s;
                    }
                }
            }
        };
        if !matches!(summary.exit, RunExit::Halted | RunExit::StreamEnd) {
            out.failed += 1;
            out.error(format!(
                "replayed {} did not complete: {:?}",
                program.name(),
                summary.exit
            ));
        }
        let stats = *core.stats();
        let mem_stats = core.mem_stats();
        let bank = tracer.span("core.finish", op, |_| bank.finish());
        let raw_ms = tracer.total_ms("ooo.raw_run", from);
        let bank_ms = tracer.total_ms("core.bank_run", from);
        self.raw_ms += raw_ms;
        if bank_ms > 0.0 {
            self.bank_shares.push(1.0 - raw_ms / bank_ms);
        }
        ProfiledRun {
            bank,
            summary,
            stats,
            mem_stats,
        }
    }

    /// Sets `ooo.raw_mcycles_per_s`, with host time scaled by `scale`, and
    /// `core.bank_share`, the median over jobs of the bank run's time not
    /// spent in the bankless simulation.
    pub fn report(&self, out: &mut Outcome, scale: f64) {
        let raw = Duration::from_secs_f64(self.raw_ms * scale / 1e3);
        out.set("ooo.raw_mcycles_per_s", mcycles_per_s(self.raw_cycles, raw));
        if !self.bank_shares.is_empty() {
            out.set("core.bank_share", median(&self.bank_shares));
        }
    }

    /// Writes the spans as JSON lines beside the run's scratch directory.
    pub fn write_trace(&self, cfg: &RunCfg, workload: &str, out: &mut Outcome) {
        let path = cfg
            .dir
            .parent()
            .unwrap_or(Path::new("."))
            .join(format!("trace-{workload}-{}.jsonl", cfg.seed));
        match std::fs::write(&path, self.tracer.to_jsonl()) {
            Ok(()) => out.notes.push(format!(
                "{} spans written to {}",
                self.tracer.spans().len(),
                path.display()
            )),
            Err(e) => out.error(format!("writing {}: {e}", path.display())),
        }
    }
}
