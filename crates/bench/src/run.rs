//! Running a benchmark under the full profiler bank.

use std::error::Error;
use std::fmt;
use std::fs::{self, File};

use crate::checkpoint::{build_state, save_checkpoint};
use crate::executor::RunCtx;
use crate::live::DeltaEvent;
use tip_core::{BankResult, ProfilerBank, ProfilerId, SamplerConfig};
use tip_isa::{Granularity, Program};
use tip_mem::MemStats;
use tip_ooo::{CoreConfig, CoreStats, CycleRecord, RunExit, RunSummary, SimError, TraceSink};
use tip_trace::{TraceError, TraceWriter};

/// The default sampling interval in cycles for our scaled-down runs.
///
/// The paper samples at 4 kHz on a 3.2 GHz core — one sample per 800 000
/// cycles over complete SPEC runs (hours of simulated time, ~10^5..10^6
/// samples). Our benchmarks run for ~10^7 cycles, so we keep the *number of
/// samples per run* in a comparable range by shrinking the interval; the
/// value is odd to avoid aliasing with tight loops' commit patterns (see
/// Figure 11b / the Shannon–Nyquist discussion).
pub const DEFAULT_INTERVAL: u64 = 149;

/// Default simulated-cycle period between streaming delta flushes — small
/// enough that a live view updates many times over a benchmark's ~10^7
/// cycles, large enough that the cumulative-recompute flush stays well
/// under 3% of host time (see `hostbench`).
pub const DEFAULT_STREAM_CYCLES: u64 = 250_000;

/// Cycle budget used by the experiment harness (well above any benchmark's
/// natural length). Synthetic programs always halt, so a run that exhausts
/// this budget is a simulator or workload bug — it fails with the dedicated
/// [`SimError::CycleLimit`] variant, reported distinctly from a watchdog
/// [`SimError::Livelock`], never silently folded into a "completed" summary.
pub const MAX_CYCLES: u64 = 400_000_000;

/// Everything one profiled benchmark run produced.
#[derive(Debug)]
pub struct ProfiledRun {
    /// Profiler samples and the Oracle accounting.
    pub bank: BankResult,
    /// How the run ended.
    pub summary: RunSummary,
    /// Core counters.
    pub stats: CoreStats,
    /// Memory-system counters.
    pub mem_stats: MemStats,
}

impl ProfiledRun {
    /// Instructions per cycle of the run.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }
}

/// A benchmark run that failed to produce a profile.
#[derive(Debug)]
pub enum RunError {
    /// The simulation did not complete: a livelock caught by the core's
    /// forward-progress watchdog, or an exhausted cycle budget.
    Sim {
        /// Name of the benchmark that failed.
        bench: String,
        /// The structured simulator error.
        source: SimError,
    },
    /// The benchmark panicked mid-run (caught by the campaign isolation
    /// layer, see [`crate::campaign`]).
    Panicked {
        /// Name of the benchmark that failed.
        bench: String,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// A checkpoint could not be written, or an existing one failed to
    /// restore: damaged bytes, a stale format version, or state captured
    /// under a different configuration (see [`crate::checkpoint`]).
    Checkpoint {
        /// Name of the benchmark that failed.
        bench: String,
        /// The classified trace/snapshot error.
        source: tip_trace::TraceError,
    },
    /// A profile-guided-optimization job's rewrite pass failed, or the
    /// rewritten program did not survive the semantic-equivalence check
    /// (see [`crate::pgo`]). The baseline run itself was fine — this is a
    /// transform-layer refusal, never a simulator fault.
    Pgo {
        /// Name of the benchmark that failed.
        bench: String,
        /// The pass or equivalence failure, rendered.
        message: String,
    },
}

impl RunError {
    /// Name of the benchmark that failed.
    #[must_use]
    pub fn bench(&self) -> &str {
        match self {
            RunError::Sim { bench, .. }
            | RunError::Panicked { bench, .. }
            | RunError::Checkpoint { bench, .. }
            | RunError::Pgo { bench, .. } => bench,
        }
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Sim { bench, source } => {
                write!(f, "benchmark `{bench}` failed: {source}")
            }
            RunError::Panicked { bench, message } => {
                write!(f, "benchmark `{bench}` panicked: {message}")
            }
            RunError::Checkpoint { bench, source } => {
                write!(f, "benchmark `{bench}` checkpoint failed: {source}")
            }
            RunError::Pgo { bench, message } => {
                write!(f, "benchmark `{bench}` pgo pass failed: {message}")
            }
        }
    }
}

impl Error for RunError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RunError::Sim { source, .. } => Some(source),
            RunError::Panicked { .. } | RunError::Pgo { .. } => None,
            RunError::Checkpoint { source, .. } => Some(source),
        }
    }
}

/// Runs `program` on a core with `config`, attaching the Oracle and the
/// given profilers, all sampling on the same schedule.
///
/// # Errors
///
/// [`RunError::Sim`] if the run livelocks (watchdog) or exhausts the
/// internal cycle budget instead of terminating — synthetic programs always
/// halt, so either means a simulator or workload bug, now reported with a
/// pipeline-state dump instead of a panic.
pub fn run_profiled(
    program: &Program,
    config: CoreConfig,
    sampler: SamplerConfig,
    profilers: &[ProfilerId],
    seed: u64,
) -> Result<ProfiledRun, RunError> {
    run_profiled_sliced(
        program,
        config,
        sampler,
        profilers,
        MAX_CYCLES,
        &RunCtx::new(seed),
    )
}

/// Forwards every record to the optional trace writer and the bank.
struct Sinks<'a> {
    trace: Option<&'a mut TraceWriter<File>>,
    bank: &'a mut ProfilerBank,
}

impl TraceSink for Sinks<'_> {
    fn on_cycle(&mut self, record: &CycleRecord) {
        if let Some(trace) = self.trace.as_deref_mut() {
            trace.on_cycle(record);
        }
        self.bank.on_cycle(record);
    }
}

/// The one sliced profiled run every entry point goes through.
///
/// The core and bank start fresh from `ctx.seed`, or are restored from the
/// snapshot when `ctx.checkpoint` asks to resume and one exists (see
/// [`crate::checkpoint`]). The simulation advances in slices of the
/// checkpoint period when checkpointing and [`DEFAULT_STREAM_CYCLES`]
/// otherwise; `Core::run` resumes bit-exactly across slice boundaries, so
/// the slicing never shows in the result. At every boundary the run:
///
/// * ticks `ctx.heartbeat`, so a lease supervisor sees the simulation
///   advance;
/// * flushes function-granularity profile deltas into a live
///   `ctx.delta_sink` (also once at completion) — observation only, and
///   **before** the snapshot below, because the flush advances only the
///   bank's unserialized streaming watermarks, so checkpoint bytes are
///   identical with streaming on or off;
/// * when checkpointing, seals the commit trace file and atomically
///   persists a restorable snapshot. A completed run consumes (removes)
///   the snapshot; the trace remains as an artifact.
///
/// # Errors
///
/// [`RunError::Sim`] carrying [`SimError::Livelock`] when the watchdog
/// catches a commit livelock, or [`SimError::CycleLimit`] when
/// `max_cycles` elapse while the core is still making progress — two
/// distinct failure modes, never conflated. [`RunError::Checkpoint`] when
/// a snapshot cannot be written or an existing one fails to restore; the
/// poisoned snapshot is removed first, so a retry starts from scratch
/// instead of hitting the same damage again.
pub fn run_profiled_sliced(
    program: &Program,
    config: CoreConfig,
    sampler: SamplerConfig,
    profilers: &[ProfilerId],
    max_cycles: u64,
    ctx: &RunCtx,
) -> Result<ProfiledRun, RunError> {
    let bench = program.name();
    let spec = ctx.checkpoint.as_ref();
    let sim_err = |source| RunError::Sim {
        bench: bench.to_owned(),
        source,
    };
    let ckpt_err = |source: TraceError| RunError::Checkpoint {
        bench: bench.to_owned(),
        source,
    };
    let (mut core, mut bank, mut trace) =
        build_state(program, config, sampler, profilers, ctx.seed, spec).map_err(|source| {
            // Classified rejection: drop the unusable snapshot so the
            // campaign's reseeded retry runs from scratch.
            if let Some(spec) = spec {
                let _ = fs::remove_file(&spec.snapshot_path);
            }
            ckpt_err(source)
        })?;
    let map = ctx
        .delta_sink
        .is_live()
        .then(|| program.symbol_map(Granularity::Function));
    let every = spec
        .map_or(DEFAULT_STREAM_CYCLES, |s| s.every_cycles)
        .max(1);
    loop {
        let stop = core.stats().cycles.saturating_add(every).min(max_cycles);
        let summary = core.run(
            &mut Sinks {
                trace: trace.as_mut(),
                bank: &mut bank,
            },
            stop,
        );
        ctx.heartbeat.tick();
        if let Some(map) = &map {
            ctx.delta_sink.emit(DeltaEvent {
                bench: bench.to_owned(),
                attempt: ctx.attempt,
                deltas: bank.flush_deltas(map),
            });
        }
        let done = match summary.exit {
            RunExit::Halted | RunExit::StreamEnd => true,
            RunExit::Stuck(diag) => return Err(sim_err(SimError::Livelock(diag))),
            RunExit::CycleLimit if stop >= max_cycles => {
                return Err(sim_err(SimError::CycleLimit {
                    max_cycles,
                    committed: summary.instructions,
                }));
            }
            RunExit::CycleLimit => false,
        };
        if let (Some(trace), Some(spec)) = (trace.as_mut(), spec) {
            // Seal the trace so its position is a valid resume point.
            trace.flush().map_err(|e| ckpt_err(e.into()))?;
            if done {
                // The checkpoint is consumed; a completed run leaves none.
                let _ = fs::remove_file(&spec.snapshot_path);
            } else {
                save_checkpoint(
                    &spec.snapshot_path,
                    summary.cycles,
                    &core.snapshot(),
                    &bank.snapshot(),
                    trace.position(),
                )
                .map_err(|e| ckpt_err(e.into()))?;
            }
        }
        if done {
            let stats = *core.stats();
            let mem_stats = core.mem_stats();
            return Ok(ProfiledRun {
                bank: bank.finish(),
                summary,
                stats,
                mem_stats,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointSpec;
    use crate::live::DeltaSink;
    use tip_workloads::{benchmark, SuiteScale};

    #[test]
    fn profiled_run_completes_and_reports() {
        let b = benchmark("exchange2", SuiteScale::Test);
        let run = run_profiled(
            &b.program,
            CoreConfig::default(),
            SamplerConfig::periodic(211),
            &[ProfilerId::Tip, ProfilerId::Nci],
            1,
        )
        .expect("test benchmark terminates");
        assert!(run.summary.instructions > 10_000);
        assert!(run.ipc() > 0.0);
        assert_eq!(run.bank.total_cycles, run.summary.cycles);
        assert!(!run.bank.samples_of(ProfilerId::Tip).is_empty());
    }

    #[test]
    fn budget_exhaustion_is_a_distinct_error_not_a_livelock() {
        let b = benchmark("exchange2", SuiteScale::Test);
        let dir = std::env::temp_dir().join(format!("tip-run-budget-{}", std::process::id()));
        let checkpoint = CheckpointSpec {
            snapshot_path: dir.join("exchange2.tips"),
            trace_path: dir.join("exchange2.trace"),
            every_cycles: 300,
            resume: false,
        };
        // Every run shape goes through the one slice loop: plain,
        // streaming deltas, and checkpointed (which slices below the budget).
        let shapes = [
            ("plain", RunCtx::new(1)),
            (
                "streaming",
                RunCtx {
                    delta_sink: DeltaSink::new(|_| {}),
                    ..RunCtx::new(1)
                },
            ),
            (
                "checkpointed",
                RunCtx {
                    checkpoint: Some(checkpoint),
                    ..RunCtx::new(1)
                },
            ),
        ];
        for (shape, ctx) in shapes {
            // A budget far below the benchmark's natural length: the core is
            // healthy and committing, so the watchdog must stay silent and
            // the failure must classify as CycleLimit carrying the exact
            // budget.
            let err = run_profiled_sliced(
                &b.program,
                CoreConfig::default(),
                SamplerConfig::periodic(211),
                &[ProfilerId::Tip],
                1_000,
                &ctx,
            )
            .expect_err("1k cycles cannot finish the benchmark");
            match &err {
                RunError::Sim {
                    bench,
                    source:
                        source @ SimError::CycleLimit {
                            max_cycles,
                            committed,
                        },
                } => {
                    assert_eq!(bench, "exchange2", "{shape}");
                    assert_eq!(*max_cycles, 1_000, "{shape}");
                    assert!(*committed > 0, "{shape}: the core was making progress");
                    assert!(
                        !matches!(source, SimError::Livelock(_)),
                        "{shape}: budget exhaustion must not be conflated with livelock"
                    );
                    assert!(source.to_string().contains("cycle budget exhausted"));
                }
                other => panic!("{shape}: expected CycleLimit, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
