//! Fault-tolerant, resumable experiment campaigns over the job executor.
//!
//! A figure-style sweep over the suite dies entirely if one workload
//! panics or livelocks — hours of completed runs lost with it. This module
//! turns each benchmark into a [`Job`](crate::executor::Job), fans the jobs
//! out over the [`crate::executor`] worker pool (`--jobs N`), retries
//! failed runs a bounded number of times with a reseeded core, and persists
//! every per-benchmark result to disk *as it settles*, so a campaign always
//! finishes with whatever subset succeeded plus a failure report.
//!
//! Parallelism never changes the outputs: the executor's committer applies
//! results in canonical suite order through the shared campaign
//! [`Ledger`](crate::ledger::Ledger), so `journal.txt`, `failures.txt`, and
//! every `<bench>.result` file are **byte-identical** at any worker count.
//! Host timing lands only in `metrics.txt` (per-job wall-clock, queue wait,
//! cycles, IPC, and the campaign speedup), which is the one deliberately
//! non-deterministic artifact. The same ledger backs the `tip-serve`
//! daemon, which is how remote submission inherits the identical bytes.
//!
//! Campaigns are also **crash-consistent and resumable**: every result file
//! and the `journal.txt` ledger are written via temp-file + atomic rename
//! (directory fsynced), so a `SIGKILL` can never leave a torn file. With
//! [`CampaignConfig::checkpoint_cycles`] set, each benchmark additionally
//! writes a restorable mid-run snapshot every N simulated cycles (see
//! [`crate::checkpoint`]). Re-invoking a killed campaign with
//! [`CampaignConfig::resume`] scans the journal, re-enqueues only the
//! incomplete jobs, and restores an interrupted benchmark from its last
//! checkpoint, continuing bit-identically.
//!
//! The runner is a [`Runner`] value (closures qualify), so tests and the
//! `chaos` binary can substitute one that injects faults
//! ([`tip_trace::FaultPlan`]-driven panics, wedged cores, damaged
//! snapshots) without the production path knowing about fault injection.
//!
//! ```no_run
//! use tip_bench::campaign::{run_suite_campaign, CampaignConfig};
//! use tip_workloads::SuiteScale;
//!
//! let outcome = run_suite_campaign(SuiteScale::Test, &CampaignConfig::default());
//! println!("{}", outcome.summary());
//! assert!(outcome.failed.is_empty());
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use crate::checkpoint::CheckpointSpec;
use crate::executor::{self, default_workers, Job, Runner, SpecRunner};
use crate::experiments::SuiteRun;
use crate::ledger::{one_line, Ledger};
use crate::live::{DeltaSink, LiveAggregate};
use crate::run::{RunError, DEFAULT_INTERVAL, MAX_CYCLES};
use tip_core::{ProfilerId, SamplerConfig};
use tip_ooo::CoreConfig;
use tip_workloads::{suite, Benchmark, SuiteScale};

pub use crate::executor::RunCtx;

/// How a campaign runs its benchmarks.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Base seed; attempt `k` of a benchmark runs with `seed + k`.
    pub seed: u64,
    /// Attempts per benchmark before it is written off as failed (≥ 1).
    pub max_attempts: u32,
    /// Sampling schedule for every run.
    pub sampler: SamplerConfig,
    /// Profilers attached to every run.
    pub profilers: Vec<ProfilerId>,
    /// Worker threads for the job executor (≥ 1; capped by the number of
    /// jobs). `1` runs serially; any value produces byte-identical
    /// journal/result/profile outputs.
    pub jobs: usize,
    /// If set, per-benchmark results and the failure report are persisted
    /// here incrementally (one `<bench>.result` file each, plus
    /// `failures.txt`, the `journal.txt` resume ledger, and the campaign
    /// `metrics.txt`), all via temp-file + atomic rename.
    pub out_dir: Option<PathBuf>,
    /// If set (and [`Self::out_dir`] is set), each benchmark writes a
    /// restorable `TIPS` snapshot every this many simulated cycles, plus
    /// its framed commit trace (`<bench>.tips` / `<bench>.trace`).
    pub checkpoint_cycles: Option<u64>,
    /// Resume a previous campaign in [`Self::out_dir`]: benchmarks the
    /// journal records as complete are skipped (not re-enqueued), and an
    /// interrupted benchmark restores from its mid-run checkpoint.
    /// Journalled *failures* are retried, not skipped.
    pub resume: bool,
    /// Optional live streaming aggregate: with a handle, every run flushes
    /// mid-run profile deltas into it (see [`crate::live`]) and the
    /// campaign marks benchmarks settled as they commit. Pure observation —
    /// all deterministic artifacts are byte-identical with or without it.
    pub live: Option<Arc<LiveAggregate>>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 42,
            max_attempts: 2,
            sampler: SamplerConfig::periodic(DEFAULT_INTERVAL),
            profilers: ProfilerId::ALL.to_vec(),
            jobs: 1,
            out_dir: None,
            checkpoint_cycles: None,
            resume: false,
            live: None,
        }
    }
}

impl CampaignConfig {
    /// The checkpoint spec for one benchmark, when checkpointing is on
    /// (both [`Self::out_dir`] and [`Self::checkpoint_cycles`] set).
    #[must_use]
    pub fn checkpoint_spec(&self, bench: &str) -> Option<CheckpointSpec> {
        let dir = self.out_dir.as_ref()?;
        let every_cycles = self.checkpoint_cycles?;
        Some(CheckpointSpec {
            snapshot_path: dir.join(format!("{bench}.tips")),
            trace_path: dir.join(format!("{bench}.trace")),
            every_cycles,
            resume: self.resume,
        })
    }

    /// Folds one benchmark into its executable [`Job`] spec.
    #[must_use]
    pub fn job(&self, bench: Benchmark) -> Job {
        let checkpoint = self.checkpoint_spec(bench.name);
        Job {
            bench,
            seed: self.seed,
            core: CoreConfig::default(),
            sampler: self.sampler,
            profilers: self.profilers.clone(),
            checkpoint,
            max_attempts: self.max_attempts,
            max_cycles: MAX_CYCLES,
            pgo: false,
        }
    }
}

/// A benchmark that produced a profile (possibly after retries).
#[derive(Debug)]
pub struct CompletedBench {
    /// The benchmark and its profiled run, table-ready.
    pub run: SuiteRun,
    /// Attempts it took (1 = first try).
    pub attempts: u32,
}

/// A benchmark that failed every attempt.
#[derive(Debug)]
pub struct FailedBench {
    /// Benchmark name.
    pub name: &'static str,
    /// Attempts made.
    pub attempts: u32,
    /// The error of the final attempt.
    pub error: RunError,
}

/// Everything a campaign produced.
#[derive(Debug, Default)]
pub struct CampaignOutcome {
    /// Benchmarks that completed, in suite order.
    pub completed: Vec<CompletedBench>,
    /// Benchmarks that failed every attempt, in suite order.
    pub failed: Vec<FailedBench>,
    /// Benchmarks skipped because a resumed journal already records them as
    /// complete; their result files from the earlier invocation remain on
    /// disk untouched.
    pub skipped: Vec<&'static str>,
}

impl CampaignOutcome {
    /// The completed runs as plain [`SuiteRun`]s for the figure helpers
    /// ([`crate::experiments::error_rows`] and friends).
    #[must_use]
    pub fn runs(&self) -> Vec<&SuiteRun> {
        self.completed.iter().map(|c| &c.run).collect()
    }

    /// Splits the outcome into table-ready runs and the failures.
    #[must_use]
    pub fn into_parts(self) -> (Vec<SuiteRun>, Vec<FailedBench>) {
        (
            self.completed.into_iter().map(|c| c.run).collect(),
            self.failed,
        )
    }

    /// Human-readable one-screen summary, including the failure report.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "campaign: {} completed, {} failed{}",
            self.completed.len(),
            self.failed.len(),
            if self.skipped.is_empty() {
                String::new()
            } else {
                format!(", {} skipped (already done)", self.skipped.len())
            }
        );
        for c in &self.completed {
            if c.attempts > 1 {
                let _ = writeln!(
                    s,
                    "  {}: ok after {} attempts",
                    c.run.bench.name, c.attempts
                );
            }
        }
        for f in &self.failed {
            let _ = writeln!(
                s,
                "  {}: FAILED after {} attempts: {}",
                f.name,
                f.attempts,
                one_line(&f.error.to_string())
            );
        }
        s
    }
}

/// Runs `benches` through `runner` on the job executor with per-attempt
/// panic isolation, bounded reseeded retries, and (if configured)
/// crash-consistent incremental persistence plus journal-driven resume.
///
/// Benchmarks the resume journal records as complete are not enqueued at
/// all; the rest become [`Job`]s executed on [`CampaignConfig::jobs`]
/// worker threads. All campaign-level file I/O happens on the calling
/// thread (the executor's committer) in canonical suite order, so the
/// on-disk artifacts are byte-identical regardless of worker count. I/O
/// errors from the persistence directory are reported to stderr but never
/// abort the sweep — losing a result file must not lose the campaign.
pub fn run_campaign<R>(
    benches: Vec<Benchmark>,
    config: &CampaignConfig,
    runner: R,
) -> CampaignOutcome
where
    R: Runner,
{
    let mut outcome = CampaignOutcome::default();
    let mut ledger = Ledger::open(config.out_dir.as_deref(), config.resume);
    let mut jobs = Vec::new();
    for bench in benches {
        if ledger.is_done(bench.name) {
            outcome.skipped.push(bench.name);
            ledger.note_skipped();
        } else {
            jobs.push(config.job(bench));
        }
    }
    let sink = config
        .live
        .as_ref()
        .map_or_else(DeltaSink::noop, LiveAggregate::sink);
    let summary = executor::execute(&jobs, &runner, config.jobs, &sink, |out| {
        let job = &jobs[out.index];
        let name = job.bench.name;
        if let Some(live) = &config.live {
            live.mark_settled(name, out.result.is_ok());
        }
        match out.result {
            Ok(run) => {
                let completed = CompletedBench {
                    run: SuiteRun {
                        bench: job.bench.clone(),
                        run,
                    },
                    attempts: out.attempts,
                };
                ledger.commit_completed(&completed, out.metrics, &config.profilers);
                outcome.completed.push(completed);
            }
            Err(error) => {
                let failed = FailedBench {
                    name,
                    attempts: out.attempts,
                    error,
                };
                ledger.commit_failed(&failed, out.metrics);
                outcome.failed.push(failed);
            }
        }
    });
    ledger.finish(summary);
    outcome
}

/// Runs the whole suite at `scale` under the production [`SpecRunner`]
/// (checkpointed when [`CampaignConfig::checkpoint_cycles`] is set).
#[must_use]
pub fn run_suite_campaign(scale: SuiteScale, config: &CampaignConfig) -> CampaignOutcome {
    run_campaign(suite(scale), config, SpecRunner)
}

/// Shared command-line parsing for the campaign-driven binaries (`fig08`,
/// `fig10`, `chaos`): `[test|small|full] [out_dir] [--jobs N]
/// [--checkpoint N] [--resume]`.
#[derive(Debug, Clone)]
pub struct CampaignCli {
    /// Suite scale (defaults to `Small`).
    pub scale: SuiteScale,
    /// Persistence directory, when given.
    pub out_dir: Option<PathBuf>,
    /// Worker threads, when `--jobs N` was given (rejects 0); `None` means
    /// use every available core, capped by the job count.
    pub jobs: Option<usize>,
    /// Mid-run checkpoint period, when `--checkpoint N` was given.
    pub checkpoint_cycles: Option<u64>,
    /// Whether `--resume` was given.
    pub resume: bool,
}

impl CampaignCli {
    /// Parses `std::env::args().skip(1)`-style arguments.
    ///
    /// # Errors
    ///
    /// A usage message naming the offending argument.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        Self::parse_with_default(args, SuiteScale::Small)
    }

    /// [`Self::parse`] with a caller-chosen default scale (the `chaos`
    /// binary defaults to `test`, the figure binaries to `small`).
    ///
    /// # Errors
    ///
    /// A usage message naming the offending argument.
    pub fn parse_with_default(
        args: impl Iterator<Item = String>,
        default_scale: SuiteScale,
    ) -> Result<Self, String> {
        let mut cli = CampaignCli {
            scale: default_scale,
            out_dir: None,
            jobs: None,
            checkpoint_cycles: None,
            resume: false,
        };
        let mut positional = 0;
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--resume" => cli.resume = true,
                "--jobs" => {
                    let value = args
                        .next()
                        .ok_or_else(|| "--jobs needs a worker count".to_owned())?;
                    let jobs: usize = value
                        .parse()
                        .map_err(|_| format!("--jobs: bad worker count `{value}`"))?;
                    if jobs == 0 {
                        return Err(
                            "--jobs: worker count must be at least 1 (use --jobs 1 to run serially)"
                                .to_owned(),
                        );
                    }
                    cli.jobs = Some(jobs);
                }
                "--checkpoint" => {
                    let value = args
                        .next()
                        .ok_or_else(|| "--checkpoint needs a cycle count".to_owned())?;
                    let cycles: u64 = value
                        .parse()
                        .map_err(|_| format!("--checkpoint: bad cycle count `{value}`"))?;
                    if cycles == 0 {
                        return Err("--checkpoint: cycle count must be positive".to_owned());
                    }
                    cli.checkpoint_cycles = Some(cycles);
                }
                _ if positional == 0 => {
                    positional += 1;
                    cli.scale = match arg.as_str() {
                        "test" => SuiteScale::Test,
                        "small" => SuiteScale::Small,
                        "full" => SuiteScale::Full,
                        other => {
                            return Err(format!(
                                "unknown scale `{other}` (expected test, small, or full)"
                            ));
                        }
                    };
                }
                _ if positional == 1 => {
                    positional += 1;
                    cli.out_dir = Some(PathBuf::from(arg));
                }
                other => return Err(format!("unexpected argument `{other}`")),
            }
        }
        if cli.checkpoint_cycles.is_some() && cli.out_dir.is_none() {
            return Err("--checkpoint needs an out_dir to write into".to_owned());
        }
        if cli.resume && cli.out_dir.is_none() {
            return Err("--resume needs the out_dir of the interrupted campaign".to_owned());
        }
        Ok(cli)
    }

    /// The effective worker count: `--jobs N` when given, otherwise every
    /// available core. The executor additionally caps it by the job count.
    #[must_use]
    pub fn effective_jobs(&self) -> usize {
        self.jobs.unwrap_or_else(default_workers)
    }

    /// Folds the CLI into a campaign config.
    #[must_use]
    pub fn config(&self, profilers: &[ProfilerId]) -> CampaignConfig {
        CampaignConfig {
            profilers: profilers.to_vec(),
            jobs: self.effective_jobs(),
            out_dir: self.out_dir.clone(),
            checkpoint_cycles: self.checkpoint_cycles,
            resume: self.resume,
            ..CampaignConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_profiled;
    use std::fs;
    use std::path::Path;
    use tip_workloads::BENCHMARK_NAMES;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tip-campaign-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn healthy_campaign_completes_everything() {
        let config = CampaignConfig {
            profilers: vec![ProfilerId::Tip],
            sampler: SamplerConfig::periodic(211),
            ..CampaignConfig::default()
        };
        let outcome = run_suite_campaign(SuiteScale::Test, &config);
        assert_eq!(outcome.completed.len(), BENCHMARK_NAMES.len());
        assert!(outcome.failed.is_empty());
        assert!(outcome.completed.iter().all(|c| c.attempts == 1));
    }

    #[test]
    fn panicking_benchmark_is_isolated_and_reported() {
        let dir = tmp_dir("panic");
        let config = CampaignConfig {
            profilers: vec![ProfilerId::Tip],
            sampler: SamplerConfig::periodic(211),
            max_attempts: 3,
            out_dir: Some(dir.clone()),
            ..CampaignConfig::default()
        };
        let outcome = run_campaign(
            suite(SuiteScale::Test),
            &config,
            |job: &Job, ctx: &RunCtx| {
                assert!(job.bench.name != "mcf", "injected fault in mcf");
                run_profiled(
                    &job.bench.program,
                    CoreConfig::default(),
                    job.sampler,
                    &job.profilers,
                    ctx.seed,
                )
            },
        );
        assert_eq!(outcome.completed.len(), BENCHMARK_NAMES.len() - 1);
        assert_eq!(outcome.failed.len(), 1);
        let f = &outcome.failed[0];
        assert_eq!(f.name, "mcf");
        assert_eq!(f.attempts, 3);
        assert!(matches!(f.error, RunError::Panicked { .. }));
        assert!(f.error.to_string().contains("injected fault"));

        // Incremental persistence: every benchmark has a result file and
        // the failure report names the casualty.
        for name in BENCHMARK_NAMES {
            let path = dir.join(format!("{name}.result"));
            let body = fs::read_to_string(&path).expect("result file exists");
            if name == "mcf" {
                assert!(body.contains("status=failed"));
            } else {
                assert!(body.contains("status=ok"));
                assert!(body.contains("error.instr.Tip="));
            }
        }
        let report = fs::read_to_string(dir.join("failures.txt")).expect("report");
        assert!(report.contains("mcf"));
        // Per-job timing landed in metrics.txt, including the casualty.
        let metrics = fs::read_to_string(dir.join("metrics.txt")).expect("metrics");
        assert!(metrics.contains("workers=1"), "{metrics}");
        assert!(
            metrics.contains("bench=mcf status=failed attempts=3"),
            "{metrics}"
        );
        assert!(metrics.contains("bench=exchange2 status=ok"), "{metrics}");
        // Host-throughput figures ride along in hostbench units.
        assert!(metrics.contains("total_cycles="), "{metrics}");
        assert!(metrics.contains("cycles_per_s="), "{metrics}");
        assert!(metrics.contains("per_worker_cycles_per_s="), "{metrics}");
        assert!(metrics.contains("scaling_efficiency="), "{metrics}");
        // Executor-level queueing figures ride along per job and in summary.
        assert!(metrics.contains("mean_queue_wait_ms="), "{metrics}");
        assert!(metrics.contains("queue_wait_ms="), "{metrics}");
        assert!(metrics.contains("worker=0"), "{metrics}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flaky_benchmark_succeeds_on_retry_with_new_seed() {
        let config = CampaignConfig {
            profilers: vec![ProfilerId::Tip],
            sampler: SamplerConfig::periodic(211),
            max_attempts: 3,
            seed: 7,
            ..CampaignConfig::default()
        };
        let outcome = run_campaign(
            suite(SuiteScale::Test),
            &config,
            |job: &Job, ctx: &RunCtx| {
                // First attempt (seed 7) fails for lbm; the reseeded retry works.
                if job.bench.name == "lbm" && ctx.seed == 7 {
                    panic!("transient fault");
                }
                run_profiled(
                    &job.bench.program,
                    CoreConfig::default(),
                    job.sampler,
                    &job.profilers,
                    ctx.seed,
                )
            },
        );
        assert!(outcome.failed.is_empty());
        let lbm = outcome
            .completed
            .iter()
            .find(|c| c.run.bench.name == "lbm")
            .expect("lbm completed");
        assert_eq!(lbm.attempts, 2);
    }

    #[test]
    fn resume_skips_journalled_benchmarks_and_retries_failures() {
        use tip_workloads::benchmark;
        let dir = tmp_dir("resume");
        let config = CampaignConfig {
            profilers: vec![ProfilerId::Tip],
            sampler: SamplerConfig::periodic(211),
            max_attempts: 1,
            out_dir: Some(dir.clone()),
            ..CampaignConfig::default()
        };
        let benches = || {
            vec![
                benchmark("exchange2", SuiteScale::Test),
                benchmark("mcf", SuiteScale::Test),
            ]
        };
        let runner = |job: &Job, ctx: &RunCtx, fail_mcf: bool| {
            if fail_mcf && job.bench.name == "mcf" {
                panic!("simulated crash");
            }
            run_profiled(
                &job.bench.program,
                CoreConfig::default(),
                job.sampler,
                &job.profilers,
                ctx.seed,
            )
        };

        // First invocation: exchange2 completes, mcf dies.
        let first = run_campaign(benches(), &config, |j: &Job, c: &RunCtx| runner(j, c, true));
        assert_eq!(first.completed.len(), 1);
        assert_eq!(first.failed.len(), 1);
        let journal = fs::read_to_string(dir.join("journal.txt")).expect("journal");
        assert!(journal.contains("done exchange2"));
        assert!(journal.contains("failed mcf"));

        // Resumed invocation: exchange2 is skipped, mcf retried and now ok.
        let resumed = CampaignConfig {
            resume: true,
            ..config.clone()
        };
        let second = run_campaign(benches(), &resumed, |j: &Job, c: &RunCtx| {
            runner(j, c, false)
        });
        assert_eq!(second.skipped, vec!["exchange2"]);
        assert_eq!(second.completed.len(), 1);
        assert_eq!(second.completed[0].run.bench.name, "mcf");
        assert!(second.failed.is_empty());
        let journal = fs::read_to_string(dir.join("journal.txt")).expect("journal");
        assert!(journal.contains("done exchange2"));
        assert!(journal.contains("done mcf"));
        assert!(!journal.contains("failed"), "stale failure line replaced");

        // No torn temp files anywhere in the campaign directory.
        let torn = fs::read_dir(&dir)
            .expect("dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .count();
        assert_eq!(torn, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cli_parses_flags_and_rejects_nonsense() {
        fn args<'a>(v: &'a [&'a str]) -> impl Iterator<Item = String> + 'a {
            v.iter().map(|s| (*s).to_owned())
        }
        let cli = CampaignCli::parse(args(&[
            "test",
            "/tmp/out",
            "--checkpoint",
            "50000",
            "--jobs",
            "4",
            "--resume",
        ]))
        .expect("valid");
        assert_eq!(cli.scale, SuiteScale::Test);
        assert_eq!(cli.out_dir.as_deref(), Some(Path::new("/tmp/out")));
        assert_eq!(cli.checkpoint_cycles, Some(50_000));
        assert_eq!(cli.jobs, Some(4));
        assert_eq!(cli.effective_jobs(), 4);
        assert!(cli.resume);
        assert_eq!(cli.config(&[ProfilerId::Tip]).jobs, 4);

        // Without --jobs the effective count is the host's parallelism.
        let cli = CampaignCli::parse(args(&["test"])).expect("valid");
        assert_eq!(cli.jobs, None);
        assert!(cli.effective_jobs() >= 1);

        assert!(CampaignCli::parse(args(&["bogus"])).is_err());
        assert!(CampaignCli::parse(args(&["--checkpoint"])).is_err());
        assert!(CampaignCli::parse(args(&["--checkpoint", "zero"])).is_err());
        assert!(CampaignCli::parse(args(&["--checkpoint", "0"])).is_err());
        assert!(CampaignCli::parse(args(&["--jobs"])).is_err());
        assert!(CampaignCli::parse(args(&["--jobs", "many"])).is_err());
        let err = CampaignCli::parse(args(&["--jobs", "0"])).expect_err("jobs 0");
        assert!(err.contains("at least 1"), "usable error: {err}");
        assert!(
            CampaignCli::parse(args(&["--resume"])).is_err(),
            "no out_dir"
        );
        assert!(CampaignCli::parse(args(&["test", "d", "extra"])).is_err());
    }
}
