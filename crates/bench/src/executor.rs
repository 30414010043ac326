//! Job-based parallel execution with a deterministic merge.
//!
//! The paper's evaluation is embarrassingly parallel: every (benchmark ×
//! profiler-config × seed) run is an independent deterministic simulation,
//! yet the original harness executed them serially, paying wall-clock =
//! sum-of-runs. This module decomposes a sweep into explicit [`Job`] specs
//! and fans them out over a pool of `std::thread` workers pulling from a
//! shared queue, while keeping every observable output **byte-identical to
//! a serial run**:
//!
//! * Workers never touch campaign-level files. Each finished job is sent to
//!   a single **committer** (the thread that called [`execute`]), which
//!   buffers out-of-order completions and applies them in canonical job
//!   order through the caller's commit closure — so journals, result files,
//!   and failure reports are written in the same order, with the same
//!   contents, regardless of worker count or completion order.
//! * Seeds derive from the job spec (`job.seed + attempt`), never from
//!   which worker picked the job up.
//! * Per-worker panic isolation reuses the campaign's `catch_unwind`
//!   machinery: a panicking benchmark costs one attempt, not a worker (and
//!   never the whole process).
//!
//! Per-job wall-clock and simulation counters are collected into
//! [`JobMetrics`] so the speedup from `--jobs N` is observable (see the
//! campaign's `metrics.txt`).

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crate::checkpoint::CheckpointSpec;
use crate::live::DeltaSink;
use crate::run::{run_profiled_sliced, ProfiledRun, RunError, DEFAULT_INTERVAL, MAX_CYCLES};
use tip_core::{ProfilerId, SamplerConfig};
use tip_ooo::CoreConfig;
use tip_workloads::Benchmark;

/// Everything needed to run one benchmark under the profiler bank: the
/// complete, self-contained spec of a unit of campaign work.
///
/// A job is deliberately *data*, not behaviour — the same `Vec<Job>` can be
/// replayed serially, fanned out over threads, or (later) shipped to another
/// machine, and the results are identical because nothing about scheduling
/// leaks into the spec.
#[derive(Debug, Clone)]
pub struct Job {
    /// The benchmark (name, class, generated program).
    pub bench: Benchmark,
    /// Base seed; attempt `k` (1-based) runs with `seed + k - 1`.
    pub seed: u64,
    /// Core configuration for every attempt.
    pub core: CoreConfig,
    /// Sampling schedule.
    pub sampler: SamplerConfig,
    /// Profilers attached to the run.
    pub profilers: Vec<ProfilerId>,
    /// Mid-run checkpoint paths and period, when enabled.
    pub checkpoint: Option<CheckpointSpec>,
    /// Attempts before the job is written off as failed (≥ 1).
    pub max_attempts: u32,
    /// Cycle budget; exhausting it fails the attempt with the dedicated
    /// [`tip_ooo::SimError::CycleLimit`] variant.
    pub max_cycles: u64,
    /// Run the profile-guided-optimization loop instead of a plain
    /// profiled run: profile, apply the TIP-guided [`crate::pgo`] pass,
    /// prove the rewrite equivalent, and report the *optimized* program's
    /// run through the same ledger formats (see [`crate::pgo::pgo_run`]).
    pub pgo: bool,
}

impl Job {
    /// A plain job for `bench`: default core, one attempt, the standard
    /// sampling interval, no checkpointing, the harness cycle budget.
    #[must_use]
    pub fn new(bench: Benchmark, seed: u64, profilers: &[ProfilerId]) -> Self {
        Job {
            bench,
            seed,
            core: CoreConfig::default(),
            sampler: SamplerConfig::periodic(DEFAULT_INTERVAL),
            profilers: profilers.to_vec(),
            checkpoint: None,
            max_attempts: 1,
            max_cycles: MAX_CYCLES,
            pgo: false,
        }
    }
}

/// A liveness beacon a worker shares with whatever supervises it.
///
/// The lease machinery in `tip-serve` grants each claimed job a deadline;
/// a reaper that sees the beacon still ticking extends the lease instead of
/// declaring the worker dead. [`run_job`] ticks once per attempt, so even a
/// non-cooperating runner beats at attempt granularity; [`SpecRunner`]
/// hands [`RunCtx::heartbeat`] to the slice loop
/// ([`crate::run::run_profiled_sliced`]), which ticks at every slice
/// boundary — a beat means the simulation advanced. The default
/// ([`Heartbeat::noop`]) beacon is disconnected — ticks go nowhere and
/// [`Heartbeat::beats`] stays 0 — so the serial campaign path pays nothing
/// for the plumbing.
#[derive(Clone, Debug, Default)]
pub struct Heartbeat {
    beats: Option<Arc<AtomicU64>>,
}

impl Heartbeat {
    /// A disconnected beacon: ticks are dropped.
    #[must_use]
    pub fn noop() -> Self {
        Heartbeat::default()
    }

    /// A live beacon; clones share the same counter.
    #[must_use]
    pub fn live() -> Self {
        Heartbeat {
            beats: Some(Arc::new(AtomicU64::new(0))),
        }
    }

    /// Signals liveness. Cheap and lock-free; safe from any thread.
    pub fn tick(&self) {
        if let Some(beats) = &self.beats {
            beats.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Ticks observed so far (0 for a disconnected beacon).
    #[must_use]
    pub fn beats(&self) -> u64 {
        self.beats.as_ref().map_or(0, |b| b.load(Ordering::Relaxed))
    }
}

/// Everything the executor hands a runner for one attempt.
#[derive(Debug, Clone)]
pub struct RunCtx {
    /// Seed for this attempt (`job.seed + attempt - 1`).
    pub seed: u64,
    /// 1-based attempt number.
    pub attempt: u32,
    /// Checkpointing paths and period, when enabled.
    pub checkpoint: Option<CheckpointSpec>,
    /// The worker's liveness beacon, ticked at every slice boundary to keep
    /// the lease alive (see `tip-serve`'s reaper).
    pub heartbeat: Heartbeat,
    /// Where streaming profile deltas go. Disconnected by default
    /// ([`DeltaSink::noop`]) — the runner then skips flushing entirely.
    pub delta_sink: DeltaSink,
}

impl RunCtx {
    /// A first-attempt context for `seed`: no checkpointing, a
    /// disconnected heartbeat and delta sink.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        RunCtx {
            seed,
            attempt: 1,
            checkpoint: None,
            heartbeat: Heartbeat::noop(),
            delta_sink: DeltaSink::noop(),
        }
    }
}

/// Executes one attempt of a job.
///
/// The runner is shared by every worker thread (`Sync`) and must derive all
/// run-to-run variation from the job spec and [`RunCtx`] — never from
/// ambient state — or the deterministic-merge guarantee breaks. Closures of
/// the right shape implement it automatically; [`SpecRunner`] is the
/// production implementation that simply runs the spec.
pub trait Runner: Sync {
    /// Runs one attempt of `job`.
    ///
    /// # Errors
    ///
    /// A [`RunError`] for the attempt; the executor retries up to
    /// [`Job::max_attempts`] with reseeded contexts.
    fn run(&self, job: &Job, ctx: &RunCtx) -> Result<ProfiledRun, RunError>;
}

impl<F> Runner for F
where
    F: Fn(&Job, &RunCtx) -> Result<ProfiledRun, RunError> + Sync,
{
    fn run(&self, job: &Job, ctx: &RunCtx) -> Result<ProfiledRun, RunError> {
        self(job, ctx)
    }
}

/// The production runner: executes exactly what the [`Job`] spec says
/// through the slice loop ([`crate::run::run_profiled_sliced`]), which
/// checkpoints, streams, and beats as the [`RunCtx`] asks.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpecRunner;

impl Runner for SpecRunner {
    fn run(&self, job: &Job, ctx: &RunCtx) -> Result<ProfiledRun, RunError> {
        if job.pgo {
            return crate::pgo::pgo_run(job, ctx);
        }
        run_profiled_sliced(
            &job.bench.program,
            job.core.clone(),
            job.sampler,
            &job.profilers,
            job.max_cycles,
            ctx,
        )
    }
}

/// Timing and simulation counters for one finished job (success or not).
///
/// Wall-clock is host time and therefore *not* part of the deterministic
/// outputs; it lands only in `metrics.txt`, never in result files.
#[derive(Debug, Clone, Copy)]
pub struct JobMetrics {
    /// Host wall-clock the job spent across all its attempts.
    pub wall: Duration,
    /// Host time the job sat in the queue before a worker picked it up —
    /// the difference between campaign wall-clock and simulation time that
    /// [`crate::hostbench::ScalingReport`] previously could not explain.
    pub queue_wait: Duration,
    /// Index of the worker that ran the job (0 for the inline serial path).
    /// Scheduling-dependent, so it lands only in `metrics.txt`, never in
    /// the deterministic result files.
    pub worker: usize,
    /// Times the job was assigned to a worker (1 = never reassigned).
    /// Values above 1 mean an earlier assignment's lease expired and the
    /// job was handed to a fresh worker; like `worker`, this is host-side
    /// accounting that lands only in `metrics.txt` — the committed result
    /// always comes from exactly one assignment, so the deterministic
    /// artifacts never see it.
    pub assignments: u32,
    /// Fleet daemon that ran the job (0 = this process ran it locally).
    /// Like `worker`, host-side attribution that lands only in
    /// `metrics.txt`.
    pub daemon: u32,
    /// Simulated cycles of the successful attempt (0 if the job failed).
    pub cycles: u64,
    /// Committed instructions of the successful attempt (0 if failed).
    pub instructions: u64,
    /// Instructions per cycle of the successful attempt (0.0 if failed).
    pub ipc: f64,
}

/// One job's outcome, delivered to the commit closure in canonical order.
#[derive(Debug)]
pub struct JobOutcome {
    /// Position of the job in the submitted slice.
    pub index: usize,
    /// Attempts made (1 = first try succeeded).
    pub attempts: u32,
    /// The profiled run, or the error of the final attempt.
    pub result: Result<ProfiledRun, RunError>,
    /// Timing and counters for `metrics.txt`.
    pub metrics: JobMetrics,
}

/// What one [`execute`] call did, for the campaign's `metrics.txt`.
#[derive(Debug, Clone, Copy)]
pub struct ExecSummary {
    /// Worker threads actually used (after capping by job count).
    pub workers: usize,
    /// Wall-clock of the whole fan-out, queue to last commit.
    pub wall: Duration,
}

/// The default worker count: everything the host offers.
#[must_use]
pub fn default_workers() -> usize {
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs every job in `jobs` through `runner` on `workers` threads and
/// delivers each [`JobOutcome`] to `commit` **in job order** (index 0, 1,
/// …), regardless of completion order.
///
/// `commit` runs on the calling thread only — it is the single committer
/// that owns all campaign-level file I/O. Workers pull jobs from a shared
/// queue (so a slow job never idles the pool), buffer nothing on disk, and
/// send finished outcomes back over a channel. A panic inside the runner is
/// caught per attempt and surfaces as [`RunError::Panicked`]; worker threads
/// themselves never unwind.
///
/// Every job's [`RunCtx`] carries `delta_sink`, so with a live sink mid-run
/// profile deltas stream to a shared aggregate (see
/// [`crate::live::LiveAggregate`]) while the committer still applies
/// settled outcomes in canonical order. Deltas arrive in completion order —
/// they are commutative increments, so the aggregate is order-independent —
/// and the deterministic artifacts never see them.
///
/// `workers` is clamped to `1..=jobs.len()`; `workers == 1` runs inline on
/// the calling thread with no queue at all, which is also the path that
/// *defines* the byte-identical reference behaviour.
pub fn execute<R, C>(
    jobs: &[Job],
    runner: &R,
    workers: usize,
    delta_sink: &DeltaSink,
    mut commit: C,
) -> ExecSummary
where
    R: Runner,
    C: FnMut(JobOutcome),
{
    let started = Instant::now();
    let workers = workers.clamp(1, jobs.len().max(1));
    let beacon = Heartbeat::noop();
    if workers == 1 {
        for (index, job) in jobs.iter().enumerate() {
            // Inline path: the "queue" is the jobs ahead of this one, so the
            // wait is simply how long the call has been running when the job
            // is picked up.
            commit(run_job(
                index,
                job,
                runner,
                started.elapsed(),
                0,
                &beacon,
                delta_sink,
            ));
        }
        return ExecSummary {
            workers,
            wall: started.elapsed(),
        };
    }

    // Shared queue: a claim counter over the job slice. Workers race to
    // claim the next index; whichever thread is free takes the next job,
    // which is all the stealing a fixed job list needs.
    let next_job = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<JobOutcome>();
    thread::scope(|s| {
        for worker in 0..workers {
            let tx = tx.clone();
            let next_job = &next_job;
            let queued = started;
            let beacon = &beacon;
            s.spawn(move || loop {
                let index = next_job.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(index) else { break };
                // All jobs are enqueued at once, so claim time *is* the
                // queue wait — the figure the server's stats endpoint and
                // `ScalingReport` use to separate queueing from compute.
                let wait = queued.elapsed();
                let outcome = run_job(index, job, runner, wait, worker, beacon, delta_sink);
                if tx.send(outcome).is_err() {
                    break;
                }
            });
        }
        drop(tx);

        // The committer: reorder completions into canonical job order so
        // every file write happens in the same sequence as a serial run.
        let mut pending = std::collections::BTreeMap::new();
        let mut next_commit = 0usize;
        for outcome in rx {
            pending.insert(outcome.index, outcome);
            while let Some(outcome) = pending.remove(&next_commit) {
                next_commit += 1;
                commit(outcome);
            }
        }
        debug_assert!(pending.is_empty(), "committer drained every outcome");
    });
    ExecSummary {
        workers,
        wall: started.elapsed(),
    }
}

/// Runs one job to settlement: bounded reseeded retries with per-attempt
/// panic isolation. This is the exact retry ladder the serial campaign used,
/// now shared by every worker — and public so external schedulers (the
/// `tip-serve` coordinator's agents) reuse the same semantics instead of
/// reimplementing them.
///
/// `queue_wait` is how long the job sat queued before this call, and
/// `worker` identifies the thread running it; both are host-side observations
/// recorded into [`JobMetrics`] verbatim. `heartbeat` ticks at every attempt
/// boundary and rides in each attempt's [`RunCtx`] together with
/// `delta_sink`, so the production [`SpecRunner`] beats and streams profile
/// deltas per slice; pass [`Heartbeat::noop`] / [`DeltaSink::noop`] for
/// neither. Streaming observes the run, it never changes the outcome.
pub fn run_job<R: Runner>(
    index: usize,
    job: &Job,
    runner: &R,
    queue_wait: Duration,
    worker: usize,
    heartbeat: &Heartbeat,
    delta_sink: &DeltaSink,
) -> JobOutcome {
    let started = Instant::now();
    let attempts_cap = job.max_attempts.max(1);
    let mut last_err: Option<RunError> = None;
    let mut attempts = 0;
    let mut done: Option<ProfiledRun> = None;
    for attempt in 0..attempts_cap {
        attempts = attempt + 1;
        heartbeat.tick();
        let ctx = RunCtx {
            seed: job.seed.wrapping_add(u64::from(attempt)),
            attempt: attempts,
            checkpoint: job.checkpoint.clone(),
            heartbeat: heartbeat.clone(),
            delta_sink: delta_sink.clone(),
        };
        match panic::catch_unwind(AssertUnwindSafe(|| runner.run(job, &ctx))) {
            Ok(Ok(run)) => {
                done = Some(run);
                break;
            }
            Ok(Err(err)) => last_err = Some(err),
            Err(payload) => {
                last_err = Some(RunError::Panicked {
                    bench: job.bench.name.to_owned(),
                    message: panic_message(payload.as_ref()),
                });
            }
        }
    }
    let wall = started.elapsed();
    let (result, metrics) = match done {
        Some(run) => {
            let metrics = JobMetrics {
                wall,
                queue_wait,
                worker,
                assignments: 1,
                daemon: 0,
                cycles: run.summary.cycles,
                instructions: run.summary.instructions,
                ipc: run.ipc(),
            };
            (Ok(run), metrics)
        }
        None => (
            Err(last_err.unwrap_or(RunError::Panicked {
                bench: job.bench.name.to_owned(),
                message: "no attempt ran".to_owned(),
            })),
            JobMetrics {
                wall,
                queue_wait,
                worker,
                assignments: 1,
                daemon: 0,
                cycles: 0,
                instructions: 0,
                ipc: 0.0,
            },
        ),
    };
    JobOutcome {
        index,
        attempts,
        result,
        metrics,
    }
}

/// Best-effort string form of a panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

// A whole profiled run has to be able to move to a worker thread and its
// outcome back to the committer; regressing these bounds (an `Rc`, a
// non-`Send` trait object) must fail the build here, not at a distant
// `thread::scope` call.
const _: () = {
    const fn send<T: Send>() {}
    const fn sync<T: Sync>() {}
    send::<Job>();
    sync::<Job>();
    send::<JobOutcome>();
    send::<RunError>();
    sync::<SpecRunner>();
    send::<DeltaSink>();
    sync::<DeltaSink>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::DEFAULT_STREAM_CYCLES;
    use std::sync::atomic::AtomicU32;
    use tip_workloads::{benchmark, SuiteScale};

    fn job(name: &'static str, attempts: u32) -> Job {
        Job {
            sampler: SamplerConfig::periodic(211),
            max_attempts: attempts,
            ..Job::new(benchmark(name, SuiteScale::Test), 7, &[ProfilerId::Tip])
        }
    }

    #[test]
    fn outcomes_commit_in_job_order_on_any_worker_count() {
        let jobs: Vec<Job> = ["exchange2", "mcf", "lbm", "gcc"]
            .into_iter()
            .map(|n| job(n, 1))
            .collect();
        for workers in [1, 2, 4, 8] {
            let mut seen = Vec::new();
            let summary = execute(&jobs, &SpecRunner, workers, &DeltaSink::noop(), |out| {
                assert!(out.result.is_ok(), "{:?}", out.result);
                assert!(
                    out.metrics.worker < workers.min(jobs.len()),
                    "worker {} out of range for {workers} workers",
                    out.metrics.worker
                );
                seen.push(out.index);
            });
            assert_eq!(seen, vec![0, 1, 2, 3], "workers={workers}");
            assert_eq!(summary.workers, workers.min(jobs.len()));
        }
    }

    #[test]
    fn heartbeat_ticks_per_attempt_and_noop_stays_silent() {
        let noop = Heartbeat::noop();
        noop.tick();
        assert_eq!(noop.beats(), 0);

        let live = Heartbeat::live();
        let clone = live.clone();
        clone.tick();
        assert_eq!(live.beats(), 1, "clones share one counter");

        // run_job ticks once per attempt, even when the runner itself never
        // cooperates (here: hides the beacon from the slice loop).
        let beacon = Heartbeat::live();
        let runner = |j: &Job, ctx: &RunCtx| {
            if ctx.attempt < 3 {
                panic!("transient");
            }
            let silent = RunCtx {
                heartbeat: Heartbeat::noop(),
                ..ctx.clone()
            };
            SpecRunner.run(j, &silent)
        };
        let job = job("exchange2", 3);
        let sink = DeltaSink::noop();
        let out = run_job(0, &job, &runner, Duration::ZERO, 0, &beacon, &sink);
        assert!(out.result.is_ok());
        assert_eq!(out.metrics.assignments, 1);
        assert_eq!(beacon.beats(), 3, "one beat per attempt");
    }

    #[test]
    fn spec_runner_ticks_the_heartbeat_every_slice() {
        // A lease supervisor must see a long attempt advance: the slice
        // loop beats at every slice boundary, plain or checkpointed.
        let job = job("mcf", 1);
        let dir = std::env::temp_dir().join(format!("tip-exec-beat-{}", std::process::id()));
        let every = 100_000;
        let checkpoint = CheckpointSpec {
            snapshot_path: dir.join("mcf.tips"),
            trace_path: dir.join("mcf.trace"),
            every_cycles: every,
            resume: false,
        };
        for (checkpoint, slice) in [(None, DEFAULT_STREAM_CYCLES), (Some(checkpoint), every)] {
            let beacon = Heartbeat::live();
            let ctx = RunCtx {
                heartbeat: beacon.clone(),
                checkpoint,
                ..RunCtx::new(job.seed)
            };
            let run = SpecRunner.run(&job, &ctx).expect("mcf completes");
            let slices = run.summary.cycles / slice;
            assert!(slices >= 2, "mcf spans {slices} slices of {slice}");
            assert!(
                beacon.beats() >= slices,
                "{} beats over {} cycles in slices of {slice}",
                beacon.beats(),
                run.summary.cycles
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queue_wait_grows_monotonically_on_the_serial_path() {
        let jobs: Vec<Job> = ["exchange2", "mcf"]
            .into_iter()
            .map(|n| job(n, 1))
            .collect();
        let mut waits = Vec::new();
        execute(&jobs, &SpecRunner, 1, &DeltaSink::noop(), |out| {
            assert_eq!(out.metrics.worker, 0);
            waits.push(out.metrics.queue_wait);
        });
        assert_eq!(waits.len(), 2);
        // Job 1 waits at least as long as job 0 took to run.
        assert!(waits[1] >= waits[0], "{waits:?}");
    }

    #[test]
    fn worker_count_is_capped_by_job_count_and_floored_at_one() {
        let jobs = vec![job("exchange2", 1)];
        let run = |jobs: &[Job], workers| {
            execute(jobs, &SpecRunner, workers, &DeltaSink::noop(), |_| {}).workers
        };
        assert_eq!(run(&jobs, 0), 1);
        assert_eq!(run(&jobs, 16), 1);
        assert_eq!(run(&[], 16), 1);
    }

    #[test]
    fn panics_are_isolated_per_attempt_and_retried_reseeded() {
        let jobs = vec![job("exchange2", 3)];
        let tries = AtomicU32::new(0);
        let runner = |j: &Job, ctx: &RunCtx| {
            tries.fetch_add(1, Ordering::SeqCst);
            assert_eq!(ctx.seed, j.seed + u64::from(ctx.attempt) - 1);
            if ctx.attempt < 3 {
                panic!("transient fault on attempt {}", ctx.attempt);
            }
            SpecRunner.run(j, ctx)
        };
        let mut outcomes = Vec::new();
        execute(&jobs, &runner, 4, &DeltaSink::noop(), |out| {
            outcomes.push(out);
        });
        assert_eq!(tries.load(Ordering::SeqCst), 3);
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].attempts, 3);
        assert!(outcomes[0].result.is_ok());
        assert!(outcomes[0].metrics.cycles > 0);
        assert!(outcomes[0].metrics.ipc > 0.0);
    }

    #[test]
    fn exhausted_attempts_surface_the_last_error() {
        let jobs = vec![job("exchange2", 2)];
        let runner = |_: &Job, ctx: &RunCtx| -> Result<ProfiledRun, RunError> {
            panic!("always dies (attempt {})", ctx.attempt)
        };
        let mut outcomes = Vec::new();
        execute(&jobs, &runner, 2, &DeltaSink::noop(), |out| {
            outcomes.push(out);
        });
        assert_eq!(outcomes[0].attempts, 2);
        match &outcomes[0].result {
            Err(RunError::Panicked { bench, message }) => {
                assert_eq!(bench, "exchange2");
                assert!(message.contains("attempt 2"), "{message}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert_eq!(outcomes[0].metrics.cycles, 0);
    }

    #[test]
    fn parallel_results_match_serial_results_exactly() {
        let jobs: Vec<Job> = ["exchange2", "mcf", "lbm"]
            .into_iter()
            .map(|n| job(n, 1))
            .collect();
        let collect = |workers| {
            let mut runs = Vec::new();
            execute(&jobs, &SpecRunner, workers, &DeltaSink::noop(), |out| {
                runs.push(out.result.expect("completes"));
            });
            runs
        };
        let serial = collect(1);
        let parallel = collect(4);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.summary, p.summary);
            assert_eq!(s.stats, p.stats);
            for (id, samples) in &s.bank.samples {
                assert_eq!(Some(samples.as_slice()), p.bank.try_samples_of(*id));
            }
        }
    }
}
