//! `campaign`: the 27-benchmark fig08 suite under the six-profiler bank plus
//! the Oracle, run by `run_campaign` with one worker into a fresh directory.
//!
//! The simulator (`tip-ooo`, `tip-mem`, `tip-isa`) and the profiler bank
//! (`tip-core`) do nearly all of the work; `tip-serve`, `tip-trace` and
//! `tip-pgo` are never called. An operation is one benchmark job; its
//! latency is the job's `Runner::run` call.

use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tip_bench::campaign::{run_campaign, CampaignConfig, CompletedBench};
use tip_bench::executor::{Job, RunCtx, Runner, SpecRunner};
use tip_bench::experiments::SuiteRun;
use tip_bench::hostbench::FIG08_PROFILERS;
use tip_bench::ledger::{result_path, Ledger};
use tip_bench::run::{ProfiledRun, RunError};
use tip_workloads::{benchmark, suite, Benchmark, SuiteScale};

use crate::measure::{mcycles_per_s, median, ms, shuffle, HostSpeed};
use crate::replay::{job_metrics, report_counters, tip_fn_error_pct, Replayer};
use crate::{
    fresh_dir, keep_going, note_iterations, note_speed, timed_setup, Exact, Outcome, PeakRss,
    PerIter, RunCfg,
};

/// Reads every benchmark's result file from a campaign directory.
pub fn result_files(dir: &Path, names: &[&str]) -> Vec<String> {
    names
        .iter()
        .map(|n| std::fs::read_to_string(result_path(dir, n)).unwrap_or_default())
        .collect()
}

fn config(cfg: &RunCfg, out_dir: &Path) -> CampaignConfig {
    CampaignConfig {
        seed: cfg.sim_seed,
        profilers: FIG08_PROFILERS.to_vec(),
        jobs: 1,
        out_dir: Some(out_dir.to_path_buf()),
        ..CampaignConfig::default()
    }
}

/// `SpecRunner` with each call's duration recorded: the per-job latency.
struct TimedRunner<'a> {
    latencies: &'a Mutex<Vec<Duration>>,
}

impl Runner for TimedRunner<'_> {
    fn run(&self, job: &Job, ctx: &RunCtx) -> Result<ProfiledRun, RunError> {
        let t = Instant::now();
        let r = SpecRunner.run(job, ctx);
        self.latencies
            .lock()
            .expect("latency log is not poisoned")
            .push(t.elapsed());
        r
    }
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let mut speed = HostSpeed::start();
    let benches = timed_setup(&mut speed, &mut out, || suite(SuiteScale::Test), |b| b);
    let names: Vec<&'static str> = benches.iter().map(|b| b.name).collect();
    if cfg.trace {
        traced(cfg, &benches, &names, &mut speed, &mut out);
    } else {
        untraced(cfg, &benches, &names, &mut speed, &mut out);
    }
    note_speed(&speed, &mut out);
    out
}

fn untraced(
    cfg: &RunCfg,
    benches: &[Benchmark],
    names: &[&'static str],
    speed: &mut HostSpeed,
    out: &mut Outcome,
) {
    let latencies = Mutex::new(Vec::new());
    let (mut lat, mut rates, mut walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut exact = Exact::default();
    let mut rss = PeakRss::default();
    let mut order = cfg.seed;
    let mut reference: Option<Vec<String>> = None;
    let start = Instant::now();
    let mut iteration = 0;
    while keep_going(start, cfg, out.attempted, iteration) {
        let dir = fresh_dir(cfg, &format!("campaign-{iteration}"));
        let mut input = benches.to_vec();
        shuffle(&mut input, &mut order);
        let config = config(cfg, &dir);
        rss.begin();
        let t = Instant::now();
        let outcome = run_campaign(
            input,
            &config,
            TimedRunner {
                latencies: &latencies,
            },
        );
        let wall = t.elapsed();
        rss.end();
        let scale = speed.next_scale();
        out.attempted += benches.len() as u64;
        out.failed += outcome.failed.len() as u64;
        for f in &outcome.failed {
            out.error(format!("job {} failed: {}", f.name, f.error));
        }
        let mut runs: Vec<SuiteRun> = outcome.completed.into_iter().map(|c| c.run).collect();
        // Canonical order, so the floating-point error mean repeats exactly.
        runs.sort_by_key(|r| r.bench.name);
        let cycles: u64 = runs.iter().map(|r| r.run.summary.cycles).sum();
        for r in &runs {
            if r.run.bank.total_cycles != r.run.summary.cycles {
                out.error(format!(
                    "{}: bank saw {} cycles, run took {}",
                    r.bench.name, r.run.bank.total_cycles, r.run.summary.cycles
                ));
            }
        }
        let files = result_files(&dir, names);
        match &reference {
            None => reference = Some(files),
            Some(first) => {
                for ((name, a), b) in names.iter().zip(first).zip(&files) {
                    if a != b {
                        out.failed += 1;
                        out.error(format!("{name}.result differs from the first iteration's"));
                    }
                }
            }
        }
        exact.check("tip_fn_error_pct", tip_fn_error_pct(&runs), out);
        report_counters(runs.iter().map(|r| &r.run), &mut exact, out);
        rates.push(mcycles_per_s(cycles, wall) / scale);
        walls.push(ms(wall) * scale);
        let mut measured = latencies.lock().expect("latency log is not poisoned");
        lat.extend(measured.drain(..).map(|d| ms(d) * scale));
        drop(measured);
        let _ = std::fs::remove_dir_all(&dir);
        iteration += 1;
    }
    rss.report(out);
    out.set_median("sim_mcycles_per_s", &rates);
    note_iterations(&walls, out);
    out.set_latencies(&lat);
}

/// The traced run: one untraced `run_campaign` as the reference outputs and
/// the untraced iteration time, then replays of the same jobs under spans.
fn traced(
    cfg: &RunCfg,
    benches: &[Benchmark],
    names: &[&'static str],
    speed: &mut HostSpeed,
    out: &mut Outcome,
) {
    let dir = fresh_dir(cfg, "reference");
    let latencies = Mutex::new(Vec::new());
    let t = Instant::now();
    let reference = run_campaign(
        benches.to_vec(),
        &config(cfg, &dir),
        TimedRunner {
            latencies: &latencies,
        },
    );
    let untraced_ms = ms(t.elapsed()) * speed.next_scale();
    if !reference.failed.is_empty() {
        out.error("reference campaign had failed jobs");
    }
    let expected = result_files(&dir, names);

    let mut replayer = Replayer::new(true);
    let mut exact = Exact::default();
    let mut per_iter = PerIter::default();
    let mut order = cfg.seed;
    let start = Instant::now();
    let mut iteration = 0u64;
    while keep_going(start, cfg, out.attempted, iteration) {
        let mut shuffled = names.to_vec();
        shuffle(&mut shuffled, &mut order);
        let from = replayer.tracer.spans().len();
        let t = Instant::now();
        let ledger_dir = fresh_dir(cfg, &format!("replay-{iteration}"));
        let mut ledger = Ledger::open(Some(&ledger_dir), false);
        let mut runs = Vec::new();
        for (i, name) in shuffled.iter().enumerate() {
            let op = iteration * names.len() as u64 + i as u64;
            let bench = replayer.tracer.span("workloads.generate", op, |_| {
                benchmark(name, SuiteScale::Test)
            });
            out.attempted += 1;
            let run = replayer.job(
                op,
                &bench.program,
                &FIG08_PROFILERS,
                cfg.sim_seed,
                None,
                out,
            );
            let completed = CompletedBench {
                run: SuiteRun { bench, run },
                attempts: 1,
            };
            replayer.tracer.span("bench.ledger_commit", op, |_| {
                ledger.commit_completed(&completed, job_metrics(&completed), &FIG08_PROFILERS);
            });
            runs.push(completed.run);
        }
        let wall_ms = ms(t.elapsed());
        let scale = speed.next_scale();
        let files = result_files(&ledger_dir, names);
        for ((name, a), b) in names.iter().zip(&expected).zip(&files) {
            if a != b {
                out.failed += 1;
                out.error(format!(
                    "replayed {name}.result differs from run_campaign's"
                ));
            }
        }
        let _ = std::fs::remove_dir_all(&ledger_dir);
        report_counters(runs.iter().map(|r| &r.run), &mut exact, out);
        per_iter.push_spans(
            &replayer.tracer,
            from,
            scale,
            &[
                ("workloads.generate_ms", "workloads.generate"),
                ("core.bank_run_ms", "core.bank_run"),
                ("core.finish_ms", "core.finish"),
                ("bench.ledger_commit_ms", "bench.ledger_commit"),
            ],
        );
        per_iter.push(
            "traced.iteration_ms",
            (wall_ms - replayer.tracer.total_ms("ooo.raw_run", from)) * scale,
        );
        iteration += 1;
    }
    per_iter.report(out);
    replayer.report(out, speed.run_scale());
    out.notes.push(format!(
        "tracing overhead: untraced run_campaign {untraced_ms:.1} ms, traced replay {:.1} ms without its bankless runs",
        median(per_iter.get("traced.iteration_ms"))
    ));
    replayer.write_trace(cfg, "campaign", out);
}
