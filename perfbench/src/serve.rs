//! `serve`: an in-process `tipd` (`tip_serve::server::serve`, one worker,
//! loopback) and one client that loops submit → watch → result over
//! single-benchmark jobs of the 27-benchmark suite at test scale.
//!
//! Short jobs make the service path a large share of each job: TIPW framing
//! and CRC (`tip-trace`), the engine queue, delta flushes into the live
//! aggregate every 250k simulated cycles, the ledger commit with its fsync,
//! and the watch push. `tip-pgo` is never called.
//!
//! The engine acknowledges a bench name it already settled as done without
//! simulating it, so one daemon serves each name once: every pass starts a
//! fresh daemon on a fresh directory, outside the latency spans.

use std::time::Instant;

use tip_bench::campaign::CompletedBench;
use tip_bench::experiments::SuiteRun;
use tip_bench::ledger::{render_completed, Ledger};
use tip_bench::run::{run_profiled, DEFAULT_STREAM_CYCLES};
use tip_ooo::CoreConfig;
use tip_serve::proto::{JobSpec, JobState};
use tip_serve::server::{serve, ServerConfig, ServerHandle};
use tip_serve::Client;
use tip_workloads::{benchmark, suite, Benchmark, SuiteScale};

use crate::measure::{mcycles_per_s, median, ms, shuffle, HostSpeed, Tracer};
use crate::replay::{job_metrics, report_counters, tip_fn_error_pct, Replayer};
use crate::{
    fresh_dir, keep_going, note_iterations, note_speed, timed_setup, Exact, Outcome, PeakRss,
    PerIter, RunCfg,
};

/// The job one operation submits: the service's default spec.
pub fn spec(bench: &str) -> JobSpec {
    JobSpec::new(bench, SuiteScale::Test)
}

/// What a served job must return: the result body of a local run of the same
/// spec, its simulated cycles, and how long the local run took.
pub struct Expected {
    /// `render_completed` of the local run.
    pub body: String,
    /// Simulated cycles of the run.
    pub cycles: u64,
    /// Host milliseconds of the local `run_profiled`.
    pub local_ms: f64,
}

/// Runs every benchmark locally as the daemon would and renders the result
/// body it must serve. Also returns the mean TIP function-level error.
pub fn expected(benches: &[Benchmark]) -> (Vec<Expected>, f64) {
    let mut runs = Vec::new();
    let mut exp = Vec::new();
    for b in benches {
        let s = spec(b.name);
        let t = Instant::now();
        let run = run_profiled(
            &b.program,
            CoreConfig::default(),
            s.sampler,
            &s.profilers,
            s.seed,
        )
        .expect("suite benchmarks run to completion");
        let local_ms = ms(t.elapsed());
        let completed = CompletedBench {
            run: SuiteRun {
                bench: b.clone(),
                run,
            },
            attempts: 1,
        };
        exp.push(Expected {
            body: render_completed(&completed, &s.profilers),
            cycles: completed.run.run.summary.cycles,
            local_ms,
        });
        runs.push(completed.run);
    }
    (exp, tip_fn_error_pct(&runs))
}

/// Starts a one-worker daemon on a fresh directory.
pub fn start(cfg: &RunCfg, name: &str) -> ServerHandle {
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::new(fresh_dir(cfg, name))
    };
    serve(&config).expect("loopback bind succeeds")
}

/// One served job's timings, or why it failed.
pub struct Served {
    /// `Client::submit` milliseconds.
    pub submit_ms: f64,
    /// Submit return until `Client::watch` returns a terminal state.
    pub done_ms: f64,
    /// Result body length.
    pub result_bytes: usize,
}

/// Submits one job, watches it to a terminal state and fetches its result,
/// checking the result against `expected`. `Err` is a failed operation.
pub fn round_trip(
    client: &Client,
    spec: &JobSpec,
    expected: &str,
    tracer: &mut Tracer,
    op: u64,
) -> Result<Served, String> {
    let t0 = Instant::now();
    let job = client
        .submit(spec)
        .map_err(|e| format!("{}: submit refused: {e}", spec.bench))?;
    let t1 = Instant::now();
    let state = client
        .watch(job, |_| {})
        .map_err(|e| format!("{}: watch failed: {e}", spec.bench))?;
    let t2 = Instant::now();
    let body = client
        .result(job)
        .map_err(|e| format!("{}: result failed: {e}", spec.bench))?;
    let t3 = Instant::now();
    tracer.record("serve.submit", op, t0, t1);
    tracer.record("serve.done", op, t1, t2);
    tracer.record("serve.result", op, t2, t3);
    if body != expected {
        return Err(format!(
            "{}: served result differs from a local run of the same spec",
            spec.bench
        ));
    }
    // A job the engine acknowledged from its done-names set without
    // simulating reports zero attempts.
    match state {
        JobState::Done { ok: true, attempts } if attempts >= 1 => {}
        other => return Err(format!("{}: ended {other:?}", spec.bench)),
    }
    Ok(Served {
        submit_ms: ms(t1 - t0),
        done_ms: ms(t2 - t1),
        result_bytes: body.len(),
    })
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let mut speed = HostSpeed::start();
    let benches = timed_setup(
        &mut speed,
        &mut out,
        || (suite(SuiteScale::Test), start(cfg, "setup")),
        |(benches, server)| {
            server.shutdown();
            benches
        },
    );
    let (mut expected, error_pct) = expected(&benches);
    let local_scale = speed.next_scale();
    for e in &mut expected {
        e.local_ms *= local_scale;
    }
    out.set("tip_fn_error_pct", error_pct);
    let specs: Vec<JobSpec> = benches.iter().map(|b| spec(b.name)).collect();
    let pass_cycles: u64 = expected.iter().map(|e| e.cycles).sum();

    let mut replayer = Replayer::new(cfg.trace);
    let mut exact = Exact::default();
    let (mut lat, mut rates, mut ratios, mut walls) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut per_iter = PerIter::default();
    let mut rss = PeakRss::default();
    let mut order: Vec<usize> = (0..specs.len()).collect();
    let mut order_state = cfg.seed;
    let start_all = Instant::now();
    let mut pass = 0u64;
    while keep_going(start_all, cfg, out.attempted, pass) {
        shuffle(&mut order, &mut order_state);
        rss.begin();
        let server = start(cfg, &format!("pass-{pass}"));
        let client = Client::new(&server.addr().to_string());
        let from = replayer.tracer.spans().len();
        let first = lat.len();
        let t = Instant::now();
        let mut bytes = 0usize;
        for (i, &j) in order.iter().enumerate() {
            let (spec, exp) = (&specs[j], &expected[j]);
            let op = pass * specs.len() as u64 + i as u64;
            out.attempted += 1;
            match round_trip(&client, spec, &exp.body, &mut replayer.tracer, op) {
                Ok(s) => {
                    lat.push(s.submit_ms + s.done_ms);
                    bytes += s.result_bytes;
                }
                Err(e) => {
                    out.failed += 1;
                    out.error(e);
                    lat.push(f64::INFINITY);
                }
            }
        }
        let wall = t.elapsed();
        let scale = speed.next_scale();
        for (l, &j) in lat[first..].iter_mut().zip(&order) {
            *l *= scale;
            ratios.push(*l / expected[j].local_ms);
        }
        rates.push(mcycles_per_s(pass_cycles, wall) / scale);
        walls.push(ms(wall) * scale);
        match client.stats() {
            Ok(stats) => {
                exact.check("serve.deltas", stats.deltas as f64, &mut out);
                exact.check("serve.streamed", f64::from(stats.streamed), &mut out);
                exact.check("serve.result_bytes", bytes as f64, &mut out);
                per_iter.push("serve.worker_utilization", stats.worker_utilization);
                per_iter.push("serve.mean_queue_wait_ms", stats.mean_queue_wait_ms * scale);
            }
            Err(e) => out.error(format!("stats refused: {e}")),
        }
        server.shutdown();
        rss.end();
        let _ = std::fs::remove_dir_all(cfg.dir.join(format!("pass-{pass}")));
        if cfg.trace {
            per_iter.push_spans(
                &replayer.tracer,
                from,
                scale,
                &[
                    ("serve.submit_ms", "serve.submit"),
                    ("serve.done_ms", "serve.done"),
                    ("serve.result_ms", "serve.result"),
                ],
            );
            per_iter.push("traced.iteration_ms", ms(wall) * scale);
            replay(
                cfg,
                &benches,
                &expected,
                pass,
                &mut replayer,
                &mut speed,
                &mut exact,
                &mut per_iter,
                &mut out,
            );
        }
        pass += 1;
    }
    if cfg.trace {
        per_iter.report(&mut out);
        out.set("serve.overhead_ratio", median(&ratios));
        replayer.report(&mut out, speed.run_scale());
        replayer.write_trace(cfg, "serve", &mut out);
    } else {
        rss.report(&mut out);
        out.set_median("sim_mcycles_per_s", &rates);
        note_iterations(&walls, &mut out);
        out.set_latencies(&lat);
    }
    note_speed(&speed, &mut out);
    out
}

/// Replays the pass's jobs locally under spans, exactly as the daemon's
/// worker runs them: program generation, the bank run in
/// `DEFAULT_STREAM_CYCLES` slices with a delta flush after each, finish,
/// and the ledger commit.
#[allow(clippy::too_many_arguments)]
fn replay(
    cfg: &RunCfg,
    benches: &[Benchmark],
    expected: &[Expected],
    pass: u64,
    replayer: &mut Replayer,
    speed: &mut HostSpeed,
    exact: &mut Exact,
    per_iter: &mut PerIter,
    out: &mut Outcome,
) {
    let from = replayer.tracer.spans().len();
    let dir = fresh_dir(cfg, &format!("replay-{pass}"));
    let mut ledger = Ledger::open(Some(&dir), false);
    let mut runs = Vec::new();
    for (i, (b, exp)) in benches.iter().zip(expected).enumerate() {
        let op = 1_000_000 + pass * benches.len() as u64 + i as u64;
        let s = spec(b.name);
        let bench = replayer.tracer.span("workloads.generate", op, |_| {
            benchmark(b.name, SuiteScale::Test)
        });
        let stream = Some(DEFAULT_STREAM_CYCLES);
        let run = replayer.job(op, &bench.program, &s.profilers, s.seed, stream, out);
        let completed = CompletedBench {
            run: SuiteRun { bench, run },
            attempts: 1,
        };
        if render_completed(&completed, &s.profilers) != exp.body {
            out.failed += 1;
            out.error(format!(
                "replayed {} differs from the served result",
                b.name
            ));
        }
        replayer.tracer.span("bench.ledger_commit", op, |_| {
            ledger.commit_completed(&completed, job_metrics(&completed), &s.profilers);
        });
        runs.push(completed.run);
    }
    let scale = speed.next_scale();
    let _ = std::fs::remove_dir_all(&dir);
    let flushes = replayer.tracer.spans()[from..]
        .iter()
        .filter(|s| s.name == "core.flush_deltas")
        .count();
    exact.check("core.flushes", flushes as f64, out);
    report_counters(runs.iter().map(|r| &r.run), exact, out);
    per_iter.push_spans(
        &replayer.tracer,
        from,
        scale,
        &[
            ("workloads.generate_ms", "workloads.generate"),
            ("core.bank_run_ms", "core.bank_run"),
            ("core.flush_deltas_ms", "core.flush_deltas"),
            ("core.finish_ms", "core.finish"),
            ("bench.ledger_commit_ms", "bench.ledger_commit"),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use tip_core::ProfilerId;

    fn cfg(name: &str) -> RunCfg {
        RunCfg {
            seed: 1,
            sim_seed: 42,
            seconds: Duration::from_secs(1),
            trace: false,
            dir: std::path::PathBuf::from(".perfbench_run")
                .join(format!("test-{name}-{}", std::process::id())),
        }
    }

    #[test]
    fn a_repeated_name_in_one_daemon_life_is_caught() {
        let cfg = cfg("trap");
        let bench = benchmark("exchange2", SuiteScale::Test);
        let (expected, _) = expected(std::slice::from_ref(&bench));
        let server = start(&cfg, "daemon");
        let client = Client::new(&server.addr().to_string());
        let mut tracer = Tracer::new(false);
        let first = round_trip(
            &client,
            &spec("exchange2"),
            &expected[0].body,
            &mut tracer,
            0,
        );
        assert!(first.is_ok(), "{:?}", first.err());

        // Same name, another profiler set: the engine serves the first
        // run's file, which the result-body check must refuse.
        let narrowed = JobSpec {
            profilers: vec![ProfilerId::Tip],
            ..spec("exchange2")
        };
        let local = run_profiled(
            &bench.program,
            CoreConfig::default(),
            narrowed.sampler,
            &narrowed.profilers,
            narrowed.seed,
        )
        .expect("exchange2 runs");
        let body = render_completed(
            &CompletedBench {
                run: SuiteRun {
                    bench: bench.clone(),
                    run: local,
                },
                attempts: 1,
            },
            &narrowed.profilers,
        );
        assert_ne!(body, expected[0].body);
        let err = round_trip(&client, &narrowed, &body, &mut tracer, 1)
            .err()
            .expect("a skipped resubmission is a failed operation");
        assert!(err.contains("differs from a local run"), "{err}");

        // Same name and spec: the body matches, so the zero-attempt
        // acknowledgement is what gives the skip away.
        let err = round_trip(
            &client,
            &spec("exchange2"),
            &expected[0].body,
            &mut tracer,
            2,
        )
        .err()
        .expect("a skipped resubmission is a failed operation");
        assert!(err.contains("attempts: 0"), "{err}");
        server.shutdown();
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }
}
