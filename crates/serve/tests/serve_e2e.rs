//! End-to-end service tests: a real `tipd` engine behind a real TCP
//! socket, driven by the real client.
//!
//! The headline property mirrors the campaign suite's kill-and-resume
//! guarantee, lifted to the daemon: submit a job set over the wire with
//! `--jobs 2`, drain mid-campaign, restart with `--resume`, resubmit —
//! and the final `journal.txt`, `<bench>.result` files, and `failures.txt`
//! must be byte-identical to an uninterrupted *local* [`run_campaign`]
//! over the same job sequence. `metrics.txt` is host timing and excluded,
//! exactly as in `crates/bench/tests/parallel_kill_resume.rs`.

use std::collections::BTreeMap;
use std::fs;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

use tip_bench::campaign::{run_campaign, CampaignConfig};
use tip_bench::executor::{Job, RunCtx, Runner, SpecRunner};
use tip_bench::run::DEFAULT_STREAM_CYCLES;
use tip_core::{ProfileDelta, ProfilerId};
use tip_isa::Granularity;
use tip_serve::{
    serve, serve_with_runner, Client, ClientError, Coordinator, CoordinatorConfig, DeltaFrame,
    ErrorCode, JobSpec, JobState, QueryKind, ServerConfig,
};
use tip_workloads::{benchmark, SuiteScale, BENCHMARK_NAMES};

/// A fig08-style job subset: enough benches that a drain lands mid-queue
/// at 2 workers, small enough to keep the suite quick at `Test` scale.
const SUITE_LEN: usize = 6;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tip-serve-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

fn spec_for(name: &str) -> JobSpec {
    let mut spec = JobSpec::new(name, SuiteScale::Test);
    // One profiler keeps each job fast; the local reference uses the same.
    spec.profilers = vec![ProfilerId::Tip];
    spec
}

fn wait_terminal(client: &Client, job: u64) -> JobState {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let state = client.status(job).expect("status");
        if state.is_terminal() {
            return state;
        }
        assert!(Instant::now() < deadline, "job {job} never settled");
        thread::sleep(Duration::from_millis(10));
    }
}

/// The deterministic artifacts; `metrics.txt` is host timing and excluded.
fn artifacts(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fs::read_dir(dir)
        .expect("campaign dir exists")
        .map(|e| e.expect("dir entry"))
        .filter(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.ends_with(".result") || name == "journal.txt" || name == "failures.txt"
        })
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                fs::read(e.path()).expect("artifact readable"),
            )
        })
        .collect()
}

fn done_lines(dir: &Path) -> Vec<String> {
    fs::read_to_string(dir.join("journal.txt"))
        .unwrap_or_default()
        .lines()
        .filter_map(|l| l.strip_prefix("done ").map(str::to_owned))
        .collect()
}

#[test]
fn drained_daemon_resumes_to_byte_identical_artifacts() {
    let names = &BENCHMARK_NAMES[..SUITE_LEN];

    // Uninterrupted local reference: same benches, same order, same specs.
    let local_dir = tmp_dir("local");
    let config = CampaignConfig {
        profilers: vec![ProfilerId::Tip],
        out_dir: Some(local_dir.clone()),
        ..CampaignConfig::default()
    };
    let benches = names
        .iter()
        .map(|&n| benchmark(n, SuiteScale::Test))
        .collect();
    let outcome = run_campaign(benches, &config, SpecRunner);
    assert_eq!(outcome.completed.len(), SUITE_LEN);

    // Phase 1: a 2-worker daemon takes the same submissions over TCP and
    // is drained mid-campaign by a wire `Shutdown{drain: true}`.
    let srv_dir = tmp_dir("srv");
    let mut cfg = ServerConfig::new(srv_dir.clone());
    cfg.workers = 2;
    let handle = serve(&cfg).expect("bind");
    let addr = handle.addr().to_string();
    let client = Client::new(&addr);
    let mut ids = Vec::new();
    for &name in names {
        ids.push(client.submit(&spec_for(name)).expect("submit"));
    }
    assert_eq!(ids, (1..=SUITE_LEN as u64).collect::<Vec<_>>());

    // Let the campaign make some progress, streaming it, then pull the plug.
    let mut progress = Vec::new();
    let last = client.watch(ids[0], |s| progress.push(s)).expect("watch");
    assert_eq!(
        last,
        JobState::Done {
            ok: true,
            attempts: 1
        }
    );
    assert!(!progress.is_empty(), "watch streamed at least one frame");
    client.shutdown(true).expect("wire shutdown");
    handle.join();

    // The drain journalled a clean prefix of the submission order.
    let at_drain = done_lines(&srv_dir);
    assert!(!at_drain.is_empty(), "drain committed the in-flight work");
    assert_eq!(
        at_drain,
        names[..at_drain.len()]
            .iter()
            .map(|&n| n.to_owned())
            .collect::<Vec<_>>(),
        "journal covers a contiguous prefix of submission order"
    );

    // While down, the client's connect retry gives up with a typed error.
    let offline = Client::new(&addr).with_retry(2, Duration::from_millis(1));
    assert!(matches!(offline.stats(), Err(ClientError::Io(_))));

    // Phase 2: restart with --resume, resubmit the same suite; journalled
    // benchmarks are acknowledged without re-running, the rest execute.
    let mut cfg = ServerConfig::new(srv_dir.clone());
    cfg.workers = 2;
    cfg.resume = true;
    let handle = serve(&cfg).expect("rebind");
    let client = Client::new(&handle.addr().to_string());
    let mut ids = Vec::new();
    for &name in names {
        ids.push(client.submit(&spec_for(name)).expect("resubmit"));
    }
    for &id in &ids {
        let state = wait_terminal(&client, id);
        assert!(
            matches!(state, JobState::Done { ok: true, .. }),
            "job {id} ended {state:?}"
        );
    }
    // Resumed prefix reports attempts=0: acknowledged from the journal.
    if at_drain.len() < SUITE_LEN {
        assert_eq!(
            client.status(ids[0]).expect("status"),
            JobState::Done {
                ok: true,
                attempts: 0
            }
        );
    }

    // fetch-result returns the on-disk result file, byte for byte.
    let body = client.result(ids[0]).expect("result");
    let disk = fs::read(srv_dir.join(format!("{}.result", names[0]))).expect("result file");
    assert_eq!(body.into_bytes(), disk);

    let stats = client.stats().expect("stats");
    assert_eq!(stats.done, SUITE_LEN as u32);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.workers, 2);
    handle.shutdown();

    // The headline: byte-identical deterministic artifacts, local vs wire,
    // including across the drain/restart/resume cycle.
    assert_eq!(done_lines(&srv_dir).len(), SUITE_LEN);
    assert_eq!(artifacts(&local_dir), artifacts(&srv_dir));

    let _ = fs::remove_dir_all(&local_dir);
    let _ = fs::remove_dir_all(&srv_dir);
}

/// The v4 streaming path end-to-end: wire `Query` frames answer from the
/// live aggregate *mid-campaign*, `watch` carries streamed simulated
/// cycles, and once every job settles the aggregate's merged units equal
/// the finished profiles of an uninterrupted local run exactly — the live
/// view converges to the truth, not an approximation of it.
#[test]
fn live_queries_answer_mid_campaign_and_converge_exactly() {
    const LIVE_LEN: usize = 3;
    let names = &BENCHMARK_NAMES[..LIVE_LEN];

    // Local reference for the finished profiles (same specs, same order).
    let local_dir = tmp_dir("live-local");
    let config = CampaignConfig {
        profilers: vec![ProfilerId::Tip],
        out_dir: Some(local_dir.clone()),
        ..CampaignConfig::default()
    };
    let benches = names
        .iter()
        .map(|&n| benchmark(n, SuiteScale::Test))
        .collect();
    let reference = run_campaign(benches, &config, SpecRunner);
    assert_eq!(reference.completed.len(), LIVE_LEN);

    // One worker plus a slowed runner: when job 1 finishes, jobs 2..N are
    // provably still queued — the queries below land mid-campaign.
    let srv_dir = tmp_dir("live-srv");
    let slow = |job: &Job, ctx: &RunCtx| {
        thread::sleep(Duration::from_millis(200));
        SpecRunner.run(job, ctx)
    };
    let mut cfg = ServerConfig::new(srv_dir.clone());
    cfg.workers = 1;
    let handle = serve_with_runner(&cfg, slow).expect("bind");
    let client = Client::new(&handle.addr().to_string());
    let mut ids = Vec::new();
    for &name in names {
        ids.push(client.submit(&spec_for(name)).expect("submit"));
    }

    // Watch job 1 to completion; the v4 stream reports the benchmark's
    // streamed simulated cycles (a final delta flush always lands before
    // the outcome commits, so the terminal frame carries them).
    let mut max_cycles = 0u64;
    let last = client
        .watch_live(ids[0], |_state, cycles| max_cycles = max_cycles.max(cycles))
        .expect("watch");
    assert!(matches!(last, JobState::Done { ok: true, .. }));
    assert!(max_cycles > 0, "watch carried streamed cycles");

    // Mid-campaign: the daemon still has queued work, yet the aggregate
    // already answers for the finished benchmark.
    let stats = client.stats().expect("stats");
    assert!(stats.done < LIVE_LEN as u32, "work still in flight");
    assert!(stats.deltas > 0, "stats counts delta flushes");
    assert!(stats.streamed > 0, "stats counts streamed benches");
    let rows = client
        .query(QueryKind::TopN, names[0], Some(ProfilerId::Tip), 5)
        .expect("mid-campaign query");
    assert!(!rows.is_empty(), "TopN answers mid-campaign");
    assert!(rows
        .iter()
        .all(|r| r.bench == names[0] && !r.label.is_empty()));
    assert!(rows[0].share > 0.0 && rows[0].share <= 1.0);

    for &id in &ids {
        let state = wait_terminal(&client, id);
        assert!(matches!(state, JobState::Done { ok: true, .. }));
    }

    // Settled: merged streamed units equal the local finished profiles
    // exactly, per profiler and Oracle.
    let view = handle.coordinator().live().view();
    assert_eq!(view.benches.len(), LIVE_LEN);
    for c in &reference.completed {
        let name = c.run.bench.name;
        let b = view.bench(name).expect("bench streamed");
        assert_eq!(b.settled, Some(true), "{name} settled");
        assert_eq!(b.cycles, c.run.run.summary.cycles, "{name} cycles");
        let finished =
            c.run
                .run
                .bank
                .profile_of(&c.run.bench.program, ProfilerId::Tip, Granularity::Function);
        assert_eq!(
            b.units(Some(ProfilerId::Tip)).expect("tip units"),
            ProfileDelta::quantize(&finished).as_slice(),
            "{name}: live units != finished profile"
        );
        let oracle = c
            .run
            .run
            .bank
            .oracle
            .profile(&c.run.bench.program, Granularity::Function);
        assert_eq!(
            b.oracle,
            ProfileDelta::quantize(&oracle),
            "{name}: Oracle live units != finished profile"
        );
    }

    // The other two query kinds answer over the wire too: cycle-stack
    // shares sum to 1, and the TIP error trajectory's last point equals
    // the settled error against the Oracle.
    let stack = client
        .query(QueryKind::CycleStack, names[0], None, 0)
        .expect("stack query");
    assert!(!stack.is_empty());
    let share_sum: f64 = stack.iter().map(|r| r.share).sum();
    assert!(
        (share_sum - 1.0).abs() < 1e-9,
        "stack shares sum to 1, got {share_sum}"
    );
    let traj = client
        .query(
            QueryKind::ErrorTrajectory,
            names[0],
            Some(ProfilerId::Tip),
            0,
        )
        .expect("trajectory query");
    assert!(!traj.is_empty(), "trajectory recorded");
    let want = view
        .bench(names[0])
        .expect("bench")
        .error_vs_oracle(ProfilerId::Tip)
        .expect("error defined");
    let got = traj.last().expect("last point").share;
    assert!(
        (got - want).abs() < 1e-12,
        "trajectory converges: {got} vs {want}"
    );

    handle.shutdown();
    let _ = fs::remove_dir_all(&local_dir);
    let _ = fs::remove_dir_all(&srv_dir);
}

#[test]
fn wire_errors_are_typed() {
    let dir = tmp_dir("errors");
    let cfg = ServerConfig::new(dir.clone());
    let handle = serve(&cfg).expect("bind");
    let client = Client::new(&handle.addr().to_string());

    assert!(matches!(
        client.submit(&JobSpec::new("nonesuch", SuiteScale::Test)),
        Err(ClientError::Server {
            code: ErrorCode::UnknownBench,
            ..
        })
    ));

    let mut spec = spec_for(BENCHMARK_NAMES[0]);
    spec.core = "cray-1".to_owned();
    assert!(matches!(
        client.submit(&spec),
        Err(ClientError::Server {
            code: ErrorCode::UnknownCore,
            ..
        })
    ));

    assert!(matches!(
        client.status(999),
        Err(ClientError::Server {
            code: ErrorCode::UnknownJob,
            ..
        })
    ));
    assert!(matches!(
        client.result(999),
        Err(ClientError::Server {
            code: ErrorCode::UnknownJob,
            ..
        })
    ));

    // A job that exists but has not finished is NotReady, not unknown.
    let id = client
        .submit(&spec_for(BENCHMARK_NAMES[0]))
        .expect("submit");
    match client.result(id) {
        Err(ClientError::Server {
            code: ErrorCode::NotReady,
            ..
        }) => {}
        Ok(_) => {} // lost the race: the job finished first — fine
        other => panic!("unexpected: {other:?}"),
    }
    let _ = wait_terminal(&client, id);

    handle.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// Daemon 0 is the in-process worker pool, never a registered daemon: a
/// wire `PushDelta` claiming it passes the same fence as any unknown
/// daemon — refused with `UnknownDaemon`, live aggregate untouched — so no
/// client can overwrite a running job's live slot.
#[test]
fn wire_push_delta_claiming_daemon_zero_is_refused() {
    let dir = tmp_dir("delta0");
    let handle = serve(&ServerConfig::new(dir.clone())).expect("bind");
    let client = Client::new(&handle.addr().to_string());
    let frame = DeltaFrame {
        bench: BENCHMARK_NAMES[0].to_owned(),
        attempt: 1,
        seq: 1,
        granularity: Granularity::Function,
        num_symbols: 4,
        per_profiler: vec![(ProfilerId::Tip, vec![(0, 840)])],
        oracle: vec![(0, 840)],
        stack: vec![0; tip_core::NUM_CATEGORIES],
        cycles: 1_000,
    };
    assert!(matches!(
        client.push_delta(0, &frame),
        Err(ClientError::Server {
            code: ErrorCode::UnknownDaemon,
            ..
        })
    ));
    let stats = client.stats().expect("stats");
    assert_eq!((stats.deltas, stats.streamed), (0, 0));
    let rows = client.query(QueryKind::TopN, "", None, 0).expect("query");
    assert!(rows.is_empty(), "nothing reached the aggregate: {rows:?}");
    handle.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn over_limit_connections_get_typed_busy_then_recover() {
    let dir = tmp_dir("busy");
    let mut cfg = ServerConfig::new(dir.clone());
    cfg.max_conns = 1;
    cfg.io_timeout = Duration::from_millis(300);
    let handle = serve(&cfg).expect("bind");
    let client = Client::new(&handle.addr().to_string()).with_retry(1, Duration::from_millis(1));

    // Hold the one allowed connection open and idle.
    let held = TcpStream::connect(handle.addr()).expect("hold connection");

    // Once the held connection is registered, every further connection is
    // refused with a typed Busy naming the limit.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match client.stats() {
            Err(ClientError::Busy { active, limit }) => {
                assert_eq!(limit, 1);
                assert!(active >= 1);
                break;
            }
            _ => {
                assert!(Instant::now() < deadline, "Busy never observed");
                thread::sleep(Duration::from_millis(10));
            }
        }
    }

    // Releasing the held connection frees the slot.
    drop(held);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match client.stats() {
            Ok(stats) => {
                assert_eq!(stats.workers, 1);
                break;
            }
            _ => {
                assert!(Instant::now() < deadline, "server never recovered");
                thread::sleep(Duration::from_millis(10));
            }
        }
    }

    handle.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cancel_reaches_queued_jobs_only() {
    let dir = tmp_dir("cancel");
    // A runner slow enough that job 2 is deterministically still queued
    // when the cancel lands (1 worker, job 1 holds it for 300 ms).
    let slow = |job: &Job, ctx: &RunCtx| {
        thread::sleep(Duration::from_millis(300));
        SpecRunner.run(job, ctx)
    };
    let engine = Coordinator::start_with_runner(
        &CoordinatorConfig {
            out_dir: dir.clone(),
            workers: 1,
            resume: false,
            lease: Duration::from_secs(300),
            live: None,
        },
        slow,
    );
    let first = engine
        .submit(&spec_for(BENCHMARK_NAMES[0]))
        .expect("submit");
    let second = engine
        .submit(&spec_for(BENCHMARK_NAMES[1]))
        .expect("submit");

    assert!(engine.cancel(second), "queued job is cancellable");
    assert!(!engine.cancel(second), "cancel is not repeatable");
    assert_eq!(engine.status(second), Some(JobState::Cancelled));
    assert!(
        engine.result(second).is_err(),
        "no result for a cancelled job"
    );

    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let state = engine.status(first).expect("known job");
        if state.is_terminal() {
            assert!(matches!(state, JobState::Done { ok: true, .. }));
            break;
        }
        assert!(Instant::now() < deadline, "job 1 never finished");
        thread::sleep(Duration::from_millis(10));
    }
    assert!(!engine.cancel(first), "a settled job is not cancellable");

    // Draining refuses new work with a typed error.
    engine.drain();
    assert_eq!(
        engine.submit(&spec_for(BENCHMARK_NAMES[2])),
        Err(tip_serve::SubmitError::Draining)
    );

    engine.shutdown(true);
    // The cancelled job left no journal entry or result file.
    assert_eq!(done_lines(&dir), vec![BENCHMARK_NAMES[0].to_owned()]);
    assert!(!dir.join(format!("{}.result", BENCHMARK_NAMES[1])).exists());
    let _ = fs::remove_dir_all(&dir);
}

/// The pgo submission path end to end: a `pgo: true` spec runs the
/// profile→transform→measure loop server-side and commits the *optimized*
/// program's run through the ordinary ledger formats — same file name,
/// same schema, measurably fewer cycles than the plain run of the same
/// benchmark committed by an identical daemon.
#[test]
fn pgo_jobs_commit_optimized_runs_through_the_ledger() {
    fn settle(engine: &Coordinator, job: u64) {
        let deadline = Instant::now() + Duration::from_secs(300);
        loop {
            let state = engine.status(job).expect("known job");
            if state.is_terminal() {
                assert!(
                    matches!(state, JobState::Done { ok: true, .. }),
                    "{state:?}"
                );
                return;
            }
            assert!(Instant::now() < deadline, "job {job} never settled");
            thread::sleep(Duration::from_millis(10));
        }
    }
    fn cycles_of(dir: &Path) -> u64 {
        let body = fs::read_to_string(dir.join("imagick.result")).expect("result file");
        body.lines()
            .find_map(|l| l.strip_prefix("cycles="))
            .expect("cycles row")
            .parse()
            .expect("cycles parse")
    }

    let plain_dir = tmp_dir("pgo-plain");
    let engine = Coordinator::start(&CoordinatorConfig::new(plain_dir.clone()));
    let job = engine.submit(&spec_for("imagick")).expect("submit plain");
    settle(&engine, job);
    engine.shutdown(true);
    let plain_cycles = cycles_of(&plain_dir);

    let opt_dir = tmp_dir("pgo-opt");
    let engine = Coordinator::start(&CoordinatorConfig::new(opt_dir.clone()));
    let mut spec = spec_for("imagick");
    spec.pgo = true;
    let job = engine.submit(&spec).expect("submit pgo");
    settle(&engine, job);
    engine.shutdown(true);
    let pgo_cycles = cycles_of(&opt_dir);

    assert!(
        pgo_cycles < plain_cycles,
        "pgo job must commit the optimized run: {pgo_cycles} vs plain {plain_cycles}"
    );
    let _ = fs::remove_dir_all(&plain_dir);
    let _ = fs::remove_dir_all(&opt_dir);
}

/// A healthy local job many leases long is never reaped: the worker's
/// slice loop beats the assignment's heartbeat at every simulated slice,
/// so a lease means "the simulation advanced", not "an attempt started".
///
/// The lease adapts to the host: it is [`LEASE_SLICES`] slice-times long,
/// with the slice-time measured on this host from the same benchmark at
/// `Test` scale. The job then spans a fixed number of leases (its cycles
/// over `LEASE_SLICES` slices), whatever the host's speed.
#[test]
fn local_job_longer_than_its_lease_settles_without_reassignment() {
    const LEASE_SLICES: u64 = 8;
    const BENCH: &str = "mcf";
    let profilers = [ProfilerId::Tip];
    let probe = Job::new(benchmark(BENCH, SuiteScale::Test), 42, &profilers);
    let started = Instant::now();
    let run = SpecRunner.run(&probe, &RunCtx::new(42)).expect("probe run");
    let slice = started
        .elapsed()
        .mul_f64(DEFAULT_STREAM_CYCLES as f64 / run.summary.cycles as f64);
    let lease = slice * LEASE_SLICES as u32;

    let dir = tmp_dir("lease");
    let mut cfg = ServerConfig::new(dir.clone());
    cfg.workers = 1;
    cfg.lease = lease;
    let handle = serve(&cfg).expect("bind");
    let client = Client::new(&handle.addr().to_string());
    let mut spec = JobSpec::new(BENCH, SuiteScale::Small);
    spec.profilers = profilers.to_vec();
    let job = client.submit(&spec).expect("submit");
    let state = wait_terminal(&client, job);
    let stats = client.stats().expect("stats");
    handle.shutdown();

    let body = fs::read_to_string(dir.join(format!("{BENCH}.result"))).expect("result file");
    let cycles: u64 = body
        .lines()
        .find_map(|l| l.strip_prefix("cycles="))
        .and_then(|c| c.parse().ok())
        .expect("cycles row");
    let leases = cycles / (LEASE_SLICES * DEFAULT_STREAM_CYCLES);
    assert!(
        leases >= 4,
        "the job spans only {leases} leases of {lease:?}"
    );
    assert_eq!(
        state,
        JobState::Done {
            ok: true,
            attempts: 1
        }
    );
    assert_eq!(stats.reassigned, 0, "a beating lease was reaped");
    let metrics = fs::read_to_string(dir.join("metrics.txt")).expect("metrics");
    assert!(metrics.contains(" assignments=1 "), "{metrics}");
    let _ = fs::remove_dir_all(&dir);
}
