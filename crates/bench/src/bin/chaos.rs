//! Chaos harness: drives every fault-injection mode through the full stack
//! and checks that each layer degrades gracefully instead of panicking.
//!
//! Usage: `chaos [test|small|full] [--jobs N]` (default: test, all cores;
//! the campaign act fans out over the shared job executor).
//!
//! Three acts:
//!
//! 1. **Trace integrity** — encode a benchmark's commit trace, damage the
//!    bytes with each byte-level [`Fault`], and show the recovering reader
//!    classifying the damage (corrupt chunks skipped, truncation detected)
//!    while replaying everything salvageable.
//! 2. **Profiler resilience** — feed profilers a trace perturbed in flight
//!    (dropped cycles, flipped commit flags) and show profile errors stay
//!    finite and bounded.
//! 3. **Campaign isolation** — run a figure-style sweep in which one
//!    benchmark is forced to panic and another livelocks; the campaign
//!    finishes with a failure report and every other result intact.
//! 4. **Checkpoint corruption** — damage a mid-run `TIPS` snapshot with
//!    bit-flips, truncation, and a stale format version; every variant is
//!    rejected with a classified error, the poison is removed, and the
//!    from-scratch fallback still produces the uninterrupted-run profile.
//!
//! Exits non-zero if any resilience property is violated.

use tip_bench::campaign::{run_campaign, CampaignCli, CampaignConfig};
use tip_bench::checkpoint::CheckpointSpec;
use tip_bench::executor::{Job, RunCtx};
use tip_bench::run::{run_profiled, run_profiled_sliced, RunError, MAX_CYCLES};
use tip_bench::DEFAULT_INTERVAL;
use tip_core::{ProfilerBank, ProfilerId, SamplerConfig};
use tip_isa::Granularity;
use tip_ooo::{Core, CoreConfig, CycleRecord, TraceSink};
use tip_trace::{Fault, FaultPlan, TraceReader, TraceWriter};
use tip_workloads::{benchmark, suite, SuiteScale};

/// Parses the CLI with the shared campaign parser, rejecting the persistence
/// flags chaos manages itself (it writes only scratch directories).
fn cli_from_args() -> CampaignCli {
    let cli = match CampaignCli::parse_with_default(std::env::args().skip(1), SuiteScale::Test) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("chaos: {e}");
            eprintln!("usage: chaos [test|small|full] [--jobs N]");
            std::process::exit(2);
        }
    };
    if cli.out_dir.is_some() || cli.checkpoint_cycles.is_some() || cli.resume {
        eprintln!("chaos: out_dir/--checkpoint/--resume are not supported (chaos manages its own scratch state)");
        eprintln!("usage: chaos [test|small|full] [--jobs N]");
        std::process::exit(2);
    }
    cli
}

struct Count(u64);
impl TraceSink for Count {
    fn on_cycle(&mut self, _r: &CycleRecord) {
        self.0 += 1;
    }
}

/// Act 1: byte-level damage vs the recovering reader.
fn trace_integrity(scale: SuiteScale) -> bool {
    println!("== trace integrity ==");
    let b = benchmark("exchange2", scale);
    let mut core = Core::new(&b.program, CoreConfig::default(), 1);
    // Small chunks so single faults hit a minority of the stream.
    let mut writer = TraceWriter::with_chunk_size(Vec::new(), 4096);
    let summary = core.run(&mut writer, 400_000_000);
    if let Err(e) = writer.flush() {
        println!("    baseline: FAIL — in-memory flush errored: {e}");
        return false;
    }
    let clean = match writer.into_inner() {
        Ok(bytes) => bytes,
        Err(e) => {
            println!("    baseline: FAIL — writer teardown errored: {e}");
            return false;
        }
    };
    println!(
        "baseline: {} cycles encoded into {} bytes",
        summary.cycles,
        clean.len()
    );

    let plans = [
        (
            "flip-bits",
            FaultPlan::new(7, vec![Fault::FlipBits { bits: 16 }]),
        ),
        (
            "corrupt-run",
            FaultPlan::new(8, vec![Fault::CorruptRun { len: 512 }]),
        ),
        (
            "truncate",
            FaultPlan::new(9, vec![Fault::Truncate { keep_fraction: 0.7 }]),
        ),
    ];
    let mut ok = true;
    for (name, plan) in plans {
        let mut bytes = clean.clone();
        plan.apply_bytes(&mut bytes);
        let mut sink = Count(0);
        match TraceReader::new(bytes.as_slice()).replay_recovering(&mut sink) {
            Ok(report) => {
                println!(
                    "{name:>12}: replayed {} of {} cycles, {} chunk(s) skipped, truncated={}, unrecoverable={}",
                    report.records, summary.cycles, report.skipped_chunks, report.truncated,
                    report.unrecoverable,
                );
                if sink.0 != report.records {
                    println!("{name:>12}: FAIL — sink saw {} records", sink.0);
                    ok = false;
                }
            }
            Err(e) => {
                println!("{name:>12}: FAIL — recovering replay errored: {e}");
                ok = false;
            }
        }
    }
    ok
}

/// Act 2: in-flight record damage vs the profilers.
fn profiler_resilience(scale: SuiteScale) -> bool {
    println!("\n== profiler resilience ==");
    let b = benchmark("imagick", scale);
    let profilers = [ProfilerId::Tip, ProfilerId::Nci];
    let sampler = SamplerConfig::periodic(DEFAULT_INTERVAL);

    let baseline = {
        let mut bank = ProfilerBank::new(&b.program, sampler, &profilers);
        let mut core = Core::new(&b.program, CoreConfig::default(), 1);
        core.run(&mut bank, 400_000_000);
        bank.finish()
            .error_of(&b.program, ProfilerId::Tip, Granularity::Instruction)
    };
    println!("baseline TIP instruction error: {:.4}", baseline);

    let plans = [
        (
            "drop-cycles",
            FaultPlan::new(10, vec![Fault::DropCycles { one_in: 50 }]),
        ),
        (
            "flip-commits",
            FaultPlan::new(11, vec![Fault::FlipCommitFlags { one_in: 50 }]),
        ),
    ];
    let mut ok = true;
    for (name, plan) in plans {
        let bank = ProfilerBank::new(&b.program, sampler, &profilers);
        let mut sink = plan.wrap_sink(bank);
        let mut core = Core::new(&b.program, CoreConfig::default(), 1);
        core.run(&mut sink, 400_000_000);
        println!(
            "{name:>12}: {} dropped, {} flipped",
            sink.dropped(),
            sink.flipped()
        );
        let result = sink.into_inner().finish();
        for p in profilers {
            let err = result.error_of(&b.program, p, Granularity::Instruction);
            println!("{:>12}  {p:?} error {err:.4}", "");
            // Graceful degradation: errors stay finite, in range, and in
            // the same order of magnitude as the damage (never NaN/inf).
            if !err.is_finite() || !(0.0..=1.0).contains(&err) {
                println!("{name:>12}: FAIL — unbounded or NaN error");
                ok = false;
            }
        }
    }
    ok
}

/// Act 3: a sweep where one workload panics and one livelocks, fanned out
/// over the shared job executor.
fn campaign_isolation(scale: SuiteScale, jobs: usize) -> bool {
    println!("\n== campaign isolation ({jobs} worker(s)) ==");
    let dir = std::env::temp_dir().join(format!("tip-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = CampaignConfig {
        profilers: vec![ProfilerId::Tip],
        max_attempts: 2,
        jobs,
        out_dir: Some(dir.clone()),
        ..CampaignConfig::default()
    };
    let panic_plan = FaultPlan::new(12, vec![Fault::ForcePanic]);
    let outcome = run_campaign(suite(scale), &config, move |job: &Job, ctx: &RunCtx| {
        let bench = &job.bench;
        if bench.name == "mcf" && panic_plan.forces_panic() {
            panic!("chaos: forced panic in {}", bench.name);
        }
        if bench.name == "lbm" {
            // Wedge the core mid-run: the watchdog turns the livelock into
            // a structured diagnostic instead of an endless spin.
            let mut bank = ProfilerBank::new(&bench.program, job.sampler, &job.profilers);
            let mut core = Core::new(&bench.program, CoreConfig::default(), ctx.seed);
            for _ in 0..200 {
                core.step(&mut bank);
            }
            core.inject_lost_redirect();
            return core
                .run_to_completion(&mut bank, 400_000_000)
                .map(|_| unreachable!("wedged core cannot complete"))
                .map_err(|source| RunError::Sim {
                    bench: bench.name.to_owned(),
                    source,
                });
        }
        run_profiled(
            &bench.program,
            CoreConfig::default(),
            job.sampler,
            &job.profilers,
            ctx.seed,
        )
    });
    print!("{}", outcome.summary());
    let mut ok = true;
    if outcome.failed.len() != 2 {
        println!("FAIL — expected exactly 2 casualties (mcf, lbm)");
        ok = false;
    }
    let results = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
    println!(
        "persisted {} files in {} (incl. failures.txt, journal.txt, metrics.txt)",
        results,
        dir.display()
    );
    // Every benchmark leaves a result file, plus the failure report, the
    // resume journal, and the campaign metrics.
    if results != outcome.completed.len() + outcome.failed.len() + 3 {
        println!("FAIL — missing per-benchmark result files");
        ok = false;
    }
    let _ = std::fs::remove_dir_all(&dir);
    ok
}

/// Act 4: damaged `TIPS` snapshots vs the checkpointed runner.
fn checkpoint_corruption(scale: SuiteScale) -> bool {
    println!("\n== checkpoint corruption ==");
    let b = benchmark("exchange2", scale);
    let sampler = SamplerConfig::periodic(DEFAULT_INTERVAL);
    let profilers = [ProfilerId::Tip];
    let seed = 13;

    // The ground truth a recovered run must reproduce.
    let plain = match run_profiled(&b.program, CoreConfig::default(), sampler, &profilers, seed) {
        Ok(run) => run,
        Err(e) => {
            println!("    baseline: FAIL — uninterrupted run errored: {e}");
            return false;
        }
    };

    let dir = std::env::temp_dir().join(format!("tip-chaos-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        println!("    setup: FAIL — cannot create {}: {e}", dir.display());
        return false;
    }

    // Build an interrupted run: checkpoint at cycle 1 000, then die on a
    // 1 500-cycle budget as if the process had been killed.
    let spec = CheckpointSpec {
        snapshot_path: dir.join("exchange2.tips"),
        trace_path: dir.join("exchange2.trace"),
        every_cycles: 1_000,
        resume: true,
    };
    let ctx = RunCtx {
        checkpoint: Some(spec.clone()),
        ..RunCtx::new(seed)
    };
    let checkpointed = |max_cycles| {
        let core = CoreConfig::default();
        run_profiled_sliced(&b.program, core, sampler, &profilers, max_cycles, &ctx)
    };
    if let Ok(run) = checkpointed(1_500) {
        println!(
            "    setup: FAIL — {} cycles finished early",
            run.summary.cycles
        );
        return false;
    }
    let pristine = match std::fs::read(&spec.snapshot_path) {
        Ok(bytes) => bytes,
        Err(e) => {
            println!("    setup: FAIL — checkpoint read-back errored: {e}");
            return false;
        }
    };
    println!(
        "interrupted at cycle 1000: snapshot is {} bytes",
        pristine.len()
    );

    let plans = [
        (
            "flip-bits",
            FaultPlan::new(21, vec![Fault::FlipBits { bits: 48 }]),
        ),
        (
            "truncate",
            FaultPlan::new(22, vec![Fault::Truncate { keep_fraction: 0.5 }]),
        ),
        (
            "stale-version",
            FaultPlan::new(23, vec![Fault::StaleSnapshotHeader]),
        ),
    ];
    let mut ok = true;
    for (name, plan) in plans {
        let mut bytes = pristine.clone();
        plan.apply_snapshot(&mut bytes);
        if let Err(e) = std::fs::write(&spec.snapshot_path, &bytes) {
            println!("{name:>13}: FAIL — cannot plant damage: {e}");
            ok = false;
            continue;
        }
        match checkpointed(MAX_CYCLES) {
            Err(RunError::Checkpoint { source, .. }) => {
                println!("{name:>13}: rejected as expected ({source})");
            }
            Err(e) => {
                println!("{name:>13}: FAIL — misclassified: {e}");
                ok = false;
            }
            Ok(_) => {
                println!("{name:>13}: FAIL — damaged snapshot restored silently");
                ok = false;
            }
        }
        if spec.snapshot_path.exists() {
            println!("{name:>13}: FAIL — poisoned snapshot not removed");
            ok = false;
            continue;
        }
        // The retry path: with the poison gone, the same invocation runs
        // from scratch and still matches the uninterrupted baseline.
        match checkpointed(MAX_CYCLES) {
            Ok(run) => {
                let equiv = run.summary == plain.summary
                    && run.bank.samples_of(ProfilerId::Tip)
                        == plain.bank.samples_of(ProfilerId::Tip);
                if equiv {
                    println!("{name:>13}: from-scratch fallback matches baseline");
                } else {
                    println!("{name:>13}: FAIL — fallback diverged from baseline");
                    ok = false;
                }
            }
            Err(e) => {
                println!("{name:>13}: FAIL — fallback errored: {e}");
                ok = false;
            }
        }
    }

    // Finally, an intact snapshot: restore it and finish the run, expecting
    // profiles identical to the uninterrupted baseline (resume equivalence).
    if let Err(e) = std::fs::write(&spec.snapshot_path, &pristine) {
        println!("       intact: FAIL — cannot restore snapshot: {e}");
        ok = false;
    } else {
        match checkpointed(MAX_CYCLES) {
            Ok(run) => {
                let equiv = run.summary == plain.summary
                    && run.bank.samples_of(ProfilerId::Tip)
                        == plain.bank.samples_of(ProfilerId::Tip);
                if equiv {
                    println!("       intact: resumed run matches the uninterrupted baseline");
                } else {
                    println!("       intact: FAIL — resumed run diverged");
                    ok = false;
                }
            }
            Err(e) => {
                println!("       intact: FAIL — intact snapshot failed to resume: {e}");
                ok = false;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    ok
}

fn main() {
    let cli = cli_from_args();
    let scale = cli.scale;
    let ok = [
        trace_integrity(scale),
        profiler_resilience(scale),
        campaign_isolation(scale, cli.effective_jobs()),
        checkpoint_corruption(scale),
    ];
    if ok.iter().all(|&x| x) {
        println!("\nchaos: all resilience properties held");
    } else {
        println!("\nchaos: FAILURES detected");
        std::process::exit(1);
    }
}
