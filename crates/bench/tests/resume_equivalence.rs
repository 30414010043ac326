//! Keystone acceptance for checkpoint/restore: **resume equivalence**.
//!
//! Checkpointing a run mid-flight, tearing the whole simulator down, and
//! restoring from the `TIPS` snapshot must produce a commit trace whose
//! decoded records are identical to an uninterrupted run with the same
//! seed, and final profiles that match sample-for-sample. The cut point is
//! also property-tested at random cycles, since rare in-flight pipeline
//! states (mid-flush, full ROB, parked front-end) only show up at odd cuts.

use std::fs::{self, File};
use std::path::PathBuf;

use proptest::prelude::*;
use tip_bench::checkpoint::{save_checkpoint, CheckpointSpec};
use tip_bench::executor::RunCtx;
use tip_bench::run::{run_profiled, run_profiled_sliced, MAX_CYCLES};
use tip_core::{ProfilerBank, ProfilerId, SamplerConfig};
use tip_ooo::{Core, CoreConfig, CycleRecord, TraceSink};
use tip_trace::framing::crc32;
use tip_trace::{TraceReader, TraceWriter};
use tip_workloads::{benchmark, SuiteScale};

const PROFILERS: [ProfilerId; 2] = [ProfilerId::Tip, ProfilerId::Nci];

fn sampler() -> SamplerConfig {
    SamplerConfig::periodic(211)
}

struct Tee<'a, A, B>(&'a mut A, &'a mut B);
impl<A: TraceSink, B: TraceSink> TraceSink for Tee<'_, A, B> {
    fn on_cycle(&mut self, r: &CycleRecord) {
        self.0.on_cycle(r);
        self.1.on_cycle(r);
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tip-resume-eq-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

/// The trace an uninterrupted run writes, as raw bytes.
fn uninterrupted_trace(seed: u64) -> Vec<u8> {
    let b = benchmark("exchange2", SuiteScale::Test);
    let mut core = Core::new(&b.program, CoreConfig::default(), seed);
    let mut writer = TraceWriter::new(Vec::new());
    core.run(&mut writer, 400_000_000);
    writer.flush().expect("flush");
    writer.into_inner().expect("in-memory writer")
}

/// Simulation is deterministic: two same-seed runs emit byte-identical
/// traces (checked via the framing CRC and outright equality), which is
/// what makes record-level resume equivalence a meaningful bar.
#[test]
fn same_seed_runs_emit_bit_identical_traces() {
    let a = uninterrupted_trace(17);
    let b = uninterrupted_trace(17);
    assert_eq!(crc32(&a), crc32(&b));
    assert_eq!(a, b);
}

/// Checkpoint at cycle `cut`, tear everything down, restore, and compare
/// against the uninterrupted same-seed run.
fn assert_resume_equivalent(seed: u64, cut: u64, tag: &str) {
    let b = benchmark("exchange2", SuiteScale::Test);
    let baseline = run_profiled(
        &b.program,
        CoreConfig::default(),
        sampler(),
        &PROFILERS,
        seed,
    )
    .expect("uninterrupted run");
    let clean = uninterrupted_trace(seed);
    let clean_records: Vec<CycleRecord> = TraceReader::new(clean.as_slice())
        .collect::<Result<_, _>>()
        .expect("clean trace decodes");

    let dir = tmp_dir(tag);
    let spec = CheckpointSpec {
        snapshot_path: dir.join("bench.tips"),
        trace_path: dir.join("bench.trace"),
        every_cycles: 1 << 40, // the resumed run finishes in one slice
        resume: true,
    };

    // The "interrupted" process: simulate to `cut`, seal the trace, persist
    // the checkpoint, and drop every live object (the teardown).
    {
        let mut core = Core::new(&b.program, CoreConfig::default(), seed);
        let mut bank = ProfilerBank::new(&b.program, sampler(), &PROFILERS);
        let file = File::create(&spec.trace_path).expect("trace file");
        let mut writer = TraceWriter::new(file);
        {
            let mut tee = Tee(&mut writer, &mut bank);
            core.run(&mut tee, cut);
        }
        writer.flush().expect("flush");
        save_checkpoint(
            &spec.snapshot_path,
            core.stats().cycles,
            &core.snapshot(),
            &bank.snapshot(),
            writer.position(),
        )
        .expect("save checkpoint");
    }

    // The "restarted" process: restore and run to completion.
    let ctx = RunCtx {
        checkpoint: Some(spec.clone()),
        ..RunCtx::new(seed)
    };
    let resumed = run_profiled_sliced(
        &b.program,
        CoreConfig::default(),
        sampler(),
        &PROFILERS,
        MAX_CYCLES,
        &ctx,
    )
    .expect("resumed run completes");

    // Identical final profiles and counters.
    assert_eq!(resumed.summary, baseline.summary, "cut={cut} seed={seed}");
    assert_eq!(resumed.stats, baseline.stats, "cut={cut} seed={seed}");
    assert_eq!(resumed.bank.total_cycles, baseline.bank.total_cycles);
    for p in PROFILERS {
        assert_eq!(
            resumed.bank.samples_of(p),
            baseline.bank.samples_of(p),
            "profiler {p:?} diverged at cut={cut} seed={seed}"
        );
    }

    // Bit-identical commit trace: every decoded record matches the
    // uninterrupted run's (chunk boundaries differ at the cut, so the
    // comparison is at the record level the profilers actually consume).
    let file = File::open(&spec.trace_path).expect("resumed trace");
    let resumed_records: Vec<CycleRecord> = TraceReader::new(file)
        .collect::<Result<_, _>>()
        .expect("resumed trace decodes");
    assert_eq!(resumed_records.len(), clean_records.len());
    assert_eq!(resumed_records, clean_records, "cut={cut} seed={seed}");

    // The consumed checkpoint is gone.
    assert!(!spec.snapshot_path.exists());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_at_a_fixed_cycle_is_equivalent() {
    assert_resume_equivalent(11, 5_000, "fixed");
}

/// A campaign killed mid-benchmark: the on-disk state is a journal with no
/// completed entries plus the benchmark's checkpoint and sealed trace
/// prefix. Re-invoking with `resume` restores the checkpoint, finishes the
/// run, and the result matches an uninterrupted campaign's.
#[test]
fn killed_campaign_resumes_mid_benchmark_from_its_checkpoint() {
    use tip_bench::campaign::{run_campaign, CampaignConfig};

    let dir = tmp_dir("killed-campaign");
    let config = CampaignConfig {
        profilers: PROFILERS.to_vec(),
        sampler: sampler(),
        out_dir: Some(dir.clone()),
        checkpoint_cycles: Some(1 << 40),
        resume: true,
        seed: 23,
        ..CampaignConfig::default()
    };
    let b = benchmark("exchange2", SuiteScale::Test);
    let baseline = run_profiled(&b.program, CoreConfig::default(), sampler(), &PROFILERS, 23)
        .expect("uninterrupted run");

    // Plant the state a SIGKILLed campaign leaves behind: a mid-run
    // checkpoint at the campaign's own paths, and no journal entry.
    let spec = config
        .checkpoint_spec("exchange2")
        .expect("checkpointing configured");
    {
        let mut core = Core::new(&b.program, CoreConfig::default(), 23);
        let mut bank = ProfilerBank::new(&b.program, sampler(), &PROFILERS);
        let file = File::create(&spec.trace_path).expect("trace file");
        let mut writer = TraceWriter::new(file);
        {
            let mut tee = Tee(&mut writer, &mut bank);
            core.run(&mut tee, 3_000);
        }
        writer.flush().expect("flush");
        save_checkpoint(
            &spec.snapshot_path,
            core.stats().cycles,
            &core.snapshot(),
            &bank.snapshot(),
            writer.position(),
        )
        .expect("save checkpoint");
    }

    let outcome = run_campaign(
        vec![benchmark("exchange2", SuiteScale::Test)],
        &config,
        |job: &tip_bench::Job, ctx: &tip_bench::RunCtx| {
            assert!(ctx.checkpoint.is_some(), "checkpointing configured");
            run_profiled_sliced(
                &job.bench.program,
                CoreConfig::default(),
                job.sampler,
                &job.profilers,
                MAX_CYCLES,
                ctx,
            )
        },
    );
    assert!(outcome.failed.is_empty(), "{}", outcome.summary());
    assert_eq!(outcome.completed.len(), 1);
    let resumed = &outcome.completed[0].run.run;
    assert_eq!(resumed.summary, baseline.summary);
    for p in PROFILERS {
        assert_eq!(resumed.bank.samples_of(p), baseline.bank.samples_of(p));
    }
    // The journal now records the benchmark, the checkpoint is consumed,
    // and nothing torn is left behind.
    let journal = fs::read_to_string(dir.join("journal.txt")).expect("journal");
    assert!(journal.contains("done exchange2"));
    assert!(!spec.snapshot_path.exists());
    let torn = fs::read_dir(&dir)
        .expect("dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
        .count();
    assert_eq!(torn, 0);
    let _ = fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Resume equivalence holds at arbitrary cut cycles and seeds.
    #[test]
    fn resume_at_random_cycles_is_equivalent(
        seed in 1u64..1_000,
        cut in 200u64..20_000,
    ) {
        assert_resume_equivalent(seed, cut, &format!("prop-{seed}-{cut}"));
    }
}
