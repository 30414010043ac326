//! Data collection behind every table and figure of the paper.
//!
//! Each `figNN` function returns plain row structs; the `src/bin/figNN.rs`
//! binaries render them with [`crate::table`]. EXPERIMENTS.md records the
//! measured numbers against the paper's.

use crate::executor::{self, default_workers, Job, SpecRunner};
use crate::live::DeltaSink;
use crate::run::{run_profiled, ProfiledRun, RunError, DEFAULT_INTERVAL};
use tip_core::{CycleCategory, ProfilerId, SamplerConfig, NUM_CATEGORIES};
use tip_isa::{Granularity, SymbolId};
use tip_ooo::CoreConfig;
use tip_workloads::{benchmark, suite, Benchmark, SuiteScale, WorkloadClass};

pub use tip_isa::Granularity as ProfileGranularity;

/// A benchmark together with its profiled run.
#[derive(Debug)]
pub struct SuiteRun {
    /// The benchmark.
    pub bench: Benchmark,
    /// Its profiled execution.
    pub run: ProfiledRun,
}

/// Runs the whole suite with all profilers on the default schedule.
///
/// # Errors
///
/// Fails fast with the first [`RunError`]; use [`crate::campaign`] to keep
/// going past individual benchmark failures.
pub fn run_suite(scale: SuiteScale) -> Result<Vec<SuiteRun>, RunError> {
    run_suite_with(
        scale,
        SamplerConfig::periodic(DEFAULT_INTERVAL),
        &ProfilerId::ALL,
    )
}

/// Runs the whole suite with a custom schedule/profiler set, fanned out over
/// the [`crate::executor`] worker pool (every available core). Results come
/// back in canonical suite order — the executor's deterministic merge makes
/// the fan-out invisible.
///
/// # Errors
///
/// Fails with the first [`RunError`] in suite order; use [`crate::campaign`]
/// to keep going past individual benchmark failures.
pub fn run_suite_with(
    scale: SuiteScale,
    sampler: SamplerConfig,
    profilers: &[ProfilerId],
) -> Result<Vec<SuiteRun>, RunError> {
    let jobs: Vec<Job> = suite(scale)
        .into_iter()
        .map(|bench| Job {
            sampler,
            ..Job::new(bench, 42, profilers)
        })
        .collect();
    let mut runs: Vec<SuiteRun> = Vec::with_capacity(jobs.len());
    let mut first_err: Option<RunError> = None;
    let sink = DeltaSink::noop();
    executor::execute(&jobs, &SpecRunner, default_workers(), &sink, |out| {
        // Commits arrive in suite order, so the first error seen here is
        // the same one the old serial loop would have failed fast on.
        if first_err.is_some() {
            return;
        }
        match out.result {
            Ok(run) => runs.push(SuiteRun {
                bench: jobs[out.index].bench.clone(),
                run,
            }),
            Err(e) => first_err = Some(e),
        }
    });
    match first_err {
        Some(e) => Err(e),
        None => Ok(runs),
    }
}

// ---------------------------------------------------------------------------
// Figure 7: normalized cycle stacks.
// ---------------------------------------------------------------------------

/// One benchmark's normalized cycle stack.
#[derive(Debug, Clone)]
pub struct StackRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Paper classification.
    pub class: WorkloadClass,
    /// Fractions per [`CycleCategory`], in `CycleCategory::ALL` order.
    pub fractions: [f64; NUM_CATEGORIES],
    /// Run IPC (for context).
    pub ipc: f64,
}

/// Figure 7: commit-stage cycle stacks for the whole suite.
#[must_use]
pub fn fig07(runs: &[SuiteRun]) -> Vec<StackRow> {
    runs.iter()
        .map(|sr| StackRow {
            name: sr.bench.name,
            class: sr.bench.class,
            fractions: sr.run.bank.oracle.cycle_stack().normalized(),
            ipc: sr.run.ipc(),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figures 8, 9, 10 (and 1): profile errors per granularity.
// ---------------------------------------------------------------------------

/// One benchmark's profile errors for a set of profilers.
#[derive(Debug, Clone)]
pub struct ErrorRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Paper classification.
    pub class: WorkloadClass,
    /// `(profiler, error)` pairs.
    pub errors: Vec<(ProfilerId, f64)>,
}

/// Profile errors for every benchmark at `granularity`.
#[must_use]
pub fn error_rows(
    runs: &[SuiteRun],
    granularity: Granularity,
    profilers: &[ProfilerId],
) -> Vec<ErrorRow> {
    runs.iter()
        .map(|sr| ErrorRow {
            name: sr.bench.name,
            class: sr.bench.class,
            errors: profilers
                .iter()
                .map(|&p| (p, sr.run.bank.error_of(&sr.bench.program, p, granularity)))
                .collect(),
        })
        .collect()
}

/// Arithmetic-mean error per profiler over `rows` (the paper's aggregation).
#[must_use]
pub fn mean_errors(rows: &[ErrorRow], profilers: &[ProfilerId]) -> Vec<(ProfilerId, f64)> {
    profilers
        .iter()
        .map(|&p| {
            let sum: f64 = rows
                .iter()
                .map(|r| {
                    r.errors
                        .iter()
                        .find(|(id, _)| *id == p)
                        .expect("profiler present")
                        .1
                })
                .sum();
            (p, sum / rows.len() as f64)
        })
        .collect()
}

/// Mean error per profiler restricted to one class.
#[must_use]
pub fn class_mean_errors(
    rows: &[ErrorRow],
    class: WorkloadClass,
    profilers: &[ProfilerId],
) -> Vec<(ProfilerId, f64)> {
    let filtered: Vec<ErrorRow> = rows.iter().filter(|r| r.class == class).cloned().collect();
    mean_errors(&filtered, profilers)
}

// ---------------------------------------------------------------------------
// Figure 11a: sampling-frequency sensitivity.
// ---------------------------------------------------------------------------

/// The frequency sweep of Figure 11a, expressed as interval multipliers of
/// the paper's 4 kHz baseline: 100 Hz, 1 kHz, 4 kHz, 10 kHz, 20 kHz.
pub const FREQUENCIES: [(&str, f64); 5] = [
    ("100 Hz", 100.0),
    ("1 kHz", 1_000.0),
    ("4 kHz", 4_000.0),
    ("10 kHz", 10_000.0),
    ("20 kHz", 20_000.0),
];

/// Maps a paper frequency onto our scaled cycle interval (4 kHz ≙
/// [`DEFAULT_INTERVAL`]); kept odd to avoid loop aliasing.
#[must_use]
pub fn interval_for_frequency(freq_hz: f64) -> u64 {
    let scaled = (DEFAULT_INTERVAL as f64 * 4_000.0 / freq_hz).round() as u64;
    scaled | 1
}

/// One profiler's mean instruction-level error per frequency.
#[derive(Debug, Clone)]
pub struct FrequencyRow {
    /// The profiler.
    pub profiler: ProfilerId,
    /// `(label, mean error)` per frequency in [`FREQUENCIES`] order.
    pub errors: Vec<(&'static str, f64)>,
}

/// Figure 11a: instruction-level error vs sampling frequency for NCI,
/// TIP-ILP, and TIP, averaged over the suite.
///
/// # Errors
///
/// Propagates the first [`RunError`] from any sweep point.
pub fn fig11a(scale: SuiteScale) -> Result<Vec<FrequencyRow>, RunError> {
    let profilers = [ProfilerId::Nci, ProfilerId::TipIlp, ProfilerId::Tip];
    let mut per_profiler: Vec<FrequencyRow> = profilers
        .iter()
        .map(|&p| FrequencyRow {
            profiler: p,
            errors: Vec::new(),
        })
        .collect();
    for &(label, freq) in &FREQUENCIES {
        let sampler = SamplerConfig::periodic(interval_for_frequency(freq));
        let runs = run_suite_with(scale, sampler, &profilers)?;
        let rows = error_rows(&runs, Granularity::Instruction, &profilers);
        for (i, &(p, e)) in mean_errors(&rows, &profilers).iter().enumerate() {
            debug_assert_eq!(per_profiler[i].profiler, p);
            per_profiler[i].errors.push((label, e));
        }
    }
    Ok(per_profiler)
}

// ---------------------------------------------------------------------------
// Figure 11b: periodic vs random sampling.
// ---------------------------------------------------------------------------

/// One benchmark's TIP error under periodic and random sampling.
#[derive(Debug, Clone)]
pub struct SamplingModeRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Paper classification.
    pub class: WorkloadClass,
    /// TIP instruction-level error with periodic sampling.
    pub periodic: f64,
    /// TIP instruction-level error with random sampling.
    pub random: f64,
}

/// Figure 11b: TIP instruction-level error, periodic vs random sampling.
///
/// # Errors
///
/// Propagates the first [`RunError`] from either sweep.
pub fn fig11b(scale: SuiteScale) -> Result<Vec<SamplingModeRow>, RunError> {
    let profilers = [ProfilerId::Tip];
    let periodic = run_suite_with(scale, SamplerConfig::periodic(DEFAULT_INTERVAL), &profilers)?;
    let random = run_suite_with(
        scale,
        SamplerConfig::random(DEFAULT_INTERVAL, 0xfeed),
        &profilers,
    )?;
    let rows = periodic
        .iter()
        .zip(&random)
        .map(|(p, r)| SamplingModeRow {
            name: p.bench.name,
            class: p.bench.class,
            periodic: p.run.bank.error_of(
                &p.bench.program,
                ProfilerId::Tip,
                Granularity::Instruction,
            ),
            random: r.run.bank.error_of(
                &r.bench.program,
                ProfilerId::Tip,
                Granularity::Instruction,
            ),
        })
        .collect();
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Figure 11c: NCI+ILP box plots.
// ---------------------------------------------------------------------------

/// Five-number summary of a profiler's per-benchmark instruction errors.
#[derive(Debug, Clone)]
pub struct BoxRow {
    /// The profiler.
    pub profiler: ProfilerId,
    /// Minimum error.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median error.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum error.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

/// Five-number summary (min, q1, median, q3, max) of `xs` using linear
/// interpolation between order statistics.
///
/// # Panics
///
/// Panics if `xs` is empty or contains non-finite values.
#[must_use]
pub fn five_number_summary(xs: &[f64]) -> (f64, f64, f64, f64, f64) {
    assert!(!xs.is_empty(), "summary of an empty sample");
    let mut xs = xs.to_vec();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let q = |f: f64| -> f64 {
        let pos = f * (xs.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
    };
    (
        xs[0],
        q(0.25),
        q(0.5),
        q(0.75),
        *xs.last().expect("non-empty"),
    )
}

/// Figure 11c: box-plot statistics for NCI+ILP vs NCI, TIP-ILP, and TIP.
#[must_use]
pub fn fig11c(runs: &[SuiteRun]) -> Vec<BoxRow> {
    let profilers = [
        ProfilerId::NciIlp,
        ProfilerId::Nci,
        ProfilerId::TipIlp,
        ProfilerId::Tip,
    ];
    let rows = error_rows(runs, Granularity::Instruction, &profilers);
    profilers
        .iter()
        .map(|&p| {
            let xs: Vec<f64> = rows
                .iter()
                .map(|r| r.errors.iter().find(|(id, _)| *id == p).expect("present").1)
                .collect();
            let (min, q1, median, q3, max) = five_number_summary(&xs);
            BoxRow {
                profiler: p,
                min,
                q1,
                median,
                q3,
                max,
                mean: xs.iter().sum::<f64>() / xs.len() as f64,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figures 12 & 13: the Imagick case study.
// ---------------------------------------------------------------------------

/// Function-level and `ceil`-instruction-level profiles for Oracle, TIP, and
/// NCI (Figure 12).
#[derive(Debug)]
pub struct Fig12 {
    /// `(function name, oracle share, tip share, nci share)` rows.
    pub functions: Vec<(String, f64, f64, f64)>,
    /// `(instr mnemonic@addr, oracle share, tip share, nci share)` within
    /// `ceil`, shares of time within the function.
    pub ceil_instrs: Vec<(String, f64, f64, f64)>,
}

/// Figure 12: profiles of the Imagick stand-in.
///
/// # Errors
///
/// Propagates the [`RunError`] of the Imagick run.
pub fn fig12(scale: SuiteScale) -> Result<Fig12, RunError> {
    let bench = benchmark("imagick", scale);
    let program = &bench.program;
    let run = run_profiled(
        program,
        CoreConfig::default(),
        SamplerConfig::periodic(DEFAULT_INTERVAL),
        &[ProfilerId::Tip, ProfilerId::Nci],
        42,
    )?;

    let g = Granularity::Function;
    let oracle_f = run.bank.oracle.profile(program, g);
    let tip_f = run.bank.profile_of(program, ProfilerId::Tip, g);
    let nci_f = run.bank.profile_of(program, ProfilerId::Nci, g);
    let functions = program
        .functions()
        .iter()
        .map(|f| {
            let sym = SymbolId(f.id().index() as u32);
            (
                f.name().to_owned(),
                oracle_f.share(sym),
                tip_f.share(sym),
                nci_f.share(sym),
            )
        })
        .collect();

    // Instruction-level, within ceil.
    let gi = Granularity::Instruction;
    let oracle_i = run.bank.oracle.profile(program, gi);
    let tip_i = run.bank.profile_of(program, ProfilerId::Tip, gi);
    let nci_i = run.bank.profile_of(program, ProfilerId::Nci, gi);
    let ceil = program
        .functions()
        .iter()
        .find(|f| f.name() == "ceil")
        .expect("imagick has ceil");
    let mut ceil_instrs = Vec::new();
    for blk_i in ceil.block_range() {
        let blk = &program.blocks()[blk_i];
        for gi_idx in blk.instr_range() {
            let idx = tip_isa::InstrIdx::new(gi_idx as u32);
            let sym = SymbolId(idx.raw());
            let label = format!("{}@{}", program.instr(idx).kind(), program.addr_of(idx));
            ceil_instrs.push((
                label,
                oracle_i.share(sym),
                tip_i.share(sym),
                nci_i.share(sym),
            ));
        }
    }
    // Normalize the instruction shares to within-function fractions.
    for col in 1..=3 {
        let total: f64 = ceil_instrs
            .iter()
            .map(|r| match col {
                1 => r.1,
                2 => r.2,
                _ => r.3,
            })
            .sum();
        if total > 0.0 {
            for r in &mut ceil_instrs {
                match col {
                    1 => r.1 /= total,
                    2 => r.2 /= total,
                    _ => r.3 /= total,
                }
            }
        }
    }
    Ok(Fig12 {
        functions,
        ceil_instrs,
    })
}

/// Per-function time breakdowns for original vs optimized Imagick
/// (Figure 13), plus the overall speed-up.
#[derive(Debug)]
pub struct Fig13 {
    /// `(function, [categories] cycles)` for the original version.
    pub original: Vec<(String, [f64; NUM_CATEGORIES])>,
    /// Same for the optimized version.
    pub optimized: Vec<(String, [f64; NUM_CATEGORIES])>,
    /// Original cycles / optimized cycles.
    pub speedup: f64,
    /// IPC of original and optimized versions.
    pub ipc: (f64, f64),
}

/// Figure 13: the Imagick optimization.
///
/// # Errors
///
/// Propagates the first [`RunError`] from either Imagick variant.
pub fn fig13(scale: SuiteScale) -> Result<Fig13, RunError> {
    let orig = tip_workloads::imagick_original(scale.dyn_instrs());
    let opt = tip_workloads::imagick_optimized(scale.dyn_instrs());
    let sampler = SamplerConfig::periodic(DEFAULT_INTERVAL);
    let run_o = run_profiled(
        &orig,
        CoreConfig::default(),
        sampler,
        &[ProfilerId::Tip],
        42,
    )?;
    let run_p = run_profiled(&opt, CoreConfig::default(), sampler, &[ProfilerId::Tip], 42)?;

    let stacks = |program: &tip_isa::Program, run: &ProfiledRun| {
        program
            .functions()
            .iter()
            .map(|f| {
                let stack = run.bank.oracle.symbol_stack(
                    program,
                    Granularity::Function,
                    SymbolId(f.id().index() as u32),
                );
                let mut row = [0.0; NUM_CATEGORIES];
                for (i, c) in CycleCategory::ALL.iter().enumerate() {
                    row[i] = stack.get(*c);
                }
                (f.name().to_owned(), row)
            })
            .collect::<Vec<_>>()
    };

    Ok(Fig13 {
        original: stacks(&orig, &run_o),
        optimized: stacks(&opt, &run_p),
        speedup: run_o.summary.cycles as f64 / run_p.summary.cycles as f64,
        ipc: (run_o.ipc(), run_p.ipc()),
    })
}

// ---------------------------------------------------------------------------
// Validation (Section 5.2): relative profiler gaps across two "platforms".
// ---------------------------------------------------------------------------

/// The validation experiment: the Software-vs-NCI profile difference on two
/// different core configurations (standing in for the paper's Intel-vs-
/// FireSim comparison, which checks that relative gaps are in the same
/// ballpark across platforms).
#[derive(Debug, Clone)]
pub struct ValidationRow {
    /// Core configuration name.
    pub config: String,
    /// Mean instruction-level Software-vs-NCI profile difference.
    pub instr_gap: f64,
    /// Mean function-level Software-vs-NCI profile difference.
    pub func_gap: f64,
}

/// Runs the validation experiment on a subset of the suite.
///
/// # Errors
///
/// Propagates the first [`RunError`] from any configuration/benchmark pair.
pub fn validation(scale: SuiteScale) -> Result<Vec<ValidationRow>, RunError> {
    let names = ["exchange2", "imagick", "mcf", "lbm", "gcc", "namd"];
    let configs = [CoreConfig::default(), CoreConfig::small_2wide()];
    configs
        .iter()
        .map(|config| {
            let mut instr_gap = 0.0;
            let mut func_gap = 0.0;
            for name in names {
                let b = benchmark(name, scale);
                let run = run_profiled(
                    &b.program,
                    config.clone(),
                    SamplerConfig::periodic(DEFAULT_INTERVAL),
                    &[ProfilerId::Software, ProfilerId::Nci],
                    42,
                )?;
                for (g, acc) in [
                    (Granularity::Instruction, &mut instr_gap),
                    (Granularity::Function, &mut func_gap),
                ] {
                    let sw = run.bank.profile_of(&b.program, ProfilerId::Software, g);
                    let nci = run.bank.profile_of(&b.program, ProfilerId::Nci, g);
                    *acc += sw.error_vs(&nci);
                }
            }
            Ok(ValidationRow {
                config: config.name.clone(),
                instr_gap: instr_gap / names.len() as f64,
                func_gap: func_gap / names.len() as f64,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tip_workloads::BENCHMARK_NAMES;

    #[test]
    fn interval_mapping_scales_inversely() {
        assert_eq!(interval_for_frequency(4_000.0), DEFAULT_INTERVAL | 1);
        assert!(interval_for_frequency(100.0) > interval_for_frequency(20_000.0));
        assert_eq!(interval_for_frequency(100.0) % 2, 1, "interval stays odd");
    }

    #[test]
    fn five_number_summary_matches_hand_computation() {
        let (min, q1, med, q3, max) = five_number_summary(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((min, q1, med, q3, max), (1.0, 2.0, 3.0, 4.0, 5.0));
        // Interpolation between order statistics.
        let (_, q1, med, _, _) = five_number_summary(&[1.0, 2.0, 3.0, 4.0]);
        assert!((q1 - 1.75).abs() < 1e-12);
        assert!((med - 2.5).abs() < 1e-12);
        // Degenerate single sample.
        assert_eq!(five_number_summary(&[7.0]), (7.0, 7.0, 7.0, 7.0, 7.0));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn five_number_summary_rejects_empty() {
        let _ = five_number_summary(&[]);
    }

    #[test]
    fn class_means_partition_the_suite() {
        // Hand-built rows: class means must aggregate only their class.
        let rows = vec![
            ErrorRow {
                name: "a",
                class: WorkloadClass::Compute,
                errors: vec![(ProfilerId::Tip, 0.1)],
            },
            ErrorRow {
                name: "b",
                class: WorkloadClass::Stall,
                errors: vec![(ProfilerId::Tip, 0.3)],
            },
            ErrorRow {
                name: "c",
                class: WorkloadClass::Compute,
                errors: vec![(ProfilerId::Tip, 0.2)],
            },
        ];
        let compute = class_mean_errors(&rows, WorkloadClass::Compute, &[ProfilerId::Tip]);
        assert!((compute[0].1 - 0.15).abs() < 1e-12);
        let stall = class_mean_errors(&rows, WorkloadClass::Stall, &[ProfilerId::Tip]);
        assert!((stall[0].1 - 0.3).abs() < 1e-12);
        let overall = mean_errors(&rows, &[ProfilerId::Tip]);
        assert!((overall[0].1 - 0.2).abs() < 1e-12);
    }

    #[test]
    fn error_rows_cover_all_benchmarks() {
        let runs = run_suite_with(
            SuiteScale::Test,
            SamplerConfig::periodic(211),
            &[ProfilerId::Tip],
        )
        .expect("test suite terminates");
        let rows = error_rows(&runs, Granularity::Function, &[ProfilerId::Tip]);
        assert_eq!(rows.len(), BENCHMARK_NAMES.len());
        let means = mean_errors(&rows, &[ProfilerId::Tip]);
        assert!(means[0].1 >= 0.0 && means[0].1 <= 1.0);
    }
}
