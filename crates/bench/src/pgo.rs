//! The closed profile → transform → measure loop (Section 6, generalized).
//!
//! The paper's imagick case study is a manual loop: profile with TIP, spot
//! the CSR-flush hot spot, fix it by hand, re-measure. This module automates
//! it and — crucially — runs the *same* automated pass guided by *every*
//! profiler in the bank. A time-proportional profile attributes flush time
//! to the flush instruction itself, so the pass finds and hoists it; a
//! skid-prone profile (Software, NCI) attributes the same time to innocent
//! neighbours, the offender stays below threshold, and the pass under-fires.
//! The per-profiler speedup table is therefore a *measured* end-to-end
//! argument for time-proportionality, not a profile-error proxy.
//!
//! Every rewritten program must pass [`tip_pgo::check_equivalence`] against
//! the original before its cycle count is allowed into the report.

use std::fmt::Write as _;

use tip_core::{ProfilerId, SamplerConfig};
use tip_isa::{Granularity, Program};
use tip_ooo::CoreConfig;
use tip_pgo::{check_equivalence, EquivError, PgoConfig, PgoError, PgoPass};
use tip_workloads::{benchmark, SuiteScale};

use crate::executor::{Job, RunCtx};
use crate::live::DeltaSink;
use crate::run::{run_profiled, run_profiled_sliced, ProfiledRun, RunError, DEFAULT_INTERVAL};
use crate::table::Table;

/// Observable records compared per equivalence check. The workloads retire
/// ~10^5..10^7 instructions at the scales the loop runs; checking the first
/// two million records covers multiple full loop generations of every
/// workload shape while keeping the check's host cost bounded.
pub const EQUIV_RECORDS: u64 = 2_000_000;

/// One profiler's trip around the loop.
#[derive(Debug)]
pub struct PgoRow {
    /// The profiler whose profile guided the pass.
    pub profiler: ProfilerId,
    /// Cycles of the rewritten program (equals baseline when nothing fired).
    pub optimized_cycles: u64,
    /// Baseline cycles / optimized cycles.
    pub speedup: f64,
    /// What the pass did, one line per rewrite.
    pub actions: Vec<String>,
}

/// The full per-profiler closed-loop result for one workload.
#[derive(Debug)]
pub struct PgoReport {
    /// Workload name.
    pub bench: String,
    /// Scale the loop ran at.
    pub scale: SuiteScale,
    /// Seed shared by profiling, equivalence, and re-measurement runs.
    pub seed: u64,
    /// Cycles of the unmodified program.
    pub baseline_cycles: u64,
    /// IPC of the unmodified program.
    pub baseline_ipc: f64,
    /// One row per profiler in bank order.
    pub rows: Vec<PgoRow>,
    /// Cycles of the hand-optimized variant, for workloads that have one
    /// (imagick) — the "can the automated loop match Section 6?" yardstick.
    pub hand_optimized_cycles: Option<u64>,
}

/// Why the closed loop failed.
#[derive(Debug)]
pub enum PgoLoopError {
    /// A simulation (baseline, hand-optimized, or re-measurement) failed.
    Run(RunError),
    /// The pass itself refused or failed.
    Pass(ProfilerId, PgoError),
    /// A rewrite failed the equivalence check — the transform layer has a
    /// bug; its "speedup" would be meaningless and is never reported.
    NotEquivalent(ProfilerId, EquivError),
}

impl std::fmt::Display for PgoLoopError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PgoLoopError::Run(e) => write!(f, "simulation failed: {e}"),
            PgoLoopError::Pass(id, e) => write!(f, "pass under {} failed: {e}", id.label()),
            PgoLoopError::NotEquivalent(id, e) => {
                write!(f, "rewrite under {} is not equivalent: {e}", id.label())
            }
        }
    }
}

impl std::error::Error for PgoLoopError {}

impl From<RunError> for PgoLoopError {
    fn from(e: RunError) -> Self {
        PgoLoopError::Run(e)
    }
}

/// Applies the PGO pass to `program` guided by `guide`'s profile from an
/// already-finished profiled run, proves the rewrite equivalent, and returns
/// the rewritten program with its action log.
///
/// This is the per-profiler loop body, exposed so tests (and the serve
/// layer) can run a single trip without the full bank sweep.
///
/// # Errors
///
/// [`PgoLoopError::Pass`] if the pass fails, [`PgoLoopError::NotEquivalent`]
/// if the rewrite changes the architectural stream.
pub fn optimize_under(
    program: &Program,
    run: &ProfiledRun,
    guide: ProfilerId,
    config: &PgoConfig,
    seed: u64,
) -> Result<(Program, Vec<String>), PgoLoopError> {
    let profile = run
        .bank
        .profile_of(program, guide, Granularity::Instruction);
    let result = PgoPass::new(config.clone())
        .apply(program, &profile)
        .map_err(|e| PgoLoopError::Pass(guide, e))?;
    check_equivalence(
        program,
        &result.program,
        &result.provenance,
        seed,
        EQUIV_RECORDS,
    )
    .map_err(|e| PgoLoopError::NotEquivalent(guide, e))?;
    Ok((result.program, result.actions))
}

/// One pgo job attempt, for the service path (`tipctl submit pgo`): profile
/// the job's program under its bank (TIP joins the run if the job did not
/// already attach it — the pass needs its guidance), apply the TIP-guided
/// pass, prove the rewrite equivalent, and re-simulate the optimized
/// program under the job's own profilers. The returned run is an ordinary
/// [`ProfiledRun`] of the *optimized* program, so the job's ledger
/// artifacts (`<bench>.result`, journal row, failure line) use the exact
/// formats a plain job uses — only the measured numbers change.
///
/// Both simulations tick `ctx.heartbeat` per slice. Neither checkpoints nor
/// streams deltas: the loop simulates twice and its rewrite invalidates any
/// mid-run snapshot.
///
/// # Errors
///
/// [`RunError`] from either simulation; [`RunError::Pgo`] when the pass
/// refuses or the rewrite fails the equivalence check.
pub fn pgo_run(job: &Job, ctx: &RunCtx) -> Result<ProfiledRun, RunError> {
    let ctx = RunCtx {
        checkpoint: None,
        delta_sink: DeltaSink::noop(),
        ..ctx.clone()
    };
    let mut bank = job.profilers.clone();
    if !bank.contains(&ProfilerId::Tip) {
        bank.push(ProfilerId::Tip);
    }
    let program = &job.bench.program;
    let run = |program: &Program, profilers: &[ProfilerId]| {
        let core = job.core.clone();
        run_profiled_sliced(program, core, job.sampler, profilers, job.max_cycles, &ctx)
    };
    let baseline = run(program, &bank)?;
    let (optimized, _actions) = optimize_under(
        program,
        &baseline,
        ProfilerId::Tip,
        &PgoConfig::default(),
        ctx.seed,
    )
    .map_err(|e| match e {
        PgoLoopError::Run(e) => e,
        other => RunError::Pgo {
            bench: job.bench.name.to_owned(),
            message: other.to_string(),
        },
    })?;
    run(&optimized, &job.profilers)
}

/// Runs the closed loop for one workload: profile once under the whole
/// bank, then per profiler apply the pass, prove equivalence, re-simulate,
/// and report the speedup each profiler's view of the program bought.
///
/// # Errors
///
/// Any [`PgoLoopError`]: a failed simulation, a failed pass, or a rewrite
/// that did not survive the equivalence check.
pub fn closed_loop(
    bench: &'static str,
    scale: SuiteScale,
    config: &PgoConfig,
    seed: u64,
) -> Result<PgoReport, PgoLoopError> {
    let program = benchmark(bench, scale).program;
    closed_loop_program(bench, &program, scale, config, seed)
}

/// [`closed_loop`] over an explicit program (for synthetic workloads that
/// are not part of the named suite).
///
/// # Errors
///
/// As [`closed_loop`].
pub fn closed_loop_program(
    bench: &str,
    program: &Program,
    scale: SuiteScale,
    config: &PgoConfig,
    seed: u64,
) -> Result<PgoReport, PgoLoopError> {
    let core = CoreConfig::default();
    let sampler = SamplerConfig::periodic(DEFAULT_INTERVAL);
    let baseline = run_profiled(program, core.clone(), sampler, &ProfilerId::ALL, seed)?;

    let mut rows = Vec::new();
    for guide in ProfilerId::ALL {
        let (optimized, actions) = optimize_under(program, &baseline, guide, config, seed)?;
        let rerun = run_profiled(&optimized, core.clone(), sampler, &[], seed)?;
        rows.push(PgoRow {
            profiler: guide,
            optimized_cycles: rerun.summary.cycles,
            speedup: baseline.summary.cycles as f64 / rerun.summary.cycles as f64,
            actions,
        });
    }

    let hand_optimized_cycles = if bench == "imagick" {
        let hand = tip_workloads::imagick_optimized(scale.dyn_instrs());
        let run = run_profiled(&hand, core, sampler, &[], seed)?;
        Some(run.summary.cycles)
    } else {
        None
    };

    Ok(PgoReport {
        bench: bench.to_owned(),
        scale,
        seed,
        baseline_cycles: baseline.summary.cycles,
        baseline_ipc: baseline.ipc(),
        rows,
        hand_optimized_cycles,
    })
}

impl PgoReport {
    /// The row for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not part of the loop (it always is for reports
    /// from [`closed_loop`]).
    #[must_use]
    pub fn row(&self, id: ProfilerId) -> &PgoRow {
        self.rows
            .iter()
            .find(|r| r.profiler == id)
            .expect("profiler was part of the loop")
    }

    /// Renders the per-profiler speedup table.
    #[must_use]
    pub fn table(&self) -> String {
        let mut t = Table::new(vec![
            "guide".to_owned(),
            "cycles".to_owned(),
            "speedup".to_owned(),
            "rewrites".to_owned(),
        ]);
        t.row(vec![
            "(baseline)".to_owned(),
            self.baseline_cycles.to_string(),
            "1.00x".to_owned(),
            "-".to_owned(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.profiler.label().to_owned(),
                r.optimized_cycles.to_string(),
                format!("{:.2}x", r.speedup),
                r.actions.len().to_string(),
            ]);
        }
        if let Some(hand) = self.hand_optimized_cycles {
            t.row(vec![
                "(hand-opt)".to_owned(),
                hand.to_string(),
                format!("{:.2}x", self.baseline_cycles as f64 / hand as f64),
                "-".to_owned(),
            ]);
        }
        t.render()
    }

    /// Serializes the report as one JSON object (hand-written — the
    /// workspace deliberately has no JSON dependency; same idiom as
    /// `hostbench::HostBenchReport::to_json`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"schema\": \"tip-pgo-v1\",\n");
        let _ = writeln!(s, "  \"bench\": \"{}\",", self.bench);
        let _ = writeln!(s, "  \"scale\": \"{:?}\",", self.scale);
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"baseline_cycles\": {},", self.baseline_cycles);
        let _ = writeln!(s, "  \"baseline_ipc\": {:.4},", self.baseline_ipc);
        if let Some(hand) = self.hand_optimized_cycles {
            let _ = writeln!(s, "  \"hand_optimized_cycles\": {hand},");
        }
        s.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"guide\": \"{}\", \"cycles\": {}, \"speedup\": {:.4}, \"rewrites\": {}}}",
                r.profiler.label(),
                r.optimized_cycles,
                r.speedup,
                r.actions.len(),
            );
            s.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite: the automated loop reproduces the paper's Section 6 case
    /// study. The TIP-guided pass applied to `imagick_original` must match
    /// or beat the hand-written `imagick_optimized` — and must strictly beat
    /// the same pass guided by the skid-prone profilers.
    #[test]
    fn tip_guided_imagick_matches_hand_optimization() {
        let report = closed_loop("imagick", SuiteScale::Test, &PgoConfig::default(), 42)
            .expect("closed loop completes");
        let tip = report.row(ProfilerId::Tip);
        let hand = report
            .hand_optimized_cycles
            .expect("imagick has a hand-optimized variant");

        assert!(
            tip.optimized_cycles <= hand,
            "TIP-guided ({} cycles) must match or beat hand-optimized ({hand} cycles)",
            tip.optimized_cycles,
        );
        assert!(tip.speedup > 1.2, "flush hoisting must pay: {report:#?}");

        // The same pass guided by a skid-prone profile misses the flushes.
        let worst_skid = report
            .row(ProfilerId::Nci)
            .speedup
            .min(report.row(ProfilerId::Software).speedup);
        assert!(
            tip.speedup > worst_skid,
            "TIP guidance must strictly beat at least one skid-prone guide:\n{}",
            report.table()
        );
    }

    #[test]
    fn report_renders_and_serializes() {
        let report = closed_loop("imagick", SuiteScale::Test, &PgoConfig::default(), 7)
            .expect("closed loop completes");
        let table = report.table();
        assert!(table.contains("TIP") && table.contains("(hand-opt)"));
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"tip-pgo-v1\""));
        assert!(json.contains("\"guide\": \"TIP\""));
    }
}
