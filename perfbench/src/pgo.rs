//! `pgo`: the closed profile → transform → measure loop of
//! `tip_bench::pgo::closed_loop_program` at test scale with the default
//! `PgoConfig`, for imagick, gcc, mcf and perlbench.
//!
//! The loop is driven here through the same public calls
//! `closed_loop_program` makes, so that each of its steps is one timed
//! operation: the baseline profile, each guide loop (pass, equivalence check,
//! re-simulation), and imagick's hand-optimized run. Seven of the eight
//! simulations per benchmark run without profilers, and the functional
//! executor in `tip-isa` replays `EQUIV_RECORDS` records per guide, so a
//! speed-up of the profiler bank barely moves this workload while one of
//! `tip-ooo` or `tip-isa` does. `tip-serve` and the ledger are never called.
//!
//! The four benchmarks are the cases of the measure-and-keep roadmap item:
//! imagick reaches the hand-optimized cycle count, gcc gets slower under
//! every guide, mcf under the Software guide, and on perlbench LCI beats TIP.

use std::time::Instant;

use tip_bench::pgo::EQUIV_RECORDS;
use tip_bench::run::{run_profiled, ProfiledRun, DEFAULT_INTERVAL};
use tip_core::{ProfilerId, SamplerConfig};
use tip_isa::{Granularity, Program};
use tip_ooo::CoreConfig;
use tip_pgo::{check_equivalence, PgoConfig, PgoPass};
use tip_workloads::{benchmark, imagick_optimized, Benchmark, SuiteScale};

use crate::measure::{mcycles_per_s, ms, shuffle, HostSpeed, Tracer};
use crate::replay::{report_counters, Replayer};
use crate::{
    keep_going, note_iterations, note_speed, timed_setup, Exact, Outcome, PeakRss, PerIter, RunCfg,
};

/// The benchmarks whose loops the workload runs.
pub const PGO_BENCHES: [&str; 4] = ["imagick", "gcc", "mcf", "perlbench"];

/// The programs one round runs: the four benchmarks and imagick's
/// hand-optimized variant.
pub fn generate() -> (Vec<Benchmark>, Program) {
    (
        PGO_BENCHES
            .iter()
            .map(|n| benchmark(n, SuiteScale::Test))
            .collect(),
        imagick_optimized(SuiteScale::Test.dyn_instrs()),
    )
}

/// One benchmark's trip around the loop.
pub struct Trip {
    /// The baseline run under every profiler.
    pub baseline: ProfiledRun,
    /// Optimized cycles and rewrite count per guide, in `ProfilerId::ALL`
    /// order.
    pub rows: Vec<(ProfilerId, u64, usize)>,
    /// Cycles of the hand-optimized program, for imagick.
    pub hand_cycles: Option<u64>,
}

impl Trip {
    /// Every simulated cycle the trip ran.
    pub fn cycles(&self) -> u64 {
        self.baseline.summary.cycles
            + self.rows.iter().map(|r| r.1).sum::<u64>()
            + self.hand_cycles.unwrap_or(0)
    }

    /// Baseline cycles over the TIP-guided program's cycles.
    pub fn tip_speedup(&self) -> f64 {
        let tip = self
            .rows
            .iter()
            .find(|r| r.0 == ProfilerId::Tip)
            .map_or(0, |r| r.1);
        self.baseline.summary.cycles as f64 / tip as f64
    }
}

/// Runs one benchmark's closed loop. Its operations are the loop's
/// simulation-bearing steps: the baseline profile, each guide loop, and for
/// imagick the hand-optimized run. Each one's latency goes to `lat` (+inf
/// when it fails) and failures are counted in `out`. A traced `replayer`
/// replays the baseline through the bank's calls.
pub fn trip(
    bench: &Benchmark,
    hand: Option<&Program>,
    seed: u64,
    replayer: &mut Replayer,
    op: u64,
    lat: &mut Vec<f64>,
    out: &mut Outcome,
) -> Option<Trip> {
    let program = &bench.program;
    let core = CoreConfig::default();
    let sampler = SamplerConfig::periodic(DEFAULT_INTERVAL);
    let step = |lat: &mut Vec<f64>, out: &mut Outcome, t: Instant, r: Result<u64, String>| {
        out.attempted += 1;
        match r {
            Ok(v) => {
                lat.push(ms(t.elapsed()));
                Some(v)
            }
            Err(e) => {
                lat.push(f64::INFINITY);
                out.failed += 1;
                out.error(format!("{}: {e}", bench.name));
                None
            }
        }
    };
    let t = Instant::now();
    let baseline = if replayer.tracer.enabled() {
        Ok(replayer.job(op, program, &ProfilerId::ALL, seed, None, out))
    } else {
        run_profiled(program, core.clone(), sampler, &ProfilerId::ALL, seed)
            .map_err(|e| format!("baseline failed: {e}"))
    };
    let baseline = match baseline {
        Ok(run) => {
            step(lat, out, t, Ok(run.summary.cycles));
            run
        }
        Err(e) => {
            step(lat, out, t, Err(e));
            return None;
        }
    };
    let config = PgoConfig::default();
    let mut rows = Vec::new();
    for (g, guide) in ProfilerId::ALL.into_iter().enumerate() {
        let t = Instant::now();
        let tracer = &mut replayer.tracer;
        let r = guide_loop(
            program,
            &baseline,
            guide,
            &config,
            seed,
            tracer,
            op * 8 + g as u64,
        )
        .map_err(|e| format!("under {}: {e}", guide.label()));
        let rewrites = r.as_ref().map_or(0, |r| r.1);
        if let Some(cycles) = step(lat, out, t, r.map(|r| r.0)) {
            rows.push((guide, cycles, rewrites));
        }
    }
    let hand_cycles = match hand {
        None => None,
        Some(h) => {
            let t = Instant::now();
            let r = run_profiled(h, core, sampler, &[], seed)
                .map(|r| r.summary.cycles)
                .map_err(|e| format!("hand-optimized run failed: {e}"));
            Some(step(lat, out, t, r)?)
        }
    };
    (rows.len() == ProfilerId::ALL.len()).then_some(Trip {
        baseline,
        rows,
        hand_cycles,
    })
}

/// One guide loop: the pass under `guide`'s profile, the equivalence check,
/// and the bankless re-simulation. Returns optimized cycles and rewrites.
fn guide_loop(
    program: &Program,
    baseline: &ProfiledRun,
    guide: ProfilerId,
    config: &PgoConfig,
    seed: u64,
    tracer: &mut Tracer,
    op: u64,
) -> Result<(u64, usize), String> {
    let result = tracer.span("pgo.pass", op, |_| {
        let profile = baseline
            .bank
            .profile_of(program, guide, Granularity::Instruction);
        PgoPass::new(config.clone()).apply(program, &profile)
    });
    let result = result.map_err(|e| format!("pass failed: {e}"))?;
    tracer
        .span("pgo.equiv", op, |_| {
            check_equivalence(
                program,
                &result.program,
                &result.provenance,
                seed,
                EQUIV_RECORDS,
            )
        })
        .map_err(|e| format!("rewrite is not equivalent: {e}"))?;
    let rerun = tracer
        .span("pgo.resim", op, |_| {
            run_profiled(
                &result.program,
                CoreConfig::default(),
                SamplerConfig::periodic(DEFAULT_INTERVAL),
                &[],
                seed,
            )
        })
        .map_err(|e| format!("re-simulation failed: {e}"))?;
    Ok((rerun.summary.cycles, result.actions.len()))
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let mut speed = HostSpeed::start();
    let (benches, hand) = timed_setup(&mut speed, &mut out, generate, |g| g);

    let mut replayer = Replayer::new(cfg.trace);
    let mut exact = Exact::default();
    let (mut lat, mut rates, mut walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut per_iter = PerIter::default();
    let mut rss = PeakRss::default();
    let mut order: Vec<usize> = (0..benches.len()).collect();
    let mut order_state = cfg.seed;
    let start = Instant::now();
    let mut round = 0u64;
    while keep_going(start, cfg, out.attempted, round) {
        shuffle(&mut order, &mut order_state);
        let from = replayer.tracer.spans().len();
        let first = lat.len();
        rss.begin();
        let t = Instant::now();
        let mut trips = Vec::new();
        for (i, &j) in order.iter().enumerate() {
            let b = &benches[j];
            let op = round * PGO_BENCHES.len() as u64 + i as u64;
            let generated;
            let bench = if cfg.trace {
                generated = replayer.tracer.span("workloads.generate", op, |_| {
                    benchmark(b.name, SuiteScale::Test)
                });
                &generated
            } else {
                b
            };
            let hand = (bench.name == "imagick").then_some(&hand);
            let Some(trip) = trip(
                bench,
                hand,
                cfg.sim_seed,
                &mut replayer,
                op,
                &mut lat,
                &mut out,
            ) else {
                continue;
            };
            if let Some(h) = trip.hand_cycles {
                let tip = trip
                    .rows
                    .iter()
                    .find(|r| r.0 == ProfilerId::Tip)
                    .map_or(0, |r| r.1);
                if tip != h {
                    out.failed += 1;
                    out.error(format!(
                        "TIP-guided {} runs {tip} cycles, hand-optimized {h}",
                        bench.name
                    ));
                }
            }
            trips.push((j, trip));
        }
        let wall = t.elapsed();
        rss.end();
        // Canonical order, so the floating-point means repeat exactly.
        trips.sort_by_key(|(j, _)| *j);
        let scale = speed.next_scale();
        for l in &mut lat[first..] {
            *l *= scale;
        }
        if trips.len() == PGO_BENCHES.len() {
            let cycles: u64 = trips.iter().map(|(_, t)| t.cycles()).sum();
            rates.push(mcycles_per_s(cycles, wall) / scale);
            let n = trips.len() as f64;
            let log_speedup: f64 = trips.iter().map(|(_, t)| t.tip_speedup().ln()).sum();
            exact.check("pgo.speedup", (log_speedup / n).exp(), &mut out);
            let err: f64 = trips
                .iter()
                .map(|(j, t)| {
                    let program = &benches[*j].program;
                    t.baseline
                        .bank
                        .error_of(program, ProfilerId::Tip, Granularity::Function)
                })
                .sum();
            exact.check("tip_fn_error_pct", 100.0 * err / n, &mut out);
            let rows = || trips.iter().flat_map(|(_, t)| &t.rows);
            exact.check(
                "pgo.optimized_cycles",
                rows().map(|r| r.1 as f64).sum(),
                &mut out,
            );
            exact.check("pgo.rewrites", rows().map(|r| r.2 as f64).sum(), &mut out);
            report_counters(trips.iter().map(|(_, t)| &t.baseline), &mut exact, &mut out);
        }
        if cfg.trace {
            let tracer = &replayer.tracer;
            let baseline =
                tracer.total_ms("core.bank_run", from) + tracer.total_ms("core.finish", from);
            per_iter.push("pgo.baseline_ms", baseline * scale);
            per_iter.push_spans(
                tracer,
                from,
                scale,
                &[
                    ("workloads.generate_ms", "workloads.generate"),
                    ("core.bank_run_ms", "core.bank_run"),
                    ("core.finish_ms", "core.finish"),
                    ("pgo.pass_ms", "pgo.pass"),
                    ("pgo.equiv_ms", "pgo.equiv"),
                    ("pgo.resim_ms", "pgo.resim"),
                ],
            );
            per_iter.push(
                "traced.iteration_ms",
                (ms(wall) - tracer.total_ms("ooo.raw_run", from)) * scale,
            );
        } else {
            walls.push(ms(wall) * scale);
        }
        round += 1;
    }
    if cfg.trace {
        per_iter.report(&mut out);
        replayer.report(&mut out, speed.run_scale());
        replayer.write_trace(cfg, "pgo", &mut out);
    } else {
        rss.report(&mut out);
        out.set_median("sim_mcycles_per_s", &rates);
        note_iterations(&walls, &mut out);
        out.set_latencies(&lat);
    }
    note_speed(&speed, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_driven_loop_matches_closed_loop_program() {
        let (benches, hand) = generate();
        let imagick = benches
            .iter()
            .find(|b| b.name == "imagick")
            .expect("imagick");
        let report = tip_bench::pgo::closed_loop_program(
            "imagick",
            &imagick.program,
            SuiteScale::Test,
            &PgoConfig::default(),
            42,
        )
        .expect("imagick loop runs");
        let mut out = Outcome::default();
        let mut lat = Vec::new();
        let trip = trip(
            imagick,
            Some(&hand),
            42,
            &mut Replayer::new(false),
            0,
            &mut lat,
            &mut out,
        )
        .expect("the driven loop completes");
        assert_eq!(trip.baseline.summary.cycles, report.baseline_cycles);
        for (row, (id, cycles, rewrites)) in report.rows.iter().zip(&trip.rows) {
            assert_eq!(row.profiler, *id);
            assert_eq!(row.optimized_cycles, *cycles);
            assert_eq!(row.actions.len(), *rewrites);
        }
        assert_eq!(trip.hand_cycles, report.hand_optimized_cycles);
        assert_eq!(
            out.attempted, 9,
            "baseline, seven guides, hand-optimized run"
        );
        assert_eq!((out.failed, lat.len()), (0, 9));
    }
}
