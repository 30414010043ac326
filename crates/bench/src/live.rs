//! Live in-memory aggregation of streaming profile deltas.
//!
//! Runners flush [`tip_core::BankDeltas`] at slice boundaries (see
//! [`crate::run::run_profiled_sliced`]);
//! each flush is wrapped in a [`DeltaEvent`] and pushed through a
//! [`DeltaSink`] into a shared [`LiveAggregate`]. The aggregate merges the
//! integer-unit deltas per benchmark and per profiler, so at any moment a
//! [`LiveView`] snapshot answers "where is the time going *so far*" — for a
//! campaign still in flight, across any worker count.
//!
//! Streaming is **pure observation**: the sink sees copies of quantized
//! increments, never the samples themselves, so the final artifacts
//! (`journal.txt`, `*.result`, profiles) are byte-identical with streaming
//! on or off. Correctness of the merge rests on the telescoping property of
//! [`tip_core::ProfileDelta`]: the sum of a run's slice deltas equals its
//! whole-run quantized profile exactly, regardless of merge order.
//!
//! Crash/retry semantics: a bank's flush sequence restarts at 1 on a fresh
//! attempt or a checkpoint restore, and the first flush after a restore
//! re-reports the full cumulative units. The aggregate therefore treats a
//! non-increasing sequence number, or a changed attempt, as "this run
//! started over" and resets the benchmark's slot — no double counting.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use tip_core::{BankDeltas, ProfilerId, NUM_CATEGORIES, UNITS_PER_CYCLE};
use tip_isa::Granularity;

/// One flush from one run attempt, addressed to the aggregate.
#[derive(Debug, Clone)]
pub struct DeltaEvent {
    /// Benchmark name the deltas belong to.
    pub bench: String,
    /// 1-based attempt number (a retry restarts the accumulators).
    pub attempt: u32,
    /// The bank's per-profiler quantized increments since its last flush.
    pub deltas: BankDeltas,
}

/// A cloneable handle delivering [`DeltaEvent`]s to whoever wants to watch.
///
/// The default ([`DeltaSink::noop`]) is disconnected: emitting costs one
/// branch, so non-streaming paths pay nothing for the plumbing. Clones share
/// the same receiver.
#[derive(Clone, Default)]
pub struct DeltaSink {
    inner: Option<Arc<dyn Fn(DeltaEvent) + Send + Sync>>,
}

impl DeltaSink {
    /// A disconnected sink: events are dropped.
    #[must_use]
    pub fn noop() -> Self {
        DeltaSink::default()
    }

    /// A live sink delivering every event to `f`.
    pub fn new(f: impl Fn(DeltaEvent) + Send + Sync + 'static) -> Self {
        DeltaSink {
            inner: Some(Arc::new(f)),
        }
    }

    /// Whether events go anywhere (runners skip flushing entirely when not).
    #[must_use]
    pub fn is_live(&self) -> bool {
        self.inner.is_some()
    }

    /// Delivers one event (dropped on a disconnected sink).
    pub fn emit(&self, event: DeltaEvent) {
        if let Some(f) = &self.inner {
            f(event);
        }
    }
}

impl fmt::Debug for DeltaSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeltaSink")
            .field("live", &self.is_live())
            .finish()
    }
}

/// Running aggregate for one benchmark.
#[derive(Debug, Clone)]
struct Slot {
    attempt: u32,
    last_seq: u64,
    /// `Some(ok)` once the campaign committed the benchmark's outcome.
    settled: Option<bool>,
    granularity: Granularity,
    num_symbols: u32,
    /// Dense merged units per profiler, `UNITS_PER_CYCLE` units per cycle.
    per_profiler: BTreeMap<ProfilerId, Vec<i64>>,
    oracle: Vec<i64>,
    stack: Vec<i64>,
    cycles: u64,
    flushes: u64,
    /// Per-flush history of `(cycles, per-profiler error vs. the Oracle)`,
    /// recorded after each flush is folded in — the raw material for
    /// error-trajectory queries ("is this profiler converging?").
    trajectory: Vec<(u64, Vec<(ProfilerId, f64)>)>,
}

impl Slot {
    fn fresh(event: &DeltaEvent) -> Self {
        Slot {
            attempt: event.attempt,
            last_seq: 0,
            settled: None,
            granularity: event.deltas.oracle.granularity(),
            num_symbols: event.deltas.oracle.num_symbols(),
            per_profiler: BTreeMap::new(),
            oracle: vec![0; event.deltas.oracle.num_symbols() as usize],
            stack: vec![0; NUM_CATEGORIES],
            cycles: 0,
            flushes: 0,
            trajectory: Vec::new(),
        }
    }

    fn apply(&mut self, event: &DeltaEvent) {
        self.last_seq = event.deltas.seq;
        self.cycles = event.deltas.cycles;
        self.flushes += 1;
        let n = self.num_symbols as usize;
        for (id, delta) in &event.deltas.per_profiler {
            let dense = self.per_profiler.entry(*id).or_insert_with(|| vec![0; n]);
            for &(sym, units) in delta.entries() {
                if let Some(slot) = dense.get_mut(sym as usize) {
                    *slot += units;
                }
            }
        }
        for &(sym, units) in event.deltas.oracle.entries() {
            if let Some(slot) = self.oracle.get_mut(sym as usize) {
                *slot += units;
            }
        }
        for (acc, &d) in self.stack.iter_mut().zip(&event.deltas.stack) {
            *acc += d;
        }
        let errors: Vec<(ProfilerId, f64)> = self
            .per_profiler
            .iter()
            .filter_map(|(id, units)| half_l1(units, &self.oracle).map(|e| (*id, e)))
            .collect();
        self.trajectory.push((self.cycles, errors));
    }
}

/// Half the L1 distance between two normalized positive unit vectors — the
/// paper's profile-error metric. `None` until both sides have positive
/// totals.
fn half_l1(units: &[i64], oracle: &[i64]) -> Option<f64> {
    let pt: i64 = units.iter().filter(|&&u| u > 0).sum();
    let ot: i64 = oracle.iter().filter(|&&u| u > 0).sum();
    if pt <= 0 || ot <= 0 {
        return None;
    }
    let l1: f64 = units
        .iter()
        .zip(oracle)
        .map(|(&p, &o)| (p.max(0) as f64 / pt as f64 - o.max(0) as f64 / ot as f64).abs())
        .sum();
    Some(l1 / 2.0)
}

/// Thread-safe, campaign-wide streaming aggregate.
///
/// Workers (local threads, engine workers, fleet agents via the
/// coordinator) push [`DeltaEvent`]s concurrently; readers take cheap
/// [`LiveView`] snapshots. Both sides go through one mutex — events are a
/// few dozen entries each, so contention is negligible next to simulation.
#[derive(Debug, Default)]
pub struct LiveAggregate {
    inner: Mutex<BTreeMap<String, Slot>>,
}

impl LiveAggregate {
    /// An empty aggregate.
    #[must_use]
    pub fn new() -> Self {
        LiveAggregate::default()
    }

    /// Folds one flush in, resetting the benchmark's slot when the event
    /// signals a restarted run (new attempt, or a sequence that did not
    /// advance — both mean "the first flush re-reported everything").
    pub fn ingest(&self, event: &DeltaEvent) {
        let mut inner = self.inner.lock().expect("aggregate lock");
        let slot = inner
            .entry(event.bench.clone())
            .or_insert_with(|| Slot::fresh(event));
        if event.attempt != slot.attempt || event.deltas.seq <= slot.last_seq {
            *slot = Slot::fresh(event);
        }
        slot.apply(event);
    }

    /// A sink feeding this aggregate; hand it to the executor or a runner.
    #[must_use]
    pub fn sink(self: &Arc<Self>) -> DeltaSink {
        let agg = Arc::clone(self);
        DeltaSink::new(move |event| agg.ingest(&event))
    }

    /// Records the committed outcome of a benchmark (shown by live views to
    /// distinguish in-flight from settled work). A benchmark that failed
    /// without ever flushing gets no slot and stays invisible — the failure
    /// report owns that story.
    pub fn mark_settled(&self, bench: &str, ok: bool) {
        let mut inner = self.inner.lock().expect("aggregate lock");
        if let Some(slot) = inner.get_mut(bench) {
            slot.settled = Some(ok);
        }
    }

    /// A point-in-time snapshot of everything aggregated so far.
    #[must_use]
    pub fn view(&self) -> LiveView {
        let inner = self.inner.lock().expect("aggregate lock");
        LiveView {
            benches: inner
                .iter()
                .map(|(name, slot)| BenchView {
                    bench: name.clone(),
                    attempt: slot.attempt,
                    settled: slot.settled,
                    flushes: slot.flushes,
                    cycles: slot.cycles,
                    granularity: slot.granularity,
                    num_symbols: slot.num_symbols,
                    per_profiler: slot
                        .per_profiler
                        .iter()
                        .map(|(id, units)| (*id, units.clone()))
                        .collect(),
                    oracle: slot.oracle.clone(),
                    stack: slot.stack.clone(),
                    trajectory: slot.trajectory.clone(),
                })
                .collect(),
        }
    }
}

/// Immutable snapshot of a [`LiveAggregate`] (benches in name order).
#[derive(Debug, Clone, Default)]
pub struct LiveView {
    /// Per-benchmark aggregates, sorted by benchmark name.
    pub benches: Vec<BenchView>,
}

impl LiveView {
    /// The snapshot for one benchmark, if it has flushed anything yet.
    #[must_use]
    pub fn bench(&self, name: &str) -> Option<&BenchView> {
        self.benches.iter().find(|b| b.bench == name)
    }

    /// Total simulated cycles observed across all benchmarks so far.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.benches.iter().map(|b| b.cycles).sum()
    }

    /// Total flushes folded in across all benchmarks.
    #[must_use]
    pub fn total_flushes(&self) -> u64 {
        self.benches.iter().map(|b| b.flushes).sum()
    }

    /// Campaign-wide cycle stack: the per-category unit sums over every
    /// benchmark (same quantization as the per-bench stacks).
    #[must_use]
    pub fn stack(&self) -> Vec<i64> {
        let mut total = vec![0i64; NUM_CATEGORIES];
        for b in &self.benches {
            for (acc, &u) in total.iter_mut().zip(&b.stack) {
                *acc += u;
            }
        }
        total
    }
}

/// One benchmark's aggregated streaming state.
#[derive(Debug, Clone)]
pub struct BenchView {
    /// Benchmark name.
    pub bench: String,
    /// Attempt the units belong to.
    pub attempt: u32,
    /// `Some(ok)` once the campaign committed the benchmark.
    pub settled: Option<bool>,
    /// Flushes folded in so far.
    pub flushes: u64,
    /// Simulated cycles the latest flush had observed.
    pub cycles: u64,
    /// Symbol granularity of the unit vectors.
    pub granularity: Granularity,
    /// Length of the unit vectors.
    pub num_symbols: u32,
    /// Merged units per profiler (dense, `UNITS_PER_CYCLE` per cycle).
    pub per_profiler: Vec<(ProfilerId, Vec<i64>)>,
    /// Merged Oracle units.
    pub oracle: Vec<i64>,
    /// Merged cycle-stack units, indexed by [`tip_core::CycleCategory`].
    pub stack: Vec<i64>,
    /// Per-flush `(cycles, per-profiler error vs. the Oracle)` history.
    pub trajectory: Vec<(u64, Vec<(ProfilerId, f64)>)>,
}

impl BenchView {
    /// The merged units for `profiler` (`None` = the Oracle).
    #[must_use]
    pub fn units(&self, profiler: Option<ProfilerId>) -> Option<&[i64]> {
        match profiler {
            None => Some(&self.oracle),
            Some(id) => self
                .per_profiler
                .iter()
                .find(|(p, _)| *p == id)
                .map(|(_, u)| u.as_slice()),
        }
    }

    /// The top `n` symbols by aggregated units for `profiler` (`None` = the
    /// Oracle): `(symbol, units, share)` with a deterministic order — units
    /// descending, then symbol id ascending — matching the tie-break rule
    /// of [`tip_core::Profile::ranked`].
    #[must_use]
    pub fn top_n(&self, profiler: Option<ProfilerId>, n: usize) -> Vec<(u32, i64, f64)> {
        let Some(units) = self.units(profiler) else {
            return Vec::new();
        };
        let total: i64 = units.iter().filter(|&&u| u > 0).sum();
        let mut rows: Vec<(u32, i64)> = units
            .iter()
            .enumerate()
            .filter(|(_, &u)| u > 0)
            .map(|(i, &u)| (i as u32, u))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        rows.truncate(n);
        rows.into_iter()
            .map(|(sym, u)| {
                let share = if total > 0 {
                    u as f64 / total as f64
                } else {
                    0.0
                };
                (sym, u, share)
            })
            .collect()
    }

    /// The profiler's current error against the Oracle aggregate: half the
    /// L1 distance between the normalized unit vectors — the paper's metric
    /// computed over the streamed state. `None` until both sides have
    /// positive totals.
    #[must_use]
    pub fn error_vs_oracle(&self, profiler: ProfilerId) -> Option<f64> {
        half_l1(self.units(Some(profiler))?, &self.oracle)
    }

    /// The profiler's error-vs-Oracle trajectory over the flush history:
    /// `(cycles, error)` pairs in flush order, skipping flushes where either
    /// side had no positive units yet.
    #[must_use]
    pub fn error_trajectory(&self, profiler: ProfilerId) -> Vec<(u64, f64)> {
        self.trajectory
            .iter()
            .filter_map(|(cycles, errors)| {
                errors
                    .iter()
                    .find(|(p, _)| *p == profiler)
                    .map(|(_, e)| (*cycles, *e))
            })
            .collect()
    }

    /// Simulated cycles attributed so far, recovered from the stack units.
    #[must_use]
    pub fn attributed_cycles(&self) -> f64 {
        self.stack.iter().sum::<i64>() as f64 / UNITS_PER_CYCLE as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tip_core::ProfileDelta;

    fn event(bench: &str, attempt: u32, seq: u64, cycles: u64, units: &[(u32, i64)]) -> DeltaEvent {
        let delta = ProfileDelta::from_entries(Granularity::Function, 8, units.iter().copied());
        DeltaEvent {
            bench: bench.to_owned(),
            attempt,
            deltas: BankDeltas {
                seq,
                per_profiler: vec![(ProfilerId::Tip, delta.clone())],
                oracle: delta,
                stack: vec![seq as i64; NUM_CATEGORIES],
                cycles,
            },
        }
    }

    #[test]
    fn ingest_merges_and_view_ranks_deterministically() {
        let agg = Arc::new(LiveAggregate::new());
        let sink = agg.sink();
        assert!(sink.is_live());
        sink.emit(event("mcf", 1, 1, 100, &[(0, 840), (3, 1_680)]));
        sink.emit(event("mcf", 1, 2, 250, &[(3, -840), (5, 1_680)]));

        let view = agg.view();
        let b = view.bench("mcf").expect("slot exists");
        assert_eq!(b.cycles, 250);
        assert_eq!(b.flushes, 2);
        // 0: 840, 3: 840, 5: 1680 — ties broken by symbol id.
        assert_eq!(
            b.top_n(Some(ProfilerId::Tip), 10),
            vec![(5, 1_680, 0.5), (0, 840, 0.25), (3, 840, 0.25)]
        );
        assert_eq!(b.units(Some(ProfilerId::Nci)), None);
        // Identical distributions → zero error against the Oracle.
        assert!(b.error_vs_oracle(ProfilerId::Tip).expect("both sides live") < 1e-12);
        let traj = b.error_trajectory(ProfilerId::Tip);
        assert_eq!(traj.len(), 2);
        assert_eq!((traj[0].0, traj[1].0), (100, 250));
        assert!(traj.iter().all(|&(_, e)| e < 1e-12));
        assert_eq!(view.total_cycles(), 250);
        assert_eq!(view.stack(), vec![3i64; NUM_CATEGORIES]);
    }

    #[test]
    fn restarted_attempts_and_replayed_sequences_reset_the_slot() {
        let agg = LiveAggregate::new();
        agg.ingest(&event("lbm", 1, 1, 100, &[(1, 840)]));
        agg.ingest(&event("lbm", 1, 2, 200, &[(1, 840)]));
        // A retry (new attempt) starts over — the failed attempt's units go.
        agg.ingest(&event("lbm", 2, 1, 50, &[(2, 840)]));
        let b = agg.view();
        let b = b.bench("lbm").expect("slot");
        assert_eq!(b.attempt, 2);
        assert_eq!(b.top_n(None, 10), vec![(2, 840, 1.0)]);

        // A restored checkpoint restarts seq at 1 and re-reports everything:
        // the stale aggregate must be dropped, not doubled.
        agg.ingest(&event("lbm", 2, 1, 60, &[(2, 1_680)]));
        let view = agg.view();
        let b = view.bench("lbm").expect("slot");
        assert_eq!(b.flushes, 1);
        assert_eq!(b.top_n(None, 10), vec![(2, 1_680, 1.0)]);
    }

    #[test]
    fn settled_marks_show_up_in_views_and_noop_sink_drops() {
        let agg = Arc::new(LiveAggregate::new());
        agg.ingest(&event("gcc", 1, 1, 10, &[(0, 840)]));
        agg.mark_settled("gcc", true);
        agg.mark_settled("never-flushed", false);
        let view = agg.view();
        assert_eq!(view.bench("gcc").expect("slot").settled, Some(true));
        assert!(view.bench("never-flushed").is_none());

        let noop = DeltaSink::noop();
        assert!(!noop.is_live());
        noop.emit(event("gcc", 1, 2, 20, &[(0, 840)]));
        assert_eq!(agg.view().bench("gcc").expect("slot").flushes, 1);
    }
}
