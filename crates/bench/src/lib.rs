//! Experiment harness for the TIP reproduction.
//!
//! One module per concern: [`run`] executes a benchmark under the full
//! profiler bank through one slice loop ([`run_profiled_sliced`]) that
//! beats the lease heartbeat, streams profile deltas, and checkpoints at
//! its slice boundaries, [`table`] renders the paper-style text tables,
//! [`experiments`] implements the data collection behind every figure and
//! table of the paper (each `src/bin/figNN.rs` binary is a thin wrapper),
//! [`checkpoint`] owns the `TIPS` snapshot files and crash-safe resume,
//! [`executor`] turns a sweep into explicit [`Job`](executor::Job) specs
//! fanned out over worker threads with a deterministic merge, and
//! [`campaign`] adds the fault-tolerant sweep layer on top (per-benchmark
//! panic isolation, bounded reseeded retries, crash-consistent incremental
//! persistence, and journal-driven resume), [`ledger`] owns the byte-stable
//! on-disk artifact formats that campaign and the `tip-serve` daemon share,
//! [`live`] aggregates streaming profile deltas into an in-memory view a
//! campaign can be queried through *while it runs*, and [`hostbench`]
//! measures host throughput (simulated cycles per host-second) over a fixed
//! matrix so each PR extends a reproducible perf trajectory
//! (`BENCH_PR4.json`). [`pgo`] closes the paper's Section 6 loop: it runs
//! the `tip-pgo` rewrite pass guided by every profiler's profile of the same
//! run and reports the speedup each guide's view of the program bought
//! (`tip-pgo` binary, `BENCH_PR10.json`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod checkpoint;
pub mod executor;
pub mod experiments;
pub mod hostbench;
pub mod ledger;
pub mod live;
pub mod pgo;
pub mod run;
pub mod table;

pub use campaign::{run_suite_campaign, CampaignCli, CampaignConfig, CampaignOutcome};
pub use checkpoint::{load_checkpoint, save_checkpoint, CheckpointSpec, LoadedCheckpoint};
pub use executor::{
    default_workers, execute, run_job, ExecSummary, Heartbeat, Job, JobMetrics, JobOutcome, RunCtx,
    Runner, SpecRunner,
};
pub use hostbench::{run_hostbench, HostBenchOptions, HostBenchReport, ScalingReport};
pub use ledger::Ledger;
pub use live::{BenchView, DeltaEvent, DeltaSink, LiveAggregate, LiveView};
pub use pgo::{closed_loop, closed_loop_program, PgoLoopError, PgoReport, PgoRow};
pub use run::{
    run_profiled, run_profiled_sliced, ProfiledRun, RunError, DEFAULT_INTERVAL,
    DEFAULT_STREAM_CYCLES,
};
