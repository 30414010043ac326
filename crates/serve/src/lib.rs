//! Networked profiling service for the TIP reproduction.
//!
//! TIP's overhead argument (§3.2: ~1% runtime, hundreds of KB/s of
//! samples) is an argument for profiling *as a service* — and related
//! systems like CAPSim frame fast simulation as a shared backend serving
//! many clients. This crate is that layer for the reproduction: a
//! long-lived `tipd` daemon that accepts profiling jobs over TCP, fans
//! them out through `tip-bench`'s executor machinery, and streams results
//! back to the `tipctl` client.
//!
//! The modules, strictly layered:
//!
//! * [`proto`] — the `TIPW` wire protocol: versioned, length-prefixed,
//!   CRC-32-framed messages sharing `tip-trace`'s framing primitives and
//!   error vocabulary ([`tip_trace::TraceError`] classifies socket damage
//!   exactly like trace-file damage).
//! * [`fleet`] — the one job state machine. A [`Coordinator`] owns a
//!   single queue, a lease/epoch phase machine, a lease reaper, and one
//!   in-order committer through [`tip_bench::ledger::Ledger`]. Two kinds
//!   of agent drain that queue through the same claim and settle code:
//!   the daemon's own worker threads (in-process, daemon 0) and remote
//!   daemons that `Register`/`PollJob`/`PushResult` over the wire
//!   ([`run_agent`], what `tipd --join` runs). Same job sequence ⇒
//!   byte-identical artifacts whichever agent ran which job, including
//!   across a kill-and-resume of any process.
//! * [`server`]/[`client`] — `std::net` TCP + `std::thread` only: bounded
//!   acceptor, thread-per-connection, per-connection timeouts, typed
//!   `Busy`/`Overloaded` backpressure; the client retries with capped,
//!   seeded-jitter backoff, resubmits idempotently, and resumes watch
//!   streams across connection drops. Every `tipd` answers fleet frames;
//!   one with zero workers is a pure coordinator.
//! * [`chaosnet`] — a seeded fault-injecting TCP proxy speaking
//!   `tip-trace`'s [`tip_trace::fault::FaultPlan`] vocabulary at the wire:
//!   drop/delay/corrupt/split chunks, mid-stream disconnect, half-close.
//!   The harness that proves the other layers' fault story — on the
//!   client↔daemon hop and the coordinator↔daemon hop alike.
//!
//! The service also *streams*: local and remote agents
//! flush quantized [`tip_bench::live`] profile deltas (remote ones as
//! `PushDelta` frames) into the coordinator's
//! [`tip_bench::LiveAggregate`], fenced by the assignment they hold, and
//! `Query{TopN, ErrorTrajectory, CycleStack}` frames answer live
//! questions mid-campaign (`tipctl top --live`, `tipctl watch`).
//! Streaming is pure observation — final artifacts stay byte-identical
//! with it on or off, at any worker count or fleet fan-out.
//!
//! The fault-tolerance contract across all of it: any *single* fault —
//! a corrupted frame, a dropped connection, a hung or panicking worker, a
//! SIGKILLed daemon or fleet member, a partitioned coordinator↔daemon
//! link, a shed submit — leaves the campaign artifacts byte-identical to
//! an uninterrupted local run, and never runs a settled job twice
//! (per-assignment leases with epoch fencing, request-id
//! dedup for resubmission, journal-driven resume across restarts of
//! daemon and coordinator alike).
//!
//! Everything is offline-friendly: no async runtime, no external
//! dependencies, just the standard library over the existing crates.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaosnet;
pub mod client;
pub mod fleet;
pub mod proto;
pub mod server;

pub use chaosnet::{chaos_proxy, ChaosConfig, ChaosHandle, ChaosStats, DirStats};
pub use client::{Client, ClientError};
pub use fleet::{
    run_agent, AgentConfig, Coordinator, CoordinatorConfig, PollReply, SubmitError,
    DEFAULT_FLEET_LEASE, DEFAULT_LEASE,
};
pub use proto::{
    DeltaFrame, ErrorCode, JobSpec, JobState, QueryKind, QueryRow, RemoteOutcome, Request,
    Response, ServerStats,
};
pub use server::{serve, serve_with_runner, ServerConfig, ServerHandle};
