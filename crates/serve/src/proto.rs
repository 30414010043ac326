//! The `TIPW` wire protocol: versioned, length-prefixed, CRC-32-framed
//! request/response messages over any byte stream.
//!
//! The framing deliberately mirrors the on-disk trace container from
//! [`tip_trace::framing`] — same CRC-32 (slice-by-8, via
//! [`tip_trace::framing::crc32_pair`]), same classification discipline —
//! so a damaged socket stream fails with the *same* typed errors as a
//! damaged trace file: [`TraceError::BadMagic`],
//! [`TraceError::UnsupportedVersion`], [`TraceError::Corrupt`],
//! [`TraceError::Truncated`], and [`TraceError::BadLength`]. One error
//! vocabulary for every byte stream in the system.
//!
//! # Frame layout
//!
//! ```text
//! offset  size  field
//! 0       4     magic   "TIPW"
//! 4       2     version (little-endian, exactly VERSION = 6)
//! 6       2     kind    (request/response discriminant)
//! 8       4     payload length in bytes (1 ..= MAX_PAYLOAD)
//! 12      4     CRC-32 over bytes 0..12 ++ payload
//! 16      n     payload (tip_isa::snap encoding)
//! ```
//!
//! Zero-length payloads are structurally invalid (every message encodes at
//! least one byte); a peer sending one gets [`TraceError::BadLength`],
//! which — unlike a CRC failure — leaves the stream aligned on the next
//! frame boundary, so a server can answer with a typed error *without*
//! desyncing the connection.
//!
//! # Versioning
//!
//! The protocol is frozen at one version, [`VERSION`], with one fixed
//! layout per frame kind: every field is always present and read
//! unconditionally, and a payload with bytes left over is malformed. Every
//! peer ships from this workspace, so there is no mixed-version decoding.
//! A frame carrying any other version — older or newer — is refused at the
//! frame layer with [`TraceError::UnsupportedVersion`] instead of being
//! misdecoded against the wrong layout. A layout change bumps [`VERSION`].
//!
//! Deltas are signed; the wire carries `i64` as its two's-complement `u64`
//! bits, which round-trips exactly.

use std::io::{self, Read, Write};

use tip_bench::live::DeltaEvent;
use tip_bench::run::DEFAULT_INTERVAL;
use tip_core::{BankDeltas, ProfileDelta, ProfilerId, SamplerConfig, SamplingMode};
use tip_isa::snap::{self, SnapError, SnapReader};
use tip_isa::Granularity;
use tip_trace::framing::{crc32_pair, read_exact_or_eof, ReadOutcome};
use tip_trace::TraceError;
use tip_workloads::SuiteScale;

/// Stream magic: a framed TIPW protocol exchange.
pub const MAGIC: [u8; 4] = *b"TIPW";
/// Protocol version this build emits, and the only one it decodes.
pub const VERSION: u16 = 6;
/// Frame header length: magic + version + kind + payload length + CRC.
pub const FRAME_HEADER_LEN: usize = 16;
/// Request-size cap: the largest payload a peer may declare. Far above any
/// legitimate message (the biggest is a result body), far below anything
/// that would let a hostile peer balloon the receiver's allocation.
pub const MAX_PAYLOAD: u32 = 1 << 20;

/// Everything needed to run one benchmark on the server, mirroring
/// [`tip_bench::executor::Job`] minus the resolved program (the server
/// regenerates it from the name, which is what keeps the message small and
/// the artifacts byte-identical to a local run).
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Benchmark name; must be one of [`tip_workloads::BENCHMARK_NAMES`].
    pub bench: String,
    /// Dynamic-instruction scale of the generated program.
    pub scale: SuiteScale,
    /// Base seed; attempt `k` (1-based) runs with `seed + k - 1`.
    pub seed: u64,
    /// Core preset name; empty selects the default core.
    pub core: String,
    /// Sampling schedule.
    pub sampler: SamplerConfig,
    /// Profilers attached to the run (also the result file's error lines).
    pub profilers: Vec<ProfilerId>,
    /// Attempts before the job is written off as failed (≥ 1).
    pub max_attempts: u32,
    /// Run the profile-guided-optimization loop instead of a plain
    /// profiled run (see [`tip_bench::pgo`]); the result file then reports
    /// the TIP-optimized program's run in the ordinary ledger format.
    pub pgo: bool,
}

impl JobSpec {
    /// A spec with the campaign defaults ([`tip_bench::CampaignConfig`]):
    /// seed 42, two attempts, periodic sampling at the standard interval,
    /// all paper profilers, default core. Submitting the whole suite with
    /// these defaults reproduces a default local campaign byte-for-byte.
    #[must_use]
    pub fn new(bench: &str, scale: SuiteScale) -> Self {
        JobSpec {
            bench: bench.to_owned(),
            scale,
            seed: 42,
            core: String::new(),
            sampler: SamplerConfig::periodic(DEFAULT_INTERVAL),
            profilers: ProfilerId::ALL.to_vec(),
            max_attempts: 2,
            pgo: false,
        }
    }
}

/// The observable lifecycle of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the queue with `ahead` jobs in front of it.
    Queued {
        /// Jobs queued ahead of this one.
        ahead: u32,
    },
    /// Claimed by worker `worker` and simulating.
    Running {
        /// Index of the worker running the job.
        worker: u32,
    },
    /// Settled and committed to the ledger; the result file is on disk.
    Done {
        /// Whether the job completed (vs. failed every attempt).
        ok: bool,
        /// Attempts made (0 = completed by an earlier daemon invocation).
        attempts: u32,
    },
    /// Cancelled while still queued; it never ran and left no artifacts.
    Cancelled,
}

impl JobState {
    /// Whether the job will never change state again.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobState::Done { .. } | JobState::Cancelled)
    }
}

/// A snapshot of the server's counters for the stats endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServerStats {
    /// Jobs waiting in the queue.
    pub queued: u32,
    /// Jobs currently simulating.
    pub running: u32,
    /// Jobs completed OK (including ones resumed from a previous run).
    pub done: u32,
    /// Jobs that failed every attempt.
    pub failed: u32,
    /// Jobs cancelled while queued.
    pub cancelled: u32,
    /// Worker threads in the pool.
    pub workers: u32,
    /// Live client connections (filled in by the server layer).
    pub connections: u32,
    /// Mean queue wait across settled jobs, milliseconds.
    pub mean_queue_wait_ms: f64,
    /// Fraction of worker-seconds spent simulating since startup.
    pub worker_utilization: f64,
    /// Daemon uptime, milliseconds.
    pub uptime_ms: u64,
    /// Jobs reassigned after a worker's lease expired without a heartbeat.
    pub reassigned: u32,
    /// Submits refused because the queue was past its overload watermark
    /// (filled in by the server layer).
    pub shed: u32,
    /// Daemons currently registered with the fleet coordinator (0 on a
    /// plain daemon).
    pub daemons: u32,
    /// Results discarded because they arrived under a stale assignment
    /// epoch — a resurrected daemon pushing work that was already
    /// reassigned.
    pub stale: u32,
    /// Profile-delta flushes folded into the live aggregate so far.
    pub deltas: u64,
    /// Benchmarks with live streamed state.
    pub streamed: u32,
}

impl ServerStats {
    /// Renders the stats as the text metrics block (`key=value` lines) the
    /// ISSUE's metrics endpoint serves and `tipctl stats` prints.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "queued={}\nrunning={}\ndone={}\nfailed={}\ncancelled={}\nworkers={}\n\
             connections={}\nmean_queue_wait_ms={:.1}\nworker_utilization={:.3}\nuptime_ms={}\n\
             reassigned={}\nshed={}\ndaemons={}\nstale={}\ndeltas={}\nstreamed={}\n",
            self.queued,
            self.running,
            self.done,
            self.failed,
            self.cancelled,
            self.workers,
            self.connections,
            self.mean_queue_wait_ms,
            self.worker_utilization,
            self.uptime_ms,
            self.reassigned,
            self.shed,
            self.daemons,
            self.stale,
            self.deltas,
            self.streamed,
        )
    }
}

/// What a fleet daemon sends back for one finished assignment: the
/// already-rendered artifact text (so the coordinator's ledger writes are
/// byte-identical to a local run without re-simulating) plus the host
/// metrics the `metrics.txt` row needs.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteOutcome {
    /// Whether the job completed (vs. failed every attempt).
    pub ok: bool,
    /// Attempts the daemon made before settling.
    pub attempts: u32,
    /// The rendered `<bench>.result` file body when `ok`; empty otherwise.
    pub body: String,
    /// The one-line failure message when `!ok`; empty otherwise.
    pub error_line: String,
    /// Host wall-clock the daemon spent on the job, milliseconds.
    pub wall_ms: f64,
    /// Daemon-side worker index that ran the job.
    pub worker: u32,
    /// Simulated cycles of the final attempt (0 on failure).
    pub cycles: u64,
    /// Committed instructions of the final attempt (0 on failure).
    pub instructions: u64,
    /// Instructions per cycle of the final attempt (0 on failure).
    pub ipc: f64,
}

/// One quantized profile-delta flush on the wire: the
/// [`tip_core::BankDeltas`] of one run attempt's slice, addressed to a
/// benchmark, in the sparse `(symbol, units)` form of
/// [`tip_core::ProfileDelta`]. Signed unit counts travel as their
/// two's-complement `u64` bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaFrame {
    /// Benchmark name the deltas belong to.
    pub bench: String,
    /// 1-based attempt number (a retry restarts the accumulators).
    pub attempt: u32,
    /// 1-based flush sequence within the attempt; a non-increasing value
    /// signals a restarted run whose first flush re-reports everything.
    pub seq: u64,
    /// Symbol granularity of the unit vectors (wire codes 0/1/2 for
    /// instruction/basic-block/function).
    pub granularity: Granularity,
    /// Length of the dense unit vectors the sparse entries index into.
    pub num_symbols: u32,
    /// Sparse per-profiler increments since the attempt's last flush.
    pub per_profiler: Vec<(ProfilerId, Vec<(u32, i64)>)>,
    /// Sparse Oracle increments.
    pub oracle: Vec<(u32, i64)>,
    /// Cycle-stack increments, indexed by [`tip_core::CycleCategory`].
    pub stack: Vec<i64>,
    /// Simulated cycles the flush had observed (cumulative, not a delta).
    pub cycles: u64,
}

impl DeltaFrame {
    /// Wraps one harness-side [`DeltaEvent`] for the wire.
    #[must_use]
    pub fn from_event(event: &DeltaEvent) -> Self {
        DeltaFrame {
            bench: event.bench.clone(),
            attempt: event.attempt,
            seq: event.deltas.seq,
            granularity: event.deltas.oracle.granularity(),
            num_symbols: event.deltas.oracle.num_symbols(),
            per_profiler: event
                .deltas
                .per_profiler
                .iter()
                .map(|(id, d)| (*id, d.entries().to_vec()))
                .collect(),
            oracle: event.deltas.oracle.entries().to_vec(),
            stack: event.deltas.stack.clone(),
            cycles: event.deltas.cycles,
        }
    }

    /// Rebuilds the harness-side [`DeltaEvent`] a receiver can feed into a
    /// [`tip_bench::live::LiveAggregate`]. Out-of-range symbols from a
    /// hostile peer are clamped away by
    /// [`tip_core::ProfileDelta::from_entries`], never a panic.
    #[must_use]
    pub fn into_event(self) -> DeltaEvent {
        let g = self.granularity;
        let n = self.num_symbols;
        DeltaEvent {
            bench: self.bench,
            attempt: self.attempt,
            deltas: BankDeltas {
                seq: self.seq,
                per_profiler: self
                    .per_profiler
                    .into_iter()
                    .map(|(id, entries)| (id, ProfileDelta::from_entries(g, n, entries)))
                    .collect(),
                oracle: ProfileDelta::from_entries(g, n, self.oracle),
                stack: self.stack,
                cycles: self.cycles,
            },
        }
    }
}

/// The questions the live aggregate answers over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// The heaviest symbols by aggregated units, per benchmark.
    TopN,
    /// A profiler's error-vs-Oracle trajectory over the flush history.
    ErrorTrajectory,
    /// The aggregated CPI-stack category breakdown.
    CycleStack,
}

impl QueryKind {
    fn code(self) -> u8 {
        match self {
            QueryKind::TopN => 0,
            QueryKind::ErrorTrajectory => 1,
            QueryKind::CycleStack => 2,
        }
    }

    fn from_code(c: u8) -> Result<Self, SnapError> {
        Ok(match c {
            0 => QueryKind::TopN,
            1 => QueryKind::ErrorTrajectory,
            2 => QueryKind::CycleStack,
            _ => return Err(SnapError::Malformed("unknown query kind")),
        })
    }
}

/// One row of a [`Response::QueryReply`]. The shape is deliberately
/// query-agnostic — a label plus two numbers — so new query kinds never
/// need new frame layouts:
///
/// * `TopN`: label = symbol name, `value` = aggregated units,
///   `share` = fraction of the benchmark's attributed units;
/// * `ErrorTrajectory`: label = profiler name, `value` = simulated cycles
///   at the flush, `share` = error vs. the Oracle at that point;
/// * `CycleStack`: label = cycle-category, `value` = aggregated units,
///   `share` = fraction of all attributed units.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRow {
    /// Benchmark the row belongs to.
    pub bench: String,
    /// Profiler the row was computed from (`None` = the Oracle).
    pub profiler: Option<ProfilerId>,
    /// What the row names (symbol, profiler, or category — per kind).
    pub label: String,
    /// The row's magnitude (units or cycles — per kind).
    pub value: f64,
    /// The row's relative figure (share or error — per kind).
    pub share: f64,
}

/// Why the server rejected a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request decoded but made no sense (bad field, wrong state).
    BadRequest,
    /// The submitted benchmark name is not in the suite.
    UnknownBench,
    /// The submitted core preset name is not known.
    UnknownCore,
    /// No job with that id.
    UnknownJob,
    /// The job exists but has not finished; its result is not fetchable.
    NotReady,
    /// The server is draining and accepts no new work.
    Draining,
    /// The server hit an internal error serving the request.
    Internal,
    /// The connection exceeded the server's per-connection frame-rate cap.
    RateLimited,
    /// The daemon id is not registered with this coordinator — the daemon
    /// must re-register (the coordinator restarted, or the daemon was
    /// declared dead and its registration dropped).
    UnknownDaemon,
}

impl ErrorCode {
    fn code(self) -> u8 {
        match self {
            ErrorCode::BadRequest => 0,
            ErrorCode::UnknownBench => 1,
            ErrorCode::UnknownCore => 2,
            ErrorCode::UnknownJob => 3,
            ErrorCode::NotReady => 4,
            ErrorCode::Draining => 5,
            ErrorCode::Internal => 6,
            ErrorCode::RateLimited => 7,
            ErrorCode::UnknownDaemon => 8,
        }
    }

    fn from_code(c: u8) -> Result<Self, TraceError> {
        Ok(match c {
            0 => ErrorCode::BadRequest,
            1 => ErrorCode::UnknownBench,
            2 => ErrorCode::UnknownCore,
            3 => ErrorCode::UnknownJob,
            4 => ErrorCode::NotReady,
            5 => ErrorCode::Draining,
            6 => ErrorCode::Internal,
            7 => ErrorCode::RateLimited,
            8 => ErrorCode::UnknownDaemon,
            _ => return Err(TraceError::Malformed("unknown error code")),
        })
    }
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Enqueue a job; answered with `Submitted` carrying the job id.
    Submit {
        /// The job to run.
        spec: JobSpec,
        /// Client-chosen idempotency key; `0` means "no dedup". A repeated
        /// `Submit` with the same nonzero `req_id` returns the original
        /// job id instead of enqueueing again, so a client that timed out
        /// waiting for `Submitted` can resubmit without double-running.
        req_id: u64,
    },
    /// One-shot state query for a job.
    Status {
        /// The job id from `Submitted`.
        job: u64,
    },
    /// Stream `Progress` frames until the job reaches a terminal state.
    Watch {
        /// The job id from `Submitted`.
        job: u64,
        /// First progress sequence number wanted: `0` streams the job's
        /// whole history; a reconnecting client passes its last seen
        /// `seq + 1` to resume without gaps or duplicates.
        from_seq: u64,
    },
    /// Fetch the finished job's result-file bytes.
    Result {
        /// The job id from `Submitted`.
        job: u64,
    },
    /// Cancel a still-queued job.
    Cancel {
        /// The job id from `Submitted`.
        job: u64,
    },
    /// Fetch the server's counters.
    Stats,
    /// Stop accepting work; with `drain`, finish and commit in-flight jobs
    /// before exiting so a restarted daemon can `--resume` the rest.
    Shutdown {
        /// Finish in-flight jobs before exiting.
        drain: bool,
    },
    /// A fleet daemon announces itself to the coordinator; answered with
    /// `Registered` carrying its daemon id and lease duration.
    Register {
        /// Human-readable daemon name (host, port — for logs and metrics).
        name: String,
        /// Worker threads the daemon runs, so the coordinator can size its
        /// fan-out.
        workers: u32,
    },
    /// A fleet daemon's liveness heartbeat; extends the leases of every
    /// assignment it holds. An unregistered daemon gets
    /// `Error{UnknownDaemon}` and must re-register.
    Beacon {
        /// The daemon id from `Registered`.
        daemon: u64,
    },
    /// A fleet daemon asks for work; answered with `Assignment` or
    /// `NoWork`. Polling also counts as a heartbeat.
    PollJob {
        /// The daemon id from `Registered`.
        daemon: u64,
    },
    /// A fleet daemon returns one finished assignment; answered with
    /// `ResultAck`. Pushing also counts as a heartbeat. Idempotent: a
    /// duplicate push for an already-settled task under the same epoch is
    /// acked `accepted` without committing twice.
    PushResult {
        /// The daemon id from `Registered`.
        daemon: u64,
        /// The task id from `Assignment`.
        task: u64,
        /// The assignment epoch from `Assignment`; a stale epoch means the
        /// task was reassigned while this daemon was silent, and the
        /// result is discarded.
        epoch: u64,
        /// The rendered result and host metrics.
        outcome: RemoteOutcome,
    },
    /// A running worker streams one profile-delta flush into the server's
    /// live aggregate; answered with `DeltaAck`. Purely observational:
    /// dropping these frames loses live visibility, never correctness.
    PushDelta {
        /// The daemon id from `Registered` when a fleet agent pushes on
        /// behalf of its assignment; `0` from the server's own workers or
        /// other local observers.
        daemon: u64,
        /// The flush.
        frame: DeltaFrame,
    },
    /// Ask the live aggregate a question; answered with `QueryReply`.
    Query {
        /// What to compute.
        kind: QueryKind,
        /// Restrict to one benchmark; empty means all streamed benchmarks.
        bench: String,
        /// Profiler to read (`None` = the Oracle for `TopN`/`CycleStack`,
        /// every profiler for `ErrorTrajectory`).
        profiler: Option<ProfilerId>,
        /// Row cap per benchmark (`TopN`); 0 means the server default.
        n: u32,
    },
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The job was enqueued under this id.
    Submitted {
        /// Server-assigned job id (1-based, monotonic).
        job: u64,
    },
    /// Answer to `Status`.
    Status {
        /// The queried job.
        job: u64,
        /// Its current state.
        state: JobState,
    },
    /// One frame of a `Watch` stream; the last one carries a terminal state.
    Progress {
        /// The watched job.
        job: u64,
        /// Its state at this point in the stream.
        state: JobState,
        /// Position of this frame in the job's progress history (0-based,
        /// dense). A reconnecting watcher resumes with
        /// `Watch{from_seq: seq + 1}`.
        seq: u64,
        /// Simulated cycles the job's benchmark has streamed so far (0
        /// until the first delta lands).
        cycles: u64,
    },
    /// Answer to `Result`: the bytes of the job's `<bench>.result` file.
    ResultBody {
        /// The queried job.
        job: u64,
        /// The result file contents.
        body: String,
    },
    /// Answer to `Cancel`.
    Cancelled {
        /// The job the cancel targeted.
        job: u64,
        /// Whether it was still queued and is now cancelled.
        ok: bool,
    },
    /// Answer to `Stats`.
    Stats(ServerStats),
    /// Acknowledges `Shutdown`; the server exits after this frame.
    ShuttingDown {
        /// Whether in-flight jobs are being drained first.
        drain: bool,
    },
    /// The server is at its connection limit; sent once, then the
    /// connection is closed. Typed so clients can back off instead of
    /// misreading a refusal as a protocol error.
    Busy {
        /// Connections currently being served.
        active: u32,
        /// The server's connection limit.
        limit: u32,
    },
    /// The server is shedding load: the queue is past its watermark, so
    /// new `Submit`s are refused while Status/Result/Watch still serve.
    /// Typed (with a suggested pause) so clients back off and resubmit
    /// idempotently instead of treating overload as failure.
    Overloaded {
        /// Suggested client-side pause before resubmitting, milliseconds.
        retry_after_ms: u32,
        /// Jobs currently queued (the depth that tripped the watermark).
        queued: u32,
    },
    /// The request was understood but refused.
    Error {
        /// Machine-readable reason.
        code: ErrorCode,
        /// Human-readable detail (one line).
        message: String,
    },
    /// Answer to `Register`: the coordinator accepted the daemon.
    Registered {
        /// Coordinator-assigned daemon id (1-based, monotonic — a fresh id
        /// on every registration, so a re-registered daemon never aliases
        /// its dead predecessor's leases).
        daemon: u64,
        /// Assignment lease duration; a daemon silent longer than this has
        /// its assignments reassigned. Daemons should beacon well inside
        /// it (every `lease_ms / 4`).
        lease_ms: u64,
    },
    /// Answer to `Beacon`: the heartbeat landed and the daemon is known.
    BeaconAck {
        /// Assignments the coordinator currently has leased to the daemon.
        tasks: u32,
    },
    /// Answer to `PollJob`: one leased assignment.
    Assignment {
        /// Coordinator task id; echoed back in `PushResult`.
        task: u64,
        /// Lease epoch; echoed back in `PushResult` and used to discard
        /// stale results after a reassignment.
        epoch: u64,
        /// The job to run. The daemon regenerates the program from the
        /// bench name, exactly like a local run.
        spec: JobSpec,
    },
    /// Answer to `PollJob` when nothing is assignable right now.
    NoWork {
        /// The coordinator is draining: no more work will ever come, and
        /// the daemon's agent may exit once its in-flight pushes are acked.
        draining: bool,
    },
    /// Answer to `PushResult`.
    ResultAck {
        /// Whether the result was committed (or had already been committed
        /// under this epoch). `false` means the epoch was stale and the
        /// result was discarded.
        accepted: bool,
    },
    /// Answer to `Query`: the computed rows, in the server's deterministic
    /// order (benchmarks by name; rows per the query kind's ranking).
    QueryReply {
        /// The rows; empty when nothing has streamed yet.
        rows: Vec<QueryRow>,
    },
    /// Answer to `PushDelta`.
    DeltaAck {
        /// Whether the flush was folded into the live aggregate. `false`
        /// means it was discarded (e.g. a fleet daemon pushing for a
        /// benchmark it no longer holds).
        accepted: bool,
    },
}

// Frame kinds. Requests are low, responses have the high bit set, so a
// misdirected frame fails decode instead of aliasing.
const KIND_SUBMIT: u16 = 1;
const KIND_STATUS: u16 = 2;
const KIND_WATCH: u16 = 3;
const KIND_RESULT: u16 = 4;
const KIND_CANCEL: u16 = 5;
const KIND_STATS: u16 = 6;
const KIND_SHUTDOWN: u16 = 7;
const KIND_REGISTER: u16 = 8;
const KIND_BEACON: u16 = 9;
const KIND_POLL_JOB: u16 = 10;
const KIND_PUSH_RESULT: u16 = 11;
const KIND_PUSH_DELTA: u16 = 12;
const KIND_QUERY: u16 = 13;
const KIND_R_SUBMITTED: u16 = 0x81;
const KIND_R_STATUS: u16 = 0x82;
const KIND_R_PROGRESS: u16 = 0x83;
const KIND_R_RESULT: u16 = 0x84;
const KIND_R_CANCELLED: u16 = 0x85;
const KIND_R_STATS: u16 = 0x86;
const KIND_R_SHUTDOWN: u16 = 0x87;
const KIND_R_BUSY: u16 = 0x88;
const KIND_R_ERROR: u16 = 0x89;
const KIND_R_OVERLOADED: u16 = 0x8A;
const KIND_R_REGISTERED: u16 = 0x8B;
const KIND_R_BEACON_ACK: u16 = 0x8C;
const KIND_R_ASSIGNMENT: u16 = 0x8D;
const KIND_R_NO_WORK: u16 = 0x8E;
const KIND_R_RESULT_ACK: u16 = 0x8F;
const KIND_R_QUERY_REPLY: u16 = 0x90;
const KIND_R_DELTA_ACK: u16 = 0x91;

/// Wire code for "no profiler, meaning the Oracle".
const PROFILER_NONE: u8 = 255;

fn put_opt_profiler(out: &mut Vec<u8>, p: Option<ProfilerId>) {
    snap::put_u8(out, p.map_or(PROFILER_NONE, profiler_code));
}

fn get_opt_profiler(r: &mut SnapReader<'_>) -> Result<Option<ProfilerId>, SnapError> {
    match r.u8()? {
        PROFILER_NONE => Ok(None),
        c => profiler_from_code(c).map(Some),
    }
}

/// Signed units travel as their two's-complement bits — exact both ways.
fn put_i64(out: &mut Vec<u8>, v: i64) {
    #[allow(clippy::cast_sign_loss)]
    snap::put_u64(out, v as u64);
}

fn get_i64(r: &mut SnapReader<'_>) -> Result<i64, SnapError> {
    #[allow(clippy::cast_possible_wrap)]
    Ok(r.u64()? as i64)
}

fn put_granularity(out: &mut Vec<u8>, g: Granularity) {
    snap::put_u8(
        out,
        match g {
            Granularity::Instruction => 0,
            Granularity::BasicBlock => 1,
            Granularity::Function => 2,
        },
    );
}

fn get_granularity(r: &mut SnapReader<'_>) -> Result<Granularity, SnapError> {
    Ok(match r.u8()? {
        0 => Granularity::Instruction,
        1 => Granularity::BasicBlock,
        2 => Granularity::Function,
        _ => return Err(SnapError::Malformed("unknown granularity code")),
    })
}

fn put_entries(out: &mut Vec<u8>, entries: &[(u32, i64)]) {
    snap::put_len(out, entries.len());
    for &(sym, units) in entries {
        snap::put_u32(out, sym);
        put_i64(out, units);
    }
}

fn get_entries(r: &mut SnapReader<'_>) -> Result<Vec<(u32, i64)>, SnapError> {
    let n = r.len()?;
    let mut entries = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let sym = r.u32()?;
        let units = get_i64(r)?;
        entries.push((sym, units));
    }
    Ok(entries)
}

fn encode_delta_frame(out: &mut Vec<u8>, f: &DeltaFrame) {
    put_string(out, &f.bench);
    snap::put_u32(out, f.attempt);
    snap::put_u64(out, f.seq);
    put_granularity(out, f.granularity);
    snap::put_u32(out, f.num_symbols);
    snap::put_len(out, f.per_profiler.len());
    for (p, entries) in &f.per_profiler {
        snap::put_u8(out, profiler_code(*p));
        put_entries(out, entries);
    }
    put_entries(out, &f.oracle);
    snap::put_len(out, f.stack.len());
    for &units in &f.stack {
        put_i64(out, units);
    }
    snap::put_u64(out, f.cycles);
}

fn decode_delta_frame(r: &mut SnapReader<'_>) -> Result<DeltaFrame, SnapError> {
    let bench = get_string(r)?;
    let attempt = r.u32()?;
    let seq = r.u64()?;
    let granularity = get_granularity(r)?;
    let num_symbols = r.u32()?;
    let np = r.len()?;
    let mut per_profiler = Vec::with_capacity(np.min(64));
    for _ in 0..np {
        let p = profiler_from_code(r.u8()?)?;
        per_profiler.push((p, get_entries(r)?));
    }
    let oracle = get_entries(r)?;
    let ns = r.len()?;
    let mut stack = Vec::with_capacity(ns.min(64));
    for _ in 0..ns {
        stack.push(get_i64(r)?);
    }
    let cycles = r.u64()?;
    Ok(DeltaFrame {
        bench,
        attempt,
        seq,
        granularity,
        num_symbols,
        per_profiler,
        oracle,
        stack,
        cycles,
    })
}

fn encode_query_row(out: &mut Vec<u8>, row: &QueryRow) {
    put_string(out, &row.bench);
    put_opt_profiler(out, row.profiler);
    put_string(out, &row.label);
    snap::put_f64(out, row.value);
    snap::put_f64(out, row.share);
}

fn decode_query_row(r: &mut SnapReader<'_>) -> Result<QueryRow, SnapError> {
    Ok(QueryRow {
        bench: get_string(r)?,
        profiler: get_opt_profiler(r)?,
        label: get_string(r)?,
        value: r.f64()?,
        share: r.f64()?,
    })
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    snap::put_len(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

fn get_string(r: &mut SnapReader<'_>) -> Result<String, SnapError> {
    let len = r.len()?;
    let bytes = r.bytes(len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| SnapError::Malformed("string is not UTF-8"))
}

fn put_scale(out: &mut Vec<u8>, scale: SuiteScale) {
    snap::put_u8(
        out,
        match scale {
            SuiteScale::Test => 0,
            SuiteScale::Small => 1,
            SuiteScale::Full => 2,
        },
    );
}

fn get_scale(r: &mut SnapReader<'_>) -> Result<SuiteScale, SnapError> {
    Ok(match r.u8()? {
        0 => SuiteScale::Test,
        1 => SuiteScale::Small,
        2 => SuiteScale::Full,
        _ => return Err(SnapError::Malformed("unknown suite scale")),
    })
}

fn put_sampler(out: &mut Vec<u8>, s: SamplerConfig) {
    snap::put_u64(out, s.interval);
    snap::put_u8(
        out,
        match s.mode {
            SamplingMode::Periodic => 0,
            SamplingMode::Random => 1,
        },
    );
    snap::put_u64(out, s.seed);
}

fn get_sampler(r: &mut SnapReader<'_>) -> Result<SamplerConfig, SnapError> {
    let interval = r.u64()?;
    let mode = match r.u8()? {
        0 => SamplingMode::Periodic,
        1 => SamplingMode::Random,
        _ => return Err(SnapError::Malformed("unknown sampling mode")),
    };
    let seed = r.u64()?;
    Ok(SamplerConfig {
        interval,
        mode,
        seed,
    })
}

fn profiler_code(p: ProfilerId) -> u8 {
    match p {
        ProfilerId::Software => 0,
        ProfilerId::Dispatch => 1,
        ProfilerId::Lci => 2,
        ProfilerId::Nci => 3,
        ProfilerId::NciIlp => 4,
        ProfilerId::TipIlp => 5,
        ProfilerId::Tip => 6,
        ProfilerId::TipLastCommitDrain => 7,
    }
}

fn profiler_from_code(c: u8) -> Result<ProfilerId, SnapError> {
    Ok(match c {
        0 => ProfilerId::Software,
        1 => ProfilerId::Dispatch,
        2 => ProfilerId::Lci,
        3 => ProfilerId::Nci,
        4 => ProfilerId::NciIlp,
        5 => ProfilerId::TipIlp,
        6 => ProfilerId::Tip,
        7 => ProfilerId::TipLastCommitDrain,
        _ => return Err(SnapError::Malformed("unknown profiler code")),
    })
}

fn put_job_state(out: &mut Vec<u8>, state: JobState) {
    match state {
        JobState::Queued { ahead } => {
            snap::put_u8(out, 0);
            snap::put_u32(out, ahead);
        }
        JobState::Running { worker } => {
            snap::put_u8(out, 1);
            snap::put_u32(out, worker);
        }
        JobState::Done { ok, attempts } => {
            snap::put_u8(out, 2);
            snap::put_bool(out, ok);
            snap::put_u32(out, attempts);
        }
        JobState::Cancelled => snap::put_u8(out, 3),
    }
}

fn get_job_state(r: &mut SnapReader<'_>) -> Result<JobState, SnapError> {
    Ok(match r.u8()? {
        0 => JobState::Queued { ahead: r.u32()? },
        1 => JobState::Running { worker: r.u32()? },
        2 => JobState::Done {
            ok: r.bool()?,
            attempts: r.u32()?,
        },
        3 => JobState::Cancelled,
        _ => return Err(SnapError::Malformed("unknown job state tag")),
    })
}

fn encode_spec(out: &mut Vec<u8>, spec: &JobSpec) {
    put_string(out, &spec.bench);
    put_scale(out, spec.scale);
    snap::put_u64(out, spec.seed);
    put_string(out, &spec.core);
    put_sampler(out, spec.sampler);
    snap::put_len(out, spec.profilers.len());
    for &p in &spec.profilers {
        snap::put_u8(out, profiler_code(p));
    }
    snap::put_u32(out, spec.max_attempts);
    snap::put_bool(out, spec.pgo);
}

fn decode_spec(r: &mut SnapReader<'_>) -> Result<JobSpec, SnapError> {
    let bench = get_string(r)?;
    let scale = get_scale(r)?;
    let seed = r.u64()?;
    let core = get_string(r)?;
    let sampler = get_sampler(r)?;
    let n = r.len()?;
    let mut profilers = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        profilers.push(profiler_from_code(r.u8()?)?);
    }
    Ok(JobSpec {
        bench,
        scale,
        seed,
        core,
        sampler,
        profilers,
        max_attempts: r.u32()?,
        pgo: r.bool()?,
    })
}

fn encode_outcome(out: &mut Vec<u8>, o: &RemoteOutcome) {
    snap::put_bool(out, o.ok);
    snap::put_u32(out, o.attempts);
    put_string(out, &o.body);
    put_string(out, &o.error_line);
    snap::put_f64(out, o.wall_ms);
    snap::put_u32(out, o.worker);
    snap::put_u64(out, o.cycles);
    snap::put_u64(out, o.instructions);
    snap::put_f64(out, o.ipc);
}

fn decode_outcome(r: &mut SnapReader<'_>) -> Result<RemoteOutcome, SnapError> {
    Ok(RemoteOutcome {
        ok: r.bool()?,
        attempts: r.u32()?,
        body: get_string(r)?,
        error_line: get_string(r)?,
        wall_ms: r.f64()?,
        worker: r.u32()?,
        cycles: r.u64()?,
        instructions: r.u64()?,
        ipc: r.f64()?,
    })
}

impl Request {
    /// Encodes the request as `(frame kind, payload)`.
    #[must_use]
    pub fn encode(&self) -> (u16, Vec<u8>) {
        let mut out = Vec::new();
        let kind = match self {
            Request::Submit { spec, req_id } => {
                encode_spec(&mut out, spec);
                snap::put_u64(&mut out, *req_id);
                KIND_SUBMIT
            }
            Request::Status { job } => {
                snap::put_u64(&mut out, *job);
                KIND_STATUS
            }
            Request::Watch { job, from_seq } => {
                snap::put_u64(&mut out, *job);
                snap::put_u64(&mut out, *from_seq);
                KIND_WATCH
            }
            Request::Result { job } => {
                snap::put_u64(&mut out, *job);
                KIND_RESULT
            }
            Request::Cancel { job } => {
                snap::put_u64(&mut out, *job);
                KIND_CANCEL
            }
            Request::Stats => {
                snap::put_u8(&mut out, 0);
                KIND_STATS
            }
            Request::Shutdown { drain } => {
                snap::put_bool(&mut out, *drain);
                KIND_SHUTDOWN
            }
            Request::Register { name, workers } => {
                put_string(&mut out, name);
                snap::put_u32(&mut out, *workers);
                KIND_REGISTER
            }
            Request::Beacon { daemon } => {
                snap::put_u64(&mut out, *daemon);
                KIND_BEACON
            }
            Request::PollJob { daemon } => {
                snap::put_u64(&mut out, *daemon);
                KIND_POLL_JOB
            }
            Request::PushResult {
                daemon,
                task,
                epoch,
                outcome,
            } => {
                snap::put_u64(&mut out, *daemon);
                snap::put_u64(&mut out, *task);
                snap::put_u64(&mut out, *epoch);
                encode_outcome(&mut out, outcome);
                KIND_PUSH_RESULT
            }
            Request::PushDelta { daemon, frame } => {
                snap::put_u64(&mut out, *daemon);
                encode_delta_frame(&mut out, frame);
                KIND_PUSH_DELTA
            }
            Request::Query {
                kind,
                bench,
                profiler,
                n,
            } => {
                snap::put_u8(&mut out, kind.code());
                put_string(&mut out, bench);
                put_opt_profiler(&mut out, *profiler);
                snap::put_u32(&mut out, *n);
                KIND_QUERY
            }
        };
        (kind, out)
    }

    /// Decodes a request from a frame's kind and payload.
    ///
    /// # Errors
    ///
    /// [`TraceError::Malformed`] for an unknown kind, a truncated or
    /// overlong payload, or any field outside its domain. Never panics, on
    /// any input.
    pub fn decode(kind: u16, payload: &[u8]) -> Result<Self, TraceError> {
        let mut r = SnapReader::new(payload);
        let req = match kind {
            KIND_SUBMIT => Request::Submit {
                spec: decode_spec(&mut r).map_err(snap_err)?,
                req_id: r.u64().map_err(snap_err)?,
            },
            KIND_STATUS => Request::Status {
                job: r.u64().map_err(snap_err)?,
            },
            KIND_WATCH => Request::Watch {
                job: r.u64().map_err(snap_err)?,
                from_seq: r.u64().map_err(snap_err)?,
            },
            KIND_RESULT => Request::Result {
                job: r.u64().map_err(snap_err)?,
            },
            KIND_CANCEL => Request::Cancel {
                job: r.u64().map_err(snap_err)?,
            },
            KIND_STATS => {
                let _ = r.u8().map_err(snap_err)?;
                Request::Stats
            }
            KIND_SHUTDOWN => Request::Shutdown {
                drain: r.bool().map_err(snap_err)?,
            },
            KIND_REGISTER => Request::Register {
                name: get_string(&mut r).map_err(snap_err)?,
                workers: r.u32().map_err(snap_err)?,
            },
            KIND_BEACON => Request::Beacon {
                daemon: r.u64().map_err(snap_err)?,
            },
            KIND_POLL_JOB => Request::PollJob {
                daemon: r.u64().map_err(snap_err)?,
            },
            KIND_PUSH_RESULT => Request::PushResult {
                daemon: r.u64().map_err(snap_err)?,
                task: r.u64().map_err(snap_err)?,
                epoch: r.u64().map_err(snap_err)?,
                outcome: decode_outcome(&mut r).map_err(snap_err)?,
            },
            KIND_PUSH_DELTA => Request::PushDelta {
                daemon: r.u64().map_err(snap_err)?,
                frame: decode_delta_frame(&mut r).map_err(snap_err)?,
            },
            KIND_QUERY => Request::Query {
                kind: QueryKind::from_code(r.u8().map_err(snap_err)?).map_err(snap_err)?,
                bench: get_string(&mut r).map_err(snap_err)?,
                profiler: get_opt_profiler(&mut r).map_err(snap_err)?,
                n: r.u32().map_err(snap_err)?,
            },
            _ => return Err(TraceError::Malformed("unknown request kind")),
        };
        finish(&r)?;
        Ok(req)
    }
}

impl Response {
    /// Encodes the response as `(frame kind, payload)`.
    #[must_use]
    pub fn encode(&self) -> (u16, Vec<u8>) {
        let mut out = Vec::new();
        let kind = match self {
            Response::Submitted { job } => {
                snap::put_u64(&mut out, *job);
                KIND_R_SUBMITTED
            }
            Response::Status { job, state } => {
                snap::put_u64(&mut out, *job);
                put_job_state(&mut out, *state);
                KIND_R_STATUS
            }
            Response::Progress {
                job,
                state,
                seq,
                cycles,
            } => {
                snap::put_u64(&mut out, *job);
                put_job_state(&mut out, *state);
                snap::put_u64(&mut out, *seq);
                snap::put_u64(&mut out, *cycles);
                KIND_R_PROGRESS
            }
            Response::ResultBody { job, body } => {
                snap::put_u64(&mut out, *job);
                put_string(&mut out, body);
                KIND_R_RESULT
            }
            Response::Cancelled { job, ok } => {
                snap::put_u64(&mut out, *job);
                snap::put_bool(&mut out, *ok);
                KIND_R_CANCELLED
            }
            Response::Stats(s) => {
                snap::put_u32(&mut out, s.queued);
                snap::put_u32(&mut out, s.running);
                snap::put_u32(&mut out, s.done);
                snap::put_u32(&mut out, s.failed);
                snap::put_u32(&mut out, s.cancelled);
                snap::put_u32(&mut out, s.workers);
                snap::put_u32(&mut out, s.connections);
                snap::put_f64(&mut out, s.mean_queue_wait_ms);
                snap::put_f64(&mut out, s.worker_utilization);
                snap::put_u64(&mut out, s.uptime_ms);
                snap::put_u32(&mut out, s.reassigned);
                snap::put_u32(&mut out, s.shed);
                snap::put_u32(&mut out, s.daemons);
                snap::put_u32(&mut out, s.stale);
                snap::put_u64(&mut out, s.deltas);
                snap::put_u32(&mut out, s.streamed);
                KIND_R_STATS
            }
            Response::ShuttingDown { drain } => {
                snap::put_bool(&mut out, *drain);
                KIND_R_SHUTDOWN
            }
            Response::Busy { active, limit } => {
                snap::put_u32(&mut out, *active);
                snap::put_u32(&mut out, *limit);
                KIND_R_BUSY
            }
            Response::Overloaded {
                retry_after_ms,
                queued,
            } => {
                snap::put_u32(&mut out, *retry_after_ms);
                snap::put_u32(&mut out, *queued);
                KIND_R_OVERLOADED
            }
            Response::Error { code, message } => {
                snap::put_u8(&mut out, code.code());
                put_string(&mut out, message);
                KIND_R_ERROR
            }
            Response::Registered { daemon, lease_ms } => {
                snap::put_u64(&mut out, *daemon);
                snap::put_u64(&mut out, *lease_ms);
                KIND_R_REGISTERED
            }
            Response::BeaconAck { tasks } => {
                snap::put_u32(&mut out, *tasks);
                KIND_R_BEACON_ACK
            }
            Response::Assignment { task, epoch, spec } => {
                snap::put_u64(&mut out, *task);
                snap::put_u64(&mut out, *epoch);
                encode_spec(&mut out, spec);
                KIND_R_ASSIGNMENT
            }
            Response::NoWork { draining } => {
                snap::put_bool(&mut out, *draining);
                KIND_R_NO_WORK
            }
            Response::ResultAck { accepted } => {
                snap::put_bool(&mut out, *accepted);
                KIND_R_RESULT_ACK
            }
            Response::QueryReply { rows } => {
                snap::put_len(&mut out, rows.len());
                for row in rows {
                    encode_query_row(&mut out, row);
                }
                KIND_R_QUERY_REPLY
            }
            Response::DeltaAck { accepted } => {
                snap::put_bool(&mut out, *accepted);
                KIND_R_DELTA_ACK
            }
        };
        (kind, out)
    }

    /// Decodes a response from a frame's kind and payload.
    ///
    /// # Errors
    ///
    /// [`TraceError::Malformed`] for an unknown kind, a truncated or
    /// overlong payload, or any field outside its domain. Never panics, on
    /// any input.
    pub fn decode(kind: u16, payload: &[u8]) -> Result<Self, TraceError> {
        let mut r = SnapReader::new(payload);
        let resp = match kind {
            KIND_R_SUBMITTED => Response::Submitted {
                job: r.u64().map_err(snap_err)?,
            },
            KIND_R_STATUS => Response::Status {
                job: r.u64().map_err(snap_err)?,
                state: get_job_state(&mut r).map_err(snap_err)?,
            },
            KIND_R_PROGRESS => Response::Progress {
                job: r.u64().map_err(snap_err)?,
                state: get_job_state(&mut r).map_err(snap_err)?,
                seq: r.u64().map_err(snap_err)?,
                cycles: r.u64().map_err(snap_err)?,
            },
            KIND_R_RESULT => Response::ResultBody {
                job: r.u64().map_err(snap_err)?,
                body: get_string(&mut r).map_err(snap_err)?,
            },
            KIND_R_CANCELLED => Response::Cancelled {
                job: r.u64().map_err(snap_err)?,
                ok: r.bool().map_err(snap_err)?,
            },
            KIND_R_STATS => Response::Stats(ServerStats {
                queued: r.u32().map_err(snap_err)?,
                running: r.u32().map_err(snap_err)?,
                done: r.u32().map_err(snap_err)?,
                failed: r.u32().map_err(snap_err)?,
                cancelled: r.u32().map_err(snap_err)?,
                workers: r.u32().map_err(snap_err)?,
                connections: r.u32().map_err(snap_err)?,
                mean_queue_wait_ms: r.f64().map_err(snap_err)?,
                worker_utilization: r.f64().map_err(snap_err)?,
                uptime_ms: r.u64().map_err(snap_err)?,
                reassigned: r.u32().map_err(snap_err)?,
                shed: r.u32().map_err(snap_err)?,
                daemons: r.u32().map_err(snap_err)?,
                stale: r.u32().map_err(snap_err)?,
                deltas: r.u64().map_err(snap_err)?,
                streamed: r.u32().map_err(snap_err)?,
            }),
            KIND_R_SHUTDOWN => Response::ShuttingDown {
                drain: r.bool().map_err(snap_err)?,
            },
            KIND_R_BUSY => Response::Busy {
                active: r.u32().map_err(snap_err)?,
                limit: r.u32().map_err(snap_err)?,
            },
            KIND_R_OVERLOADED => Response::Overloaded {
                retry_after_ms: r.u32().map_err(snap_err)?,
                queued: r.u32().map_err(snap_err)?,
            },
            KIND_R_ERROR => Response::Error {
                code: ErrorCode::from_code(r.u8().map_err(snap_err)?)?,
                message: get_string(&mut r).map_err(snap_err)?,
            },
            KIND_R_REGISTERED => Response::Registered {
                daemon: r.u64().map_err(snap_err)?,
                lease_ms: r.u64().map_err(snap_err)?,
            },
            KIND_R_BEACON_ACK => Response::BeaconAck {
                tasks: r.u32().map_err(snap_err)?,
            },
            KIND_R_ASSIGNMENT => Response::Assignment {
                task: r.u64().map_err(snap_err)?,
                epoch: r.u64().map_err(snap_err)?,
                spec: decode_spec(&mut r).map_err(snap_err)?,
            },
            KIND_R_NO_WORK => Response::NoWork {
                draining: r.bool().map_err(snap_err)?,
            },
            KIND_R_RESULT_ACK => Response::ResultAck {
                accepted: r.bool().map_err(snap_err)?,
            },
            KIND_R_QUERY_REPLY => {
                let n = r.len().map_err(snap_err)?;
                let mut rows = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    rows.push(decode_query_row(&mut r).map_err(snap_err)?);
                }
                Response::QueryReply { rows }
            }
            KIND_R_DELTA_ACK => Response::DeltaAck {
                accepted: r.bool().map_err(snap_err)?,
            },
            _ => return Err(TraceError::Malformed("unknown response kind")),
        };
        finish(&r)?;
        Ok(resp)
    }
}

fn snap_err(e: SnapError) -> TraceError {
    match e {
        SnapError::UnexpectedEof => TraceError::Malformed("payload ends mid-field"),
        SnapError::Malformed(what) => TraceError::Malformed(what),
    }
}

fn finish(r: &SnapReader<'_>) -> Result<(), TraceError> {
    if r.is_empty() {
        Ok(())
    } else {
        Err(TraceError::Malformed("trailing bytes after message"))
    }
}

/// Writes one frame: header (magic, version, kind, length, CRC) + payload.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
///
/// # Panics
///
/// If `payload` is empty or longer than [`MAX_PAYLOAD`] — protocol
/// encoders never produce either, so this is a caller bug, not wire input.
pub fn write_frame(w: &mut impl Write, kind: u16, payload: &[u8]) -> io::Result<()> {
    assert!(
        !payload.is_empty() && payload.len() <= MAX_PAYLOAD as usize,
        "frame payload must be 1..={MAX_PAYLOAD} bytes, got {}",
        payload.len()
    );
    let mut header = [0u8; FRAME_HEADER_LEN];
    header[0..4].copy_from_slice(&MAGIC);
    header[4..6].copy_from_slice(&VERSION.to_le_bytes());
    header[6..8].copy_from_slice(&kind.to_le_bytes());
    #[allow(clippy::cast_possible_truncation)]
    let len = payload.len() as u32;
    header[8..12].copy_from_slice(&len.to_le_bytes());
    let crc = crc32_pair(&header[..12], payload);
    header[12..16].copy_from_slice(&crc.to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)
}

/// Reads one frame. `Ok(None)` is a clean end-of-stream (the peer closed
/// between frames); everything else is either a frame or a classified
/// protocol error.
///
/// # Errors
///
/// * [`TraceError::BadMagic`] — the stream is not TIPW.
/// * [`TraceError::UnsupportedVersion`] — TIPW of any version but
///   [`VERSION`], older or newer.
/// * [`TraceError::BadLength`] — declared payload length 0 or over
///   [`MAX_PAYLOAD`]; the stream is still aligned after the header.
/// * [`TraceError::Corrupt`] — CRC mismatch over header + payload.
/// * [`TraceError::Truncated`] — the peer died mid-frame.
/// * [`TraceError::Io`] — transport failure (including read timeouts).
pub fn read_frame(r: &mut impl Read) -> Result<Option<(u16, Vec<u8>)>, TraceError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    match read_exact_or_eof(r, &mut header).map_err(TraceError::Io)? {
        ReadOutcome::Full => {}
        ReadOutcome::CleanEof => return Ok(None),
        ReadOutcome::Truncated => {
            return Err(TraceError::Truncated {
                last_good_cycle: None,
            })
        }
    }
    if header[0..4] != MAGIC {
        let mut m = [0u8; 4];
        m.copy_from_slice(&header[0..4]);
        return Err(TraceError::BadMagic(m));
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != VERSION {
        return Err(TraceError::UnsupportedVersion(version));
    }
    let kind = u16::from_le_bytes([header[6], header[7]]);
    let len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    if len == 0 || len > MAX_PAYLOAD {
        return Err(TraceError::BadLength {
            len,
            cap: MAX_PAYLOAD,
        });
    }
    let crc = u32::from_le_bytes([header[12], header[13], header[14], header[15]]);
    let mut payload = vec![0u8; len as usize];
    match read_exact_or_eof(r, &mut payload).map_err(TraceError::Io)? {
        ReadOutcome::Full => {}
        ReadOutcome::CleanEof | ReadOutcome::Truncated => {
            return Err(TraceError::Truncated {
                last_good_cycle: None,
            })
        }
    }
    if crc32_pair(&header[..12], &payload) != crc {
        return Err(TraceError::Corrupt { offset: 0 });
    }
    Ok(Some((kind, payload)))
}

/// Writes one encoded [`Request`].
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_request(w: &mut impl Write, req: &Request) -> io::Result<()> {
    let (kind, payload) = req.encode();
    write_frame(w, kind, &payload)
}

/// Writes one encoded [`Response`].
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_response(w: &mut impl Write, resp: &Response) -> io::Result<()> {
    let (kind, payload) = resp.encode();
    write_frame(w, kind, &payload)
}

/// Reads and decodes one [`Request`]; `Ok(None)` is clean end-of-stream.
///
/// # Errors
///
/// Everything [`read_frame`] raises, plus [`TraceError::Malformed`] for an
/// undecodable payload.
pub fn read_request(r: &mut impl Read) -> Result<Option<Request>, TraceError> {
    match read_frame(r)? {
        None => Ok(None),
        Some((kind, payload)) => Request::decode(kind, &payload).map(Some),
    }
}

/// Reads and decodes one [`Response`]; `Ok(None)` is clean end-of-stream.
///
/// # Errors
///
/// Everything [`read_frame`] raises, plus [`TraceError::Malformed`] for an
/// undecodable payload.
pub fn read_response(r: &mut impl Read) -> Result<Option<Response>, TraceError> {
    match read_frame(r)? {
        None => Ok(None),
        Some((kind, payload)) => Response::decode(kind, &payload).map(Some),
    }
}
