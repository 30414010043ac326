//! The job coordinator: one queue, one lease/epoch phase machine, and one
//! in-order committer, served by two kinds of agent.
//!
//! # Shape
//!
//! The [`Coordinator`] owns the job queue, the campaign [`Ledger`], the
//! per-assignment leases, and the commit order. Agents claim assignments,
//! simulate, render the result-file bytes on the spot
//! ([`tip_bench::ledger::render_completed`] /
//! [`tip_bench::ledger::render_failed`]), and settle them:
//!
//! * **Local agents** — the `workers` threads of this process, daemon 0.
//!   They claim through the same code as [`Coordinator::poll_job`] but
//!   sleep on the coordinator's condvar, so a submit wakes one at once.
//! * **Remote agents** — daemons that dial in over TIPW
//!   ([`crate::proto::Request::Register`] /
//!   [`crate::proto::Request::PollJob`] /
//!   [`crate::proto::Request::PushResult`]); [`run_agent`] is what
//!   `tipd --join` runs.
//!
//! The committer writes every settled body verbatim through
//! [`Ledger::commit_rendered`] in submission order, so `journal.txt`, every
//! `<bench>.result`, and `failures.txt` are byte-identical to a local
//! [`tip_bench::campaign`] run at any (daemon × worker) fan-out, whichever
//! agent ran which job.
//!
//! # Leases, epochs, and the reaper
//!
//! Every assignment carries a lease and a [`Heartbeat`]. A local worker
//! ticks it at every attempt boundary ([`run_job`]) and every simulated
//! slice ([`tip_bench::run::run_profiled_sliced`]); any frame
//! from a remote daemon (beacon, poll, push, delta) ticks every assignment
//! it holds. The reaper extends a lease whose heartbeat advanced and
//! requeues one that stayed silent past its deadline under a bumped
//! **epoch**: whatever the presumed-dead holder returns later is stale and
//! discarded, and so are its delta flushes. Exactly one assignment's result
//! ever reaches the ledger; a committed job is terminal and never requeued.
//!
//! # Failure domains
//!
//! * **Worker or daemon death / partition** — the lease expires and the job
//!   is reassigned, ahead of the FIFO queue. A daemon silent for
//!   `DEREGISTER_LEASES` leases loses its registration; its next call
//!   gets [`ErrorCode::UnknownDaemon`] and it re-registers. Daemon 0 is
//!   never registered, so a wire frame claiming it is refused the same way.
//! * **Coordinator death** — the ledger is crash-consistent (atomic
//!   renames, journal rewritten per commit). A restarted coordinator with
//!   `resume` skips the journalled prefix exactly like a local resumed
//!   campaign; daemons holding pre-crash assignments re-register, and
//!   their stale pushes are discarded.
//! * **Overload** — the server layer sheds `Submit`s past the queue
//!   watermark ([`Coordinator::queue_depth`]).
//! * **Drain** — fresh FIFO work stops (`PollJob` answers
//!   `NoWork{draining:true}` and agents exit), reassignments still go out
//!   so survivors fill holes, in-flight results still commit, and the
//!   journal then covers a clean prefix for resume.
//!
//! # Progress history and idempotent submission
//!
//! Every externally visible state transition of a job is appended to a
//! per-job history with a dense sequence number, so a `Watch{from_seq}`
//! that reconnects resumes without gaps or duplicates. A submit may carry
//! a nonzero request id; a repeat returns the original job id instead of
//! enqueueing a second copy.

use std::collections::{HashMap, HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use crate::client::{Client, ClientError};
use crate::proto::{DeltaFrame, ErrorCode, JobSpec, JobState, RemoteOutcome, ServerStats};
use tip_bench::campaign::{CompletedBench, FailedBench};
use tip_bench::executor::{run_job, ExecSummary, Heartbeat, Job, JobMetrics, Runner, SpecRunner};
use tip_bench::experiments::SuiteRun;
use tip_bench::ledger::{one_line, render_completed, render_failed, result_path, Ledger};
use tip_bench::live::{DeltaEvent, DeltaSink, LiveAggregate};
use tip_bench::run::MAX_CYCLES;
use tip_isa::{Granularity, SymbolId};
use tip_ooo::CoreConfig;
use tip_workloads::{benchmark, BENCHMARK_NAMES};

/// Default assignment lease with local workers. A local worker beats once
/// per simulated slice, so the lease only has to outlive one slice on a
/// loaded host (and a pgo job's unsliced rewrite and equivalence check);
/// it stays long so a genuinely wedged worker is reaped within operational
/// patience without ever tripping on a slow one.
pub const DEFAULT_LEASE: Duration = Duration::from_secs(300);

/// Default lease for a pure coordinator (`tipd --coordinator`): a remote
/// daemon beacons at `lease / 4` from a dedicated thread regardless of how
/// long its simulations run, so the lease only has to outlive network
/// jitter, not a benchmark attempt.
pub const DEFAULT_FLEET_LEASE: Duration = Duration::from_secs(10);

/// How many leases of total silence before a daemon's *registration* is
/// dropped (its assignments were already requeued after one lease); a
/// dropped daemon's next call gets `UnknownDaemon` and it re-registers.
const DEREGISTER_LEASES: u32 = 4;

/// How the coordinator runs.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Campaign directory: journal, result files, failure report, metrics.
    pub out_dir: PathBuf,
    /// In-process worker agents (daemon 0). 0 makes a pure coordinator
    /// whose jobs run only on daemons that join it.
    pub workers: usize,
    /// Skip benchmarks the directory's journal already records as done.
    pub resume: bool,
    /// Assignment lease: an assignment whose heartbeat stays silent this
    /// long is requeued under a bumped epoch.
    pub lease: Duration,
    /// Live streaming aggregate the agents' delta flushes are folded into;
    /// `None` creates a private one. Streaming is observational either way
    /// — artifacts are byte-identical with any choice here.
    pub live: Option<Arc<LiveAggregate>>,
}

impl CoordinatorConfig {
    /// A config with production defaults: 1 local worker, fresh (no
    /// resume), [`DEFAULT_LEASE`].
    #[must_use]
    pub fn new(out_dir: PathBuf) -> Self {
        CoordinatorConfig {
            out_dir,
            workers: 1,
            resume: false,
            lease: DEFAULT_LEASE,
            live: None,
        }
    }
}

/// Why a submit was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The benchmark name is not in [`BENCHMARK_NAMES`].
    UnknownBench(String),
    /// The core preset name is not known.
    UnknownCore(String),
    /// The coordinator is draining and accepts no new work.
    Draining,
}

/// One registered remote daemon.
#[derive(Debug)]
struct DaemonInfo {
    /// Self-reported name (host:port or free text), for metrics and logs.
    #[allow(dead_code)]
    name: String,
    /// Worker threads the daemon runs (sizes the stats `workers` figure).
    workers: u32,
    /// Last time any frame arrived from this daemon.
    last_seen: Instant,
    /// Whether a poll has been answered `NoWork{draining: true}` — the
    /// daemon knows to exit, so a graceful shutdown may close the
    /// listener without stranding it.
    told_draining: bool,
}

/// What a fleet poll handed out.
#[derive(Debug, Clone, PartialEq)]
pub enum PollReply {
    /// One leased assignment.
    Assignment {
        /// Task id (echoed back in the push).
        task: u64,
        /// Lease epoch (echoed back in the push).
        epoch: u64,
        /// The job to run.
        spec: JobSpec,
    },
    /// Nothing assignable; `draining` means nothing ever will be again.
    NoWork {
        /// The coordinator is draining.
        draining: bool,
    },
}

/// Internal lifecycle of one queue entry.
#[derive(Debug)]
enum Phase {
    /// Waiting for an agent (or, if the resume journal already covers it,
    /// for the committer to acknowledge the skip).
    Queued {
        skip: bool,
    },
    /// Leased to `daemon` (0 = the in-process pool). `worker` is what
    /// `JobState::Running` reports: the pool thread index for daemon 0,
    /// the daemon id otherwise.
    Assigned {
        daemon: u64,
        worker: u32,
    },
    /// Result received from `daemon`; parked for the committer.
    Settled {
        daemon: u64,
    },
    /// Committed to the ledger; result file on disk.
    Done {
        ok: bool,
        attempts: u32,
    },
    Cancelled,
}

/// A running assignment's liveness record.
#[derive(Debug)]
struct Lease {
    /// When the assignment is declared dead unless the heartbeat advances.
    deadline: Instant,
    /// Ticked by the holder: at attempt boundaries by a local worker, on
    /// every frame by a remote daemon.
    beacon: Heartbeat,
    /// Beats observed at the last reaper scan.
    beats_seen: u64,
}

struct Entry {
    spec: JobSpec,
    /// The benchmark's canonical `&'static str` name (validated at submit).
    name: &'static str,
    phase: Phase,
    enqueued: Instant,
    /// Queue wait of the latest assignment.
    queue_wait: Duration,
    outcome: Option<RemoteOutcome>,
    /// Bumped on every reassignment; a result under a stale epoch is
    /// discarded.
    epoch: u64,
    /// Times the job was assigned (lands in `metrics.txt` as
    /// `assignments=`).
    assignments: u32,
    /// The current assignment's lease, while `Assigned`.
    lease: Option<Lease>,
    /// Every externally visible state, in order; the index is the `Watch`
    /// stream's sequence number.
    history: Vec<JobState>,
}

#[derive(Default)]
struct State {
    entries: Vec<Entry>,
    next_assign: usize,
    /// Reassigned tasks, handed out before the FIFO prefix.
    requeued: VecDeque<usize>,
    next_commit: usize,
    draining: bool,
    shutdown: bool,
    /// Registered remote daemons (never daemon 0).
    daemons: HashMap<u64, DaemonInfo>,
    next_daemon: u64,
    /// Bench names the resume journal covers plus names settled in this
    /// run — a resubmitted suite skips exactly what a resumed local
    /// campaign would.
    done_names: HashSet<String>,
    /// Idempotent-submit dedup: request id → job id.
    dedup: HashMap<u64, u64>,
    busy: Duration,
    wait_sum: Duration,
    settled: u32,
    done: u32,
    failed: u32,
    cancelled: u32,
    reassigned: u32,
    stale_results: u32,
    /// A daemon was reaped without ever being told the queue is
    /// draining — it may be partitioned rather than dead, so a graceful
    /// drain waits a full deregistration cutoff for it to re-register.
    reaped_untold: bool,
}

impl State {
    fn count(&self, pred: impl Fn(&Phase) -> bool) -> usize {
        self.entries.iter().filter(|e| pred(&e.phase)).count()
    }

    fn queued_count(&self) -> usize {
        self.count(|p| matches!(p, Phase::Queued { .. }))
    }

    fn assigned_count(&self) -> usize {
        self.count(|p| matches!(p, Phase::Assigned { .. }))
    }

    /// The next entry to hand an agent: a reassigned task first (also
    /// while draining, so survivors fill holes left by dead agents), else
    /// the FIFO head unless draining. Entries that never need an agent —
    /// cancelled ones, resume-skips the committer acknowledges — are
    /// passed over.
    fn claim(&mut self) -> Option<usize> {
        if let Some(index) = self.requeued.pop_front() {
            return Some(index);
        }
        while self.next_assign < self.entries.len()
            && !matches!(
                self.entries[self.next_assign].phase,
                Phase::Queued { skip: false }
            )
        {
            self.next_assign += 1;
        }
        if self.next_assign == self.entries.len() || self.draining {
            return None;
        }
        self.next_assign += 1;
        Some(self.next_assign - 1)
    }

    /// Leases entry `index` to `daemon`; returns the assignment's epoch and
    /// the heartbeat its holder ticks.
    fn assign(
        &mut self,
        index: usize,
        daemon: u64,
        worker: u32,
        lease: Duration,
    ) -> (u64, Heartbeat) {
        let beacon = Heartbeat::live();
        let entry = &mut self.entries[index];
        entry.phase = Phase::Assigned { daemon, worker };
        entry.assignments += 1;
        entry.queue_wait = entry.enqueued.elapsed();
        entry.lease = Some(Lease {
            deadline: Instant::now() + lease,
            beacon: beacon.clone(),
            beats_seen: 0,
        });
        entry.history.push(JobState::Running { worker });
        (entry.epoch, beacon)
    }

    /// Parks `daemon`'s result for entry `index` under `epoch`; the answer
    /// is [`Coordinator::push_result`]'s.
    fn settle(&mut self, daemon: u64, index: usize, epoch: u64, outcome: RemoteOutcome) -> bool {
        let entry = &mut self.entries[index];
        if entry.epoch == epoch {
            match entry.phase {
                Phase::Assigned { .. } => {
                    entry.outcome = Some(outcome);
                    entry.phase = Phase::Settled { daemon };
                    entry.lease = None;
                    return true;
                }
                Phase::Settled { .. } | Phase::Done { .. } => return true,
                _ => {}
            }
        }
        self.stale_results += 1;
        false
    }

    /// Declares entry `index`'s assignment dead: the epoch bump makes
    /// whatever its holder returns stale.
    fn expire(&mut self, index: usize) {
        let entry = &mut self.entries[index];
        entry.epoch += 1;
        entry.phase = Phase::Queued { skip: false };
        entry.lease = None;
        entry.history.push(JobState::Queued { ahead: 0 });
    }

    fn job_index(&self, job: u64) -> Option<usize> {
        let index = usize::try_from(job.checked_sub(1)?).ok()?;
        (index < self.entries.len()).then_some(index)
    }

    /// Marks contact from a remote daemon: refreshes its registration and
    /// ticks every lease it holds; returns how many that is.
    fn touch(&mut self, daemon: u64) -> Result<u32, ErrorCode> {
        let info = self
            .daemons
            .get_mut(&daemon)
            .ok_or(ErrorCode::UnknownDaemon)?;
        info.last_seen = Instant::now();
        let mut tasks = 0;
        for entry in &self.entries {
            if let (Phase::Assigned { daemon: d, .. }, Some(lease)) = (&entry.phase, &entry.lease) {
                if *d == daemon {
                    lease.beacon.tick();
                    tasks += 1;
                }
            }
        }
        Ok(tasks)
    }
}

struct Inner {
    state: Mutex<State>,
    /// Local workers, the committer, the reaper, and watchers sleep here
    /// for any state change.
    changed: Condvar,
    /// In-process worker agents.
    workers: usize,
    lease: Duration,
    started: Instant,
    out_dir: PathBuf,
    /// The streaming aggregate every agent's delta flushes land in.
    live: Arc<LiveAggregate>,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("coordinator lock")
    }

    /// Local plus remote worker threads.
    fn total_workers(&self, state: &State) -> usize {
        self.workers
            + state
                .daemons
                .values()
                .map(|d| d.workers as usize)
                .sum::<usize>()
    }
}

/// The shared job coordinator. Cheap to clone; all clones drive one queue.
#[derive(Clone)]
pub struct Coordinator {
    inner: Arc<Inner>,
    threads: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
}

impl Coordinator {
    /// Starts the coordinator with the production [`SpecRunner`].
    #[must_use]
    pub fn start(config: &CoordinatorConfig) -> Coordinator {
        Coordinator::start_with_runner(config, SpecRunner)
    }

    /// Opens the ledger (resuming the settled prefix if asked) and starts
    /// `config.workers` local agents running `runner` (tests inject faults
    /// the same way the chaos campaign does), the committer, and the lease
    /// reaper.
    #[must_use]
    pub fn start_with_runner<R>(config: &CoordinatorConfig, runner: R) -> Coordinator
    where
        R: Runner + Send + Clone + 'static,
    {
        let ledger = Ledger::open(Some(&config.out_dir), config.resume);
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                next_daemon: 1,
                done_names: ledger.done_names().into_iter().collect(),
                ..State::default()
            }),
            changed: Condvar::new(),
            workers: config.workers,
            lease: config.lease.max(Duration::from_millis(1)),
            started: Instant::now(),
            out_dir: config.out_dir.clone(),
            live: config.live.clone().unwrap_or_default(),
        });
        let mut threads = Vec::with_capacity(config.workers + 2);
        for worker in 0..config.workers {
            let (inner, runner) = (Arc::clone(&inner), runner.clone());
            threads.push(thread::spawn(move || {
                local_worker_loop(&inner, worker as u32, &runner);
            }));
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(thread::spawn(move || committer_loop(&inner, ledger)));
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(thread::spawn(move || reaper_loop(&inner)));
        }
        Coordinator {
            inner,
            threads: Arc::new(Mutex::new(threads)),
        }
    }

    /// Registers a remote daemon, returning its fresh id (never 0) and the
    /// lease duration in milliseconds. Every registration gets a new id — a
    /// restarted daemon never aliases its dead predecessor's leases.
    pub fn register(&self, name: &str, workers: u32) -> (u64, u64) {
        let mut state = self.inner.lock();
        let id = state.next_daemon;
        state.next_daemon += 1;
        state.daemons.insert(
            id,
            DaemonInfo {
                name: name.to_owned(),
                workers: workers.max(1),
                last_seen: Instant::now(),
                told_draining: false,
            },
        );
        drop(state);
        self.inner.changed.notify_all();
        (id, self.inner.lease.as_millis() as u64)
    }

    /// A daemon's heartbeat: ticks the leases of every assignment it holds
    /// and returns how many that is.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownDaemon`] if the id is not registered (the
    /// coordinator restarted or dropped the daemon as dead) — the daemon
    /// must re-register.
    pub fn beacon(&self, daemon: u64) -> Result<u32, ErrorCode> {
        self.inner.lock().touch(daemon)
    }

    /// Hands the daemon one leased assignment, or `NoWork`. Polling also
    /// counts as a heartbeat.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownDaemon`] — see [`Coordinator::beacon`].
    pub fn poll_job(&self, daemon: u64) -> Result<PollReply, ErrorCode> {
        let mut state = self.inner.lock();
        state.touch(daemon)?;
        let Some(index) = state.claim() else {
            let draining = state.draining;
            if draining {
                if let Some(info) = state.daemons.get_mut(&daemon) {
                    info.told_draining = true;
                }
                drop(state);
                self.inner.changed.notify_all();
            }
            return Ok(PollReply::NoWork { draining });
        };
        let (epoch, _) = state.assign(index, daemon, daemon as u32, self.inner.lease);
        let spec = state.entries[index].spec.clone();
        drop(state);
        self.inner.changed.notify_all();
        Ok(PollReply::Assignment {
            task: index as u64 + 1,
            epoch,
            spec,
        })
    }

    /// Accepts one pushed result. Returns whether it was (or already had
    /// been) accepted under this epoch; `false` means the epoch was stale
    /// — the task was reassigned while the daemon was silent — or the task
    /// is unknown, and the result was discarded. A duplicate push under
    /// the live epoch (a retried push whose ack got lost) is acked `true`
    /// without committing twice.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownDaemon`] — see [`Coordinator::beacon`].
    pub fn push_result(
        &self,
        daemon: u64,
        task: u64,
        epoch: u64,
        outcome: RemoteOutcome,
    ) -> Result<bool, ErrorCode> {
        let mut state = self.inner.lock();
        state.touch(daemon)?;
        let Some(index) = state.job_index(task) else {
            return Ok(false);
        };
        let accepted = state.settle(daemon, index, epoch, outcome);
        drop(state);
        self.inner.changed.notify_all();
        Ok(accepted)
    }

    /// Folds one daemon-pushed delta flush into the live aggregate.
    /// Counts as a heartbeat (streaming *is* liveness). Returns whether
    /// the flush was accepted: a daemon pushing for a benchmark it does
    /// not currently hold — its lease expired and the job was reassigned —
    /// is refused, so a resurrected daemon cannot pollute the fresh
    /// assignment's slot. Purely observational either way.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownDaemon`] — see [`Coordinator::beacon`].
    pub fn accept_delta(&self, daemon: u64, event: &DeltaEvent) -> Result<bool, ErrorCode> {
        let mut state = self.inner.lock();
        state.touch(daemon)?;
        let holds = state.entries.iter().any(|e| {
            e.name == event.bench
                && matches!(e.phase, Phase::Assigned { daemon: d, .. } if d == daemon)
        });
        drop(state);
        if holds {
            self.inner.live.ingest(event);
        }
        Ok(holds)
    }

    /// The coordinator's live streaming aggregate.
    #[must_use]
    pub fn live(&self) -> Arc<LiveAggregate> {
        Arc::clone(&self.inner.live)
    }

    /// Human-readable names for `syms` of `bench` at granularity `g`, or
    /// `None` until a job for that benchmark has been submitted. Programs
    /// are regenerated per call — callers should cache.
    #[must_use]
    pub fn symbol_names(&self, bench: &str, g: Granularity, syms: &[u32]) -> Option<Vec<String>> {
        let (name, scale) = {
            let state = self.inner.lock();
            let entry = state.entries.iter().find(|e| e.name == bench)?;
            (entry.name, entry.spec.scale)
        };
        let program = benchmark(name, scale).program;
        let n = program.num_symbols(g) as u32;
        Some(
            syms.iter()
                .map(|&s| {
                    if s < n {
                        program.symbol_name(g, SymbolId(s))
                    } else {
                        format!("sym{s}")
                    }
                })
                .collect(),
        )
    }

    /// Enqueues a job, returning its 1-based id. A benchmark the resume
    /// journal (or this run) already settled is acknowledged as done
    /// without re-running — its artifacts are already on disk.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] for an unknown benchmark or core preset, or when
    /// the coordinator is draining.
    pub fn submit(&self, spec: &JobSpec) -> Result<u64, SubmitError> {
        self.submit_deduped(spec, 0)
    }

    /// [`Coordinator::submit`] with an idempotency key: a repeated submit
    /// carrying the same nonzero `req_id` returns the originally assigned
    /// job id. The program itself is *not* generated here: agents
    /// regenerate it from the bench name, which keeps assignments small
    /// and artifacts byte-identical.
    ///
    /// # Errors
    ///
    /// As [`Coordinator::submit`].
    pub fn submit_deduped(&self, spec: &JobSpec, req_id: u64) -> Result<u64, SubmitError> {
        let Some(&name) = BENCHMARK_NAMES.iter().find(|&&n| n == spec.bench) else {
            return Err(SubmitError::UnknownBench(spec.bench.clone()));
        };
        resolve_core(&spec.core)?;
        let mut state = self.inner.lock();
        if req_id != 0 {
            if let Some(&id) = state.dedup.get(&req_id) {
                return Ok(id);
            }
        }
        if state.draining {
            return Err(SubmitError::Draining);
        }
        let skip = state.done_names.contains(name);
        let ahead = state.queued_count() as u32;
        state.entries.push(Entry {
            spec: spec.clone(),
            name,
            phase: Phase::Queued { skip },
            enqueued: Instant::now(),
            queue_wait: Duration::ZERO,
            outcome: None,
            epoch: 0,
            assignments: 0,
            lease: None,
            history: vec![JobState::Queued { ahead }],
        });
        let id = state.entries.len() as u64;
        if req_id != 0 {
            state.dedup.insert(req_id, id);
        }
        drop(state);
        self.inner.changed.notify_all();
        Ok(id)
    }

    /// The benchmark name a job runs, for live-view lookups. `None` for an
    /// unknown id.
    #[must_use]
    pub fn bench_of(&self, job: u64) -> Option<String> {
        let state = self.inner.lock();
        let index = state.job_index(job)?;
        Some(state.entries[index].name.to_owned())
    }

    /// The job's current externally visible state, or `None` for an
    /// unknown id.
    #[must_use]
    pub fn status(&self, job: u64) -> Option<JobState> {
        let state = self.inner.lock();
        let index = state.job_index(job)?;
        Some(match state.entries[index].phase {
            Phase::Queued { .. } => JobState::Queued {
                ahead: state.entries[state.next_assign.min(index)..index]
                    .iter()
                    .filter(|e| matches!(e.phase, Phase::Queued { .. }))
                    .count() as u32,
            },
            Phase::Assigned { worker, .. } => JobState::Running { worker },
            // Settled-but-uncommitted reports as still running: `Done`
            // must imply the result file is on disk.
            Phase::Settled { .. } => JobState::Running { worker: 0 },
            Phase::Done { ok, attempts } => JobState::Done { ok, attempts },
            Phase::Cancelled => JobState::Cancelled,
        })
    }

    /// Blocks until the job's history grows past `from_seq` (or the
    /// timeout elapses, returning whatever is there — possibly empty).
    /// `None` for an unknown id.
    #[must_use]
    pub fn wait_history(
        &self,
        job: u64,
        from_seq: u64,
        timeout: Duration,
    ) -> Option<Vec<(u64, JobState)>> {
        let deadline = Instant::now() + timeout;
        let mut state = self.inner.lock();
        let index = state.job_index(job)?;
        let start = usize::try_from(from_seq).unwrap_or(usize::MAX);
        loop {
            let tail: Vec<(u64, JobState)> = state.entries[index]
                .history
                .iter()
                .enumerate()
                .skip(start)
                .map(|(i, &s)| (i as u64, s))
                .collect();
            let left = deadline.saturating_duration_since(Instant::now());
            if !tail.is_empty() || left.is_zero() {
                return Some(tail);
            }
            state = self
                .inner
                .changed
                .wait_timeout(state, left)
                .expect("coordinator lock")
                .0;
        }
    }

    /// Jobs waiting in the queue — the server's load-shedding figure.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.inner.lock().queued_count()
    }

    /// Cancels a still-queued job. Returns `false` if the job is unknown,
    /// already assigned at least once (a requeued job counts: its old
    /// holder may still be finishing it), a resume-skip, or settled.
    #[must_use]
    pub fn cancel(&self, job: u64) -> bool {
        let mut state = self.inner.lock();
        let Some(index) = state.job_index(job) else {
            return false;
        };
        if index < state.next_assign
            || !matches!(state.entries[index].phase, Phase::Queued { skip: false })
        {
            return false;
        }
        state.entries[index].phase = Phase::Cancelled;
        state.entries[index].history.push(JobState::Cancelled);
        state.cancelled += 1;
        drop(state);
        // The committer may be parked waiting for exactly this index.
        self.inner.changed.notify_all();
        true
    }

    /// Reads a finished job's result file back.
    ///
    /// # Errors
    ///
    /// A one-line reason when the job is unknown, not finished, cancelled,
    /// or its file cannot be read.
    pub fn result(&self, job: u64) -> Result<String, String> {
        let bench = {
            let state = self.inner.lock();
            let Some(index) = state.job_index(job) else {
                return Err(format!("unknown job {job}"));
            };
            match state.entries[index].phase {
                Phase::Done { .. } => state.entries[index].name,
                Phase::Cancelled => return Err(format!("job {job} was cancelled")),
                _ => return Err(format!("job {job} has not finished")),
            }
        };
        std::fs::read_to_string(result_path(&self.inner.out_dir, bench))
            .map_err(|e| format!("result file unreadable: {e}"))
    }

    /// A snapshot of the coordinator's counters (`connections`, `shed`,
    /// `deltas` and `streamed` are left 0 for the server layer).
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        let state = self.inner.lock();
        let workers = self.inner.total_workers(&state) as u32;
        let uptime = self.inner.started.elapsed();
        let worker_seconds = uptime.as_secs_f64() * f64::from(workers.max(1));
        ServerStats {
            queued: state.queued_count() as u32,
            running: state.assigned_count() as u32,
            done: state.done,
            failed: state.failed,
            cancelled: state.cancelled,
            workers,
            connections: 0,
            mean_queue_wait_ms: if state.settled > 0 {
                state.wait_sum.as_secs_f64() * 1e3 / f64::from(state.settled)
            } else {
                0.0
            },
            worker_utilization: if worker_seconds > 0.0 {
                (state.busy.as_secs_f64() / worker_seconds).min(1.0)
            } else {
                0.0
            },
            uptime_ms: uptime.as_millis() as u64,
            reassigned: state.reassigned,
            shed: 0,
            daemons: state.daemons.len() as u32,
            stale: state.stale_results,
            deltas: 0,
            streamed: 0,
        }
    }

    /// Results discarded because their assignment's lease had expired
    /// (test observability).
    #[must_use]
    pub fn stale_results(&self) -> u32 {
        self.inner.lock().stale_results
    }

    /// Stops handing out fresh work; reassignments still go out so
    /// surviving agents can fill holes, and in-flight results still
    /// commit. Queued jobs stay queued (and unjournaled) — a restarted
    /// daemon re-runs them.
    pub fn drain(&self) {
        self.inner.lock().draining = true;
        self.inner.changed.notify_all();
    }

    /// Blocks until every registered daemon has been answered with a
    /// draining `NoWork` — or has lapsed and been reaped — so a graceful
    /// shutdown can close the listener without stranding agents: they
    /// dial per request, and a listener that vanishes before the drain
    /// broadcast leaves them spinning out their give-up window. The local
    /// pool is never waited for here; it has no listener to lose.
    ///
    /// Sending the notice is not the same as the agent decoding it: a
    /// chaotic link can corrupt the one reply that carried it, and the
    /// agent's retry must still find the listener up. A told agent that
    /// got the notice exits and goes silent; one that missed it keeps
    /// dialing. So beyond `told_draining`, every registered daemon must
    /// also have been *quiet* for a settle window (longer than the
    /// client's retry backoff) before the wait releases.
    ///
    /// If any daemon was ever reaped *without* hearing the notice, it may
    /// be partitioned rather than dead (a chaotic link can silence an
    /// agent past the deregistration cutoff), so the wait holds for the
    /// full window regardless — a live agent re-registers well within it,
    /// gets its `NoWork{draining}`, and exits clean. Bounded either way:
    /// one deregistration cutoff (plus a settle window) past the call, a
    /// daemon that never contacted again is exactly a dead one.
    pub fn wait_agents_released(&self) {
        let cutoff = self.inner.lease * (DEREGISTER_LEASES + 1);
        let settle = self
            .inner
            .lease
            .clamp(Duration::from_secs(1), Duration::from_secs(2));
        let start = Instant::now();
        let deadline = start + cutoff;
        let hard_cap = deadline + settle;
        let mut state = self.inner.lock();
        loop {
            let now = Instant::now();
            if now >= hard_cap {
                return;
            }
            let all_told = state.daemons.values().all(|d| d.told_draining);
            let quiet = state
                .daemons
                .values()
                .all(|d| now.duration_since(d.last_seen) >= settle);
            if all_told && quiet && (!state.reaped_untold || now >= deadline) {
                return;
            }
            let wait = (hard_cap - now).min(Duration::from_millis(50));
            state = self
                .inner
                .changed
                .wait_timeout(state, wait)
                .expect("coordinator lock")
                .0;
        }
    }

    /// Shuts down and joins every thread, writing the final `metrics.txt`.
    /// With `drain`, waits for in-flight assignments to settle (bounded by
    /// the lease: a dead daemon's assignment expires and is abandoned).
    /// Without, remote assignments are force-expired so anything pushed
    /// afterwards is discarded as stale; the local pool's always finish —
    /// its workers are threads of this process, abandoning them buys
    /// nothing. Idempotent.
    pub fn shutdown(&self, drain: bool) {
        {
            let mut state = self.inner.lock();
            state.draining = true;
            state.shutdown = true;
            if !drain {
                for index in 0..state.entries.len() {
                    if matches!(state.entries[index].phase, Phase::Assigned { daemon, .. } if daemon != 0)
                    {
                        state.expire(index);
                    }
                }
            }
        }
        self.inner.changed.notify_all();
        let threads = std::mem::take(&mut *self.threads.lock().expect("coordinator threads"));
        for t in threads {
            let _ = t.join();
        }
    }
}

fn resolve_core(preset: &str) -> Result<CoreConfig, SubmitError> {
    match preset {
        "" | "default" | "boom-4w" => Ok(CoreConfig::default()),
        other => Err(SubmitError::UnknownCore(other.to_owned())),
    }
}

/// A local agent (daemon 0): claims like [`Coordinator::poll_job`] but
/// sleeps on the coordinator's condvar, runs the assignment with the
/// injected runner, and settles like [`Coordinator::push_result`]. Exits
/// once a drain leaves nothing to claim. A thread that dies mid-job (a
/// panic escaping attempt isolation) stops ticking its heartbeat, so the
/// reaper hands its job to a surviving agent.
fn local_worker_loop<R: Runner>(inner: &Arc<Inner>, worker: u32, runner: &R) {
    loop {
        let (index, epoch, beacon, spec) = {
            let mut state = inner.lock();
            let index = loop {
                if let Some(index) = state.claim() {
                    break index;
                }
                if state.draining {
                    return;
                }
                state = inner.changed.wait(state).expect("coordinator lock");
            };
            let (epoch, beacon) = state.assign(index, 0, worker, inner.lease);
            (index, epoch, beacon, state.entries[index].spec.clone())
        };
        inner.changed.notify_all();
        // Delta flushes are fenced by the assignment epoch: a straggler the
        // reaper already declared dead must not pollute the fresh
        // assignment's live slot (its result is discarded by `settle`).
        let sink = {
            let inner = Arc::clone(inner);
            DeltaSink::new(move |event| {
                if inner.lock().entries[index].epoch == epoch {
                    inner.live.ingest(&event);
                }
            })
        };
        let task = index as u64 + 1;
        let outcome = run_assignment(&spec, worker as usize, task, runner, &beacon, &sink);
        inner.lock().settle(0, index, epoch, outcome);
        inner.changed.notify_all();
    }
}

/// The lease reaper: extends leases whose heartbeat advanced, requeues
/// assignments that stayed silent past their deadline under a bumped
/// epoch, and drops registrations silent for [`DEREGISTER_LEASES`] leases.
fn reaper_loop(inner: &Inner) {
    let interval = (inner.lease / 4).clamp(Duration::from_millis(5), Duration::from_secs(1));
    let mut state = inner.lock();
    loop {
        if state.shutdown && state.assigned_count() == 0 {
            return;
        }
        let now = Instant::now();
        let mut requeued_any = false;
        for index in 0..state.entries.len() {
            let Some(lease) = state.entries[index].lease.as_mut() else {
                continue;
            };
            let beats = lease.beacon.beats();
            if beats > lease.beats_seen {
                lease.beats_seen = beats;
                lease.deadline = now + inner.lease;
            } else if now >= lease.deadline {
                state.expire(index);
                state.requeued.push_back(index);
                state.reassigned += 1;
                requeued_any = true;
            }
        }
        let cutoff = inner.lease * DEREGISTER_LEASES;
        let mut reaped_untold = false;
        state.daemons.retain(|_, info| {
            let keep = now.duration_since(info.last_seen) < cutoff;
            // A daemon that vanished without hearing the drain notice may
            // merely be partitioned; a graceful drain must hold the
            // listener open long enough to tell it when it re-registers.
            reaped_untold |= !keep && !info.told_draining;
            keep
        });
        state.reaped_untold |= reaped_untold;
        if requeued_any || reaped_untold {
            inner.changed.notify_all();
        }
        state = inner
            .changed
            .wait_timeout(state, interval)
            .expect("coordinator lock")
            .0;
    }
}

/// Work the committer performs outside the lock.
enum CommitStep {
    Skip,
    Cancelled,
    Outcome(Box<RemoteOutcome>, u64),
    Exit,
}

fn committer_loop(inner: &Inner, mut ledger: Ledger) {
    loop {
        let (step, index) = {
            let mut state = inner.lock();
            loop {
                let i = state.next_commit;
                if i < state.entries.len() {
                    match state.entries[i].phase {
                        Phase::Settled { daemon } => {
                            let outcome = state.entries[i].outcome.take().expect("settled outcome");
                            break (CommitStep::Outcome(Box::new(outcome), daemon), i);
                        }
                        Phase::Cancelled => break (CommitStep::Cancelled, i),
                        Phase::Queued { skip: true } => break (CommitStep::Skip, i),
                        _ => {}
                    }
                }
                // Exit once nothing ahead can ever settle: shutdown was
                // requested and no assignment is outstanding (a drain
                // waits at most one lease for dead agents' assignments to
                // expire). Anything still unsettled stays unjournaled — a
                // restarted daemon re-runs it from the journal.
                if state.shutdown && state.assigned_count() == 0 {
                    break (CommitStep::Exit, i);
                }
                state = inner.changed.wait(state).expect("coordinator lock");
            }
        };
        let settled = match step {
            CommitStep::Exit => break,
            CommitStep::Cancelled => None,
            CommitStep::Skip => {
                // The resume journal already records this benchmark: count
                // it like campaign's skip path so a converging failures.txt
                // reports the same completed total.
                ledger.note_skipped();
                Some((true, 0))
            }
            CommitStep::Outcome(outcome, daemon) => {
                let (name, metrics) = {
                    let mut state = inner.lock();
                    let wall = Duration::from_secs_f64(outcome.wall_ms.max(0.0) / 1e3);
                    let queue_wait = state.entries[index].queue_wait;
                    state.busy += wall;
                    state.wait_sum += queue_wait;
                    state.settled += 1;
                    let e = &state.entries[index];
                    let metrics = JobMetrics {
                        wall,
                        queue_wait,
                        worker: outcome.worker as usize,
                        assignments: e.assignments,
                        daemon: daemon as u32,
                        cycles: outcome.cycles,
                        instructions: outcome.instructions,
                        ipc: outcome.ipc,
                    };
                    (e.name, metrics)
                };
                let (ok, attempts) = (outcome.ok, outcome.attempts);
                ledger.commit_rendered(
                    name,
                    ok,
                    attempts,
                    &outcome.body,
                    &outcome.error_line,
                    metrics,
                );
                inner.live.mark_settled(name, ok);
                Some((ok, attempts))
            }
        };
        let mut state = inner.lock();
        if let Some((ok, attempts)) = settled {
            let entry = &mut state.entries[index];
            entry.phase = Phase::Done { ok, attempts };
            entry.history.push(JobState::Done { ok, attempts });
            let name = entry.name;
            state.done_names.insert(name.to_owned());
            if ok {
                state.done += 1;
            } else {
                state.failed += 1;
            }
        }
        state.next_commit += 1;
        drop(state);
        inner.changed.notify_all();
    }
    let workers = inner.total_workers(&inner.lock());
    ledger.finish(ExecSummary {
        workers: workers.max(1),
        wall: inner.started.elapsed(),
    });
}

// ---------------------------------------------------------------------------
// Agent: the daemon half of the fleet (what `tipd --join` runs).
// ---------------------------------------------------------------------------

/// How a fleet agent runs.
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// Coordinator address (`host:port`).
    pub coordinator: String,
    /// Self-reported name (host:port or free text) for the coordinator's
    /// registry.
    pub name: String,
    /// Worker threads pulling assignments.
    pub workers: usize,
    /// Give up after this long without a single successful call — the
    /// coordinator is gone for good, not restarting. Generous by default
    /// so a `kill -9` + `--resume` restart window never strands the fleet.
    pub give_up_after: Duration,
}

impl AgentConfig {
    /// A config with production defaults: 1 worker, 60 s give-up window.
    #[must_use]
    pub fn new(coordinator: String) -> Self {
        AgentConfig {
            name: format!("agent@{coordinator}"),
            coordinator,
            workers: 1,
            give_up_after: Duration::from_secs(60),
        }
    }
}

/// Shared agent session: the current daemon id, re-registered on
/// [`ErrorCode::UnknownDaemon`] by whichever thread hits it first.
struct Session {
    client: Client,
    daemon: AtomicU64,
    lease_ms: AtomicU64,
    /// Set when the coordinator says it is draining; all threads exit.
    done: AtomicBool,
    /// Last successful call, for the give-up window.
    last_ok: Mutex<Instant>,
    registration: Mutex<()>,
    name: String,
    workers: u32,
}

impl Session {
    fn mark_ok(&self) {
        *self.last_ok.lock().expect("agent clock") = Instant::now();
    }

    fn silent_for(&self) -> Duration {
        self.last_ok.lock().expect("agent clock").elapsed()
    }

    /// (Re-)registers with the coordinator. Serialized so a burst of
    /// `UnknownDaemon` refusals across threads yields one new id, not N.
    fn reregister(&self, stale_id: u64) -> Result<(), ClientError> {
        let _guard = self.registration.lock().expect("agent registration");
        if self.daemon.load(Ordering::SeqCst) != stale_id {
            return Ok(()); // Another thread already re-registered.
        }
        let (daemon, lease_ms) = self.client.register(&self.name, self.workers)?;
        self.lease_ms.store(lease_ms.max(1), Ordering::SeqCst);
        self.daemon.store(daemon, Ordering::SeqCst);
        self.mark_ok();
        Ok(())
    }
}

/// Runs a fleet agent against `config.coordinator` until the coordinator
/// drains (clean exit) or stays unreachable past the give-up window.
///
/// Worker threads poll for assignments, regenerate and run the benchmark
/// locally through the exact [`run_job`] retry ladder a local
/// campaign uses, render the result-file bytes on the spot, and push them
/// back. One beacon thread heartbeats at a quarter of the coordinator's
/// lease — process-level liveness, since a dead process takes every worker
/// with it. Any thread refused with `UnknownDaemon` re-registers (the
/// coordinator restarted); in-flight results pushed under the old
/// registration are discarded by the coordinator's epoch check, and the
/// re-dispatched assignment re-runs them deterministically.
///
/// # Errors
///
/// [`ClientError`] when registration never succeeds or the coordinator
/// stays unreachable past `config.give_up_after`.
pub fn run_agent(config: &AgentConfig) -> Result<(), ClientError> {
    let client = Client::new(&config.coordinator);
    #[allow(clippy::cast_possible_truncation)]
    let workers = config.workers.max(1) as u32;
    let (daemon, lease_ms) = client.register(&config.name, workers)?;
    let session = Arc::new(Session {
        client,
        daemon: AtomicU64::new(daemon),
        lease_ms: AtomicU64::new(lease_ms.max(1)),
        done: AtomicBool::new(false),
        last_ok: Mutex::new(Instant::now()),
        registration: Mutex::new(()),
        name: config.name.clone(),
        workers,
    });
    let give_up = config.give_up_after;

    let beacon = {
        let session = Arc::clone(&session);
        thread::spawn(move || beacon_loop(&session, give_up))
    };
    let mut workers_joined = Vec::new();
    for worker in 0..config.workers.max(1) {
        let session = Arc::clone(&session);
        workers_joined.push(thread::spawn(move || {
            remote_worker_loop(&session, worker, give_up)
        }));
    }
    let mut result = Ok(());
    for t in workers_joined {
        if let Ok(Err(e)) = t.join().map_err(|_| ()) {
            result = Err(e);
        }
    }
    session.done.store(true, Ordering::SeqCst);
    let _ = beacon.join();
    result
}

/// One call's outcome, folded into the agent's liveness accounting.
fn note<T>(session: &Session, res: &Result<T, ClientError>) {
    if res.is_ok() {
        session.mark_ok();
    }
}

/// Handles an `UnknownDaemon` refusal: re-register under a fresh id.
/// Returns whether the caller should retry its operation.
fn handle_unknown(session: &Session, stale_id: u64) -> bool {
    match session.reregister(stale_id) {
        Ok(()) => true,
        Err(_) => false,
    }
}

fn is_unknown_daemon(err: &ClientError) -> bool {
    matches!(
        err,
        ClientError::Server {
            code: ErrorCode::UnknownDaemon,
            ..
        }
    )
}

fn beacon_loop(session: &Session, give_up: Duration) {
    loop {
        let lease_ms = session.lease_ms.load(Ordering::SeqCst);
        let pause = Duration::from_millis((lease_ms / 4).max(1));
        let deadline = Instant::now() + pause;
        while Instant::now() < deadline {
            if session.done.load(Ordering::SeqCst) {
                return;
            }
            thread::sleep(Duration::from_millis(10));
        }
        let id = session.daemon.load(Ordering::SeqCst);
        let res = session.client.beacon(id);
        note(session, &res);
        match res {
            Ok(_) => {}
            Err(e) if is_unknown_daemon(&e) => {
                let _ = handle_unknown(session, id);
            }
            Err(_) => {
                if session.silent_for() > give_up {
                    return;
                }
            }
        }
    }
}

/// Pause between empty polls: short enough to keep Test-scale campaigns
/// snappy, long enough not to hammer the coordinator.
const POLL_PAUSE: Duration = Duration::from_millis(20);

fn remote_worker_loop(
    session: &Arc<Session>,
    worker: usize,
    give_up: Duration,
) -> Result<(), ClientError> {
    loop {
        if session.done.load(Ordering::SeqCst) {
            return Ok(());
        }
        let id = session.daemon.load(Ordering::SeqCst);
        let res = session.client.poll_job(id);
        note(session, &res);
        let (task, epoch, spec) = match res {
            Ok(PollReply::Assignment { task, epoch, spec }) => (task, epoch, spec),
            Ok(PollReply::NoWork { draining: true }) => {
                session.done.store(true, Ordering::SeqCst);
                return Ok(());
            }
            Ok(PollReply::NoWork { draining: false }) => {
                thread::sleep(POLL_PAUSE);
                continue;
            }
            Err(e) if is_unknown_daemon(&e) => {
                if !handle_unknown(session, id) && session.silent_for() > give_up {
                    return Err(e);
                }
                continue;
            }
            Err(e) => {
                if session.silent_for() > give_up {
                    return Err(e);
                }
                thread::sleep(POLL_PAUSE);
                continue;
            }
        };
        // Stream delta flushes to the coordinator as the run progresses —
        // the "piggybacked on pushes" half of fleet liveness: each flush
        // extends the leases like a beacon. Best-effort by design: a lost
        // or refused frame costs live visibility, never correctness (the
        // authoritative result still travels in the final push).
        let sink = {
            let session = Arc::clone(session);
            DeltaSink::new(move |event| {
                let id = session.daemon.load(Ordering::SeqCst);
                let frame = DeltaFrame::from_event(&event);
                let res = session.client.push_delta(id, &frame);
                note(&session, &res);
            })
        };
        let outcome = run_assignment(&spec, worker, task, &SpecRunner, &Heartbeat::noop(), &sink);
        // Push until acked; a lost ack retries idempotently, a stale epoch
        // or unknown-task refusal just drops the result (the coordinator
        // reassigned it).
        loop {
            let id = session.daemon.load(Ordering::SeqCst);
            let res = session.client.push_result(id, task, epoch, &outcome);
            note(session, &res);
            match res {
                Ok(_accepted) => break,
                Err(e) if is_unknown_daemon(&e) => {
                    // The coordinator restarted: this result belongs to a
                    // dead incarnation's assignment. Re-register and drop
                    // it; the re-dispatched job re-runs deterministically.
                    let _ = handle_unknown(session, id);
                    break;
                }
                Err(e) => {
                    if session.silent_for() > give_up {
                        return Err(e);
                    }
                    thread::sleep(POLL_PAUSE);
                }
            }
        }
    }
}

/// Runs one assignment through the exact retry ladder a local campaign
/// worker uses and renders the result-file bytes the committer persists
/// verbatim. `beacon` ticks at attempt and slice boundaries; delta flushes
/// stream through `sink` while the run progresses.
fn run_assignment<R: Runner>(
    spec: &JobSpec,
    worker: usize,
    task: u64,
    runner: &R,
    beacon: &Heartbeat,
    sink: &DeltaSink,
) -> RemoteOutcome {
    let Some(&name) = BENCHMARK_NAMES.iter().find(|&&n| n == spec.bench) else {
        return refused_outcome(worker, &format!("unknown bench {:?}", spec.bench));
    };
    let Ok(core) = resolve_core(&spec.core) else {
        return refused_outcome(worker, &format!("unknown core {:?}", spec.core));
    };
    let bench = benchmark(name, spec.scale);
    let job = Job {
        bench,
        seed: spec.seed,
        core,
        sampler: spec.sampler,
        profilers: spec.profilers.clone(),
        checkpoint: None,
        max_attempts: spec.max_attempts.max(1),
        max_cycles: MAX_CYCLES,
        pgo: spec.pgo,
    };
    let index = usize::try_from(task.saturating_sub(1)).unwrap_or(0);
    let outcome = run_job(index, &job, runner, Duration::ZERO, worker, beacon, sink);
    let attempts = outcome.attempts;
    let metrics = outcome.metrics;
    #[allow(clippy::cast_possible_truncation)]
    let worker = worker as u32;
    match outcome.result {
        Ok(run) => {
            let completed = CompletedBench {
                run: SuiteRun {
                    bench: job.bench,
                    run,
                },
                attempts,
            };
            let body = render_completed(&completed, &spec.profilers);
            RemoteOutcome {
                ok: true,
                attempts,
                body,
                error_line: String::new(),
                wall_ms: metrics.wall.as_secs_f64() * 1e3,
                worker,
                cycles: metrics.cycles,
                instructions: metrics.instructions,
                ipc: metrics.ipc,
            }
        }
        Err(error) => {
            let failed = FailedBench {
                name,
                attempts,
                error,
            };
            let body = render_failed(&failed);
            let error_line = one_line(&failed.error.to_string());
            RemoteOutcome {
                ok: false,
                attempts,
                body,
                error_line,
                wall_ms: metrics.wall.as_secs_f64() * 1e3,
                worker,
                cycles: 0,
                instructions: 0,
                ipc: 0.0,
            }
        }
    }
}

/// An assignment the agent could not even start (a spec that validates on
/// the coordinator but not here means skewed builds). Reported as a failed
/// job rather than dropped, so the campaign settles instead of wedging.
fn refused_outcome(worker: usize, message: &str) -> RemoteOutcome {
    #[allow(clippy::cast_possible_truncation)]
    RemoteOutcome {
        ok: false,
        attempts: 0,
        body: format!("status=failed\nerror={message}\n"),
        error_line: message.to_owned(),
        wall_ms: 0.0,
        worker: worker as u32,
        cycles: 0,
        instructions: 0,
        ipc: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tip_workloads::SuiteScale;

    fn spec(bench: &str) -> JobSpec {
        let mut s = JobSpec::new(bench, SuiteScale::Test);
        s.profilers = vec![tip_core::ProfilerId::Tip];
        s
    }

    fn outcome_for(c: &Coordinator, spec_: &JobSpec, task: u64) -> RemoteOutcome {
        let _ = c; // Coordinator-independent: the agent renders locally.
        run_assignment(
            spec_,
            0,
            task,
            &SpecRunner,
            &Heartbeat::noop(),
            &DeltaSink::noop(),
        )
    }

    #[test]
    fn register_assign_push_commits_in_order() {
        let dir = std::env::temp_dir().join(format!("tip-fleet-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let c = Coordinator::start(&CoordinatorConfig {
            out_dir: dir.clone(),
            workers: 0,
            resume: false,
            lease: Duration::from_secs(30),
            live: None,
        });
        let (daemon, lease_ms) = c.register("unit", 2);
        assert!(daemon >= 1);
        assert_eq!(lease_ms, 30_000);
        let a = c.submit_deduped(&spec("mcf"), 0).expect("submit");
        let b = c.submit_deduped(&spec("exchange2"), 0).expect("submit");
        assert_eq!((a, b), (1, 2));

        // Pull both, push out of order; the committer still writes in
        // submission order and both reach Done.
        let Ok(PollReply::Assignment {
            task: t1,
            epoch: e1,
            spec: s1,
        }) = c.poll_job(daemon)
        else {
            panic!("expected assignment")
        };
        let Ok(PollReply::Assignment {
            task: t2,
            epoch: e2,
            spec: s2,
        }) = c.poll_job(daemon)
        else {
            panic!("expected assignment")
        };
        assert_eq!((t1, t2), (1, 2));
        let o2 = outcome_for(&c, &s2, t2);
        let o1 = outcome_for(&c, &s1, t1);
        assert!(c.push_result(daemon, t2, e2, o2).expect("push"));
        assert!(c.push_result(daemon, t1, e1, o1.clone()).expect("push"));
        // Duplicate push (lost ack): still acked, not double-committed.
        assert!(c.push_result(daemon, t1, e1, o1).expect("push"));

        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let done = matches!(c.status(1), Some(JobState::Done { ok: true, .. }))
                && matches!(c.status(2), Some(JobState::Done { ok: true, .. }));
            if done {
                break;
            }
            assert!(Instant::now() < deadline, "commit timed out");
            thread::sleep(Duration::from_millis(10));
        }
        c.shutdown(true);
        let journal = std::fs::read_to_string(dir.join("journal.txt")).expect("journal");
        assert_eq!(journal, "done mcf\ndone exchange2\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn expired_lease_reassigns_and_discards_the_stale_push() {
        let dir = std::env::temp_dir().join(format!("tip-fleet-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let c = Coordinator::start(&CoordinatorConfig {
            out_dir: dir.clone(),
            workers: 0,
            resume: false,
            lease: Duration::from_millis(40),
            live: None,
        });
        let (dead, _) = c.register("dead", 1);
        assert_eq!(c.submit_deduped(&spec("mcf"), 0).expect("submit"), 1);
        let Ok(PollReply::Assignment {
            task,
            epoch,
            spec: s,
        }) = c.poll_job(dead)
        else {
            panic!("expected assignment")
        };
        // Go silent past the lease; the reaper requeues under a new epoch.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if c.stats().reassigned >= 1 {
                break;
            }
            assert!(Instant::now() < deadline, "reaper never fired");
            thread::sleep(Duration::from_millis(10));
        }
        // The dead daemon may have been deregistered outright (silence past
        // DEREGISTER_LEASES); both refusal shapes discard the result.
        let o = outcome_for(&c, &s, task);
        match c.push_result(dead, task, epoch, o.clone()) {
            Ok(accepted) => {
                assert!(!accepted, "stale push must be refused");
                assert_eq!(c.stale_results(), 1);
            }
            Err(code) => assert_eq!(code, ErrorCode::UnknownDaemon),
        }
        // A live daemon picks the job back up and settles it for real.
        let (live, _) = c.register("live", 1);
        let Ok(PollReply::Assignment {
            task: t2,
            epoch: e2,
            spec: s2,
        }) = c.poll_job(live)
        else {
            panic!("expected reassignment")
        };
        assert_eq!(t2, task);
        assert!(e2 > epoch);
        assert_eq!(s2, s);
        // The result bytes are deterministic — same spec, same task — so
        // the dead daemon's rendered outcome is exactly what the live one
        // would produce. The tiny test lease may keep expiring while we
        // push, so chase the epoch until a push lands.
        let mut accepted = c.push_result(live, t2, e2, o.clone()).expect("push");
        let deadline = Instant::now() + Duration::from_secs(30);
        while !accepted {
            assert!(Instant::now() < deadline, "push never landed");
            match c.poll_job(live) {
                Ok(PollReply::Assignment {
                    task: t, epoch: e, ..
                }) => {
                    assert_eq!(t, task);
                    accepted = c.push_result(live, t, e, o.clone()).expect("push");
                }
                _ => thread::sleep(Duration::from_millis(5)),
            }
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if matches!(c.status(1), Some(JobState::Done { ok: true, .. })) {
                break;
            }
            assert!(Instant::now() < deadline, "commit timed out");
            thread::sleep(Duration::from_millis(10));
        }
        assert!(c.stats().reassigned >= 1);
        c.shutdown(true);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_skips_the_settled_prefix_and_unknown_daemons_must_reregister() {
        let dir = std::env::temp_dir().join(format!("tip-fleet-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("journal.txt"), "done mcf\n").expect("seed journal");
        let c = Coordinator::start(&CoordinatorConfig {
            out_dir: dir.clone(),
            workers: 0,
            resume: true,
            lease: Duration::from_secs(30),
            live: None,
        });
        // A daemon id from a previous coordinator incarnation is unknown.
        assert_eq!(c.beacon(99), Err(ErrorCode::UnknownDaemon));
        assert_eq!(c.poll_job(99).unwrap_err(), ErrorCode::UnknownDaemon);

        assert_eq!(c.submit_deduped(&spec("mcf"), 7).expect("submit"), 1);
        // Idempotent resubmission returns the same id.
        assert_eq!(c.submit_deduped(&spec("mcf"), 7).expect("submit"), 1);
        let (daemon, _) = c.register("fresh", 1);
        // The journalled bench is a resume-skip: no assignment goes out.
        assert_eq!(
            c.poll_job(daemon).expect("poll"),
            PollReply::NoWork { draining: false }
        );
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if matches!(
                c.status(1),
                Some(JobState::Done {
                    ok: true,
                    attempts: 0
                })
            ) {
                break;
            }
            assert!(Instant::now() < deadline, "skip-ack timed out");
            thread::sleep(Duration::from_millis(10));
        }
        c.shutdown(true);
        let journal = std::fs::read_to_string(dir.join("journal.txt")).expect("journal");
        assert_eq!(journal, "done mcf\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn accept_delta_requires_the_daemon_to_hold_the_assignment() {
        use tip_core::{BankDeltas, ProfileDelta, NUM_CATEGORIES};

        let event = |seq: u64| DeltaEvent {
            bench: "mcf".to_owned(),
            attempt: 1,
            deltas: BankDeltas {
                seq,
                per_profiler: vec![(
                    tip_core::ProfilerId::Tip,
                    ProfileDelta::from_entries(Granularity::Function, 8, [(0, 840)]),
                )],
                oracle: ProfileDelta::from_entries(Granularity::Function, 8, [(1, 840)]),
                stack: vec![0; NUM_CATEGORIES],
                cycles: seq * 1_000,
            },
        };

        let dir = std::env::temp_dir().join(format!("tip-fleet-delta-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let c = Coordinator::start(&CoordinatorConfig {
            out_dir: dir.clone(),
            workers: 0,
            resume: false,
            lease: Duration::from_secs(30),
            live: None,
        });
        let (holder, _) = c.register("holder", 1);
        assert_eq!(c.submit_deduped(&spec("mcf"), 0).expect("submit"), 1);

        // Before the assignment goes out nobody holds the bench: the push is
        // acked-but-dropped, and nothing reaches the aggregate.
        assert_eq!(c.accept_delta(holder, &event(1)), Ok(false));
        assert!(c.live().view().bench("mcf").is_none());
        // A daemon the coordinator never met is refused outright.
        assert_eq!(c.accept_delta(99, &event(1)), Err(ErrorCode::UnknownDaemon));

        let Ok(PollReply::Assignment { .. }) = c.poll_job(holder) else {
            panic!("expected assignment")
        };
        assert_eq!(c.accept_delta(holder, &event(1)), Ok(true));
        let view = c.live().view();
        assert_eq!(view.bench("mcf").map(|b| b.flushes), Some(1));

        // A registered bystander that does not hold the lease is fenced off:
        // its (stale-epoch) stream must not corrupt the holder's slot.
        let (bystander, _) = c.register("bystander", 1);
        assert_eq!(c.accept_delta(bystander, &event(2)), Ok(false));
        assert_eq!(c.live().view().bench("mcf").map(|b| b.flushes), Some(1));
        c.shutdown(false);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(120);
        while !done() {
            assert!(Instant::now() < deadline, "{what} timed out");
            thread::sleep(Duration::from_millis(10));
        }
    }

    /// The deterministic artifacts; `metrics.txt` is host timing.
    fn artifacts(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .expect("campaign dir")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.file_name().is_some_and(|n| n != "metrics.txt"))
            .map(|p| (p.display().to_string(), std::fs::read(&p).expect("read")))
            .map(|(p, bytes)| (p.rsplit('/').next().unwrap_or_default().to_owned(), bytes))
            .collect();
        files.sort();
        files
    }

    /// One queue, two kinds of agent: a local worker and a registered
    /// remote daemon drain it together, and the ledger cannot tell which
    /// ran what — only `metrics.txt` attributes the jobs.
    #[test]
    fn local_and_remote_agents_drain_one_queue_to_identical_artifacts() {
        use tip_bench::campaign::{run_campaign, CampaignConfig};
        use tip_bench::executor::RunCtx;

        let names = &BENCHMARK_NAMES[..4];
        let tmp = std::env::temp_dir().join(format!("tip-fleet-mixed-{}", std::process::id()));
        let (dir, reference) = (tmp.join("served"), tmp.join("local"));
        let _ = std::fs::remove_dir_all(&tmp);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let benches = names.iter().map(|&n| benchmark(n, SuiteScale::Test));
        let config = CampaignConfig {
            profilers: vec![tip_core::ProfilerId::Tip],
            out_dir: Some(reference.clone()),
            ..CampaignConfig::default()
        };
        assert_eq!(
            run_campaign(benches.collect(), &config, SpecRunner)
                .completed
                .len(),
            4
        );

        // The local worker dawdles so the remote daemon surely wins claims.
        let slow = |job: &Job, ctx: &RunCtx| {
            thread::sleep(Duration::from_millis(150));
            SpecRunner.run(job, ctx)
        };
        let c = Coordinator::start_with_runner(
            &CoordinatorConfig {
                workers: 1,
                lease: Duration::from_secs(30),
                ..CoordinatorConfig::new(dir.clone())
            },
            slow,
        );
        let (daemon, _) = c.register("remote", 1);
        for &name in names {
            c.submit(&spec(name)).expect("submit");
        }
        wait_until("local claim", || {
            c.status(1) == Some(JobState::Running { worker: 0 })
        });
        let remote = {
            let c = c.clone();
            thread::spawn(move || loop {
                match c.poll_job(daemon).expect("registered") {
                    PollReply::Assignment { task, epoch, spec } => {
                        let outcome = outcome_for(&c, &spec, task);
                        assert!(c.push_result(daemon, task, epoch, outcome).expect("push"));
                    }
                    PollReply::NoWork { draining: true } => return,
                    PollReply::NoWork { draining: false } => {
                        thread::sleep(Duration::from_millis(5))
                    }
                }
            })
        };
        wait_until("commit", || {
            (1..=4).all(|job| matches!(c.status(job), Some(JobState::Done { ok: true, .. })))
        });
        c.shutdown(true);
        remote.join().expect("remote agent");

        let journal = std::fs::read_to_string(dir.join("journal.txt")).expect("journal");
        let order: Vec<&str> = journal
            .lines()
            .filter_map(|l| l.strip_prefix("done "))
            .collect();
        assert_eq!(order, names, "journal in submission order");
        assert_eq!(artifacts(&dir), artifacts(&reference));
        let metrics = std::fs::read_to_string(dir.join("metrics.txt")).expect("metrics");
        let daemons: Vec<&str> = metrics
            .lines()
            .filter_map(|l| l.split_whitespace().find_map(|t| t.strip_prefix("daemon=")))
            .collect();
        assert!(
            daemons.contains(&"0"),
            "a local worker ran a job: {daemons:?}"
        );
        assert!(
            daemons
                .iter()
                .any(|d| d.parse::<u64>().is_ok_and(|d| d >= 1)),
            "the remote daemon ran a job: {daemons:?}"
        );
        let _ = std::fs::remove_dir_all(&tmp);
    }

    /// A local worker the reaper declared dead streams nothing once its
    /// job went to another worker. Both are daemon 0, so only the
    /// assignment epoch can tell them apart: the straggler waits until the
    /// fresh assignment has committed and then streams its own run, which
    /// would reset the settled slot if it got through.
    #[test]
    fn reaped_local_straggler_streams_nothing_into_the_aggregate() {
        use tip_bench::executor::RunCtx;

        let dir = std::env::temp_dir().join(format!("tip-fleet-straggler-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let live = Arc::new(LiveAggregate::new());
        let straggler = {
            let (armed, live) = (Arc::new(AtomicBool::new(true)), Arc::clone(&live));
            move |job: &Job, ctx: &RunCtx| {
                if armed.swap(false, Ordering::SeqCst) {
                    wait_until("fresh assignment", || {
                        live.view().bench(job.bench.name).and_then(|b| b.settled) == Some(true)
                    });
                }
                SpecRunner.run(job, ctx)
            }
        };
        let c = Coordinator::start_with_runner(
            &CoordinatorConfig {
                workers: 2,
                lease: Duration::from_secs(1),
                live: Some(Arc::clone(&live)),
                ..CoordinatorConfig::new(dir.clone())
            },
            straggler,
        );
        c.submit(&spec("mcf")).expect("submit");
        wait_until("stale result", || c.stale_results() == 1);
        assert_eq!(c.stats().reassigned, 1);
        let view = live.view();
        let slot = view.bench("mcf").expect("the fresh assignment streamed");
        assert_eq!(
            slot.settled,
            Some(true),
            "the straggler's stream was fenced off"
        );
        c.shutdown(true);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
