//! The `tipd` TCP server: bounded acceptor, thread-per-connection pool,
//! per-connection I/O timeouts, request-size caps, typed backpressure, and
//! graceful drain.
//!
//! Layering: this module owns sockets and nothing else. Every decision
//! about jobs — queueing, claiming, committing, resume, fleet leases —
//! lives in the [`Coordinator`]; every byte on the wire is framed by
//! [`crate::proto`]. A connection handler is a loop of
//! `read_request → dispatch → write_response`, where `Watch` is the one
//! request that streams multiple frames back.
//!
//! Shutdown is wire-driven (a [`Request::Shutdown`] frame) or in-process
//! ([`ServerHandle::shutdown`]): the acceptor stops, handlers finish their
//! in-flight request within one I/O timeout, and the coordinator drains —
//! in-flight jobs settle and commit, queued jobs stay unjournaled for a
//! restarted daemon to resume.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::fleet::{Coordinator, CoordinatorConfig, PollReply, SubmitError, DEFAULT_LEASE};
use crate::proto::{
    read_request, write_response, ErrorCode, JobState, QueryKind, QueryRow, Request, Response,
    ServerStats,
};
use tip_bench::live::LiveAggregate;
use tip_core::{CycleCategory, ProfilerId};
use tip_isa::Granularity;
use tip_trace::TraceError;

/// Rows per benchmark a `Query{TopN, n: 0}` answers with.
const DEFAULT_TOP_N: usize = 10;

/// How the server listens and bounds its resources.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks a free port).
    pub listen: String,
    /// In-process worker agents. 0 makes a pure coordinator: jobs run
    /// only on fleet daemons that `Register` over the wire (any `tipd`
    /// accepts them, whatever its worker count).
    pub workers: usize,
    /// Campaign directory for the coordinator's ledger.
    pub out_dir: PathBuf,
    /// Resume the directory's journal instead of starting fresh.
    pub resume: bool,
    /// Maximum concurrently served connections; excess connections get a
    /// typed [`Response::Busy`] and are closed.
    pub max_conns: usize,
    /// Per-connection read timeout. Idle connections survive (the
    /// handler re-arms after a timeout); a wedged peer cannot hold a
    /// handler thread hostage past this, and shutdown latency is bounded
    /// by it.
    pub io_timeout: Duration,
    /// Per-connection write deadline: a client that stops reading (a
    /// slow-loris consumer of a `Watch` stream) is disconnected once a
    /// single frame write blocks this long, freeing the handler thread.
    pub write_timeout: Duration,
    /// Assignment lease for the coordinator's reaper (see
    /// [`CoordinatorConfig::lease`]). `tipd --coordinator` defaults it to
    /// [`crate::fleet::DEFAULT_FLEET_LEASE`]: remote daemons beacon from a
    /// dedicated thread, so the lease only has to outlive network jitter.
    pub lease: Duration,
    /// Load-shedding watermark: while the queue depth is at or
    /// past this, `Submit` is refused with a typed
    /// [`Response::Overloaded`] (Status/Result/Watch still serve).
    pub shed_watermark: usize,
    /// The pause `Overloaded` suggests to shedded clients, milliseconds.
    pub retry_after_ms: u32,
    /// Per-connection request-rate cap: requests beyond this many in one
    /// second get a typed [`ErrorCode::RateLimited`] refusal and the
    /// handler sleeps out the window, so one hot client cannot starve the
    /// rest of the pool.
    pub max_frames_per_sec: u32,
}

impl ServerConfig {
    /// A config with production defaults for `out_dir`, listening on an
    /// ephemeral localhost port.
    #[must_use]
    pub fn new(out_dir: PathBuf) -> Self {
        ServerConfig {
            listen: "127.0.0.1:0".to_owned(),
            workers: 1,
            out_dir,
            resume: false,
            max_conns: 32,
            io_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            lease: DEFAULT_LEASE,
            shed_watermark: 256,
            retry_after_ms: 500,
            max_frames_per_sec: 200,
        }
    }
}

struct Shared {
    coordinator: Coordinator,
    /// The streaming aggregate every `Query` reads from — shared with the
    /// coordinator, which feeds it from local and remote agents.
    live: Arc<LiveAggregate>,
    /// Symbol-name cache for `Query{TopN}` labels, keyed by benchmark: the
    /// coordinator regenerates the workload program per lookup, so labels
    /// are resolved once and reused.
    labels: Mutex<HashMap<String, Vec<String>>>,
    shutdown: AtomicBool,
    /// Whether the requested shutdown drains in-flight remote assignments
    /// (wire `Shutdown{drain:false}` force-expires them instead).
    drain_on_shutdown: AtomicBool,
    active_conns: AtomicUsize,
    max_conns: usize,
    io_timeout: Duration,
    write_timeout: Duration,
    shed_watermark: usize,
    retry_after_ms: u32,
    max_frames_per_sec: u32,
    /// Submits refused at the overload watermark (for the stats endpoint).
    shed: AtomicU32,
}

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`] or send a wire `Shutdown`.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<thread::JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
}

/// Binds, starts the coordinator, and spawns the acceptor.
///
/// # Errors
///
/// Propagates bind failures.
pub fn serve(config: &ServerConfig) -> io::Result<ServerHandle> {
    serve_with_runner(config, tip_bench::executor::SpecRunner)
}

/// [`serve`] with a caller-chosen runner for the local workers — the chaos
/// tests inject slow or faulty runners behind a real socket.
///
/// # Errors
///
/// Propagates bind failures.
pub fn serve_with_runner<R>(config: &ServerConfig, runner: R) -> io::Result<ServerHandle>
where
    R: tip_bench::executor::Runner + Send + Clone + 'static,
{
    let listener = TcpListener::bind(&config.listen)?;
    let addr = listener.local_addr()?;
    let live = Arc::new(LiveAggregate::new());
    let coordinator = Coordinator::start_with_runner(
        &CoordinatorConfig {
            out_dir: config.out_dir.clone(),
            workers: config.workers,
            resume: config.resume,
            lease: config.lease,
            live: Some(Arc::clone(&live)),
        },
        runner,
    );
    let shared = Arc::new(Shared {
        coordinator,
        live,
        labels: Mutex::new(HashMap::new()),
        shutdown: AtomicBool::new(false),
        drain_on_shutdown: AtomicBool::new(true),
        active_conns: AtomicUsize::new(0),
        max_conns: config.max_conns.max(1),
        io_timeout: config.io_timeout,
        write_timeout: config.write_timeout,
        shed_watermark: config.shed_watermark.max(1),
        retry_after_ms: config.retry_after_ms,
        max_frames_per_sec: config.max_frames_per_sec.max(1),
        shed: AtomicU32::new(0),
    });
    let handlers = Arc::new(Mutex::new(Vec::new()));
    let acceptor = {
        let shared = Arc::clone(&shared);
        let handlers = Arc::clone(&handlers);
        thread::spawn(move || acceptor_loop(&listener, &shared, &handlers))
    };
    Ok(ServerHandle {
        addr,
        shared,
        acceptor: Some(acceptor),
        handlers,
    })
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the actual port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The coordinator, for in-process inspection (tests, the daemon's
    /// exit report).
    #[must_use]
    pub fn coordinator(&self) -> &Coordinator {
        &self.shared.coordinator
    }

    /// Whether a shutdown (wire or in-process) has been requested.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Blocks until a wire `Shutdown` request stops the server, then
    /// finishes the drain. This is the daemon's main loop.
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        self.finish();
    }

    /// In-process equivalent of the wire `Shutdown{drain}` request: stop
    /// accepting, finish handlers, drain and commit in-flight jobs.
    pub fn shutdown(mut self) {
        request_shutdown(&self.shared, self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        self.finish();
    }

    fn finish(&self) {
        let handlers = std::mem::take(&mut *self.handlers.lock().expect("handler registry"));
        for h in handlers {
            let _ = h.join();
        }
        let drain = self.shared.drain_on_shutdown.load(Ordering::SeqCst);
        self.shared.coordinator.shutdown(drain);
    }
}

/// Flags shutdown and unblocks the acceptor's blocking `accept` with a
/// throwaway self-connection.
fn request_shutdown(shared: &Shared, addr: SocketAddr) {
    shared.shutdown.store(true, Ordering::SeqCst);
    shared.coordinator.drain();
    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
}

fn acceptor_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    handlers: &Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Backpressure: over the limit, answer with a typed Busy so the
        // client can back off, then close. The frame write is best-effort
        // on purpose — the peer may already be gone.
        let active = shared.active_conns.load(Ordering::SeqCst);
        if active >= shared.max_conns {
            let mut stream = stream;
            let _ = stream.set_write_timeout(Some(shared.write_timeout));
            let _ = write_response(
                &mut stream,
                &Response::Busy {
                    active: active as u32,
                    limit: shared.max_conns as u32,
                },
            );
            continue;
        }
        shared.active_conns.fetch_add(1, Ordering::SeqCst);
        let shared = Arc::clone(shared);
        let handle = thread::spawn(move || {
            handle_connection(stream, &shared);
            shared.active_conns.fetch_sub(1, Ordering::SeqCst);
        });
        handlers.lock().expect("handler registry").push(handle);
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(shared.io_timeout));
    let _ = stream.set_write_timeout(Some(shared.write_timeout));
    let _ = stream.set_nodelay(true);
    let window = Duration::from_secs(1);
    let mut window_start = Instant::now();
    let mut frames_in_window: u32 = 0;
    loop {
        match read_request(&mut stream) {
            Ok(None) => break,
            Ok(Some(req)) => {
                // Per-connection frame-rate cap: a request beyond the
                // budget gets a typed refusal (the stream stays aligned)
                // and the handler sleeps out the window, so one hot client
                // cannot monopolise the pool.
                let elapsed = window_start.elapsed();
                if elapsed >= window {
                    window_start = Instant::now();
                    frames_in_window = 0;
                }
                frames_in_window += 1;
                if frames_in_window > shared.max_frames_per_sec {
                    let refused = write_response(
                        &mut stream,
                        &Response::Error {
                            code: ErrorCode::RateLimited,
                            message: format!(
                                "over {} requests/s on this connection; retry shortly",
                                shared.max_frames_per_sec
                            ),
                        },
                    );
                    if refused.is_err() {
                        break;
                    }
                    thread::sleep(window.saturating_sub(elapsed));
                    continue;
                }
                let stop = dispatch(&mut stream, shared, req);
                if stop {
                    break;
                }
            }
            Err(TraceError::Io(e))
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Idle between requests: re-arm unless we're going down.
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(e) => {
                // A zero-length frame leaves the stream aligned on the
                // next header, so a typed reply and another read are safe.
                // Everything else (bad magic, CRC, truncation) may have
                // desynced the framing: reply once and close.
                let recoverable = matches!(e, TraceError::BadLength { len: 0, .. });
                let _ = write_response(
                    &mut stream,
                    &Response::Error {
                        code: ErrorCode::BadRequest,
                        message: e.to_string(),
                    },
                );
                if !recoverable {
                    break;
                }
            }
        }
    }
}

/// Serves one request; returns `true` when the connection must close
/// (shutdown acknowledged).
fn dispatch(stream: &mut TcpStream, shared: &Shared, req: Request) -> bool {
    let c = &shared.coordinator;
    match req {
        Request::Submit { spec, req_id } => {
            // Load shedding: past the watermark, refuse new work with a
            // typed pause hint while Status/Result/Watch keep serving —
            // degradation, not collapse. (An idempotent resubmit of an
            // already-queued job still dedups below the watermark later.)
            if c.queue_depth() >= shared.shed_watermark {
                shared.shed.fetch_add(1, Ordering::Relaxed);
                let resp = Response::Overloaded {
                    retry_after_ms: shared.retry_after_ms,
                    queued: c.queue_depth() as u32,
                };
                return write_response(stream, &resp).is_err();
            }
            let resp = match c.submit_deduped(&spec, req_id) {
                Ok(job) => Response::Submitted { job },
                Err(SubmitError::UnknownBench(b)) => Response::Error {
                    code: ErrorCode::UnknownBench,
                    message: format!("unknown benchmark `{b}`"),
                },
                Err(SubmitError::UnknownCore(c)) => Response::Error {
                    code: ErrorCode::UnknownCore,
                    message: format!("unknown core preset `{c}`"),
                },
                Err(SubmitError::Draining) => Response::Error {
                    code: ErrorCode::Draining,
                    message: "server is draining".to_owned(),
                },
            };
            write_response(stream, &resp).is_err()
        }
        Request::Status { job } => {
            let resp = match c.status(job) {
                Some(state) => Response::Status { job, state },
                None => unknown_job(job),
            };
            write_response(stream, &resp).is_err()
        }
        Request::Watch { job, from_seq } => watch(stream, shared, job, from_seq),
        Request::Result { job } => {
            let resp = match c.result(job) {
                Ok(body) => Response::ResultBody { job, body },
                Err(message) => Response::Error {
                    code: if message.starts_with("unknown job") {
                        ErrorCode::UnknownJob
                    } else {
                        ErrorCode::NotReady
                    },
                    message,
                },
            };
            write_response(stream, &resp).is_err()
        }
        Request::Cancel { job } => {
            let ok = c.cancel(job);
            write_response(stream, &Response::Cancelled { job, ok }).is_err()
        }
        Request::Stats => {
            let mut stats: ServerStats = c.stats();
            stats.connections = shared.active_conns.load(Ordering::SeqCst) as u32;
            stats.shed = shared.shed.load(Ordering::Relaxed);
            let view = shared.live.view();
            stats.deltas = view.total_flushes();
            stats.streamed = view.benches.len() as u32;
            write_response(stream, &Response::Stats(stats)).is_err()
        }
        Request::Shutdown { drain } => {
            let _ = write_response(stream, &Response::ShuttingDown { drain });
            shared.drain_on_shutdown.store(drain, Ordering::SeqCst);
            let addr = stream
                .local_addr()
                .unwrap_or_else(|_| SocketAddr::from(([127, 0, 0, 1], 0)));
            // A draining server keeps the listener up until every
            // registered remote agent has polled a `NoWork{draining}` (or
            // lapsed): agents dial per request, so closing the listener
            // first would strand them spinning out their give-up window.
            // Only this handler thread blocks; polls keep being served.
            if drain {
                c.drain();
                c.wait_agents_released();
            }
            request_shutdown(shared, addr);
            true
        }
        Request::Register { name, workers } => {
            let (daemon, lease_ms) = c.register(&name, workers);
            write_response(stream, &Response::Registered { daemon, lease_ms }).is_err()
        }
        Request::Beacon { daemon } => {
            let resp = match c.beacon(daemon) {
                Ok(tasks) => Response::BeaconAck { tasks },
                Err(_) => unknown_daemon(daemon),
            };
            write_response(stream, &resp).is_err()
        }
        Request::PollJob { daemon } => {
            let resp = match c.poll_job(daemon) {
                Ok(PollReply::Assignment { task, epoch, spec }) => {
                    Response::Assignment { task, epoch, spec }
                }
                Ok(PollReply::NoWork { draining }) => Response::NoWork { draining },
                Err(_) => unknown_daemon(daemon),
            };
            write_response(stream, &resp).is_err()
        }
        Request::PushResult {
            daemon,
            task,
            epoch,
            outcome,
        } => {
            let resp = match c.push_result(daemon, task, epoch, outcome) {
                Ok(accepted) => Response::ResultAck { accepted },
                Err(_) => unknown_daemon(daemon),
            };
            write_response(stream, &resp).is_err()
        }
        Request::PushDelta { daemon, frame } => {
            // Every flush passes the coordinator's fence: the daemon must be
            // registered (daemon 0, the in-process pool, never is) and still
            // hold the benchmark's assignment — a resurrected daemon's stale
            // stream must not pollute the fresh slot.
            let resp = match c.accept_delta(daemon, &frame.into_event()) {
                Ok(accepted) => Response::DeltaAck { accepted },
                Err(_) => unknown_daemon(daemon),
            };
            write_response(stream, &resp).is_err()
        }
        Request::Query {
            kind,
            bench,
            profiler,
            n,
        } => {
            let rows = answer_query(shared, kind, &bench, profiler, n);
            write_response(stream, &Response::QueryReply { rows }).is_err()
        }
    }
}

/// Answers a live query from the current aggregate snapshot. An empty
/// `bench` means every streamed benchmark; `n` caps `TopN` rows per
/// benchmark (0 = [`DEFAULT_TOP_N`]) and, when non-zero, keeps only the
/// trailing `n` points of each `ErrorTrajectory`.
fn answer_query(
    shared: &Shared,
    kind: QueryKind,
    bench: &str,
    profiler: Option<ProfilerId>,
    n: u32,
) -> Vec<QueryRow> {
    let view = shared.live.view();
    let mut rows = Vec::new();
    for b in view
        .benches
        .iter()
        .filter(|b| bench.is_empty() || b.bench == bench)
    {
        match kind {
            QueryKind::TopN => {
                let cap = if n == 0 { DEFAULT_TOP_N } else { n as usize };
                let top = b.top_n(profiler, cap);
                let syms: Vec<u32> = top.iter().map(|&(s, _, _)| s).collect();
                let labels = symbol_labels(shared, &b.bench, b.granularity, b.num_symbols, &syms);
                for ((_, units, share), label) in top.into_iter().zip(labels) {
                    rows.push(QueryRow {
                        bench: b.bench.clone(),
                        profiler,
                        label,
                        value: units as f64,
                        share,
                    });
                }
            }
            QueryKind::ErrorTrajectory => {
                let ids: Vec<ProfilerId> = match profiler {
                    Some(id) => vec![id],
                    None => b.per_profiler.iter().map(|(id, _)| *id).collect(),
                };
                for id in ids {
                    let mut points = b.error_trajectory(id);
                    if n != 0 && points.len() > n as usize {
                        points.drain(..points.len() - n as usize);
                    }
                    for (cycles, error) in points {
                        rows.push(QueryRow {
                            bench: b.bench.clone(),
                            profiler: Some(id),
                            label: id.label().to_owned(),
                            value: cycles as f64,
                            share: error,
                        });
                    }
                }
            }
            QueryKind::CycleStack => {
                let total: i64 = b.stack.iter().filter(|&&u| u > 0).sum();
                for (cat, &units) in CycleCategory::ALL.iter().zip(&b.stack) {
                    rows.push(QueryRow {
                        bench: b.bench.clone(),
                        profiler: None,
                        label: cat.label().to_owned(),
                        value: units as f64,
                        share: if total > 0 {
                            units.max(0) as f64 / total as f64
                        } else {
                            0.0
                        },
                    });
                }
            }
        }
    }
    rows
}

/// Resolves symbol ids to display names via the coordinator, caching the
/// full name table per benchmark. Unresolvable symbols (or a benchmark the
/// coordinator does not know) fall back to `sym<N>` without caching, so a
/// later resolution can still land.
fn symbol_labels(
    shared: &Shared,
    bench: &str,
    g: Granularity,
    num_symbols: u32,
    syms: &[u32],
) -> Vec<String> {
    let fallback = |s: u32| format!("sym{s}");
    let mut cache = shared.labels.lock().expect("label cache");
    if !cache.contains_key(bench) {
        let all: Vec<u32> = (0..num_symbols).collect();
        match shared.coordinator.symbol_names(bench, g, &all) {
            Some(names) => {
                cache.insert(bench.to_owned(), names);
            }
            None => return syms.iter().map(|&s| fallback(s)).collect(),
        }
    }
    let names = &cache[bench];
    syms.iter()
        .map(|&s| {
            names
                .get(s as usize)
                .cloned()
                .unwrap_or_else(|| fallback(s))
        })
        .collect()
}

fn unknown_daemon(daemon: u64) -> Response {
    Response::Error {
        code: ErrorCode::UnknownDaemon,
        message: format!("unknown daemon {daemon}; re-register"),
    }
}

/// Streams `Progress` frames — replaying the job's history from
/// `from_seq`, then live — until the job settles, the peer vanishes, or
/// the server shuts down (a drained-away queued job would otherwise never
/// terminate the stream). Every frame carries its history sequence number,
/// so a client whose connection dropped reconnects with
/// `Watch{from_seq: last_seen + 1}` and resumes without gaps or
/// duplicates.
fn watch(stream: &mut TcpStream, shared: &Shared, job: u64, from_seq: u64) -> bool {
    let c = &shared.coordinator;
    let bench = c.bench_of(job);
    let mut next_seq = from_seq;
    loop {
        let Some(batch) = c.wait_history(job, next_seq, Duration::from_millis(200)) else {
            return write_response(stream, &unknown_job(job)).is_err();
        };
        // Streamed simulated cycles for the job's benchmark, refreshed per
        // batch: watchers see the live view advance between state changes.
        let cycles = bench
            .as_deref()
            .and_then(|name| shared.live.view().bench(name).map(|b| b.cycles))
            .unwrap_or(0);
        let mut last = None;
        for (seq, state) in batch {
            let frame = Response::Progress {
                job,
                state,
                seq,
                cycles,
            };
            if write_response(stream, &frame).is_err() {
                return true;
            }
            next_seq = seq + 1;
            last = Some(state);
        }
        if last.is_some_and(|s| s.is_terminal()) {
            return false;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            // The stream ends without a terminal state; the client sees a
            // clean EOF and knows to reconnect (possibly to a restarted
            // daemon) and resume from its last seen sequence number.
            return true;
        }
    }
}

fn unknown_job(job: u64) -> Response {
    Response::Error {
        code: ErrorCode::UnknownJob,
        message: format!("unknown job {job}"),
    }
}

const _: () = {
    const fn send<T: Send>() {}
    const fn sync<T: Sync>() {}
    send::<JobState>();
    sync::<Shared>();
};
