//! `tipd` — the TIP profiling daemon.
//!
//! ```text
//! tipd --listen 127.0.0.1:7421 --out runs/service [--jobs N] [--resume]
//!      [--coordinator] [--max-conns N] [--io-timeout-ms N]
//!      [--write-timeout-ms N] [--lease-ms N] [--shed-watermark N]
//!      [--retry-after-ms N] [--max-frames-per-sec N]
//! tipd --join HOST:PORT [--jobs N] [--name NAME] [--give-up-ms N]
//! ```
//!
//! Three modes:
//!
//! * Plain daemon (default): listens for TIPW requests, runs submitted
//!   jobs on `--jobs` local workers, persists byte-stable campaign
//!   artifacts to `--out`. Fleet daemons may `--join` it too; they drain
//!   the same queue as the local workers.
//! * `--coordinator`: the same daemon with no local workers (and the
//!   fleet lease default) — jobs run only on daemons that `--join` this
//!   address, and their results are committed through one in-order
//!   ledger.
//! * `--join HOST:PORT`: the fleet daemon half. Registers with a
//!   coordinator, polls for assignments, runs them locally, pushes the
//!   rendered results back. Exits when the coordinator drains.
//!
//! Exits on a wire `Shutdown` request (`tipctl shutdown`), draining
//! in-flight jobs and journaling them so `--resume` continues the
//! campaign. Every failure kind maps to a distinct nonzero exit code
//! (printed to stderr with detail): 1 usage, 2 bind, 3 out-dir I/O,
//! 4 unreadable resume journal, 5 failed jobs at exit, 6 fleet join
//! failure.

use std::io;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use tip_serve::server::{serve, ServerConfig};
use tip_serve::{run_agent, AgentConfig, ClientError, DEFAULT_FLEET_LEASE};

fn usage() -> String {
    "usage: tipd --listen HOST:PORT --out DIR [--jobs N] [--resume] [--coordinator] \
     [--max-conns N] [--io-timeout-ms N] [--write-timeout-ms N] [--lease-ms N] \
     [--shed-watermark N] [--retry-after-ms N] [--max-frames-per-sec N]\n\
     \u{20}      tipd --join HOST:PORT [--jobs N] [--name NAME] [--give-up-ms N]"
        .to_owned()
}

/// Why tipd is exiting nonzero — one distinct code per failure kind, so
/// supervisors can tell "fix the invocation" (1) from "the port is taken"
/// (2), "the disk is the problem" (3, 4), "the campaign had failures" (5),
/// and "the coordinator is gone" (6).
enum DaemonError {
    /// Bad arguments: the caller's problem.
    Usage(String),
    /// Could not bind the listen address.
    Bind {
        /// The address we tried.
        listen: String,
        /// What the OS said.
        error: io::Error,
    },
    /// Could not create or write the campaign directory.
    OutDir {
        /// The directory we tried.
        dir: PathBuf,
        /// What the OS said.
        error: io::Error,
    },
    /// `--resume` was asked for but the journal exists and is unreadable.
    Resume {
        /// The directory whose journal failed.
        dir: PathBuf,
        /// What the OS said.
        error: io::Error,
    },
    /// The campaign drained with failed jobs.
    FailedJobs {
        /// How many jobs exhausted their attempts.
        failed: u32,
    },
    /// `--join` never registered, or the coordinator stayed unreachable
    /// past the give-up window.
    Join(ClientError),
}

fn exit_code(e: &DaemonError) -> u8 {
    match e {
        DaemonError::Usage(_) => 1,
        DaemonError::Bind { .. } => 2,
        DaemonError::OutDir { .. } => 3,
        DaemonError::Resume { .. } => 4,
        DaemonError::FailedJobs { .. } => 5,
        DaemonError::Join(_) => 6,
    }
}

fn message(e: &DaemonError) -> String {
    match e {
        DaemonError::Usage(m) => m.clone(),
        DaemonError::Bind { listen, error } => format!("bind {listen} failed: {error}"),
        DaemonError::OutDir { dir, error } => {
            format!("out dir {} unusable: {error}", dir.display())
        }
        DaemonError::Resume { dir, error } => {
            format!("resume journal in {} unreadable: {error}", dir.display())
        }
        DaemonError::FailedJobs { failed } => format!("{failed} job(s) failed"),
        DaemonError::Join(e) => format!("fleet join failed: {e}"),
    }
}

/// What one invocation asks for: serve (plain or coordinator) or join a
/// fleet.
enum Mode {
    Serve(ServerConfig),
    Join(AgentConfig),
}

fn ms_flag(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<Duration, String> {
    let v = args.next().ok_or(format!("{flag} needs milliseconds"))?;
    Ok(Duration::from_millis(
        v.parse::<u64>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or(format!("{flag}: bad value `{v}`"))?,
    ))
}

#[allow(clippy::too_many_lines)]
fn parse(args: impl Iterator<Item = String>) -> Result<Mode, String> {
    let mut listen: Option<String> = None;
    let mut out_dir: Option<PathBuf> = None;
    let mut join: Option<String> = None;
    let mut name: Option<String> = None;
    let mut give_up: Option<Duration> = None;
    let mut workers: Option<usize> = None;
    let mut resume = false;
    let mut coordinator = false;
    let mut max_conns = 32usize;
    let mut io_timeout = Duration::from_secs(5);
    let mut write_timeout: Option<Duration> = None;
    let mut lease: Option<Duration> = None;
    let mut shed_watermark: Option<usize> = None;
    let mut retry_after_ms: Option<u32> = None;
    let mut max_frames_per_sec: Option<u32> = None;
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => listen = Some(args.next().ok_or("--listen needs HOST:PORT")?),
            "--out" => out_dir = Some(PathBuf::from(args.next().ok_or("--out needs a dir")?)),
            "--join" => join = Some(args.next().ok_or("--join needs HOST:PORT")?),
            "--name" => name = Some(args.next().ok_or("--name needs a name")?),
            "--give-up-ms" => give_up = Some(ms_flag(&mut args, "--give-up-ms")?),
            "--jobs" => {
                let v = args.next().ok_or("--jobs needs a worker count")?;
                workers = Some(
                    v.parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or(format!("--jobs: bad worker count `{v}`"))?,
                );
            }
            "--max-conns" => {
                let v = args.next().ok_or("--max-conns needs a count")?;
                max_conns = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(format!("--max-conns: bad count `{v}`"))?;
            }
            "--io-timeout-ms" => io_timeout = ms_flag(&mut args, "--io-timeout-ms")?,
            "--write-timeout-ms" => {
                write_timeout = Some(ms_flag(&mut args, "--write-timeout-ms")?);
            }
            "--lease-ms" => lease = Some(ms_flag(&mut args, "--lease-ms")?),
            "--shed-watermark" => {
                let v = args.next().ok_or("--shed-watermark needs a depth")?;
                shed_watermark = Some(
                    v.parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or(format!("--shed-watermark: bad depth `{v}`"))?,
                );
            }
            "--retry-after-ms" => {
                let v = args.next().ok_or("--retry-after-ms needs milliseconds")?;
                retry_after_ms = Some(
                    v.parse::<u32>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or(format!("--retry-after-ms: bad value `{v}`"))?,
                );
            }
            "--max-frames-per-sec" => {
                let v = args.next().ok_or("--max-frames-per-sec needs a rate")?;
                max_frames_per_sec = Some(
                    v.parse::<u32>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or(format!("--max-frames-per-sec: bad rate `{v}`"))?,
                );
            }
            "--resume" => resume = true,
            "--coordinator" => coordinator = true,
            other => return Err(format!("unexpected argument `{other}`\n{}", usage())),
        }
    }
    if let Some(coordinator_addr) = join {
        if listen.is_some() || out_dir.is_some() || resume || coordinator {
            return Err(format!(
                "--join takes no serve flags (--listen/--out/--resume/--coordinator)\n{}",
                usage()
            ));
        }
        let mut config = AgentConfig::new(coordinator_addr);
        if let Some(n) = name {
            config.name = n;
        }
        if let Some(w) = workers {
            config.workers = w;
        }
        if let Some(g) = give_up {
            config.give_up_after = g;
        }
        return Ok(Mode::Join(config));
    }
    if name.is_some() || give_up.is_some() {
        return Err(format!(
            "--name/--give-up-ms only apply to --join\n{}",
            usage()
        ));
    }
    let mut config =
        ServerConfig::new(out_dir.ok_or_else(|| format!("--out is required\n{}", usage()))?);
    config.listen = listen.ok_or_else(|| format!("--listen is required\n{}", usage()))?;
    config.workers = if coordinator {
        0
    } else {
        workers.unwrap_or_else(tip_bench::default_workers)
    };
    config.resume = resume;
    config.max_conns = max_conns;
    config.io_timeout = io_timeout;
    if let Some(t) = write_timeout {
        config.write_timeout = t;
    }
    config.lease = lease.unwrap_or(if coordinator {
        DEFAULT_FLEET_LEASE
    } else {
        config.lease
    });
    if let Some(w) = shed_watermark {
        config.shed_watermark = w;
    }
    if let Some(r) = retry_after_ms {
        config.retry_after_ms = r;
    }
    if let Some(f) = max_frames_per_sec {
        config.max_frames_per_sec = f;
    }
    Ok(Mode::Serve(config))
}

fn run_serve(config: &ServerConfig) -> Result<(), DaemonError> {
    std::fs::create_dir_all(&config.out_dir).map_err(|error| DaemonError::OutDir {
        dir: config.out_dir.clone(),
        error,
    })?;
    if config.resume {
        let journal = config.out_dir.join("journal.txt");
        if journal.exists() {
            std::fs::read_to_string(&journal).map_err(|error| DaemonError::Resume {
                dir: config.out_dir.clone(),
                error,
            })?;
        }
    }
    let handle = serve(config).map_err(|error| DaemonError::Bind {
        listen: config.listen.clone(),
        error,
    })?;
    eprintln!(
        "tipd: listening on {} ({} workers, out {})",
        handle.addr(),
        config.workers,
        config.out_dir.display()
    );
    // Keep a stats source that survives `join` consuming the handle.
    let stats_source = handle.coordinator().clone();
    handle.join();
    let stats = stats_source.stats();
    eprintln!(
        "tipd: drained and exiting (done={} failed={} cancelled={})",
        stats.done, stats.failed, stats.cancelled
    );
    if stats.failed > 0 {
        return Err(DaemonError::FailedJobs {
            failed: stats.failed,
        });
    }
    Ok(())
}

fn run_join(config: &AgentConfig) -> Result<(), DaemonError> {
    eprintln!(
        "tipd: joining fleet at {} as {} ({} workers)",
        config.coordinator, config.name, config.workers
    );
    run_agent(config).map_err(DaemonError::Join)?;
    eprintln!("tipd: coordinator drained; exiting");
    Ok(())
}

fn main() -> ExitCode {
    let mode = match parse(std::env::args().skip(1)) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("tipd: {e}");
            return ExitCode::from(exit_code(&DaemonError::Usage(e)));
        }
    };
    let result = match mode {
        Mode::Serve(config) => run_serve(&config),
        Mode::Join(config) => run_join(&config),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tipd: {}", message(&e));
            ExitCode::from(exit_code(&e))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_failure_kind_maps_to_a_distinct_nonzero_exit_code() {
        let failures = [
            DaemonError::Usage("bad flag".to_owned()),
            DaemonError::Bind {
                listen: "127.0.0.1:1".to_owned(),
                error: io::Error::other("in use"),
            },
            DaemonError::OutDir {
                dir: PathBuf::from("/dev/null/nope"),
                error: io::Error::other("not a directory"),
            },
            DaemonError::Resume {
                dir: PathBuf::from("runs/x"),
                error: io::Error::other("permission denied"),
            },
            DaemonError::FailedJobs { failed: 2 },
            DaemonError::Join(ClientError::Io(io::Error::other("refused"))),
        ];
        let mut seen = std::collections::HashSet::new();
        for e in &failures {
            let code = exit_code(e);
            assert_ne!(code, 0, "{} must exit nonzero", message(e));
            assert!(seen.insert(code), "duplicate exit code {code}");
            assert!(!message(e).is_empty());
        }
    }

    #[test]
    fn parse_separates_the_three_modes() {
        fn to_args(s: &str) -> impl Iterator<Item = String> + '_ {
            s.split_whitespace().map(str::to_owned)
        }
        match parse(to_args("--listen 127.0.0.1:0 --out runs/x --jobs 3")) {
            Ok(Mode::Serve(c)) => {
                assert!(c.workers >= 1);
                assert_eq!(c.workers, 3);
            }
            _ => panic!("expected plain serve mode"),
        }
        match parse(to_args("--listen 127.0.0.1:0 --out runs/x --coordinator")) {
            Ok(Mode::Serve(c)) => {
                assert!(c.workers == 0);
                assert_eq!(c.lease, DEFAULT_FLEET_LEASE, "fleet lease default");
            }
            _ => panic!("expected coordinator mode"),
        }
        match parse(to_args("--join 127.0.0.1:7421 --jobs 2 --name d1")) {
            Ok(Mode::Join(a)) => {
                assert_eq!(a.coordinator, "127.0.0.1:7421");
                assert_eq!(a.workers, 2);
                assert_eq!(a.name, "d1");
            }
            _ => panic!("expected join mode"),
        }
        // Mixing join and serve flags is a usage error, as are join-only
        // flags without --join.
        assert!(parse(to_args("--join 127.0.0.1:1 --out runs/x")).is_err());
        assert!(parse(to_args("--listen 127.0.0.1:0 --out runs/x --name d1")).is_err());
    }
}
