//! The campaign ledger: every byte-stable artifact a campaign leaves on
//! disk, owned by one type so every frontend writes identical files.
//!
//! This used to be private plumbing inside [`crate::campaign`]; the
//! networked daemon (`tip-serve`) needs the *same* journal, result-file,
//! failure-report, and metrics formats — byte-identical, because the
//! acceptance story for remote submission is "diff the artifacts against a
//! local run" — so the persistence lives here and both frontends call it.
//!
//! Invariants the ledger enforces:
//!
//! * All writes go through temp-file + atomic rename
//!   ([`crate::checkpoint::atomic_write`]), so a `SIGKILL` never leaves a
//!   torn file.
//! * The caller is the single committer: one thread, canonical job order.
//!   The ledger itself never spawns or locks — determinism comes from call
//!   order, and the executor/committer already guarantees that.
//! * `journal.txt` records every settled benchmark (`done <name>` /
//!   `failed <name>`); [`Ledger::open`] with `resume` keeps only `done`
//!   entries so retried failures get a fresh verdict line.
//! * `metrics.txt` is the one deliberately non-deterministic file (host
//!   timing: wall, queue wait, worker indices).

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::campaign::{CompletedBench, FailedBench};
use crate::checkpoint::atomic_write;
use crate::executor::{ExecSummary, JobMetrics};
use crate::hostbench::ScalingReport;
use tip_core::ProfilerId;
use tip_isa::Granularity;

/// File name of the resume journal inside a campaign directory.
pub const JOURNAL_FILE: &str = "journal.txt";
/// File name of the failure report inside a campaign directory.
pub const FAILURES_FILE: &str = "failures.txt";
/// File name of the host-timing metrics inside a campaign directory.
pub const METRICS_FILE: &str = "metrics.txt";

/// Path of one benchmark's result file inside a campaign directory.
#[must_use]
pub fn result_path(dir: &Path, bench: &str) -> PathBuf {
    dir.join(format!("{bench}.result"))
}

/// Collapses a multi-line error (e.g. a livelock pipeline dump) to one line
/// for the key=value result files and wire error replies.
#[must_use]
pub fn one_line(s: &str) -> String {
    s.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect::<Vec<_>>()
        .join(" | ")
}

/// Renders a completed benchmark's result-file body — exactly the bytes
/// [`Ledger::commit_completed`] persists. Public so a fleet daemon can
/// render the artifact next to the simulation and ship the finished text to
/// the coordinator, whose ledger writes stay byte-identical to a local run.
#[must_use]
pub fn render_completed(c: &CompletedBench, profilers: &[ProfilerId]) -> String {
    let mut body = String::new();
    let _ = writeln!(body, "status=ok");
    let _ = writeln!(body, "bench={}", c.run.bench.name);
    let _ = writeln!(body, "attempts={}", c.attempts);
    let _ = writeln!(body, "cycles={}", c.run.run.summary.cycles);
    let _ = writeln!(body, "instructions={}", c.run.run.summary.instructions);
    let _ = writeln!(body, "ipc={:.6}", c.run.run.ipc());
    for &p in profilers {
        let err = c
            .run
            .run
            .bank
            .error_of(&c.run.bench.program, p, Granularity::Instruction);
        let _ = writeln!(body, "error.instr.{p:?}={err:.6}");
    }
    body
}

/// Renders a failed benchmark's result-file body — exactly the bytes
/// [`Ledger::commit_failed`] persists. See [`render_completed`].
#[must_use]
pub fn render_failed(f: &FailedBench) -> String {
    let mut body = String::new();
    let _ = writeln!(body, "status=failed");
    let _ = writeln!(body, "bench={}", f.name);
    let _ = writeln!(body, "attempts={}", f.attempts);
    let _ = writeln!(body, "error={}", one_line(&f.error.to_string()));
    body
}

/// One settled benchmark's host-timing entry in `metrics.txt`.
#[derive(Debug, Clone)]
struct BenchRow {
    name: String,
    ok: bool,
    attempts: u32,
    metrics: JobMetrics,
}

/// One failed benchmark's entry in `failures.txt`.
#[derive(Debug, Clone)]
struct FailureLine {
    name: String,
    attempts: u32,
    error: String,
}

/// Crash-consistent writer for a campaign's on-disk artifacts.
///
/// With no output directory the ledger is a no-op recorder (campaigns can
/// run purely in memory); with one, every commit incrementally rewrites the
/// journal and failure report and persists the benchmark's result file, in
/// the exact byte formats the campaign module has always produced.
#[derive(Debug)]
pub struct Ledger {
    out_dir: Option<PathBuf>,
    journal: Vec<(bool, String)>,
    /// Benchmarks settled OK in this or a resumed-from invocation
    /// (completed + skipped), for the failure report's `completed=` count.
    settled_ok: usize,
    failures: Vec<FailureLine>,
    rows: Vec<BenchRow>,
}

impl Ledger {
    /// Opens the ledger for a campaign directory. With `resume`, the
    /// journal's `done` entries are loaded so [`Self::is_done`] can skip
    /// re-enqueueing them; journalled *failures* are dropped (the retry's
    /// fresh verdict replaces the stale line).
    #[must_use]
    pub fn open(out_dir: Option<&Path>, resume: bool) -> Self {
        let mut ledger = Ledger {
            out_dir: out_dir.map(Path::to_path_buf),
            journal: Vec::new(),
            settled_ok: 0,
            failures: Vec::new(),
            rows: Vec::new(),
        };
        if !resume {
            return ledger;
        }
        let Some(dir) = &ledger.out_dir else {
            return ledger;
        };
        let Ok(body) = fs::read_to_string(dir.join(JOURNAL_FILE)) else {
            return ledger;
        };
        for line in body.lines() {
            if let Some(("done", name)) = line.split_once(' ') {
                ledger.journal.push((true, name.to_owned()));
            }
        }
        ledger
    }

    /// Whether the (resumed) journal already records `name` as complete.
    #[must_use]
    pub fn is_done(&self, name: &str) -> bool {
        self.journal.iter().any(|(ok, n)| *ok && n == name)
    }

    /// The benchmarks the (resumed) journal records as complete, in journal
    /// order — what a restarted daemon skips re-running.
    #[must_use]
    pub fn done_names(&self) -> Vec<String> {
        self.journal
            .iter()
            .filter(|(ok, _)| *ok)
            .map(|(_, n)| n.clone())
            .collect()
    }

    /// Notes a benchmark skipped because an earlier invocation completed
    /// it; it counts toward the failure report's `completed=` figure so a
    /// resumed campaign converges to the same report bytes.
    pub fn note_skipped(&mut self) {
        self.settled_ok += 1;
    }

    /// Commits a completed benchmark: persists its result file (with
    /// per-profiler error lines for `profilers`), journals it `done`, and
    /// rewrites the failure report.
    pub fn commit_completed(
        &mut self,
        c: &CompletedBench,
        metrics: JobMetrics,
        profilers: &[ProfilerId],
    ) {
        let body = render_completed(c, profilers);
        self.commit_rendered(c.run.bench.name, true, c.attempts, &body, "", metrics);
    }

    /// Commits a failed benchmark: persists its result file, journals it
    /// `failed`, and rewrites the failure report with the new casualty.
    pub fn commit_failed(&mut self, f: &FailedBench, metrics: JobMetrics) {
        let error_line = one_line(&f.error.to_string());
        let body = render_failed(f);
        self.commit_rendered(f.name, false, f.attempts, &body, &error_line, metrics);
    }

    /// Commits a settled benchmark whose result-file body is already
    /// rendered ([`render_completed`] / [`render_failed`]), locally or on a
    /// remote daemon: writes it verbatim, journals it, and rewrites the
    /// failure report, so the artifacts are byte-identical wherever the
    /// body was rendered. `error_line` is the one-line failure message for
    /// `failures.txt` (empty when `ok`).
    pub fn commit_rendered(
        &mut self,
        name: &str,
        ok: bool,
        attempts: u32,
        body: &str,
        error_line: &str,
        metrics: JobMetrics,
    ) {
        if let Some(dir) = &self.out_dir {
            report_io(atomic_write(&result_path(dir, name), body.as_bytes()));
        }
        if ok {
            self.settled_ok += 1;
        } else {
            self.failures.push(FailureLine {
                name: name.to_owned(),
                attempts,
                error: error_line.to_owned(),
            });
        }
        self.rows.push(BenchRow {
            name: name.to_owned(),
            ok,
            attempts,
            metrics,
        });
        self.record_journal(name, ok);
        self.persist_failure_report();
    }

    /// Writes `metrics.txt` from everything committed so far: per-job
    /// wall/queue-wait/worker/cycles/IPC rows plus the fan-out's aggregate
    /// speedup and [`ScalingReport`] figures.
    pub fn finish(&self, summary: ExecSummary) {
        let Some(dir) = &self.out_dir else { return };
        let rows = &self.rows;
        let wall_ms = summary.wall.as_secs_f64() * 1e3;
        let cpu_ms: f64 = rows
            .iter()
            .map(|r| r.metrics.wall.as_secs_f64() * 1e3)
            .sum();
        let mean_queue_wait_ms = if rows.is_empty() {
            0.0
        } else {
            rows.iter()
                .map(|r| r.metrics.queue_wait.as_secs_f64() * 1e3)
                .sum::<f64>()
                / rows.len() as f64
        };
        let mut body = String::new();
        let _ = writeln!(body, "jobs={}", rows.len());
        let _ = writeln!(body, "workers={}", summary.workers);
        let _ = writeln!(body, "wall_ms={wall_ms:.1}");
        let _ = writeln!(body, "cpu_ms={cpu_ms:.1}");
        let _ = writeln!(
            body,
            "speedup={:.2}",
            if wall_ms > 0.0 { cpu_ms / wall_ms } else { 1.0 }
        );
        // Host-throughput figures in hostbench's units (simulated cycles per
        // host-second), so a campaign's `--jobs N` scaling can be read
        // against the single-core numbers in `BENCH_PR4.json`.
        let total_cycles: u64 = rows.iter().map(|r| r.metrics.cycles).sum();
        let scaling =
            ScalingReport::new(total_cycles, wall_ms as u64, cpu_ms as u64, summary.workers)
                .with_queue_wait(mean_queue_wait_ms);
        let _ = writeln!(body, "total_cycles={total_cycles}");
        let _ = writeln!(body, "cycles_per_s={:.0}", scaling.cycles_per_s);
        let _ = writeln!(
            body,
            "per_worker_cycles_per_s={:.0}",
            scaling.per_worker_cycles_per_s
        );
        let _ = writeln!(body, "scaling_efficiency={:.3}", scaling.efficiency);
        let _ = writeln!(body, "mean_queue_wait_ms={:.1}", scaling.mean_queue_wait_ms);
        for r in rows {
            let _ = writeln!(
                body,
                "bench={} status={} attempts={} wall_ms={:.1} cycles={} instructions={} \
                 ipc={:.6} queue_wait_ms={:.1} worker={} assignments={} daemon={}",
                r.name,
                if r.ok { "ok" } else { "failed" },
                r.attempts,
                r.metrics.wall.as_secs_f64() * 1e3,
                r.metrics.cycles,
                r.metrics.instructions,
                r.metrics.ipc,
                r.metrics.queue_wait.as_secs_f64() * 1e3,
                r.metrics.worker,
                r.metrics.assignments,
                r.metrics.daemon,
            );
        }
        report_io(atomic_write(&dir.join(METRICS_FILE), body.as_bytes()));
    }

    fn record_journal(&mut self, name: &str, ok: bool) {
        self.journal.push((ok, name.to_owned()));
        let Some(dir) = &self.out_dir else { return };
        let mut body = String::new();
        for (ok, name) in &self.journal {
            let _ = writeln!(body, "{} {name}", if *ok { "done" } else { "failed" });
        }
        report_io(atomic_write(&dir.join(JOURNAL_FILE), body.as_bytes()));
    }

    fn persist_failure_report(&self) {
        let Some(dir) = &self.out_dir else { return };
        let mut body = String::new();
        // Skipped benchmarks completed in an earlier invocation of this
        // campaign, so a resumed run converges to the same report bytes as
        // an uninterrupted one.
        let _ = writeln!(
            body,
            "completed={} failed={}",
            self.settled_ok,
            self.failures.len()
        );
        for f in &self.failures {
            let _ = writeln!(body, "{} attempts={} {}", f.name, f.attempts, f.error);
        }
        report_io(atomic_write(&dir.join(FAILURES_FILE), body.as_bytes()));
    }
}

fn report_io(res: io::Result<()>) {
    if let Err(e) = res {
        eprintln!("campaign: failed to persist result: {e}");
    }
}
