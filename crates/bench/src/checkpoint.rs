//! Mid-run checkpointing: periodic `TIPS` snapshots and crash-safe resume.
//!
//! A checkpointed run ([`crate::run::run_profiled_sliced`] with a
//! [`CheckpointSpec`] in its context) simulates in slices of
//! [`CheckpointSpec::every_cycles`] cycles. At each slice boundary it seals
//! the trace file and atomically persists a `TIPS` container (see
//! [`tip_trace::snapshot`]) holding the core's full mid-flight state, the
//! profiler bank's accumulators, and the trace writer's resume position. If the process dies, re-running with
//! [`CheckpointSpec::resume`] restores the last checkpoint, truncates the
//! trace file back to its recorded frame boundary (discarding any torn
//! tail), and continues — producing a commit trace and final profiles
//! **bit-identical** to an uninterrupted run with the same seed.
//!
//! Damage to a checkpoint is never restored silently: a corrupt, truncated,
//! or stale-version snapshot surfaces as
//! [`crate::run::RunError::Checkpoint`] with the classified [`TraceError`],
//! and the poisoned file is removed so the campaign's bounded retry falls
//! back to a from-scratch run.
//!
//! All files are written via temp-file + atomic rename, with the file and
//! its directory fsynced, so a crash can never leave a half-written
//! checkpoint or result masquerading as a complete one.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use tip_core::{ProfilerBank, ProfilerId, SamplerConfig};
use tip_isa::Program;
use tip_ooo::{Core, CoreConfig};
use tip_trace::{
    read_snapshot, write_snapshot, TraceError, TracePos, TraceWriter, SECTION_CORE,
    SECTION_PROFILERS, SECTION_TRACE_POS,
};

/// Where and how often a checkpointed run persists its state.
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// Path of the `TIPS` snapshot file (conventionally `<bench>.tips`).
    pub snapshot_path: PathBuf,
    /// Path of the framed trace file the run writes and, on resume, extends.
    pub trace_path: PathBuf,
    /// Simulated cycles between checkpoints.
    pub every_cycles: u64,
    /// Whether to restore an existing snapshot instead of starting fresh.
    pub resume: bool,
}

/// The decoded contents of a checkpoint file.
#[derive(Debug, Clone)]
pub struct LoadedCheckpoint {
    /// Simulated cycle at which the checkpoint was taken.
    pub cycle: u64,
    /// The core's serialized state (`tip_ooo::Core::snapshot`).
    pub core: Vec<u8>,
    /// The profiler bank's serialized state (`tip_core::ProfilerBank::snapshot`).
    pub bank: Vec<u8>,
    /// The trace writer's resume position.
    pub trace: TracePos,
}

/// Writes `bytes` to `path` crash-consistently: temp file in the same
/// directory, fsync, atomic rename, fsync of the directory. A reader (or a
/// restart) sees either the old content or the new — never a torn mix.
///
/// # Errors
///
/// Any I/O error from creating, writing, syncing, or renaming.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    fs::create_dir_all(&dir)?;
    let name = path
        .file_name()
        .ok_or_else(|| io::Error::other("atomic_write: path has no file name"))?;
    let tmp = dir.join(format!(".{}.tmp", name.to_string_lossy()));
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    fsync_dir(&dir)
}

/// Makes a rename in `dir` durable by fsyncing the directory itself.
/// Best-effort on platforms where directories cannot be opened.
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    match File::open(dir) {
        Ok(d) => d.sync_all(),
        Err(_) => Ok(()),
    }
}

/// Atomically persists a checkpoint: core state, bank state, and the trace
/// position, wrapped in a CRC-framed `TIPS` container.
///
/// # Errors
///
/// Any I/O error from the atomic write.
pub fn save_checkpoint(
    path: &Path,
    cycle: u64,
    core: &[u8],
    bank: &[u8],
    trace: TracePos,
) -> io::Result<()> {
    let pos = trace.encode();
    let bytes = write_snapshot(
        cycle,
        &[
            (SECTION_CORE, core),
            (SECTION_PROFILERS, bank),
            (SECTION_TRACE_POS, pos.as_slice()),
        ],
    );
    atomic_write(path, &bytes)
}

/// Reads and CRC-verifies a checkpoint file.
///
/// # Errors
///
/// A classified [`TraceError`]: `Io` when the file cannot be read,
/// `BadMagic`/`UnsupportedVersion` for a foreign or stale container,
/// `Corrupt`/`Truncated` for damaged bytes, and `Malformed` when a required
/// section is missing or inconsistent.
pub fn load_checkpoint(path: &Path) -> Result<LoadedCheckpoint, TraceError> {
    let bytes = fs::read(path)?;
    let snap = read_snapshot(&bytes)?;
    let section = |tag: u8, what: &'static str| {
        snap.section(tag)
            .ok_or(TraceError::Malformed(what))
            .map(<[u8]>::to_vec)
    };
    let core = section(SECTION_CORE, "checkpoint missing the core section")?;
    let bank = section(SECTION_PROFILERS, "checkpoint missing the profiler section")?;
    let pos = section(SECTION_TRACE_POS, "checkpoint missing the trace position")?;
    Ok(LoadedCheckpoint {
        cycle: snap.cycle,
        core,
        bank,
        trace: TracePos::decode(&pos)?,
    })
}

/// Opens the trace file for a resumed run: verifies it still covers the
/// checkpointed prefix, truncates any torn tail past the last sealed chunk,
/// and positions the cursor for appending.
fn reopen_trace(path: &Path, pos: TracePos) -> Result<File, TraceError> {
    let mut file = OpenOptions::new().read(true).write(true).open(path)?;
    let len = file.metadata()?.len();
    if len < pos.framed_bytes {
        // The file lost bytes the checkpoint relies on (e.g. never made it
        // to disk before power loss): the prefix cannot be trusted.
        return Err(TraceError::Truncated {
            last_good_cycle: None,
        });
    }
    file.set_len(pos.framed_bytes)?;
    file.seek(SeekFrom::Start(pos.framed_bytes))?;
    Ok(file)
}

/// Builds the run's core, bank, and trace writer: restored from the
/// snapshot when `spec` asks to resume and one exists, fresh from `seed`
/// otherwise. Without a `spec` there is no trace writer.
#[allow(clippy::type_complexity)]
pub(crate) fn build_state<'p>(
    program: &'p Program,
    config: CoreConfig,
    sampler: SamplerConfig,
    profilers: &[ProfilerId],
    seed: u64,
    spec: Option<&CheckpointSpec>,
) -> Result<(Core<'p>, ProfilerBank, Option<TraceWriter<File>>), TraceError> {
    if let Some(spec) = spec.filter(|s| s.resume && s.snapshot_path.exists()) {
        let ckpt = load_checkpoint(&spec.snapshot_path)?;
        let core = Core::restore(program, config, &ckpt.core)?;
        let bank = ProfilerBank::restore(program, sampler, &ckpt.bank)?;
        let file = reopen_trace(&spec.trace_path, ckpt.trace)?;
        return Ok((core, bank, Some(TraceWriter::resume(file, ckpt.trace))));
    }
    let trace = match spec {
        None => None,
        Some(spec) => {
            if !spec.resume {
                // A fresh run must not pick up a stale snapshot later.
                let _ = fs::remove_file(&spec.snapshot_path);
            }
            if let Some(dir) = spec.trace_path.parent() {
                fs::create_dir_all(dir)?;
            }
            Some(TraceWriter::new(File::create(&spec.trace_path)?))
        }
    };
    let core = Core::new(program, config, seed);
    let bank = ProfilerBank::new(program, sampler, profilers);
    Ok((core, bank, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::RunCtx;
    use crate::run::{run_profiled_sliced, ProfiledRun, RunError, MAX_CYCLES};
    use tip_trace::{Fault, FaultPlan, TraceReader};
    use tip_workloads::{benchmark, SuiteScale};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tip-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn spec_in(dir: &Path, every: u64, resume: bool) -> CheckpointSpec {
        CheckpointSpec {
            snapshot_path: dir.join("bench.tips"),
            trace_path: dir.join("bench.trace"),
            every_cycles: every,
            resume,
        }
    }

    fn run_checkpointed(
        program: &Program,
        profilers: &[ProfilerId],
        seed: u64,
        spec: &CheckpointSpec,
        max_cycles: u64,
    ) -> Result<ProfiledRun, RunError> {
        let ctx = RunCtx {
            checkpoint: Some(spec.clone()),
            ..RunCtx::new(seed)
        };
        let sampler = SamplerConfig::periodic(211);
        run_profiled_sliced(
            program,
            CoreConfig::default(),
            sampler,
            profilers,
            max_cycles,
            &ctx,
        )
    }

    #[test]
    fn checkpointed_run_matches_the_plain_runner() {
        let b = benchmark("exchange2", SuiteScale::Test);
        let sampler = SamplerConfig::periodic(211);
        let profilers = [ProfilerId::Tip, ProfilerId::Nci];
        let plain =
            crate::run::run_profiled(&b.program, CoreConfig::default(), sampler, &profilers, 5)
                .expect("plain run");

        let dir = tmp_dir("plain-eq");
        let spec = spec_in(&dir, 2_003, false);
        let ckpt = run_checkpointed(&b.program, &profilers, 5, &spec, MAX_CYCLES)
            .expect("checkpointed run");

        assert_eq!(ckpt.summary, plain.summary);
        assert_eq!(ckpt.stats, plain.stats);
        assert_eq!(ckpt.bank.total_cycles, plain.bank.total_cycles);
        for p in profilers {
            assert_eq!(ckpt.bank.samples_of(p), plain.bank.samples_of(p));
        }
        // The trace file decodes to exactly the run's cycles, and the
        // consumed snapshot is gone.
        let file = File::open(&spec.trace_path).expect("trace file");
        let n = TraceReader::new(file)
            .collect::<Result<Vec<_>, _>>()
            .expect("decodes")
            .len() as u64;
        assert_eq!(n, ckpt.summary.cycles);
        assert!(!spec.snapshot_path.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_file_round_trips() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("x.tips");
        let pos = TracePos {
            framed_bytes: 100,
            records: 7,
            payload_bytes: 60,
        };
        save_checkpoint(&path, 1_234, b"core", b"bank", pos).expect("save");
        let back = load_checkpoint(&path).expect("load");
        assert_eq!(back.cycle, 1_234);
        assert_eq!(back.core, b"core");
        assert_eq!(back.bank, b"bank");
        assert_eq!(back.trace, pos);
        // No temp file left behind.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .expect("dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_checkpoints_are_classified_and_removed() {
        let b = benchmark("exchange2", SuiteScale::Test);
        let profilers = [ProfilerId::Tip];

        let plans = [
            (
                "flip",
                FaultPlan::new(3, vec![Fault::FlipBits { bits: 64 }]),
            ),
            (
                "truncate",
                FaultPlan::new(4, vec![Fault::Truncate { keep_fraction: 0.4 }]),
            ),
            ("stale", FaultPlan::new(5, vec![Fault::StaleSnapshotHeader])),
        ];
        for (tag, plan) in plans {
            let dir = tmp_dir(&format!("damage-{tag}"));
            // Produce a real interrupted state (a budget past the first
            // checkpoint), then damage the snapshot.
            let spec = spec_in(&dir, 1_000, false);
            run_checkpointed(&b.program, &profilers, 9, &spec, 1_500)
                .expect_err("1.5k cycles cannot finish the benchmark");
            let mut bytes = fs::read(&spec.snapshot_path).expect("read");
            plan.apply_snapshot(&mut bytes);
            fs::write(&spec.snapshot_path, &bytes).expect("write damage");

            let resume = CheckpointSpec {
                resume: true,
                ..spec.clone()
            };
            let err = run_checkpointed(&b.program, &profilers, 9, &resume, MAX_CYCLES)
                .expect_err("damaged snapshot must not restore");
            assert!(
                matches!(err, RunError::Checkpoint { .. }),
                "{tag}: got {err:?}"
            );
            assert!(
                !spec.snapshot_path.exists(),
                "{tag}: poisoned snapshot not removed"
            );
            // The retry path: with the poison gone, the same invocation
            // completes from scratch.
            run_checkpointed(&b.program, &profilers, 9, &resume, MAX_CYCLES)
                .expect("from-scratch fallback");
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
