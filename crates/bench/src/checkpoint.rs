//! Checkpoint/resume for long experiment runs.
//!
//! Every experiment point is a deterministic function of its per-point
//! seed ([`seed_for`](cachesim::prng::seed_for)), so a run interrupted
//! at an insertion boundary can be resumed bit-for-bit from a snapshot
//! of the engine plus the trace driver's replay state. The binaries
//! accept:
//!
//! * `--checkpoint-every N` — write a checkpoint file after every `N`
//!   measured insertions;
//! * `--checkpoint-dir DIR` — where checkpoint files go (default
//!   `results/checkpoints`);
//! * `--resume DIR` — before the measured run, load the point's
//!   checkpoint from `DIR` (skipping warmup entirely) and continue from
//!   the recorded insertion count;
//! * `--stop-after N` — end the measured run after `N` insertions,
//!   leaving a mid-run checkpoint behind for a later `--resume` (this
//!   is how the CI replay gate manufactures an interrupted run).
//!
//! One file per sweep point, named from the experiment and point label,
//! so resumption is `--jobs`-invariant just like the CSVs: no state is
//! shared between points, and each point's seed is derived from its
//! index, not from worker scheduling.
//!
//! A checkpoint file is a single snapshot stream: a `checkpoint` header
//! section (experiment, label, insertions done so far), the driver's
//! `rate-driver` section, and the complete engine image embedded as an
//! opaque blob. The engine image is itself a full
//! [`EngineCore::snapshot`](cachesim::EngineCore::snapshot) stream —
//! header, version and checksum included — so a checkpoint survives the
//! same corruption checks as any snapshot, twice over.
//!
//! Resuming with a *larger* `--checkpoint-every`-produced target than
//! the checkpointed run is deliberately allowed: the stored insertion
//! count says where the simulation stopped, and the measured run simply
//! continues to the currently requested horizon. That is how the
//! long-horizon runs in EXPERIMENTS.md extend a finished run without
//! replaying it.

use cachesim::{Engine, SnapshotError, SnapshotReader, SnapshotWriter};
use std::path::{Path, PathBuf};
use workloads::RateControlledDriver;

/// Checkpoint/resume policy parsed from the process arguments.
#[derive(Clone, Debug)]
pub struct Checkpointing {
    /// Write a checkpoint every this many measured insertions.
    every: Option<u64>,
    /// Directory receiving checkpoint files.
    dir: PathBuf,
    /// Directory to resume from, if any.
    resume: Option<PathBuf>,
    /// Stop the measured run after this many insertions (checkpoint
    /// files record the stop point, so a later `--resume` continues to
    /// the full horizon). Only useful together with `every`.
    stop_after: Option<u64>,
}

impl Checkpointing {
    /// Parse `--checkpoint-every N`, `--checkpoint-dir DIR` and
    /// `--resume DIR` from the process arguments.
    ///
    /// # Panics
    /// Panics on a malformed value (these are CLI entry points).
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        Checkpointing {
            every: flag_value(&args, "--checkpoint-every").map(|v| {
                let n: u64 = v
                    .parse()
                    .expect("--checkpoint-every needs a positive count");
                assert!(n > 0, "--checkpoint-every needs a positive count");
                n
            }),
            dir: flag_value(&args, "--checkpoint-dir")
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from("results/checkpoints")),
            resume: flag_value(&args, "--resume").map(PathBuf::from),
            stop_after: flag_value(&args, "--stop-after")
                .map(|v| v.parse().expect("--stop-after needs an insertion count")),
        }
    }

    /// Whether `--resume DIR` was given: callers must attach their
    /// measurement recorder *before* [`try_resume`](Self::try_resume)
    /// (the checkpointed engine image expects one) instead of after
    /// warmup.
    pub fn resuming(&self) -> bool {
        self.resume.is_some()
    }

    /// The checkpoint file for one sweep point under `dir`.
    pub fn file_in(dir: &Path, experiment: &str, label: &str) -> PathBuf {
        dir.join(format!("{experiment}__{}.ckpt", sanitize(label)))
    }

    /// Try to resume this point from `--resume`: returns the number of
    /// measured insertions already performed, or 0 when no resume
    /// directory was given. The engine must already have its recorder
    /// attached (checkpoints are taken with the measurement recorder
    /// live, so the restored image expects one).
    ///
    /// # Panics
    /// Panics with the decode error when `--resume` was given but the
    /// point's checkpoint is missing, corrupt, or from a different
    /// configuration — resuming from bad state must never silently
    /// degrade into a fresh run.
    pub fn try_resume<E: Engine + ?Sized>(
        &self,
        experiment: &str,
        label: &str,
        driver: &mut RateControlledDriver,
        cache: &mut E,
    ) -> u64 {
        let Some(dir) = &self.resume else {
            return 0;
        };
        let path = Self::file_in(dir, experiment, label);
        let bytes = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("--resume: cannot read {}: {e}", path.display()));
        load(&bytes, experiment, label, driver, cache)
            .unwrap_or_else(|e| panic!("--resume: {}: {e}", path.display()))
    }

    /// Run the measured window: `insertions` total, of which
    /// `already_done` (from [`try_resume`](Self::try_resume)) are
    /// skipped. With `--checkpoint-every N` the run is chunked and a
    /// checkpoint file is written after every chunk; chunking is
    /// invisible to the simulation (the driver carries its state across
    /// `run` calls), so the results are byte-identical to an
    /// uninterrupted run. Returns the total insertions driven
    /// (including the resumed portion); short counts mean a trace was
    /// exhausted.
    pub fn run<E: Engine + ?Sized>(
        &self,
        experiment: &str,
        label: &str,
        driver: &mut RateControlledDriver,
        cache: &mut E,
        already_done: u64,
        insertions: u64,
    ) -> u64 {
        let mut done = already_done;
        let target = self.stop_after.map_or(insertions, |s| s.min(insertions));
        let Some(every) = self.every else {
            if done < target {
                done += driver.run(cache, target - done);
            }
            return done;
        };
        while done < target {
            let chunk = every.min(target - done);
            let driven = driver.run(cache, chunk);
            done += driven;
            self.write(experiment, label, driver, cache, done);
            if driven < chunk {
                break; // trace exhausted; the checkpoint records where
            }
        }
        done
    }

    /// Serialize driver + engine into this point's checkpoint file
    /// (write-then-rename, so a crash never leaves a torn file behind).
    fn write<E: Engine + ?Sized>(
        &self,
        experiment: &str,
        label: &str,
        driver: &RateControlledDriver,
        cache: &E,
        done: u64,
    ) {
        std::fs::create_dir_all(&self.dir).expect("create checkpoint dir");
        let path = Self::file_in(&self.dir, experiment, label);
        let tmp = path.with_extension("ckpt.tmp");
        std::fs::write(&tmp, save(experiment, label, driver, cache, done))
            .unwrap_or_else(|e| panic!("write checkpoint {}: {e}", tmp.display()));
        std::fs::rename(&tmp, &path)
            .unwrap_or_else(|e| panic!("publish checkpoint {}: {e}", path.display()));
    }
}

/// Encode one checkpoint: header, driver replay state, engine image.
pub fn save<E: Engine + ?Sized>(
    experiment: &str,
    label: &str,
    driver: &RateControlledDriver,
    cache: &E,
    done: u64,
) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.begin("checkpoint");
    w.str(experiment);
    w.str(label);
    w.u64(done);
    w.end();
    driver.save_state(&mut w);
    w.begin("engine-image");
    w.bytes(&cache.snapshot());
    w.end();
    w.finish()
}

/// Decode a checkpoint into a freshly rebuilt driver + engine of the
/// same composition; returns the insertion count recorded at save time.
///
/// # Errors
/// [`SnapshotError::Mismatch`] when the checkpoint belongs to a
/// different experiment or sweep point, plus every error the underlying
/// snapshot decoders can produce.
pub fn load<E: Engine + ?Sized>(
    bytes: &[u8],
    experiment: &str,
    label: &str,
    driver: &mut RateControlledDriver,
    cache: &mut E,
) -> Result<u64, SnapshotError> {
    let mut r = SnapshotReader::open(bytes)?;
    r.begin("checkpoint")?;
    let exp = r.str()?;
    if exp != experiment {
        return Err(SnapshotError::mismatch(format!(
            "checkpoint belongs to experiment {exp:?}, expected {experiment:?}"
        )));
    }
    let lab = r.str()?;
    if lab != label {
        return Err(SnapshotError::mismatch(format!(
            "checkpoint belongs to point {lab:?}, expected {label:?}"
        )));
    }
    let done = r.u64()?;
    r.end()?;
    driver.load_state(&mut r)?;
    r.begin("engine-image")?;
    let image = r.bytes()?;
    cache.restore(image)?;
    r.end()?;
    r.finish()?;
    Ok(done)
}

/// Point labels become file names: keep alphanumerics, `.`, `-`, `_`;
/// everything else maps to `-`.
fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '_') {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// Parse `--horizon N`: extend an experiment's measured window to `N`
/// insertions while keeping everything *composition-relevant* (recorder
/// cadence, warmup, seeds) pinned to the scale's defaults. Synthetic
/// traces are prefix-stable in their seed, so a checkpoint taken at the
/// default horizon resumes seamlessly into a longer one — that is the
/// long-horizon methodology in EXPERIMENTS.md.
pub fn horizon_override() -> Option<u64> {
    let args: Vec<String> = std::env::args().collect();
    flag_value(&args, "--horizon").map(|v| {
        let n: u64 = v.parse().expect("--horizon needs an insertion count");
        assert!(n > 0, "--horizon needs a positive insertion count");
        n
    })
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    for (i, a) in args.iter().enumerate() {
        if a == flag {
            return Some(
                args.get(i + 1)
                    .unwrap_or_else(|| panic!("{flag} needs a value"))
                    .clone(),
            );
        }
        if let Some(v) = a.strip_prefix(&format!("{flag}=")) {
            return Some(v.to_string());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachesim::array::RandomCandidates;
    use cachesim::{PartitionedCache, Trace};

    fn composition(seed: u64) -> (PartitionedCache, RateControlledDriver) {
        let cache = PartitionedCache::new(
            Box::new(RandomCandidates::new(256, 8, seed)),
            cachesim::naive_lru(),
            cachesim::evict_max_futility(),
            2,
        );
        let traces = vec![
            Trace::from_addrs((0..40_000u64).map(|i| i % 900), 1),
            Trace::from_addrs((0..40_000u64).map(|i| (1 << 20) | (i % 500)), 1),
        ];
        let driver = RateControlledDriver::new(traces, vec![0.5, 0.5], seed ^ 0xC0FFEE);
        (cache, driver)
    }

    #[test]
    fn checkpoint_round_trip_resumes_bit_identically() {
        // Uninterrupted reference run.
        let (mut full_cache, mut full_driver) = composition(7);
        full_driver.run(&mut full_cache, 5_000);

        // Checkpointed run: stop at 3_000, encode, rebuild, decode.
        let (mut cache, mut driver) = composition(7);
        driver.run(&mut cache, 3_000);
        let file = save("exp", "point", &driver, &cache, 3_000);

        let (mut cache2, mut driver2) = composition(7);
        let done = load(&file, "exp", "point", &mut driver2, &mut cache2).unwrap();
        assert_eq!(done, 3_000);
        driver2.run(&mut cache2, 2_000);

        assert_eq!(full_cache.snapshot(), cache2.snapshot());
    }

    #[test]
    fn checkpoint_rejects_wrong_point() {
        let (mut cache, mut driver) = composition(3);
        driver.run(&mut cache, 100);
        let file = save("exp", "point-a", &driver, &cache, 100);
        let (mut cache2, mut driver2) = composition(3);
        let err = load(&file, "exp", "point-b", &mut driver2, &mut cache2).unwrap_err();
        assert!(matches!(err, SnapshotError::Mismatch { .. }), "{err}");
        let err = load(&file, "other", "point-a", &mut driver2, &mut cache2).unwrap_err();
        assert!(matches!(err, SnapshotError::Mismatch { .. }), "{err}");
    }

    #[test]
    fn labels_sanitize_to_safe_file_names() {
        let p = Checkpointing::file_in(Path::new("d"), "fig5", "fs(I1=0.1)");
        assert_eq!(p, PathBuf::from("d/fig5__fs-I1-0.1-.ckpt"));
    }

    #[test]
    fn chunked_run_matches_uninterrupted_run() {
        let (mut full_cache, mut full_driver) = composition(11);
        full_driver.run(&mut full_cache, 4_000);

        let dir = std::env::temp_dir().join("fs-ckpt-test-chunked");
        let _ = std::fs::remove_dir_all(&dir);
        let cp = Checkpointing {
            every: Some(700), // does not divide 4_000: exercises the tail chunk
            dir: dir.clone(),
            resume: None,
            stop_after: None,
        };
        let (mut cache, mut driver) = composition(11);
        let done = cp.run("exp", "p", &mut driver, &mut cache, 0, 4_000);
        assert_eq!(done, 4_000);
        assert_eq!(full_cache.snapshot(), cache.snapshot());

        // The last checkpoint on disk resumes to the same final state.
        let bytes = std::fs::read(Checkpointing::file_in(&dir, "exp", "p")).unwrap();
        let (mut cache2, mut driver2) = composition(11);
        let done = load(&bytes, "exp", "p", &mut driver2, &mut cache2).unwrap();
        assert_eq!(done, 4_000);
        assert_eq!(full_cache.snapshot(), cache2.snapshot());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
