//! Snapshot persistence: epochs that survive a restart.
//!
//! The durability unit is the epoch cut. Every scheduled cut already
//! produces an immutable [`Snapshot`](crate::service::Snapshot) (merged sketch + [`EpochReport`]);
//! this module gives that pair a **versioned, seed-and-spec-stamped binary
//! encoding** and a crash-tolerant on-disk store, so a
//! [`StreamService`](crate::service::StreamService) can cold-start from the
//! last valid snapshot and replay only the stream tail after its epoch
//! stamp.
//!
//! Two sealed envelopes ([`crate::frame`]: magic, version, length, body,
//! CRC-32C), both strict — truncation, bit flips and trailing bytes are
//! typed errors:
//!
//! * **Sketch blob** (`BDSK`): the full [`SketchSpec`]
//!   display string (which embeds the seed — a wrong-seed file *is* a
//!   wrong-spec file), then the family's
//!   [`SketchState`](crate::state::SketchState) encoding. Decoding rebuilds
//!   the sketch from the stamped spec through the registry and overwrites
//!   only the mutable state, so shapes and hash functions can never
//!   desynchronize from the construction path.
//! * **Snapshot file** (`BDSN`, capped at [`MAX_SNAPSHOT`]): the spec and
//!   service-config strings, the epoch position (epoch index, ingested
//!   prefix length, *offered* stream position — the replay cursor), the
//!   cumulative accounting of the [`EpochReport`], and — filling the rest
//!   of the body — the sketch blob.
//!
//! [`SnapshotStore`] writes one file per epoch (`epoch-NNNNNNNN.bdsnap`)
//! via a temp-file + rename, and [`SnapshotStore::load_latest`] scans
//! newest-first, skipping invalid files — a torn final write simply falls
//! back to the previous epoch. Recovery correctness (persist → restart →
//! replay-tail ≡ uninterrupted) is pinned by `tests/recovery.rs`; the
//! round-trip law (`from_bytes(to_bytes(s))` bit-identical) by
//! `tests/conformance.rs`.

use crate::frame;
use crate::registry::{DynSketch, Registry, RegistryError};
use crate::service::EpochReport;
use crate::spec::SketchSpec;
use crate::state::{StateError, StateReader, StateWriter};
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Crash-point fault injection for the durability tests.
///
/// A "crash" in-process: an armed [`FaultInjector`](fault::FaultInjector) makes the durable
/// write path stop — or tear — at a chosen point, then poisons every
/// further persistence operation with
/// [`PersistError::FaultInjected`], so dropping the service afterwards
/// models a process that died at exactly that instant. What recovery
/// then observes on disk is precisely what a real crash at that point
/// would have left behind (`tests/wal.rs` drives the sweep per
/// mergeable family).
pub mod fault {
    use super::PersistError;
    use std::fmt;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Where the injected crash lands relative to a WAL append and the
    /// epoch-cut snapshot save that follows it.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum FaultPoint {
        /// Die before the Nth append writes anything: the dispatched
        /// cell is lost (exactly what a crash between dispatch and
        /// append loses).
        BeforeAppend,
        /// Die mid-write of the Nth append: the segment ends in a torn
        /// frame early in the record.
        MidAppend,
        /// Die after the Nth append is fully durable but before the next
        /// snapshot save: the WAL tail alone carries the epoch.
        AfterAppend,
        /// Die leaving the Nth append torn just short of its checksum —
        /// the adversarial torn-final-record shape.
        TornTail,
    }

    impl fmt::Display for FaultPoint {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(match self {
                FaultPoint::BeforeAppend => "before-append",
                FaultPoint::MidAppend => "mid-append",
                FaultPoint::AfterAppend => "after-append",
                FaultPoint::TornTail => "torn-tail",
            })
        }
    }

    impl std::str::FromStr for FaultPoint {
        type Err = String;

        fn from_str(s: &str) -> Result<Self, String> {
            match s.trim() {
                "before-append" => Ok(FaultPoint::BeforeAppend),
                "mid-append" => Ok(FaultPoint::MidAppend),
                "after-append" => Ok(FaultPoint::AfterAppend),
                "torn-tail" => Ok(FaultPoint::TornTail),
                other => Err(format!("`{other}` is not a fault point")),
            }
        }
    }

    /// Every injectable crash point, in sweep order.
    pub const ALL_POINTS: [FaultPoint; 4] = [
        FaultPoint::BeforeAppend,
        FaultPoint::MidAppend,
        FaultPoint::AfterAppend,
        FaultPoint::TornTail,
    ];

    /// A crash plan: fire `point` on append number `after_appends`
    /// (0-based count of appends completed before the trigger).
    #[derive(Clone, Copy, Debug)]
    pub struct FaultPlan {
        /// Where the crash lands.
        pub point: FaultPoint,
        /// How many appends complete normally before it fires.
        pub after_appends: usize,
    }

    /// What the writer must do with the frame it is about to append.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum AppendAction {
        /// Append normally.
        WriteAll,
        /// Write only the first `n` frame bytes durably, then die.
        WritePrefix(usize),
        /// Append (and sync) the whole frame, then die before anything
        /// else becomes durable.
        WriteAllThenDie,
        /// Die without writing.
        Die,
    }

    /// Shared crash switch: armed once, consulted by the
    /// [`WalWriter`](crate::wal::WalWriter) on every append and by the
    /// [`SnapshotStore`](super::SnapshotStore) on every save. Once
    /// fired, the injector stays dead — like the process it models.
    #[derive(Debug)]
    pub struct FaultInjector {
        plan: FaultPlan,
        appends: AtomicUsize,
        dead: AtomicBool,
    }

    impl FaultInjector {
        /// Arm a crash plan, shared between the service's store and WAL
        /// writer.
        pub fn arm(plan: FaultPlan) -> Arc<Self> {
            Arc::new(FaultInjector {
                plan,
                appends: AtomicUsize::new(0),
                dead: AtomicBool::new(false),
            })
        }

        /// The crash point this injector models.
        pub fn point(&self) -> FaultPoint {
            self.plan.point
        }

        /// Whether the crash has fired.
        pub fn fired(&self) -> bool {
            self.dead.load(Ordering::SeqCst)
        }

        /// `Err(FaultInjected)` once the crash has fired — the poisoned
        /// state every later persistence call observes.
        pub fn ensure_alive(&self) -> Result<(), PersistError> {
            if self.fired() {
                Err(PersistError::FaultInjected(self.plan.point))
            } else {
                Ok(())
            }
        }

        /// Decide the fate of the next append (frame of `frame_len`
        /// bytes). Counts calls; fires the plan on the configured one.
        pub fn on_append(&self, frame_len: usize) -> AppendAction {
            if self.fired() {
                return AppendAction::Die;
            }
            let n = self.appends.fetch_add(1, Ordering::SeqCst);
            if n != self.plan.after_appends {
                return AppendAction::WriteAll;
            }
            self.dead.store(true, Ordering::SeqCst);
            match self.plan.point {
                FaultPoint::BeforeAppend => AppendAction::Die,
                // Tear early: the length prefix itself is cut short.
                FaultPoint::MidAppend => {
                    AppendAction::WritePrefix(frame_len.saturating_sub(1).min(3))
                }
                FaultPoint::AfterAppend => AppendAction::WriteAllThenDie,
                // Tear late: everything but the tail of the checksum.
                FaultPoint::TornTail => AppendAction::WritePrefix(frame_len.saturating_sub(2)),
            }
        }
    }
}

/// Fsync a directory, making renames/creates/unlinks inside it durable.
/// A rename is only crash-safe once the *directory entry* reaches disk —
/// fsyncing the file alone leaves the name itself volatile.
pub fn sync_dir(dir: impl AsRef<Path>) -> Result<(), PersistError> {
    fs::File::open(dir.as_ref())?.sync_all()?;
    Ok(())
}

/// Magic tag opening a sketch blob.
pub const SKETCH_MAGIC: [u8; 4] = *b"BDSK";

/// Magic tag opening a snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"BDSN";

/// Format version stamped into both envelopes. Decoders reject any other
/// version ([`PersistError::UnsupportedVersion`]); bumping this is the
/// contract for any layout change.
pub const PERSIST_VERSION: u16 = 2;

/// Hard cap on a snapshot payload or sketch state blob. Snapshots carry
/// whole sketch tables, so the cap is wider than the wire layer's 1 MiB
/// query-frame cap ([`crate::wire::MAX_FRAME`]) but serves the same
/// purpose: a corrupt length header is rejected before it can demand an
/// absurd allocation.
pub const MAX_SNAPSHOT: usize = 1 << 26;

/// Why persistence failed: every adversarial input (truncation, bit flips,
/// wrong version, wrong spec/seed, oversized lengths) lands on one of
/// these — decoding never panics.
#[derive(Clone, Debug, PartialEq)]
pub enum PersistError {
    /// Filesystem failure, with the formatted OS error.
    Io(String),
    /// The blob doesn't open with the expected magic tag.
    BadMagic,
    /// The blob's format version is not the one this build reads.
    UnsupportedVersion(u16),
    /// A length header exceeds its cap ([`MAX_SNAPSHOT`] for snapshots and
    /// sketch blobs, [`MAX_WAL_RECORD`](crate::wal::MAX_WAL_RECORD) for WAL
    /// headers and records).
    Oversized(u64),
    /// An envelope's CRC-32C doesn't match its contents (bit flips, torn
    /// writes).
    ChecksumMismatch,
    /// The stamped spec string failed to parse.
    BadSpec(String),
    /// The stamped spec doesn't match the one the caller is running with —
    /// different family, shape, or **seed** (the spec string embeds the
    /// seed, so a wrong-seed file is caught here).
    SpecMismatch {
        /// The spec the caller expected.
        expected: String,
        /// The spec the file stamps.
        found: String,
    },
    /// The stamped service config doesn't match the recovering service's
    /// (dispatch geometry — threads/chunk/epoch — must continue
    /// identically for replay to be faithful).
    ConfigMismatch {
        /// The config the caller expected.
        expected: String,
        /// The config the file stamps.
        found: String,
    },
    /// The family doesn't advertise the persist capability.
    NotPersistable,
    /// An armed [`fault::FaultInjector`] fired: the modeled process died
    /// at this crash point (testing only — never produced in normal
    /// operation).
    FaultInjected(fault::FaultPoint),
    /// The state blob inside the envelope is malformed.
    State(StateError),
    /// Rebuilding the sketch from the stamped spec failed.
    Registry(RegistryError),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "snapshot I/O failed: {e}"),
            PersistError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            PersistError::UnsupportedVersion(v) => {
                write!(f, "snapshot format version {v} is not supported")
            }
            PersistError::Oversized(n) => {
                write!(f, "snapshot length {n} exceeds the {MAX_SNAPSHOT}-byte cap")
            }
            PersistError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            PersistError::BadSpec(e) => write!(f, "snapshot spec stamp failed to parse: {e}"),
            PersistError::SpecMismatch { expected, found } => {
                write!(f, "snapshot spec `{found}` does not match `{expected}`")
            }
            PersistError::ConfigMismatch { expected, found } => {
                write!(f, "snapshot config `{found}` does not match `{expected}`")
            }
            PersistError::NotPersistable => {
                write!(f, "family does not support state persistence")
            }
            PersistError::FaultInjected(p) => {
                write!(f, "injected crash fired at the {p} fault point")
            }
            PersistError::State(e) => write!(f, "snapshot state blob: {e}"),
            PersistError::Registry(e) => write!(f, "snapshot rebuild failed: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<StateError> for PersistError {
    fn from(e: StateError) -> Self {
        PersistError::State(e)
    }
}

impl From<RegistryError> for PersistError {
    fn from(e: RegistryError) -> Self {
        PersistError::Registry(e)
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e.to_string())
    }
}

/// Encode a sketch as a sealed `BDSK` blob: the spec display string (seed
/// included), then the family's state encoding.
/// Errs with [`PersistError::NotPersistable`] if the family doesn't
/// implement [`SketchState`](crate::state::SketchState).
pub fn sketch_to_bytes(spec: &SketchSpec, sk: &dyn DynSketch) -> Result<Vec<u8>, PersistError> {
    let state = sk.persist_state().ok_or(PersistError::NotPersistable)?;
    let mut body = StateWriter::new();
    body.str(&spec.to_string());
    state.save_state(&mut body);
    frame::seal(
        SKETCH_MAGIC,
        PERSIST_VERSION,
        &body.into_bytes(),
        MAX_SNAPSHOT,
    )
}

/// Decode a sketch blob: parse the stamped spec, rebuild the sketch fresh
/// through the registry (the type-checked construction path), and overwrite
/// its mutable state. Strict: truncation, trailing bytes, bad magic, bit
/// flips and unsupported versions are all typed errors.
pub fn sketch_from_bytes(
    registry: &Registry,
    bytes: &[u8],
) -> Result<(SketchSpec, Box<dyn DynSketch>), PersistError> {
    let mut r = StateReader::new(unseal_exact(bytes, SKETCH_MAGIC)?);
    let spec = parse_spec(&r.str()?)?;
    let mut sk = registry.build(&spec)?;
    let state = sk.persist_state_mut().ok_or(PersistError::NotPersistable)?;
    state.load_state(&mut r)?;
    r.finish()?;
    Ok((spec, sk))
}

/// Open a `BDSK`/`BDSN` envelope that must span all of `bytes`.
fn unseal_exact(bytes: &[u8], magic: [u8; 4]) -> Result<&[u8], PersistError> {
    let (body, rest) = frame::unseal(bytes, magic, PERSIST_VERSION, MAX_SNAPSHOT)?;
    if !rest.is_empty() {
        return Err(StateError::TrailingBytes(rest.len()).into());
    }
    Ok(body)
}

fn parse_spec(s: &str) -> Result<SketchSpec, PersistError> {
    s.parse().map_err(|e| PersistError::BadSpec(format!("{e}")))
}

/// One decoded snapshot: everything a service needs to continue as if it
/// had never stopped.
pub struct SnapshotRecord {
    /// The spec the sketches were built from (stamp-verified).
    pub spec: SketchSpec,
    /// The service-config display string in effect when the cut was taken.
    pub config: String,
    /// The cut's accounting (merge timing is not persisted — a recovered
    /// report carries zeroed merge rounds).
    pub report: EpochReport,
    /// Position in the *offered* stream where the tail begins: replay the
    /// source from this offset to catch up.
    pub offered: u64,
    /// The merged epoch sketch, rebuilt and state-restored.
    pub sketch: Box<dyn DynSketch>,
}

impl fmt::Debug for SnapshotRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotRecord")
            .field("epoch", &self.report.epoch)
            .field("offered", &self.offered)
            .finish_non_exhaustive()
    }
}

fn duration_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Encode one epoch snapshot as a complete file image: one sealed `BDSN`
/// envelope.
pub fn encode_snapshot(
    spec: &SketchSpec,
    config: &str,
    report: &EpochReport,
    offered: u64,
    sketch: &dyn DynSketch,
) -> Result<Vec<u8>, PersistError> {
    let blob = sketch_to_bytes(spec, sketch)?;
    let mut p = StateWriter::new();
    p.str(&spec.to_string());
    p.str(config);
    // The epoch stamp: where the stream cursor stood at the cut.
    p.u64(report.epoch as u64);
    p.u64(report.total_updates as u64);
    p.u64(offered);
    // The report's accounting (cumulative counters first — recovery
    // restores these so the continuation's totals stay monotone).
    p.u64(report.total_inserted);
    p.u64(report.total_deleted);
    p.u64(report.total_dropped_updates as u64);
    p.u64(report.total_dropped_mass);
    p.u64(report.updates as u64);
    p.u64(report.inserted_mass);
    p.u64(report.deleted_mass);
    p.u64(report.dropped_updates as u64);
    p.u64(report.dropped_mass);
    p.f64(report.alpha_configured);
    p.u64(report.queue_peak as u64);
    p.u64(duration_nanos(report.blocked));
    p.u64(duration_nanos(report.elapsed));
    p.u64(duration_nanos(report.merge_elapsed));
    p.u64(report.threads as u64);
    p.u64(report.space.counters);
    p.u64(report.space.counter_bits);
    p.u64(report.space.seed_bits);
    p.u64(report.space.overhead_bits);
    p.bytes(&blob);
    frame::seal(
        SNAPSHOT_MAGIC,
        PERSIST_VERSION,
        &p.into_bytes(),
        MAX_SNAPSHOT,
    )
}

/// Decode a snapshot file image produced by [`encode_snapshot`]: open
/// the envelope ([`frame::unseal`]'s checks), then rebuild the sketch through
/// the registry. The blob's inner spec stamp must agree with the payload's
/// outer stamp.
pub fn decode_snapshot(registry: &Registry, bytes: &[u8]) -> Result<SnapshotRecord, PersistError> {
    let mut p = StateReader::new(unseal_exact(bytes, SNAPSHOT_MAGIC)?);
    let spec = parse_spec(&p.str()?)?;
    let config = p.str()?;
    let epoch = p.u64()? as usize;
    let total_updates = p.u64()? as usize;
    let offered = p.u64()?;
    let total_inserted = p.u64()?;
    let total_deleted = p.u64()?;
    let total_dropped_updates = p.u64()? as usize;
    let total_dropped_mass = p.u64()?;
    let updates = p.u64()? as usize;
    let inserted_mass = p.u64()?;
    let deleted_mass = p.u64()?;
    let dropped_updates = p.u64()? as usize;
    let dropped_mass = p.u64()?;
    let alpha_configured = p.f64()?;
    let queue_peak = p.u64()? as usize;
    let blocked = Duration::from_nanos(p.u64()?);
    let elapsed = Duration::from_nanos(p.u64()?);
    let merge_elapsed = Duration::from_nanos(p.u64()?);
    let threads = p.u64()? as usize;
    let space = crate::space::SpaceReport {
        counters: p.u64()?,
        counter_bits: p.u64()?,
        seed_bits: p.u64()?,
        overhead_bits: p.u64()?,
    };
    // The sketch blob is the rest of the payload.
    let blob = p.bytes(p.remaining())?;

    let (blob_spec, sketch) = sketch_from_bytes(registry, blob)?;
    if blob_spec != spec {
        return Err(PersistError::SpecMismatch {
            expected: spec.to_string(),
            found: blob_spec.to_string(),
        });
    }
    let report = EpochReport {
        epoch,
        updates,
        total_updates,
        inserted_mass,
        deleted_mass,
        total_inserted,
        total_deleted,
        alpha_configured,
        dropped_updates,
        dropped_mass,
        total_dropped_updates,
        total_dropped_mass,
        queue_peak,
        blocked,
        space,
        elapsed,
        merge_elapsed,
        merge: crate::merge::MergeReport::default(),
        threads,
        // WAL accounting is live-only: a recovered report carries zeros.
        wal_records: 0,
        wal_bytes: 0,
    };
    Ok(SnapshotRecord {
        spec,
        config,
        report,
        offered,
        sketch,
    })
}

/// A directory of per-epoch snapshot files: `epoch-NNNNNNNN.bdsnap`.
///
/// Writes are atomic (temp file + rename), so a crash mid-write leaves at
/// worst a stray `.tmp` that [`SnapshotStore::load_latest`] never
/// considers; reads are crash-tolerant (invalid files are skipped,
/// newest-first).
#[derive(Clone, Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    fault: Option<Arc<fault::FaultInjector>>,
}

impl SnapshotStore {
    /// Open (creating if needed) a snapshot directory.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, PersistError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(SnapshotStore { dir, fault: None })
    }

    /// Attach a fault injector (crash-point testing only): once it
    /// fires, every save fails with [`PersistError::FaultInjected`] —
    /// the store behaves like one whose process is gone.
    pub fn set_fault(&mut self, fault: Arc<fault::FaultInjector>) {
        self.fault = Some(fault);
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file path for epoch `epoch`.
    pub fn path_for(&self, epoch: usize) -> PathBuf {
        self.dir.join(format!("epoch-{epoch:08}.bdsnap"))
    }

    /// Persist one epoch cut. The file appears atomically under its final
    /// name or not at all.
    pub fn save(
        &self,
        spec: &SketchSpec,
        config: &str,
        report: &EpochReport,
        offered: u64,
        sketch: &dyn DynSketch,
    ) -> Result<PathBuf, PersistError> {
        if let Some(fault) = &self.fault {
            fault.ensure_alive()?;
        }
        let bytes = encode_snapshot(spec, config, report, offered, sketch)?;
        let path = self.path_for(report.epoch);
        let tmp = self.dir.join(format!("epoch-{:08}.tmp", report.epoch));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &path)?;
        // The rename is only durable once the directory entry is — fsync
        // the directory so a power loss can't resurrect the old name.
        sync_dir(&self.dir)?;
        Ok(path)
    }

    /// Prune old snapshots, keeping the newest `retain` epochs (`0`
    /// disables pruning). Meant to run right after a successful
    /// [`SnapshotStore::save`], so the newest file — the one just
    /// written — is valid and is never deleted. Unlinks are made durable
    /// with a directory fsync; returns the epochs removed.
    pub fn prune(&self, retain: usize) -> Result<Vec<usize>, PersistError> {
        if retain == 0 {
            return Ok(Vec::new());
        }
        let epochs = self.epochs()?;
        if epochs.len() <= retain {
            return Ok(Vec::new());
        }
        let cut = epochs.len() - retain;
        let doomed = epochs[..cut].to_vec();
        for &epoch in &doomed {
            fs::remove_file(self.path_for(epoch))?;
        }
        sync_dir(&self.dir)?;
        Ok(doomed)
    }

    /// Every epoch with a snapshot file present, ascending.
    pub fn epochs(&self) -> Result<Vec<usize>, PersistError> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(num) = name
                .strip_prefix("epoch-")
                .and_then(|r| r.strip_suffix(".bdsnap"))
            {
                if let Ok(e) = num.parse::<usize>() {
                    out.push(e);
                }
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Load and fully validate one epoch's snapshot.
    pub fn load_epoch(
        &self,
        registry: &Registry,
        epoch: usize,
    ) -> Result<SnapshotRecord, PersistError> {
        let bytes = fs::read(self.path_for(epoch))?;
        decode_snapshot(registry, &bytes)
    }

    /// The newest snapshot that decodes and checksums cleanly, or `None`
    /// for an empty (or wholly-invalid) store. Invalid files — a torn
    /// final write, a bit-flipped payload — are skipped, falling back to
    /// the previous epoch: this is the crash-tolerance contract.
    pub fn load_latest(&self, registry: &Registry) -> Result<Option<SnapshotRecord>, PersistError> {
        for epoch in self.epochs()?.into_iter().rev() {
            if let Ok(rec) = self.load_epoch(registry, epoch) {
                return Ok(Some(rec));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::register_reference;
    use crate::spec::SketchFamily;

    fn reg() -> Registry {
        let mut r = Registry::new();
        register_reference(&mut r);
        r
    }

    fn built() -> (SketchSpec, Box<dyn DynSketch>) {
        let r = reg();
        let spec = SketchSpec::new(SketchFamily::Exact).with_n(64).with_seed(7);
        let mut sk = r.build(&spec).unwrap();
        for t in 0..200u64 {
            sk.update(t % 13, if t % 3 == 0 { -1 } else { 2 });
        }
        (spec, sk)
    }

    #[test]
    fn sketch_blob_roundtrips_bit_for_bit() {
        let (spec, sk) = built();
        let bytes = sketch_to_bytes(&spec, sk.as_ref()).unwrap();
        let (spec2, sk2) = sketch_from_bytes(&reg(), &bytes).unwrap();
        assert_eq!(spec, spec2);
        let (p, q) = (sk.as_point().unwrap(), sk2.as_point().unwrap());
        for i in 0..64 {
            assert_eq!(p.point(i).to_bits(), q.point(i).to_bits());
        }
        // Deterministic: re-encoding the decoded sketch gives the same bytes.
        assert_eq!(bytes, sketch_to_bytes(&spec2, sk2.as_ref()).unwrap());
    }

    #[test]
    fn sketch_blob_rejects_malformed_inputs() {
        let (spec, sk) = built();
        let r = reg();
        let bytes = sketch_to_bytes(&spec, sk.as_ref()).unwrap();
        let err = |b: &[u8]| sketch_from_bytes(&r, b).map(|_| ()).unwrap_err();

        assert_eq!(err(&bytes[..3]), PersistError::BadMagic);
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert_eq!(err(&wrong), PersistError::BadMagic);
        let mut newer = bytes.clone();
        newer[4] = 0xFF;
        assert!(matches!(err(&newer), PersistError::UnsupportedVersion(_)));
        assert_eq!(
            err(&bytes[..bytes.len() - 1]),
            PersistError::State(StateError::Truncated)
        );
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            err(&trailing),
            PersistError::State(StateError::TrailingBytes(1))
        );
    }

    #[test]
    fn snapshot_file_roundtrips_and_checksums() {
        let (spec, sk) = built();
        let r = reg();
        let report = EpochReport {
            epoch: 3,
            updates: 100,
            total_updates: 300,
            inserted_mass: 120,
            deleted_mass: 30,
            total_inserted: 400,
            total_deleted: 90,
            alpha_configured: 4.0,
            dropped_updates: 0,
            dropped_mass: 0,
            total_dropped_updates: 0,
            total_dropped_mass: 0,
            queue_peak: 5,
            blocked: Duration::from_nanos(777),
            space: sk.space(),
            elapsed: Duration::from_micros(10),
            merge_elapsed: Duration::ZERO,
            merge: Default::default(),
            threads: 2,
            wal_records: 7,
            wal_bytes: 512,
        };
        let bytes = encode_snapshot(&spec, "service:epoch=100", &report, 300, sk.as_ref()).unwrap();
        let rec = decode_snapshot(&r, &bytes).unwrap();
        assert_eq!(rec.spec, spec);
        assert_eq!(rec.config, "service:epoch=100");
        assert_eq!(rec.offered, 300);
        assert_eq!(rec.report.epoch, 3);
        assert_eq!(rec.report.total_updates, 300);
        assert_eq!(rec.report.total_inserted, 400);
        assert_eq!(rec.report.blocked, Duration::from_nanos(777));
        let (p, q) = (sk.as_point().unwrap(), rec.sketch.as_point().unwrap());
        for i in 0..64 {
            assert_eq!(p.point(i).to_bits(), q.point(i).to_bits());
        }

        // Any single bit flip in the body is caught by the CRC.
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        assert_eq!(
            decode_snapshot(&r, &flipped).unwrap_err(),
            PersistError::ChecksumMismatch
        );
        // Truncation never panics.
        for cut in [0, 3, 5, 9, bytes.len() - 1] {
            assert!(decode_snapshot(&r, &bytes[..cut]).is_err());
        }
        // An oversized length header is rejected before allocation.
        let mut huge = bytes.clone();
        huge[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_snapshot(&r, &huge).unwrap_err(),
            PersistError::Oversized(u32::MAX as u64)
        );
    }

    #[test]
    fn store_saves_scans_and_falls_back() {
        let (spec, sk) = built();
        let r = reg();
        let dir = std::env::temp_dir().join(format!("bd-persist-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = SnapshotStore::open(&dir).unwrap();
        assert!(store.load_latest(&r).unwrap().is_none());

        let mut report = EpochReport {
            epoch: 1,
            updates: 10,
            total_updates: 10,
            inserted_mass: 10,
            deleted_mass: 0,
            total_inserted: 10,
            total_deleted: 0,
            alpha_configured: 2.0,
            dropped_updates: 0,
            dropped_mass: 0,
            total_dropped_updates: 0,
            total_dropped_mass: 0,
            queue_peak: 0,
            blocked: Duration::ZERO,
            space: sk.space(),
            elapsed: Duration::ZERO,
            merge_elapsed: Duration::ZERO,
            merge: Default::default(),
            threads: 1,
            wal_records: 0,
            wal_bytes: 0,
        };
        store.save(&spec, "cfg", &report, 10, sk.as_ref()).unwrap();
        report.epoch = 2;
        report.total_updates = 20;
        let p2 = store.save(&spec, "cfg", &report, 20, sk.as_ref()).unwrap();
        assert_eq!(store.epochs().unwrap(), vec![1, 2]);
        assert_eq!(store.load_latest(&r).unwrap().unwrap().report.epoch, 2);

        // Corrupt the newest file: load_latest falls back to epoch 1.
        let mut raw = fs::read(&p2).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0xFF;
        fs::write(&p2, &raw).unwrap();
        let rec = store.load_latest(&r).unwrap().unwrap();
        assert_eq!(rec.report.epoch, 1);
        assert_eq!(rec.offered, 10);

        let _ = fs::remove_dir_all(&dir);
    }
}
