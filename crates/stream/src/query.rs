//! The concurrent read side: lock-free snapshot publication and the batched
//! query engine.
//!
//! The [`StreamService`](crate::service::StreamService) produces immutable
//! epoch [`Snapshot`]s while its workers keep ingesting; this module is how
//! any number of reader threads *consume* them without ever blocking the
//! write path (or each other):
//!
//! * [`SnapshotHub`] — the writer side. The service publishes each epoch's
//!   merged snapshot into an atomically swapped `Arc` cell.
//! * [`SnapshotHandle`] — the reader side, cheaply cloneable and shareable
//!   across threads. [`SnapshotHandle::latest`] is **wait-free**: one
//!   `fetch_add`, one pointer load, one refcount increment, one `fetch_sub`
//!   — no locks, no spinning, no waiting on the writer.
//! * [`QueryView`] — one pinned epoch: an `Arc<Snapshot>` a reader holds for
//!   as long as it wants. Every answer derived from one view is
//!   epoch-consistent (the snapshot is immutable and was merged *before*
//!   publication, so a view never observes a partial merge or a mid-epoch
//!   state).
//! * [`QueryEngine`] — the query surface over a view: point queries (batched
//!   through the [`PointQueryBatch`](crate::sketch::PointQueryBatch) capability where the family supports
//!   it, scalar fallback elsewhere), norms, support, and a threshold
//!   heavy-hitters scan, all driven by the registry's capability views.
//!
//! ## Why the publication cell is sound
//!
//! `std` has no `ArcSwap`, so the cell is built from an `AtomicPtr` (the
//! published `Arc`'s raw pointer), an in-flight reader counter, and a
//! graveyard of retired pointers awaiting reclamation; every atomic op uses
//! `SeqCst`, so all of them lie on one total order:
//!
//! * **Readers** bump the counter, load the pointer, clone the `Arc`
//!   ([`Arc::increment_strong_count`]), and drop the counter. They never
//!   take the graveyard lock.
//! * **The writer** swaps the new pointer in, pushes the old pointer onto
//!   the graveyard, and reclaims the graveyard only when it observes the
//!   reader counter at zero. In the `SeqCst` total order, any reader that
//!   loaded a *retired* pointer performed its counter increment before the
//!   writer's swap (otherwise its load would have returned the new
//!   pointer), so a zero counter after the swap proves every such reader
//!   has already finished its refcount increment — the retired `Arc` count
//!   can be released without racing a reader mid-clone. If readers are
//!   always in flight, retired pointers simply wait; they are reclaimed by
//!   a later publish or by the cell's `Drop` (which runs when the last
//!   handle is gone, hence with no readers at all).
//!
//! The writer never waits on readers and readers never wait on the writer:
//! publication is a pointer swap, reclamation is deferred. DESIGN.md §11
//! spells out the full contract.

use crate::service::{EpochReport, Snapshot};
use crate::update::Item;
use std::fmt;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

/// The lock-free publication cell shared by one hub and its handles.
struct Cell {
    /// Raw pointer of the currently published `Arc<Snapshot>` (null before
    /// the first publish). The cell owns one strong count for it.
    ptr: AtomicPtr<Snapshot>,
    /// Readers currently between their `fetch_add` and `fetch_sub` — i.e.
    /// possibly holding a just-loaded pointer whose refcount bump is still
    /// in flight.
    readers: AtomicUsize,
    /// Retired pointers (each owning one strong count) awaiting reader
    /// quiescence. Writer-side only; readers never touch it.
    graveyard: Mutex<Vec<*const Snapshot>>,
}

// The raw pointers are owned strong counts of `Arc<Snapshot>`s, and
// `Snapshot` is `Send + Sync` (its sketch is `dyn DynSketch`, whose
// supertraits include both).
unsafe impl Send for Cell {}
unsafe impl Sync for Cell {}

impl Cell {
    fn empty() -> Self {
        Cell {
            ptr: AtomicPtr::new(std::ptr::null_mut()),
            readers: AtomicUsize::new(0),
            graveyard: Mutex::new(Vec::new()),
        }
    }

    /// Wait-free reader load: clone the published `Arc`, or `None` before
    /// the first publish.
    fn load(&self) -> Option<Arc<Snapshot>> {
        self.readers.fetch_add(1, SeqCst);
        let p = self.ptr.load(SeqCst);
        let snap = if p.is_null() {
            None
        } else {
            // Safety: `p` came from `Arc::into_raw` and its strong count is
            // still owned by the cell — either as the live pointer or as a
            // graveyard entry that cannot be reclaimed while `readers > 0`
            // (the writer checks quiescence only after our `fetch_add` is
            // visible in the SeqCst total order, see the module docs).
            unsafe {
                Arc::increment_strong_count(p);
                Some(Arc::from_raw(p as *const Snapshot))
            }
        };
        self.readers.fetch_sub(1, SeqCst);
        snap
    }

    /// Publish a new snapshot and opportunistically reclaim retired ones.
    fn store(&self, snap: Arc<Snapshot>) {
        let fresh = Arc::into_raw(snap) as *mut Snapshot;
        let old = self.ptr.swap(fresh, SeqCst);
        let mut grave = self.graveyard.lock().expect("snapshot graveyard poisoned");
        if !old.is_null() {
            grave.push(old as *const Snapshot);
        }
        // Quiescence check: zero in-flight readers after the swap means no
        // reader can still be mid-clone on a retired pointer.
        if self.readers.load(SeqCst) == 0 {
            for p in grave.drain(..) {
                // Safety: releasing the strong count `into_raw` transferred
                // to the cell; readers that cloned it hold their own counts.
                unsafe { drop(Arc::from_raw(p)) };
            }
        }
    }
}

impl Drop for Cell {
    fn drop(&mut self) {
        // `&mut self`: the last hub/handle is gone, so no reader can be in
        // flight — every retired and live count can be released directly.
        let grave = self
            .graveyard
            .get_mut()
            .expect("snapshot graveyard poisoned");
        for p in grave.drain(..) {
            unsafe { drop(Arc::from_raw(p)) };
        }
        let p = *self.ptr.get_mut();
        if !p.is_null() {
            unsafe { drop(Arc::from_raw(p as *const Snapshot)) };
        }
    }
}

/// The writer side of the publication cell, owned by the
/// [`StreamService`](crate::service::StreamService): each scheduled epoch
/// cut [`publish`](SnapshotHub::publish)es its merged snapshot, making it
/// the one every [`SnapshotHandle::latest`] call returns until the next cut.
pub struct SnapshotHub {
    cell: Arc<Cell>,
}

impl SnapshotHub {
    /// An empty hub (no snapshot published yet).
    pub fn new() -> Self {
        SnapshotHub {
            cell: Arc::new(Cell::empty()),
        }
    }

    /// Atomically replace the published snapshot. Lock-free with respect to
    /// readers; never blocks on them.
    pub fn publish(&self, snapshot: Arc<Snapshot>) {
        self.cell.store(snapshot);
    }

    /// A reader handle onto this hub's cell. Handles are cheap to clone and
    /// stay valid after the hub (and its service) are gone — they keep
    /// serving the last published snapshot.
    pub fn handle(&self) -> SnapshotHandle {
        SnapshotHandle {
            cell: Arc::clone(&self.cell),
        }
    }
}

impl Default for SnapshotHub {
    fn default() -> Self {
        SnapshotHub::new()
    }
}

impl fmt::Debug for SnapshotHub {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotHub").finish_non_exhaustive()
    }
}

/// The reader side: clone one per reader thread and call
/// [`latest`](SnapshotHandle::latest) per query (or per batch of queries
/// that must be epoch-consistent with each other).
#[derive(Clone)]
pub struct SnapshotHandle {
    cell: Arc<Cell>,
}

impl SnapshotHandle {
    /// The most recently published epoch snapshot, pinned as a
    /// [`QueryView`]; `None` before the first epoch cut. Wait-free.
    pub fn latest(&self) -> Option<QueryView> {
        self.cell.load().map(QueryView::from_snapshot)
    }
}

impl fmt::Debug for SnapshotHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotHandle").finish_non_exhaustive()
    }
}

/// One pinned epoch: an immutable snapshot a reader holds while it queries.
/// All answers derived from one view describe the same stream prefix
/// (stamped by [`QueryView::stamp`]); grab a fresh view from the handle to
/// move to a newer epoch.
#[derive(Clone)]
pub struct QueryView {
    snap: Arc<Snapshot>,
}

impl QueryView {
    /// Pin an epoch snapshot directly (the loopback tests use this to
    /// compare served answers against the same `Arc` the service returned).
    pub fn from_snapshot(snap: Arc<Snapshot>) -> Self {
        QueryView { snap }
    }

    /// The pinned snapshot.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snap
    }

    /// The pinned epoch's accounting.
    pub fn report(&self) -> &EpochReport {
        &self.snap.report
    }

    /// The epoch stamp: the stream-prefix length (`total_updates`) this
    /// snapshot covers. Two answers with equal stamps describe the same
    /// prefix.
    pub fn stamp(&self) -> u64 {
        self.snap.report.total_updates as u64
    }

    /// A query engine over this view (shares the pinned `Arc`).
    pub fn engine(&self) -> QueryEngine {
        QueryEngine { view: self.clone() }
    }
}

impl fmt::Debug for QueryView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryView")
            .field("stamp", &self.stamp())
            .finish_non_exhaustive()
    }
}

/// Why a query could not be answered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// The snapshot's family does not answer this query kind.
    Unsupported(&'static str),
    /// A heavy-hitters scan over a universe too large to enumerate, on a
    /// family with no support view to narrow the candidates.
    UniverseTooLarge(u64),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Unsupported(kind) => {
                write!(f, "snapshot family does not answer {kind} queries")
            }
            QueryError::UniverseTooLarge(n) => write!(
                f,
                "universe n={n} too large for a dense heavy-hitters scan \
                 (≤ {} without a support view)",
                QueryEngine::DENSE_SCAN_CAP
            ),
        }
    }
}

impl std::error::Error for QueryError {}

/// The query surface over one pinned epoch. All methods take `&self`; any
/// number of engines (across threads) can query the same snapshot
/// concurrently.
pub struct QueryEngine {
    view: QueryView,
}

impl QueryEngine {
    /// Largest universe the heavy-hitters fallback will enumerate densely
    /// when the family has no support view to produce candidates.
    pub const DENSE_SCAN_CAP: u64 = 1 << 20;

    /// Batch size for the dense heavy-hitters scan (bounds the bucket/sign
    /// buffer footprint per chunk).
    const SCAN_CHUNK: usize = 4096;

    /// An engine over a pinned view.
    pub fn new(view: QueryView) -> Self {
        QueryEngine { view }
    }

    /// The pinned view.
    pub fn view(&self) -> &QueryView {
        &self.view
    }

    /// The pinned epoch's stamp ([`QueryView::stamp`]).
    pub fn stamp(&self) -> u64 {
        self.view.stamp()
    }

    /// The pinned epoch's accounting.
    pub fn report(&self) -> &EpochReport {
        self.view.report()
    }

    /// Point estimate of `f_item`.
    pub fn point(&self, item: Item) -> Result<f64, QueryError> {
        self.view
            .snapshot()
            .sketch
            .as_point()
            .map(|p| p.point(item))
            .ok_or(QueryError::Unsupported("point"))
    }

    /// Point estimates for a whole query set, answered through one batched
    /// hash pass where the family advertises [`PointQueryBatch`]
    /// (bit-identical per item to the scalar path), and through a scalar
    /// loop elsewhere. `out` is cleared and filled positionally.
    ///
    /// [`PointQueryBatch`]: crate::sketch::PointQueryBatch
    pub fn point_many(&self, items: &[Item], out: &mut Vec<f64>) -> Result<(), QueryError> {
        out.clear();
        let sketch = &self.view.snapshot().sketch;
        if let Some(batch) = sketch.as_point_batch() {
            batch.point_many(items, out);
            return Ok(());
        }
        let point = sketch.as_point().ok_or(QueryError::Unsupported("point"))?;
        out.reserve(items.len());
        for &item in items {
            out.push(point.point(item));
        }
        Ok(())
    }

    /// The family's scalar statistic (`‖f‖₁`, `‖f‖₀`, ... — which one is
    /// the family's contract).
    pub fn norm(&self) -> Result<f64, QueryError> {
        self.view
            .snapshot()
            .sketch
            .as_norm()
            .map(|n| n.norm_estimate())
            .ok_or(QueryError::Unsupported("norm"))
    }

    /// The recovered support coordinates (sorted, deduplicated; empty when
    /// recovery declines).
    pub fn support(&self) -> Result<Vec<Item>, QueryError> {
        self.view
            .snapshot()
            .sketch
            .as_support()
            .map(|s| s.support_query())
            .ok_or(QueryError::Unsupported("support"))
    }

    /// Every item whose point estimate has magnitude ≥ `threshold`, sorted
    /// by decreasing magnitude (ties by item). Candidates come from the
    /// family's support view when it has one; otherwise the engine scans
    /// the spec's universe densely through the batched point path — allowed
    /// only up to [`QueryEngine::DENSE_SCAN_CAP`] items.
    pub fn heavy_hitters(&self, threshold: f64) -> Result<Vec<(Item, f64)>, QueryError> {
        let snapshot = self.view.snapshot();
        let mut out: Vec<(Item, f64)> = Vec::new();
        let mut ests = Vec::new();
        if let Some(s) = snapshot.sketch.as_support() {
            let candidates = s.support_query();
            self.point_many(&candidates, &mut ests)?;
            out.extend(
                candidates
                    .iter()
                    .zip(&ests)
                    .filter(|&(_, &e)| e.abs() >= threshold)
                    .map(|(&i, &e)| (i, e)),
            );
        } else {
            let n = snapshot.spec.n;
            if n > Self::DENSE_SCAN_CAP {
                return Err(QueryError::UniverseTooLarge(n));
            }
            let mut chunk: Vec<Item> = Vec::with_capacity(Self::SCAN_CHUNK);
            let mut start = 0u64;
            while start < n {
                let end = (start + Self::SCAN_CHUNK as u64).min(n);
                chunk.clear();
                chunk.extend(start..end);
                self.point_many(&chunk, &mut ests)?;
                out.extend(
                    chunk
                        .iter()
                        .zip(&ests)
                        .filter(|&(_, &e)| e.abs() >= threshold)
                        .map(|(&i, &e)| (i, e)),
                );
                start = end;
            }
        }
        out.sort_by(|a, b| {
            b.1.abs()
                .partial_cmp(&a.1.abs())
                .expect("estimates are finite")
                .then(a.0.cmp(&b.0))
        });
        Ok(out)
    }
}

impl fmt::Debug for QueryEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryEngine")
            .field("stamp", &self.stamp())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::MergeReport;
    use crate::space::SpaceReport;
    use crate::spec::{SketchFamily, SketchSpec};
    use crate::vector::FrequencyVector;
    use std::time::Duration;

    fn snap_with(stamp: usize, values: &[(Item, i64)]) -> Arc<Snapshot> {
        let mut fv = FrequencyVector::new(64);
        for &(i, d) in values {
            crate::sketch::Sketch::update(&mut fv, i, d);
        }
        Arc::new(Snapshot {
            spec: SketchSpec::new(SketchFamily::Exact).with_n(64),
            sketch: Box::new(fv),
            report: EpochReport {
                epoch: stamp,
                updates: 0,
                total_updates: stamp,
                inserted_mass: 0,
                deleted_mass: 0,
                total_inserted: 0,
                total_deleted: 0,
                alpha_configured: 2.0,
                dropped_updates: 0,
                dropped_mass: 0,
                total_dropped_updates: 0,
                total_dropped_mass: 0,
                queue_peak: 0,
                blocked: Duration::ZERO,
                space: SpaceReport::default(),
                elapsed: Duration::ZERO,
                merge_elapsed: Duration::ZERO,
                merge: MergeReport::default(),
                threads: 1,
                wal_records: 0,
                wal_bytes: 0,
            },
        })
    }

    fn snap(stamp: usize) -> Arc<Snapshot> {
        snap_with(stamp, &[])
    }

    #[test]
    fn empty_hub_serves_none_then_latest() {
        let hub = SnapshotHub::new();
        let handle = hub.handle();
        assert!(handle.latest().is_none());
        hub.publish(snap(100));
        assert_eq!(handle.latest().unwrap().stamp(), 100);
        hub.publish(snap(200));
        assert_eq!(handle.latest().unwrap().stamp(), 200);
        // A view pinned before the swap keeps serving its epoch.
        let pinned = handle.latest().unwrap();
        hub.publish(snap(300));
        assert_eq!(pinned.stamp(), 200);
        assert_eq!(handle.latest().unwrap().stamp(), 300);
    }

    #[test]
    fn retired_snapshots_are_reclaimed() {
        let hub = SnapshotHub::new();
        let first = snap(1);
        let weak = Arc::downgrade(&first);
        hub.publish(first);
        // Still alive: the cell owns it.
        assert!(weak.upgrade().is_some());
        // Retire it with no readers in flight: the publish reclaims it.
        hub.publish(snap(2));
        assert!(weak.upgrade().is_none(), "retired snapshot leaked");
    }

    #[test]
    fn handles_outlive_the_hub() {
        let hub = SnapshotHub::new();
        let handle = hub.handle();
        hub.publish(snap(7));
        drop(hub);
        assert_eq!(handle.latest().unwrap().stamp(), 7);
    }

    #[test]
    fn concurrent_readers_see_complete_monotone_snapshots() {
        let hub = SnapshotHub::new();
        hub.publish(snap(0));
        let publishes = 2000usize;
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let handle = hub.handle();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    let mut seen = 0usize;
                    // Keep loading until the writer is done AND this reader
                    // has overlapped a healthy number of swaps.
                    while seen < 500 || !stop.load(SeqCst) {
                        let view = handle.latest().expect("published before spawn");
                        let stamp = view.stamp();
                        // Complete snapshot: stamp and report agree.
                        assert_eq!(stamp as usize, view.report().epoch);
                        // Monotone: published pointers only move forward.
                        assert!(stamp >= last, "stamp went backwards: {last} → {stamp}");
                        last = stamp;
                        seen += 1;
                    }
                    seen
                })
            })
            .collect();
        for k in 1..=publishes {
            hub.publish(snap(k));
        }
        stop.store(true, SeqCst);
        for r in readers {
            assert!(r.join().unwrap() > 0, "reader made no progress");
        }
        assert_eq!(hub.handle().latest().unwrap().stamp(), publishes as u64);
    }

    #[test]
    fn engine_point_paths_agree_and_report_unsupported() {
        let view = QueryView::from_snapshot(snap_with(5, &[(3, 40), (9, -17)]));
        let engine = view.engine();
        assert_eq!(engine.stamp(), 5);
        assert_eq!(engine.point(3).unwrap(), 40.0);
        // FrequencyVector has no batch capability: the scalar fallback must
        // match the scalar path bit for bit.
        let items: Vec<Item> = (0..16).collect();
        let mut out = Vec::new();
        engine.point_many(&items, &mut out).unwrap();
        for (&i, &e) in items.iter().zip(&out) {
            assert_eq!(e.to_bits(), engine.point(i).unwrap().to_bits());
        }
        assert_eq!(engine.norm(), Err(QueryError::Unsupported("norm")));
        assert_eq!(engine.support(), Err(QueryError::Unsupported("support")));
    }

    #[test]
    fn dense_heavy_hitter_scan_finds_and_sorts() {
        let view = QueryView::from_snapshot(snap_with(1, &[(3, 40), (9, -50), (11, 2)]));
        let engine = view.engine();
        assert_eq!(
            engine.heavy_hitters(10.0).unwrap(),
            vec![(9, -50.0), (3, 40.0)]
        );
        assert!(engine.heavy_hitters(100.0).unwrap().is_empty());
    }

    #[test]
    fn dense_scan_rejects_huge_universes() {
        let mut snap = snap_with(1, &[]);
        Arc::get_mut(&mut snap).unwrap().spec =
            SketchSpec::new(SketchFamily::Exact).with_n(1 << 30);
        let engine = QueryView::from_snapshot(snap).engine();
        assert_eq!(
            engine.heavy_hitters(1.0),
            Err(QueryError::UniverseTooLarge(1 << 30))
        );
    }
}
