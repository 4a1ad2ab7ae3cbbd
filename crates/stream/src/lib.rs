//! # bd-stream
//!
//! Stream model, the unified `Sketch` trait layer, the `StreamRunner`
//! ingestion engine, exact ground truth, workload generators, and space
//! accounting for the `bounded-deletions` workspace (a reproduction of
//! *Data Streams with Bounded Deletions*, Jayaram & Woodruff, PODS 2018).
//!
//! ## The trait layer
//!
//! Every structure in the workspace — α-property algorithm or turnstile
//! baseline — implements [`sketch::Sketch`]: seeded construction, owned RNG,
//! `update(item, Δ)`, batched `update_batch(&[Update])`, and bit-level space
//! via [`space::SpaceUsage`]. Capability traits ([`sketch::PointQuery`],
//! [`sketch::NormEstimate`], [`sketch::SampleQuery`], [`sketch::Mergeable`])
//! refine what each sketch can answer. [`runner::StreamRunner`] drives any
//! sketch over a [`update::StreamBatch`] with timing and space accounting —
//! the single ingestion loop all benches, examples, and integration tests
//! share.
//!
//! ## Modules
//!
//! * [`sketch`] — the [`Sketch`] trait family and batch
//!   aggregation helpers;
//! * [`spec`] — the declarative [`SketchSpec`]
//!   construction currency (`"csss:n=1e6,eps=0.05,alpha=8,seed=42"`);
//! * [`registry`] — the family → builder catalog
//!   ([`Registry`]) with per-family capability
//!   descriptors and the object-safe [`DynSketch`]
//!   query surface;
//! * [`runner`] — [`StreamRunner`] and
//!   [`RunReport`];
//! * [`merge`] — [`merge_tree`], the deterministic
//!   pairwise parallel fold both engines use to combine worker sketches
//!   (`⌈log₂ W⌉` rounds instead of `W − 1` serial merges), with per-round
//!   accounting in [`MergeReport`];
//! * [`sharded`] — [`ShardedRunner`], the parallel
//!   shard → sketch → merge ingestion engine over registry-built sketches;
//! * [`service`] — [`StreamService`], the long-lived
//!   epoch-snapshot serving engine over an unbounded update source (worker
//!   threads fed round-robin, immutable merged [`Snapshot`]s
//!   every epoch while ingestion continues);
//! * [`query`] — the concurrent read side: lock-free snapshot publication
//!   ([`SnapshotHub`] /
//!   [`SnapshotHandle`], wait-free
//!   [`latest`](query::SnapshotHandle::latest)) and the batched
//!   [`QueryEngine`] over a pinned epoch
//!   [`QueryView`];
//! * [`wire`] — the `sketchctl serve` protocol: length-prefixed binary
//!   frames, strict decoding, bit-exact floats;
//! * [`net`] — the std-only TCP front-end ([`QueryServer`]
//!   / [`QueryClient`]) serving the wire protocol from a
//!   [`SnapshotHandle`];
//! * [`update`] — items, updates `(i, Δ)`, and [`update::StreamBatch`];
//! * [`vector`] — exact frequency vectors `f = I − D` with every statistic
//!   the paper's guarantees are stated against (`‖f‖₀`, `‖f‖₁`, `F₀`,
//!   `Err₂ᵏ`, realized α values, exact heavy hitters, inner products);
//! * [`gen`] — Zipfian, bounded-deletion, scenario (§1) and lower-bound (§8)
//!   stream generators;
//! * [`space`] — bit-level space reports ([`space::SpaceUsage`]), the
//!   measurement behind every Figure 1 comparison.

pub mod frame;
pub mod gen;
pub mod merge;
pub mod net;
pub mod persist;
pub mod query;
pub mod registry;
pub mod runner;
pub mod service;
pub mod sharded;
pub mod sketch;
pub mod space;
pub mod spec;
pub mod state;
pub mod update;
pub mod vector;
pub mod wal;
pub mod wire;

pub use merge::{merge_tree, MergeReport};
pub use net::{QueryClient, QueryServer};
pub use persist::{
    decode_snapshot, encode_snapshot, fault, sketch_from_bytes, sketch_to_bytes, sync_dir,
    PersistError, SnapshotRecord, SnapshotStore, MAX_SNAPSHOT, PERSIST_VERSION,
};
pub use query::{QueryEngine, QueryError, QueryView, SnapshotHandle, SnapshotHub};
pub use registry::{
    BuildFn, Capabilities, DynSketch, FamilyInfo, Registry, RegistryError, SpaceInputs,
};
pub use runner::{RunReport, StreamRunner};
pub use service::{
    EpochReport, OverflowPolicy, ServiceConfig, ServiceError, Snapshot, StreamService,
};
pub use sharded::{ShardedRun, ShardedRunner};
pub use sketch::{
    aggregate_net, aggregate_signed_mass, BatchScratch, Mergeable, NormEstimate, PointQuery,
    PointQueryBatch, SampleOutcome, SampleQuery, Sketch, SupportQuery,
};
pub use space::{MaxMag, SpaceReport, SpaceUsage};
pub use spec::{Regime, SketchFamily, SketchSpec, SpecError};
pub use state::{SketchState, StateError, StateReader, StateWriter, MAX_STATE};
pub use update::{Item, StreamBatch, Update};
pub use vector::FrequencyVector;
pub use wal::{
    read_segment, truncate_segment, wal_segments, SegmentHeader, SegmentScan, WalCell, WalDamage,
    WalLogger, WalPolicy, WalRecord, WalTruncation, WalWriter, MAX_WAL_CHUNK, MAX_WAL_RECORD,
    WAL_MAGIC, WAL_VERSION,
};
pub use wire::{ErrorCode, Request, Response, WireError, WireReport, MAX_FRAME};
