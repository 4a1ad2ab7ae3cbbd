//! The `ShardedRunner` parallel ingestion engine.
//!
//! The paper's structures are linear (or at least mergeable) summaries, and
//! that is exactly what makes sharded ingestion sound: split the stream into
//! contiguous shards, sketch each shard independently with an
//! *identically-seeded* copy, then fold the copies together — the merged
//! sketch is the sketch of the concatenated stream. [`ShardedRunner`] is
//! that deployment shape, written once:
//!
//! 1. [`Registry::build_n`] builds one identically-seeded sketch per shard
//!    (builders are pure functions of the spec, so every copy shares hash
//!    functions — the [`Mergeable`](crate::Mergeable) contract);
//! 2. a [`std::thread::scope`] spawns one worker per shard; each worker
//!    drives its copy over its contiguous chunk of the stream through the
//!    shared [`StreamRunner`] (so per-shard ingestion gets the same batched
//!    `update_batch` path as sequential ingestion);
//! 3. the workers' sketches are folded with a deterministic pairwise
//!    *tree* ([`merge_tree`]): `⌈log₂ shards⌉`
//!    rounds of concurrent [`DynSketch::merge_dyn`] pair merges instead of
//!    `shards − 1` serial ones. The tree shape is fixed by shard index, so
//!    a sharded run is deterministic for a given `(spec, stream, threads)`
//!    triple regardless of thread scheduling; fold depth and per-round
//!    timing land in [`ShardedRun::merge`].
//!
//! What "the merged sketch equals the sequential sketch" means is per-family
//! (see `DESIGN.md §7`): families whose descriptor sets
//! [`Capabilities::merge_bitwise`](crate::Capabilities) replay bit-for-bit
//! in every regime; sampling mergers (CSSS, the sampled vector) consume RNG
//! draws while thinning and are only distributionally equivalent there,
//! while the windowed L0 family merges exactly whenever the level windows
//! cover the same rows (always true until the windows start sliding).
//! `tests/sharded.rs` pins the contract for every mergeable family in the
//! registry.
//!
//! Requesting more than one shard for a family without the `mergeable`
//! capability fails with [`RegistryError::NotMergeable`]; one shard degrades
//! to a plain sequential run and is valid for every family.

use crate::merge::{merge_tree, MergeReport};
use crate::registry::{DynSketch, Registry, RegistryError};
use crate::runner::{RunReport, StreamRunner};
use crate::spec::SketchSpec;
use crate::update::{StreamBatch, Update};
use std::time::{Duration, Instant};

/// Outcome of one sharded pass: the merged sketch plus per-shard and
/// wall-clock accounting.
pub struct ShardedRun {
    /// The merged sketch (shard 0's copy after folding every other shard in).
    pub sketch: Box<dyn DynSketch>,
    /// Per-shard ingestion reports, in shard (stream) order. Each shard's
    /// `elapsed` is that worker's own wall clock; they overlap in time.
    pub shards: Vec<RunReport>,
    /// Wall-clock time of the whole pass: construction of nothing (sketches
    /// are built before the clock starts), ingestion of all shards, merge.
    pub elapsed: Duration,
    /// Wall-clock time of the merge fold alone.
    pub merge_elapsed: Duration,
    /// The tree fold's accounting: fan-in, depth (`⌈log₂ shards⌉`), and
    /// per-round wall clock.
    pub merge: MergeReport,
}

impl std::fmt::Debug for ShardedRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedRun")
            .field("shards", &self.shards)
            .field("elapsed", &self.elapsed)
            .field("merge_elapsed", &self.merge_elapsed)
            .field("merge", &self.merge)
            .finish_non_exhaustive()
    }
}

impl ShardedRun {
    /// Shards actually used: at most the configured thread count, at most
    /// one per update, at least 1 — every shard received a non-empty chunk
    /// (except the degenerate empty-stream single shard).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The pass summarized as one [`RunReport`]: updates and mass are summed
    /// over shards, `elapsed` is the *wall clock* of the concurrent pass
    /// (not the summed per-shard time), and space is the merged sketch's
    /// report — so `updates_per_sec()` is aggregate throughput.
    pub fn report(&self) -> RunReport {
        RunReport {
            updates: self.shards.iter().map(|r| r.updates).sum(),
            mass: self.shards.iter().map(|r| r.mass).sum(),
            elapsed: self.elapsed,
            space: self.sketch.space(),
            merge_depth: self.merge.depth,
        }
    }
}

/// The parallel ingestion engine: shard, sketch, merge.
#[derive(Clone, Copy, Debug)]
pub struct ShardedRunner {
    threads: usize,
    runner: StreamRunner,
}

impl ShardedRunner {
    /// A runner with `threads` shard workers (clamped to ≥ 1) and the
    /// default chunked [`StreamRunner`] per shard.
    pub fn new(threads: usize) -> Self {
        ShardedRunner {
            threads: threads.max(1),
            runner: StreamRunner::new(),
        }
    }

    /// Replace the per-shard ingestion runner (chunk-size control, or
    /// [`StreamRunner::unbatched`] for the per-update baseline).
    pub fn with_runner(mut self, runner: StreamRunner) -> Self {
        self.runner = runner;
        self
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The per-shard ingestion runner.
    pub fn runner(&self) -> StreamRunner {
        self.runner
    }

    /// Shard `stream` across the workers, ingest, merge, and return the
    /// merged sketch with timing.
    pub fn run(
        &self,
        registry: &Registry,
        spec: &SketchSpec,
        stream: &StreamBatch,
    ) -> Result<ShardedRun, RegistryError> {
        self.run_updates(registry, spec, &stream.updates)
    }

    /// [`ShardedRunner::run`] over a raw update slice.
    pub fn run_updates(
        &self,
        registry: &Registry,
        spec: &SketchSpec,
        updates: &[Update],
    ) -> Result<ShardedRun, RegistryError> {
        let info = registry
            .info(spec.family)
            .ok_or(RegistryError::Unregistered(spec.family))?;
        // Never spawn workers that would receive an empty shard: cap the
        // worker count by the update count, then size shards as the chunk
        // count that cap actually produces (⌈len/per⌉ can undershoot the
        // cap — e.g. 5 updates across 4 workers chunk as 2+2+1 = 3 shards),
        // so every built sketch gets a chunk.
        let per = updates
            .len()
            .div_ceil(self.threads.min(updates.len()).max(1))
            .max(1);
        let shards = updates.len().div_ceil(per).max(1);
        if shards > 1 && !info.caps.mergeable {
            return Err(RegistryError::NotMergeable);
        }
        let mut sketches = registry.build_n(spec, shards)?;
        let runner = self.runner;

        let start = Instant::now();
        let results: Vec<(Box<dyn DynSketch>, RunReport)> = if shards == 1 {
            let mut sk = sketches.pop().expect("build_n(1) returns one sketch");
            let report = runner.run_updates(&mut *sk, updates);
            vec![(sk, report)]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = sketches
                    .drain(..)
                    .zip(updates.chunks(per))
                    .map(|(mut sk, chunk)| {
                        scope.spawn(move || {
                            let report = runner.run_updates(&mut *sk, chunk);
                            (sk, report)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard worker panicked"))
                    .collect()
            })
        };

        let (parts, shard_reports): (Vec<_>, Vec<_>) = results.into_iter().unzip();
        let (merged, merge) = merge_tree(parts)?;
        let elapsed = start.elapsed();

        Ok(ShardedRun {
            sketch: merged,
            shards: shard_reports,
            elapsed,
            merge_elapsed: merge.elapsed,
            merge,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::register_reference;
    use crate::spec::SketchFamily;
    use crate::update::Update;

    fn reg() -> Registry {
        let mut r = Registry::new();
        register_reference(&mut r);
        r
    }

    fn stream() -> StreamBatch {
        StreamBatch::new(
            64,
            (0..1000u64)
                .map(|t| Update::new(t % 13, if t % 3 == 0 { -1 } else { 2 }))
                .collect(),
        )
    }

    fn spec() -> SketchSpec {
        SketchSpec::new(SketchFamily::Exact).with_n(64).with_seed(3)
    }

    #[test]
    fn sharded_exact_matches_sequential() {
        let r = reg();
        let s = stream();
        let mut seq = r.build(&spec()).unwrap();
        StreamRunner::new().run(&mut *seq, &s);
        for threads in [1, 2, 4, 7, 1000] {
            let run = ShardedRunner::new(threads).run(&r, &spec(), &s).unwrap();
            assert!(run.shard_count() <= threads.max(1));
            let (p, q) = (run.sketch.as_point().unwrap(), seq.as_point().unwrap());
            for i in 0..64 {
                assert_eq!(p.point(i).to_bits(), q.point(i).to_bits(), "item {i}");
            }
            let rep = run.report();
            assert_eq!(rep.updates, s.len());
            assert_eq!(rep.mass, s.total_mass());
        }
    }

    #[test]
    fn shard_count_never_exceeds_updates() {
        let r = reg();
        let tiny = StreamBatch::new(64, vec![Update::new(1, 2), Update::new(2, 3)]);
        let run = ShardedRunner::new(8).run(&r, &spec(), &tiny).unwrap();
        assert_eq!(run.shard_count(), 2);
        let empty = StreamBatch::new(64, vec![]);
        let run = ShardedRunner::new(8).run(&r, &spec(), &empty).unwrap();
        assert_eq!(run.shard_count(), 1);
        assert_eq!(run.report().updates, 0);
    }

    #[test]
    fn every_shard_receives_a_chunk_when_chunking_undershoots() {
        // 5 updates across 4 workers chunk as ⌈5/4⌉ = 2 per shard ⇒ only 3
        // chunks exist; the runner must build 3 shards, not drop one.
        let r = reg();
        let five = StreamBatch::new(64, (0..5).map(|i| Update::new(i, 1)).collect());
        let run = ShardedRunner::new(4).run(&r, &spec(), &five).unwrap();
        assert_eq!(run.shard_count(), 3);
        assert_eq!(run.shards.iter().map(|s| s.updates).sum::<usize>(), 5);
        assert!(run.shards.iter().all(|s| s.updates > 0));
        let p = run.sketch.as_point().unwrap();
        for i in 0..5 {
            assert_eq!(p.point(i), 1.0, "item {i} lost in dropped shard");
        }
    }

    #[test]
    fn non_mergeable_family_errs_beyond_one_shard() {
        // A registry whose only family advertises no merge capability.
        let mut r = Registry::new();
        r.register(
            crate::registry::FamilyInfo {
                family: SketchFamily::Morris,
                summary: "test stub",
                caps: crate::registry::Capabilities {
                    point: true,
                    ..Default::default()
                },
                inputs: Default::default(),
                space: "n/a",
                type_name: "stub",
            },
            |spec| Box::new(crate::vector::FrequencyVector::new(spec.n)),
        );
        let s = stream();
        let spec = SketchSpec::new(SketchFamily::Morris).with_n(64);
        assert!(matches!(
            ShardedRunner::new(4).run(&r, &spec, &s),
            Err(RegistryError::NotMergeable)
        ));
        // One shard is a plain sequential run — valid for any family.
        assert!(ShardedRunner::new(1).run(&r, &spec, &s).is_ok());
    }

    #[test]
    fn unregistered_family_errs() {
        let r = reg();
        let spec = SketchSpec::new(SketchFamily::Morris);
        assert!(matches!(
            ShardedRunner::new(2).run(&r, &spec, &stream()),
            Err(RegistryError::Unregistered(SketchFamily::Morris))
        ));
    }
}
