//! Short layer probes on a run's own final state (traced runs only): each
//! times one public call of one layer on the snapshot, stream and spec the
//! run just used.

use crate::input::{BATCH, CALL};
use crate::pipeline::{err, Ctx};
use crate::stats::{median, median_of, ns};
use bd_stream::wire::{Request, Response};
use bd_stream::{
    encode_snapshot, QueryView, SnapshotHandle, SnapshotStore, StreamService, WalCell, WalPolicy,
    WalRecord, WalWriter,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Repetitions of the persistence and recovery probes.
const DISK_REPS: usize = 3;

/// The probes' per-layer metrics: name, value, unit.
pub fn run(
    ctx: &Ctx,
    view: &QueryView,
    handle: &SnapshotHandle,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let snap = view.snapshot();
    let sketch = snap.sketch.as_ref();
    let report = snap.report;
    let offered = report.total_offered_updates() as u64;
    let geometry = ctx.config.geometry_string();

    let clone_us = ns(median_of(15, || drop(black_box(sketch.clone_dyn())))) / 1e3;
    let bytes = encode_snapshot(&ctx.spec, &geometry, &report, offered, sketch)
        .map_err(err("encode_snapshot"))?;
    let encode_us = ns(median_of(15, || {
        black_box(encode_snapshot(&ctx.spec, &geometry, &report, offered, sketch).ok());
    })) / 1e3;

    // Snapshot save and load, then a half-epoch WAL tail appended and
    // rolled behind it, then a cold start that loads and replays both.
    let tail = (ctx.config.epoch / 2) as usize;
    let mut save = Vec::new();
    let mut load = Vec::new();
    let mut append = Vec::new();
    let mut roll = Vec::new();
    let mut replay = Vec::new();
    for rep in 0..DISK_REPS {
        let dir = ctx.state.join(format!("probe{rep}"));
        let store = SnapshotStore::open(&dir).map_err(err("open store"))?;
        let t = Instant::now();
        store
            .save(&ctx.spec, &geometry, &report, offered, sketch)
            .map_err(err("save"))?;
        save.push(ns(t.elapsed()) / 1e6);
        let t = Instant::now();
        let rec = store.load_latest(&ctx.reg).map_err(err("load_latest"))?;
        let load_ms = ns(t.elapsed()) / 1e6;
        if rec.is_none() {
            return Err("load_latest found no snapshot".into());
        }
        load.push(load_ms);

        let mut wal = WalWriter::open(
            &dir,
            &ctx.spec.to_string(),
            &geometry,
            WalPolicy::Epoch,
            0,
            offered,
        )
        .map_err(err("open wal"))?;
        let mut pos = offered;
        while pos < offered + tail as u64 {
            let want = (offered + tail as u64 - pos).min(CALL as u64) as usize;
            let cell = Arc::new(ctx.input.cell(pos, want).to_vec());
            let len = cell.len() as u64;
            let rec = WalRecord {
                offered: pos,
                cell: WalCell::Batch(cell),
            };
            let t = Instant::now();
            wal.append(&rec).map_err(err("wal append"))?;
            append.push(ns(t.elapsed()) / 1e3);
            pos += len;
        }
        let t = Instant::now();
        wal.roll(pos).map_err(err("wal roll"))?;
        roll.push(ns(t.elapsed()) / 1e6);
        drop(wal);

        let t = Instant::now();
        let svc = StreamService::recover(
            &ctx.reg,
            &ctx.spec,
            ctx.config.with_wal(WalPolicy::Off),
            store,
        )
        .map_err(err("probe recover"))?;
        replay.push(ns(t.elapsed()) / 1e6 - load_ms);
        if svc.replay_from() as u64 != pos {
            return Err(format!(
                "probe recovery resumed at {} instead of {pos}",
                svc.replay_from()
            ));
        }
        drop(svc);
        let _ = std::fs::remove_dir_all(&dir);
    }

    let mut blocks: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..20_000 {
                black_box(handle.latest());
            }
            ns(t.elapsed()) / 20_000.0
        })
        .collect();
    let latest_ns = median(&mut blocks);

    let engine = view.engine();
    let mut out = Vec::with_capacity(BATCH);
    let batches = &ctx.input.batches;
    let mut pm = Vec::with_capacity(batches.len());
    let mut codec = Vec::with_capacity(batches.len());
    let (mut req_buf, mut resp_buf) = (Vec::new(), Vec::new());
    for items in batches {
        let t = Instant::now();
        engine
            .point_many(items, &mut out)
            .map_err(err("point_many"))?;
        pm.push(ns(t.elapsed()) / 1e3);

        let t = Instant::now();
        Request::PointBatch {
            items: items.clone(),
        }
        .encode(&mut req_buf);
        black_box(Request::decode(&req_buf).map_err(err("decode request"))?);
        Response::Points {
            stamp: view.stamp(),
            estimates: out.clone(),
        }
        .encode(&mut resp_buf);
        black_box(Response::decode(&resp_buf).map_err(err("decode response"))?);
        codec.push(ns(t.elapsed()) / 1e3);
    }

    Ok(vec![
        ("sketch.clone_us", clone_us, "us"),
        ("persist.snapshot_bytes", bytes.len() as f64, "bytes"),
        ("persist.encode_us", encode_us, "us"),
        ("persist.save_ms", median(&mut save), "ms"),
        ("persist.load_ms", median(&mut load), "ms"),
        ("wal.append_us", median(&mut append), "us"),
        ("wal.roll_ms", median(&mut roll), "ms"),
        ("wal.replay_ms", median(&mut replay), "ms"),
        ("query.latest_ns", latest_ns, "ns"),
        ("query.point_many_us", median(&mut pm), "us"),
        ("wire.codec_us", median(&mut codec), "us"),
    ])
}
