//! The three workloads: set-up, the measured loop and teardown, driven
//! through `bd-stream`'s public API only (`StreamService`,
//! `SnapshotStore`, `QueryServer`/`QueryClient`, `SnapshotHandle`).

use crate::input::{Input, Served, BATCH, CALL};
use crate::stats::ns;
use crate::trace::Tracer;
use bd_stream::wire::{Request, Response};
use bd_stream::{
    EpochReport, QueryClient, QueryServer, QueryView, Registry, ServiceConfig, SketchSpec,
    SnapshotHandle, SnapshotStore, StreamService,
};
use std::collections::VecDeque;
use std::fs;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One workload's fixed shape.
pub struct Plan {
    pub name: &'static str,
    pub spec: &'static str,
    pub service: &'static str,
    /// Attach a `SnapshotStore` (and the WAL the config asks for).
    pub durable: bool,
    /// Open loop: producer at `INGEST_RATE`, one TCP reader at
    /// `READ_RATE`, and a cold start by `recover` from a pre-phase store.
    pub serving: bool,
}

pub const PLANS: [Plan; 3] = [
    Plan {
        name: "ingest_cut",
        spec: "countsketch:n=2^20,eps=0.1,alpha=4",
        service: "service:epoch=2e5,threads=2,chunk=4096,depth=64,overflow=block,wal=off,retain=2",
        durable: true,
        serving: false,
    },
    Plan {
        name: "ingest_sketch",
        spec: "alpha_hh:n=2^20,eps=0.1,alpha=4",
        service: "service:epoch=2.5e5,threads=2,chunk=4096,depth=64,overflow=block,wal=off",
        durable: false,
        serving: false,
    },
    Plan {
        name: "serve_mixed",
        spec: "csss:n=2^16,eps=0.1,alpha=4,k=16",
        service:
            "service:epoch=1e5,threads=2,chunk=4096,depth=64,overflow=block,wal=epoch,retain=2",
        durable: true,
        serving: true,
    },
];

/// Open-loop producer rate, updates per second.
const INGEST_RATE: f64 = 1.0e6;
/// Open-loop reader rate, requests per second.
const READ_RATE: f64 = 1000.0;
/// One reader request in this many is a `Report` instead of a `PointBatch`.
const REPORT_EVERY: u64 = 100;
/// Set-up repetitions per pass; `setup_s` is their median.
pub const SETUP_REPS: usize = 51;

pub struct Ctx {
    pub plan: &'static Plan,
    pub spec: SketchSpec,
    pub config: ServiceConfig,
    pub reg: Registry,
    pub input: Input,
    pub run_for: Duration,
    /// Scratch directory for this run's stores (removed at the end).
    pub state: PathBuf,
    /// The serving pre-phase's store and the offered position it reached.
    pub pre: Option<(PathBuf, u64)>,
}

/// One ingest call, in nanoseconds.
pub struct Call {
    /// How late the call started: after its due time (open loop) or after
    /// the previous iteration ended (closed loop).
    pub late: u64,
    /// Latency from the due time (open loop) or the call's start.
    pub lat: u64,
    /// When the call returned, from the start of the loop.
    pub end: u64,
    /// Updates offered.
    pub len: u64,
}

#[derive(Default)]
pub struct Queries {
    pub attempted: u64,
    pub io_errors: u64,
    pub error_responses: u64,
    pub regressions: u64,
    /// Latency per answered query, from its due time (reader) or start
    /// (in-process poll), nanoseconds.
    pub lat: Vec<f64>,
    /// How late each query started, nanoseconds.
    pub late: Vec<f64>,
    pub served: Served,
    /// `(time seen, stamp)` of every response, in time order (reader only).
    pub seen: Vec<(u64, u64)>,
}

pub struct Pass {
    pub setup: Vec<f64>,
    pub start_pos: u64,
    pub lp: Loop,
    pub final_view: QueryView,
    /// The service's reader handle (still serving its last epoch).
    pub handle: SnapshotHandle,
    pub replay_ok: bool,
    pub rss_start_kib: f64,
    pub rss_end_kib: f64,
    pub hwm_kib: f64,
    pub idle_rtt_us: f64,
    pub tracer: Tracer,
}

pub fn err<E: std::fmt::Display>(what: &'static str) -> impl FnOnce(E) -> String {
    move |e| format!("{what}: {e}")
}

/// A `VmRSS`/`VmHWM` reading of this process, KiB.
pub fn proc_kib(key: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(f64::NAN)
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    fs::create_dir_all(to).map_err(err("create store copy"))?;
    for entry in fs::read_dir(from).map_err(err("read pre-phase store"))? {
        let entry = entry.map_err(err("read pre-phase store"))?;
        fs::copy(entry.path(), to.join(entry.file_name())).map_err(err("copy store file"))?;
    }
    Ok(())
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Epoch boundaries `k·epoch` inside `(pos, pos + len]`.
fn boundaries(pos: u64, len: u64, epoch: u64) -> impl Iterator<Item = u64> {
    (pos / epoch + 1..=(pos + len) / epoch).map(move |k| k * epoch)
}

/// The serving pre-phase (untimed): ingest one whole cycle plus half an
/// epoch into a durable service, then drop it without `finish`. Recovery
/// then loads a snapshot and replays a half-epoch WAL tail, and every
/// answer the measured run serves lies past the first cycle, inside the
/// α promise.
pub fn pre_phase(ctx: &Ctx) -> Result<(PathBuf, u64), String> {
    let dir = ctx.state.join("pre");
    let mut svc = StreamService::start(&ctx.reg, &ctx.spec, ctx.config).map_err(err("start"))?;
    svc.persist_to(SnapshotStore::open(&dir).map_err(err("open store"))?)
        .map_err(err("persist_to"))?;
    // Whole calls only: a partial dispatch cell stays buffered in the
    // service and is lost with it, by design.
    let target = ctx.input.base.len() as u64 + ctx.config.epoch / 2 / CALL as u64 * CALL as u64;
    let mut pos = 0u64;
    while pos < target {
        let cell = ctx.input.cell(pos, CALL.min((target - pos) as usize));
        svc.ingest(cell).map_err(err("pre-phase ingest"))?;
        pos += cell.len() as u64;
    }
    drop(svc);
    Ok((dir, pos))
}

/// One set-up: a ready-to-ingest service (and server, when serving).
fn set_up(
    ctx: &Ctx,
    dir: &Path,
    tr: &mut Tracer,
    rep: u64,
) -> Result<(StreamService, Option<QueryServer>), String> {
    let t0 = Instant::now();
    let mut svc = if ctx.pre.is_some() {
        let store = SnapshotStore::open(dir).map_err(err("open store"))?;
        let svc = StreamService::recover(&ctx.reg, &ctx.spec, ctx.config, store)
            .map_err(err("recover"))?;
        tr.span("setup", "recover", rep, None, t0, Instant::now(), false);
        svc
    } else {
        let svc = StreamService::start(&ctx.reg, &ctx.spec, ctx.config).map_err(err("start"))?;
        tr.span("setup", "start", rep, None, t0, Instant::now(), false);
        svc
    };
    if ctx.plan.durable && ctx.pre.is_none() {
        let t1 = Instant::now();
        let store = SnapshotStore::open(dir).map_err(err("open store"))?;
        svc.persist_to(store).map_err(err("persist_to"))?;
        tr.span("setup", "persist_to", rep, None, t1, Instant::now(), false);
    }
    let server = if ctx.plan.serving {
        let t2 = Instant::now();
        let server = QueryServer::bind("127.0.0.1:0", svc.handle()).map_err(err("bind"))?;
        tr.span("setup", "bind", rep, None, t2, Instant::now(), false);
        Some(server)
    } else {
        None
    };
    Ok((svc, server))
}

/// Set up `SETUP_REPS` times (keeping the last), run the workload's loop
/// for `ctx.run_for`, then tear down and return everything measured.
pub fn measure(ctx: &Ctx, traced: bool, pass_no: usize) -> Result<Pass, String> {
    let mut tr = Tracer::new(Instant::now(), traced);
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut live = None;
    for rep in 0..SETUP_REPS {
        let dir = ctx.state.join(format!("pass{pass_no}-setup{rep}"));
        if let Some((pre, _)) = &ctx.pre {
            copy_dir(pre, &dir)?;
        }
        let t = Instant::now();
        let (svc, server) = set_up(ctx, &dir, &mut tr, rep as u64)?;
        setup.push(t.elapsed().as_secs_f64());
        if rep + 1 == SETUP_REPS {
            live = Some((svc, server, dir));
        } else {
            if let Some(server) = server {
                server.join();
            }
            drop(svc);
            let _ = fs::remove_dir_all(&dir);
        }
    }
    let (mut svc, server, dir) = live.expect("at least one set-up");
    let start_pos = svc.replay_from() as u64;
    let replay_ok = ctx
        .pre
        .as_ref()
        .map_or(start_pos == 0, |p| start_pos == p.1);
    let handle = svc.handle();
    let rss_start_kib = proc_kib("VmRSS:");

    let mut lp = match &server {
        Some(server) => open_loop(ctx, &mut svc, server.local_addr(), start_pos, &mut tr)?,
        None => closed_loop(ctx, &mut svc, start_pos, &mut tr)?,
    };
    let rss_end_kib = proc_kib("VmRSS:");
    let hwm_kib = proc_kib("VmHWM:");

    // Ingestion is paused here: the idle round trip is the query path alone.
    let idle_rtt_us = if traced {
        match &server {
            Some(server) => idle_rtt(ctx, server.local_addr())?,
            None => {
                let probe =
                    QueryServer::bind("127.0.0.1:0", handle.clone()).map_err(err("bind"))?;
                let rtt = idle_rtt(ctx, probe.local_addr());
                probe.join();
                rtt?
            }
        }
    } else {
        f64::NAN
    };
    if let Some(server) = server {
        server.join();
    }
    let t = Instant::now();
    let fin = svc.finish().map_err(err("finish"))?;
    tr.span("producer", "finish", 0, None, t, Instant::now(), false);
    let final_view = match fin {
        Some(snap) => {
            lp.reports.push(snap.report);
            QueryView::from_snapshot(snap)
        }
        None => handle.latest().ok_or("finish left no published snapshot")?,
    };
    let _ = fs::remove_dir_all(&dir);
    Ok(Pass {
        setup,
        start_pos,
        lp,
        final_view,
        handle,
        replay_ok,
        rss_start_kib,
        rss_end_kib,
        hwm_kib,
        idle_rtt_us,
        tracer: tr,
    })
}

/// What the measured loop saw.
#[derive(Default)]
pub struct Loop {
    pub end_pos: u64,
    /// Producer wall time of the measured loop.
    pub wall: Duration,
    pub calls: Vec<Call>,
    pub ingest_errors: u64,
    pub error_updates: u64,
    pub first_error: Option<String>,
    pub fresh_ms: Vec<f64>,
    pub queries: Queries,
    /// Reports of the cuts resolved during the loop and by `finish`.
    pub reports: Vec<EpochReport>,
}

impl Loop {
    fn ingested(
        &mut self,
        res: Result<Vec<std::sync::Arc<bd_stream::Snapshot>>, bd_stream::ServiceError>,
        len: u64,
    ) {
        match res {
            Ok(snaps) => self.reports.extend(snaps.iter().map(|s| s.report)),
            Err(e) => {
                self.ingest_errors += 1;
                self.error_updates += len;
                self.first_error.get_or_insert_with(|| e.to_string());
            }
        }
    }
}

/// Closed loop: 4096-update `ingest` calls back to back; after each call
/// the producer polls `latest()` and asks it the next 16-item point batch
/// (the in-process query), which is also how it sees freshness.
fn closed_loop(
    ctx: &Ctx,
    svc: &mut StreamService,
    start: u64,
    tr: &mut Tracer,
) -> Result<Loop, String> {
    let epoch = ctx.config.epoch;
    let mut lp = Loop::default();
    lp.calls.reserve(1 << 16);
    let mut pending: VecDeque<(u64, Instant)> = VecDeque::new();
    let mut est = Vec::with_capacity(BATCH);
    let mut pos = start;
    let mut last_stamp = 0u64;
    let t0 = Instant::now();
    let deadline = t0 + ctx.run_for;
    let mut prev_end = t0;
    for j in 0u64.. {
        let c0 = Instant::now();
        if c0 >= deadline {
            break;
        }
        let cell = ctx.input.cell(pos, CALL);
        let len = cell.len() as u64;
        let res = svc.ingest(cell);
        let c1 = Instant::now();
        let mut cut = false;
        for b in boundaries(pos, len, epoch) {
            pending.push_back((b, c0));
            cut = true;
        }
        lp.ingested(res, len);
        pos += len;
        tr.span("producer", "ingest", j, None, c0, c1, cut);
        lp.calls.push(Call {
            late: ns(c0 - prev_end) as u64,
            lat: ns(c1 - c0) as u64,
            end: ns(c1 - t0) as u64,
            len,
        });

        let p0 = Instant::now();
        let view = svc.latest();
        let p1 = Instant::now();
        if let Some(view) = view {
            let q = &mut lp.queries;
            let stamp = view.stamp();
            q.attempted += 1;
            q.regressions += u64::from(stamp < last_stamp);
            last_stamp = stamp;
            while let Some(&(b, at)) = pending.front() {
                if b > stamp {
                    break;
                }
                lp.fresh_ms.push(ns(p1 - at) / 1e6);
                pending.pop_front();
            }
            let b = (j % ctx.input.batches.len() as u64) as u32;
            match view
                .engine()
                .point_many(&ctx.input.batches[b as usize], &mut est)
            {
                Ok(()) if est.len() == BATCH => q.served.push(stamp, b, &est),
                _ => q.error_responses += 1,
            }
            let p2 = Instant::now();
            q.lat.push(ns(p2 - p0));
            q.late.push(ns(p0 - c1));
            let poll = tr.span("producer", "poll", j, None, p0, p2, false);
            tr.span("producer", "latest", j, poll, p0, p1, false);
            tr.span("producer", "point_many", j, poll, p1, p2, false);
            prev_end = p2;
        } else {
            tr.span("producer", "latest", j, None, p0, p1, false);
            prev_end = p1;
        }
    }
    lp.end_pos = pos;
    lp.wall = prev_end - t0;
    Ok(lp)
}

/// Open loop: the producer offers one 4096-update call every
/// `CALL / INGEST_RATE` seconds and one reader sends a request every
/// `1 / READ_RATE` seconds on one connection, each timed from when it was
/// due, whatever the system does.
fn open_loop(
    ctx: &Ctx,
    svc: &mut StreamService,
    addr: SocketAddr,
    start: u64,
    tr: &mut Tracer,
) -> Result<Loop, String> {
    let epoch = ctx.config.epoch;
    let period = Duration::from_secs_f64(CALL as f64 / INGEST_RATE);
    let mut lp = Loop::default();
    let mut due_of: Vec<(u64, Instant)> = Vec::new();
    let mut pos = start;
    // A short lead lets the reader connect before the first due time.
    let t0 = Instant::now() + Duration::from_millis(20);
    let deadline = t0 + ctx.run_for;
    let mut end = t0;
    let reader_tracer = Tracer::new(tr.origin(), tr.on());
    let (queries, reader_tracer) = std::thread::scope(|s| {
        let reader = s.spawn(|| read_loop(ctx, addr, t0, deadline, reader_tracer));
        for j in 0u64.. {
            let due = t0 + period * j as u32;
            if due >= deadline {
                break;
            }
            let w0 = Instant::now();
            sleep_until(due);
            let c0 = Instant::now();
            tr.span("producer", "idle", j, None, w0, c0, false);
            let cell = ctx.input.cell(pos, CALL);
            let len = cell.len() as u64;
            let res = svc.ingest(cell);
            let c1 = Instant::now();
            let mut cut = false;
            for b in boundaries(pos, len, epoch) {
                due_of.push((b, due));
                cut = true;
            }
            lp.ingested(res, len);
            pos += len;
            tr.span("producer", "ingest", j, None, c0, c1, cut);
            lp.calls.push(Call {
                late: ns(c0.saturating_duration_since(due)) as u64,
                lat: ns(c1.saturating_duration_since(due)) as u64,
                end: ns(c1.saturating_duration_since(t0)) as u64,
                len,
            });
            end = c1;
        }
        reader.join().expect("reader thread panicked")
    })?;
    // Freshness: for each boundary, the first response whose stamp covers
    // it (stamps only grow on one connection; regressions are counted).
    let mut seen = queries.seen.iter().peekable();
    for (b, due) in due_of {
        let due_ns = tr.at(due);
        while let Some(&&(t, stamp)) = seen.peek() {
            if stamp >= b && t >= due_ns {
                lp.fresh_ms.push((t - due_ns) as f64 / 1e6);
                break;
            }
            seen.next();
        }
    }
    tr.absorb(reader_tracer);
    lp.queries = queries;
    lp.end_pos = pos;
    lp.wall = end - t0;
    Ok(lp)
}

/// The open-loop reader: `PointBatch` of 16 items, one `Report` in
/// `REPORT_EVERY`, one connection (re-opened after an I/O error).
fn read_loop(
    ctx: &Ctx,
    addr: SocketAddr,
    t0: Instant,
    deadline: Instant,
    mut tr: Tracer,
) -> Result<(Queries, Tracer), String> {
    let period = Duration::from_secs_f64(1.0 / READ_RATE);
    let mut client = QueryClient::connect(addr).map_err(err("connect"))?;
    let mut q = Queries::default();
    let mut last_stamp = 0u64;
    for j in 0u64.. {
        let due = t0 + period * j as u32;
        if due >= deadline {
            break;
        }
        let w0 = Instant::now();
        sleep_until(due);
        let s0 = Instant::now();
        let b = (j % ctx.input.batches.len() as u64) as u32;
        let req = if j % REPORT_EVERY == REPORT_EVERY - 1 {
            Request::Report
        } else {
            Request::PointBatch {
                items: ctx.input.batches[b as usize].clone(),
            }
        };
        q.attempted += 1;
        let res = client.request(&req);
        let s1 = Instant::now();
        tr.span("reader", "idle", j, None, w0, s0, false);
        tr.span("reader", "query", j, None, s0, s1, false);
        let stamp = match res {
            Ok(Response::Points { stamp, estimates }) if estimates.len() == BATCH => {
                q.served.push(stamp, b, &estimates);
                stamp
            }
            Ok(Response::Report(r)) => r.total_updates,
            Ok(_) => {
                q.error_responses += 1;
                continue;
            }
            Err(_) => {
                q.io_errors += 1;
                client = QueryClient::connect(addr).map_err(err("reconnect"))?;
                last_stamp = 0;
                continue;
            }
        };
        q.regressions += u64::from(stamp < last_stamp);
        last_stamp = stamp;
        q.lat.push(ns(s1.saturating_duration_since(due)));
        q.late.push(ns(s0.saturating_duration_since(due)));
        q.seen.push((tr.at(s1), stamp));
    }
    Ok((q, tr))
}

/// Median round trip of the workload's point batch with nothing else
/// running, microseconds.
fn idle_rtt(ctx: &Ctx, addr: SocketAddr) -> Result<f64, String> {
    let mut client = QueryClient::connect(addr).map_err(err("connect"))?;
    let mut rtt = Vec::with_capacity(400);
    for j in 0..420usize {
        let req = Request::PointBatch {
            items: ctx.input.batches[j % ctx.input.batches.len()].clone(),
        };
        let t = Instant::now();
        match client.request(&req).map_err(err("idle query"))? {
            Response::Points { .. } => {}
            other => return Err(format!("idle query answered {other:?}")),
        }
        if j >= 20 {
            rtt.push(ns(t.elapsed()) / 1e3);
        }
    }
    Ok(crate::stats::median(&mut rtt))
}
