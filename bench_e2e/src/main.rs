//! End-to-end pipeline benchmark for `bd-stream`.
//!
//! ```text
//! cargo run --release --manifest-path bench_e2e/Cargo.toml -- \
//!     --workload ingest_cut|ingest_sketch|serve_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run generates its workload's stream from `--seed` (untimed), sets
//! the pipeline up several times, drives it for `--seconds`, and checks
//! every output against exact ground truth and a sequential reference.
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! runs once untraced and once traced, then probes each layer on the final
//! state, and prints the per-layer metrics. The last stdout line is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; a failed
//! output check prints `"correct": false` and exits 1. `NOTES.md` says why
//! each workload exists and what it stresses.

mod input;
mod pipeline;
mod probes;
mod stats;
mod trace;

use input::Input;
use pipeline::{err, measure, pre_phase, Ctx, Pass, PLANS};
use stats::{mean, median, ns, pct};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Metrics whose traced/untraced ratio is the tracing overhead.
const OVERHEAD: [&str; 5] = [
    "setup_s",
    "ingest_mups",
    "ungated.ingest_call_p50_us",
    "ungated.freshness_p50_ms",
    "ungated.query_p50_us",
];

/// Allowed gap between the producer's wall time and the sum of its spans'
/// self times plus scheduled idle, as a share of wall time.
const RECONCILE_TOLERANCE: f64 = 0.02;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = val,
            "--seed" => args.seed = val.parse().map_err(err("--seed"))?,
            "--seconds" => args.seconds = val.parse().map_err(err("--seconds"))?,
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// Metrics and verdict of one invocation.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failed
        )
    }
}

/// Ingest rate of each tenth of the loop's calls, over the time that
/// tenth took.
fn group_rates(pass: &Pass) -> Vec<f64> {
    const GROUPS: usize = 10;
    let calls = &pass.lp.calls;
    let mut since = 0;
    let mut rates = Vec::with_capacity(GROUPS);
    for g in 0..GROUPS {
        let group = &calls[g * calls.len() / GROUPS..(g + 1) * calls.len() / GROUPS];
        if let Some(last) = group.last() {
            let updates: u64 = group.iter().map(|c| c.len).sum();
            rates.push(updates as f64 * 1e9 / (last.end - since) as f64);
            since = last.end;
        }
    }
    rates
}

/// End-to-end metrics of one pass, by name, with units.
fn end_to_end(pass: &Pass) -> Vec<(&'static str, f64, &'static str)> {
    vec![
        ("setup_s", median(&mut pass.setup.clone()), "s"),
        (
            "ingest_mups",
            median(&mut group_rates(pass)) / 1e6,
            "Mupd/s",
        ),
        ("rss_peak_mib", pass.hwm_kib / 1024.0, "MiB"),
    ]
}

/// End-to-end metrics that do not repeat within a tenth from run to run on
/// a shared 2-core box (NOTES.md), so they are reported, not gated.
/// Timings come as a median and the highest percentile with at least ten
/// samples beyond it.
fn ungated(pass: &Pass) -> Vec<(&'static str, f64, &'static str)> {
    let mut lat: Vec<f64> = pass.lp.calls.iter().map(|c| c.lat as f64).collect();
    let mut fresh = pass.lp.fresh_ms.clone();
    let mut query = pass.lp.queries.lat.clone();
    vec![
        ("ungated.ingest_call_p50_us", pct(&mut lat, 0.5) / 1e3, "us"),
        (
            "ungated.ingest_call_p99_ms",
            pct(&mut lat, 0.99) / 1e6,
            "ms",
        ),
        ("ungated.freshness_p50_ms", pct(&mut fresh, 0.5), "ms"),
        ("ungated.freshness_p90_ms", pct(&mut fresh, 0.9), "ms"),
        ("ungated.freshness_samples", fresh.len() as f64, "count"),
        ("ungated.query_p50_us", pct(&mut query, 0.5) / 1e3, "us"),
        ("ungated.query_p99_us", pct(&mut query, 0.99) / 1e3, "us"),
    ]
}

/// Every output check on one pass; counts operations and failures.
fn check_pass(ctx: &Ctx, pass: &Pass, label: &str, rep: &mut Report) -> Result<Checked, String> {
    let snap = pass.final_view.snapshot();
    let r = &snap.report;
    let offered = pass.lp.end_pos;
    rep.check(pass.lp.ingest_errors == 0, || {
        format!(
            "{label}: {} ingest calls failed (first: {})",
            pass.lp.ingest_errors,
            pass.lp.first_error.as_deref().unwrap_or("?")
        )
    });
    rep.check(
        r.total_offered_updates() as u64 == offered
            && (r.total_updates + r.total_dropped_updates) as u64 == offered,
        || {
            format!(
                "{label}: offered {offered} != ingested {} + dropped {}",
                r.total_updates, r.total_dropped_updates
            )
        },
    );
    rep.check(pass.replay_ok, || {
        format!(
            "{label}: recovery resumed at {} (expected the pre-phase position)",
            pass.start_pos
        )
    });

    // The final snapshot against a sequential one-shot run over the same
    // prefix, probed on every item the stream touches: bit-identical
    // estimates for `merge_bitwise` families; otherwise estimate-equal,
    // which for the sampling families in the thinning regime these runs
    // reach means both within ε‖f‖₁ of the exact frequency (DESIGN.md §7:
    // their merges are equal in distribution, not bit for bit).
    let t = Instant::now();
    let mut reference = ctx.reg.build(&ctx.spec).map_err(err("build reference"))?;
    let runner = bd_stream::StreamRunner::new();
    for piece in ctx.input.prefix(offered) {
        runner.run_updates(&mut *reference, piece);
    }
    let ref_secs = t.elapsed().as_secs_f64();
    eprintln!("{label}: sequential reference over {offered} updates took {ref_secs:.2}s");
    let bitwise = ctx
        .reg
        .info(ctx.spec.family)
        .ok_or("family not registered")?
        .caps
        .merge_bitwise;
    let (f, l1) = ctx.input.exact_at(offered);
    let bound = ctx.spec.epsilon * l1 as f64;
    rep.check(
        bitwise || offered as f64 <= ctx.spec.alpha * l1 as f64,
        || format!("{label}: the run ended inside the stream's first cycle, outside the α promise"),
    );
    let (a, b) = snap
        .sketch
        .as_point()
        .zip(reference.as_point())
        .ok_or("family answers no point queries")?;
    let bad = ctx
        .input
        .ids
        .iter()
        .filter(|&&i| {
            let (x, y) = (a.point(i), b.point(i));
            if bitwise {
                x.to_bits() != y.to_bits()
            } else {
                let exact = f[i as usize] as f64;
                (x - exact).abs() > bound || (y - exact).abs() > bound
            }
        })
        .count();
    rep.check(bad == 0, || {
        format!(
            "{label}: final snapshot differs from the sequential reference on {bad} of {} items ({})",
            ctx.input.ids.len(),
            if bitwise { "bitwise" } else { "beyond ε‖f‖₁" }
        )
    });

    let q = &pass.lp.queries;
    let pc = ctx
        .input
        .check_points(ctx.spec.epsilon, ctx.spec.alpha, &q.served);
    eprintln!(
        "{label}: {} served answers checked, worst error {:.3}× ε‖f‖₁; {} outside the α promise",
        pc.checked, pc.worst, pc.outside_promise
    );
    rep.check(pc.bad == 0, || {
        format!(
            "{label}: {} of {} served answers off by more than ε‖f‖₁ (worst {:.3}× the bound)",
            pc.bad, pc.checked, pc.worst
        )
    });
    let calls = pass.lp.calls.len() as u64;
    let q_failed = q.io_errors + q.error_responses + pc.bad + q.regressions;
    rep.attempted += calls + q.attempted;
    rep.failed += pass.lp.ingest_errors + q_failed;
    Ok(Checked {
        calls,
        calls_failed: pass.lp.ingest_errors,
        queries: q.attempted,
        queries_failed: q_failed,
        ingest_fail: (pass.lp.error_updates + r.total_dropped_updates as u64) as f64
            / offered.max(1) as f64,
        query_fail: q_failed as f64 / q.attempted.max(1) as f64,
        outside_promise: pc.outside_promise as f64
            / (pc.checked + pc.outside_promise).max(1) as f64,
        worst_error: pc.worst,
        ref_secs,
    })
}

/// What the checks of one pass measured.
struct Checked {
    /// Operations attempted and failed, per kind.
    calls: u64,
    calls_failed: u64,
    queries: u64,
    queries_failed: u64,
    ingest_fail: f64,
    query_fail: f64,
    /// Share of served answers at stamps outside the α promise.
    outside_promise: f64,
    /// Largest served error as a share of ε‖f‖₁.
    worst_error: f64,
    /// Seconds the sequential reference took.
    ref_secs: f64,
}

/// Producer reconciliation: its top-level spans' self times plus their
/// children and its scheduled idle, against its wall time.
fn unaccounted(pass: &Pass) -> f64 {
    let spans = pass.tracer.spans();
    let own = trace::self_times(spans);
    let accounted: u64 = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.lane == "producer" && s.name != "finish")
        .map(|(_, &o)| o)
        .sum();
    let wall = ns(pass.lp.wall);
    // The closed loop's wall starts before its first span; both loops end
    // at their last span.
    (wall - accounted as f64) / wall
}

fn run(args: &Args) -> Result<Report, String> {
    let plan = PLANS
        .iter()
        .find(|p| p.name == args.workload)
        .ok_or_else(|| {
            let names: Vec<_> = PLANS.iter().map(|p| p.name).collect();
            format!(
                "unknown workload `{}` (expected one of {})",
                args.workload,
                names.join(", ")
            )
        })?;
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let state = root
        .join("state")
        .join(format!("{}-{}", plan.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    std::fs::create_dir_all(&state).map_err(err("create state dir"))?;
    let spec: bd_stream::SketchSpec = plan.spec.parse().map_err(err("spec"))?;
    let t = Instant::now();
    let input = Input::generate(spec.n, args.seed);
    eprintln!(
        "{}: generated a {}-update cycle in {:.2}s",
        plan.name,
        input.props.cycle,
        t.elapsed().as_secs_f64()
    );
    let mut ctx = Ctx {
        plan,
        spec,
        config: plan.service.parse().map_err(err("service config"))?,
        reg: bd_core::registry(),
        input,
        run_for: Duration::from_secs(args.seconds),
        state: state.clone(),
        pre: None,
    };
    if plan.serving {
        ctx.pre = Some(pre_phase(&ctx)?);
    }
    let result = if args.trace {
        traced(&ctx, args)
    } else {
        untraced(&ctx, args)
    };
    let _ = std::fs::remove_dir_all(&state);
    result
}

/// The run's workload properties and per-kind operation counts.
fn properties(ctx: &Ctx, args: &Args, pass: &Pass, c: &Checked) {
    let p = &ctx.input.props;
    println!(
        "properties {{\"workload\": \"{}\", \"seed\": {}, \"updates\": {}, \"cycle\": {}, \"distinct_items\": {}, \"alpha_realized\": {}, \"distinct_per_cell\": {}, \"cuts\": {}, \"ingest_calls\": {}, \"ingest_calls_failed\": {}, \"queries\": {}, \"queries_failed\": {}}}",
        ctx.plan.name,
        args.seed,
        pass.lp.end_pos - pass.start_pos,
        p.cycle,
        p.distinct,
        p.alpha,
        p.distinct_per_cell,
        pass.lp.reports.len(),
        c.calls,
        c.calls_failed,
        c.queries,
        c.queries_failed
    );
}

fn untraced(ctx: &Ctx, args: &Args) -> Result<Report, String> {
    let pass = measure(ctx, false, 0)?;
    let mut rep = Report::default();
    let checked = check_pass(ctx, &pass, "pass", &mut rep)?;
    properties(ctx, args, &pass, &checked);
    for (name, value, unit) in end_to_end(&pass) {
        rep.put(name, value, unit);
    }
    Ok(rep)
}

fn traced(ctx: &Ctx, args: &Args) -> Result<Report, String> {
    let base = measure(ctx, false, 0)?;
    let pass = measure(ctx, true, 1)?;
    let mut rep = Report::default();
    check_pass(ctx, &base, "untraced pass", &mut rep)?;
    let checked = check_pass(ctx, &pass, "traced pass", &mut rep)?;
    let ref_secs = checked.ref_secs;
    properties(ctx, args, &pass, &checked);
    let probes = probes::run(ctx, &pass.final_view, &pass.handle)?;

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}-seed{}.spans.tsv", ctx.plan.name, args.seed));
    pass.tracer.write(&path).map_err(err("write spans"))?;
    eprintln!(
        "{}: {} spans written to {}",
        ctx.plan.name,
        pass.tracer.spans().len(),
        path.display()
    );

    let e2e = end_to_end(&pass);
    let base_ungated = ungated(&base);
    for &(name, value, unit) in &base_ungated {
        rep.put(name, value, unit);
    }
    let wall = ns(pass.lp.wall);
    let spans = pass.tracer.spans();
    let mut plain: Vec<f64> = Vec::new();
    let mut cut: Vec<f64> = Vec::new();
    for s in spans.iter().filter(|s| s.name == "ingest") {
        if s.cut { &mut cut } else { &mut plain }.push(s.dur() as f64);
    }
    let cut_sum: f64 = cut.iter().sum();
    let reports = &pass.lp.reports;
    let blocked: f64 = reports.iter().map(|r| ns(r.blocked)).sum();
    let queue_peak = reports.iter().map(|r| r.queue_peak).max().unwrap_or(0) as f64;
    let merge: Vec<f64> = reports.iter().map(|r| ns(r.merge_elapsed) / 1e3).collect();
    let wal_bytes: u64 = reports.iter().map(|r| r.wal_bytes).sum();
    let ingested: usize = reports.iter().map(|r| r.updates).sum();
    let updates = (pass.lp.end_pos - pass.start_pos) as f64;
    let offered_total = pass.lp.end_pos as f64;
    let single_rate = offered_total / ref_secs;
    let mups = e2e[1].1;
    let mut late: Vec<f64> = pass.lp.calls.iter().map(|c| c.late as f64).collect();
    let mut reader_late = pass.lp.queries.late.clone();
    let final_report = pass.final_view.snapshot().report;
    let unacc = unaccounted(&pass);
    rep.check(unacc.abs() <= RECONCILE_TOLERANCE, || {
        format!(
            "span reconciliation: {:.2}% of producer wall time unaccounted (tolerance {:.0}%)",
            unacc * 100.0,
            RECONCILE_TOLERANCE * 100.0
        )
    });

    let cfg = ctx.config;
    let p = &ctx.input.props;
    rep.put("gen.ingest_late_ms", pct(&mut late, 0.99) / 1e6, "ms");
    rep.put(
        "gen.reader_late_ms",
        pct(&mut reader_late, 0.99) / 1e6,
        "ms",
    );
    rep.put("gen.alpha_realized", p.alpha, "ratio");
    rep.put("gen.distinct_per_cell", p.distinct_per_cell, "count");
    rep.put("gen.distinct_items", p.distinct as f64, "count");
    rep.put("gen.updates", updates, "count");
    rep.put("service.call_plain_us", pct(&mut plain, 0.5) / 1e3, "us");
    rep.put("service.call_cut_ms", pct(&mut cut, 0.5) / 1e6, "ms");
    rep.put("service.cut_share", cut_sum / wall, "ratio");
    rep.put("service.blocked_share", blocked / wall, "ratio");
    rep.put(
        "service.queue_peak_frac",
        queue_peak / (cfg.depth * cfg.threads) as f64,
        "ratio",
    );
    rep.put("service.epochs", reports.len() as f64, "count");
    rep.put(
        "service.dropped_updates",
        final_report.total_dropped_updates as f64,
        "count",
    );
    rep.put("merge.cut_us", mean(&merge), "us");
    rep.put("sketch.update_ns", 1e9 / single_rate, "ns");
    rep.put("sketch.service_speedup", mups * 1e6 / single_rate, "ratio");
    rep.put(
        "sketch.space_bits",
        final_report.space_bits() as f64,
        "bits",
    );
    rep.put(
        "wal.bytes_per_update",
        wal_bytes as f64 / ingested.max(1) as f64,
        "bytes",
    );
    for (name, value, unit) in probes {
        rep.put(name, value, unit);
    }
    rep.put("net.idle_rtt_us", pass.idle_rtt_us, "us");
    rep.put(
        "proc.rss_growth_mib",
        (pass.rss_end_kib - pass.rss_start_kib) / 1024.0,
        "MiB",
    );
    rep.put("query.worst_error_frac", checked.worst_error, "ratio");
    rep.put(
        "query.outside_promise_frac",
        checked.outside_promise,
        "ratio",
    );
    rep.put("ingest_fail_frac", checked.ingest_fail, "ratio");
    rep.put("query_fail_frac", checked.query_fail, "ratio");
    rep.put("trace.unaccounted_frac", unacc, "ratio");
    // Tracing overhead: traced over untraced, for the metrics the spans
    // could slow. The process's peak RSS spans both passes, so it has none.
    let traced_m = [end_to_end(&pass), ungated(&pass)].concat();
    let base_m = [end_to_end(&base), base_ungated].concat();
    for ((name, traced, _), (_, untraced, _)) in traced_m.iter().zip(&base_m) {
        if OVERHEAD.contains(name) {
            let short = name.trim_start_matches("ungated.");
            rep.put(&format!("trace.ratio.{short}"), traced / untraced, "ratio");
        }
    }
    Ok(rep)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bd-e2e-bench: {e}\nusage: bd-e2e-bench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let mut rep = match run(&args) {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!("bd-e2e-bench: {e}");
            return ExitCode::from(1);
        }
    };
    for (name, value, unit) in &mut rep.metrics {
        println!("metric {name} {value} {unit}");
        // An empty sample has no statistic; JSON has no NaN either.
        if !value.is_finite() {
            rep.failures
                .push(format!("metric {name} has no finite value"));
            *value = 0.0;
        }
    }
    for f in &rep.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    println!("{}", rep.json());
    if rep.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
