//! One run of one workload in this process: set-up, warm-up, measurement,
//! checks, and the report.
//!
//! The untraced run (`--trace 0`) yields the end-to-end metrics. The traced
//! run (`--trace 1`) replays the workload through the layers' public
//! functions under benchmark-side spans, runs the probes, and yields the
//! per-layer metrics; no end-to-end metric is taken from its spanned passes.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::engine::{CacheCounts, ExecCounts};
use crate::host::{self, Host};
use crate::json::Json;
use crate::metrics::{LayerMetrics, END_TO_END};
use crate::span::Tracer;
use crate::stats::{self, Summary};
use crate::workloads::serve_mixed::{Class, Driven, ServeMixed, BLOCK_LEN, CLIENTS};
use crate::workloads::{self, Batch, Pass, RunContext, Runner};

/// An untraced run sets the workload up at least this often, and goes on
/// while all set-ups together have taken under a second; `setup_s` is the
/// median. Cheap set-ups need the larger sample to give a steady median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.0;

/// Whether a run that has set up `done` times in `spent_s` seconds sets up
/// once more.
fn set_up_again(done: usize, spent_s: f64) -> bool {
    done < MIN_SETUPS || (done < MAX_SETUPS && spent_s < SETUP_BUDGET_S)
}
/// Fewest measured passes, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Failure messages kept in a report.
const MAX_FAILURES: usize = 20;
pub const SCHEMA: &str = "lardb-benchmark/1";

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Where to write the full report, beside printing it.
    pub out: Option<PathBuf>,
}

pub struct Report {
    /// Everything measured, for result files and `compare`.
    pub full: Json,
    /// The one-line result the driver reads.
    pub last_line: Json,
    pub correct: bool,
}

/// `benchmark/out`, beside this crate's manifest.
pub fn out_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// This run's private directory, removed when the run ends.
struct RunDir(PathBuf);

impl RunDir {
    fn create(workload: &str) -> Result<RunDir, String> {
        let dir = out_root().join(format!("run-{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Failed operations and why, over a whole run.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn pass(&mut self, p: &Pass) {
        self.attempted += p.attempted;
        self.failed += p.failed.min(p.attempted.max(1));
        self.note(p.failures.iter().cloned());
    }

    fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.note([why]);
    }

    fn note(&mut self, whys: impl IntoIterator<Item = String>) {
        for why in whys {
            if self.failures.len() < MAX_FAILURES {
                eprintln!("FAILED: {why}");
                self.failures.push(why);
            }
        }
    }
}

fn summary_fields(s: &Summary) -> Vec<(String, Json)> {
    [
        ("n", Json::Int(s.n as i64)),
        ("min", Json::Num(s.min)),
        ("q1", Json::Num(s.q1)),
        ("median", Json::Num(s.median)),
        ("q3", Json::Num(s.q3)),
        ("max", Json::Num(s.max)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

fn summary_json(s: &Summary) -> Json {
    Json::Obj(summary_fields(s))
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

pub fn run(args: &RunArgs) -> Result<Report, String> {
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload `{}`; the workloads are {}",
            args.workload,
            workloads::NAMES.join(", ")
        ));
    }
    let overrides = host::engine_env_overrides();
    if !overrides.is_empty() {
        return Err(format!(
            "{} set in the environment; the benchmark measures engine defaults",
            overrides.join(", ")
        ));
    }
    let dir = RunDir::create(&args.workload)?;
    let ctx = RunContext {
        seed: args.seed,
        quick: args.quick,
        dir: dir.0.clone(),
    };
    let host = Host::measure();
    println!(
        "host: {} core(s), {}, peak {:.2} GFLOP/s, memcpy {:.2} GB/s",
        host.nproc, host.cpu_model, host.peak_gflops, host.memcpy_gb_s
    );
    let measured = if args.workload == "serve_mixed" {
        if args.trace {
            serve_traced(args, &ctx, &host)?
        } else {
            serve_untraced(args, &ctx)?
        }
    } else if args.trace {
        batch_traced(args, &ctx, &host)?
    } else {
        batch_untraced(args, &ctx)?
    };
    drop(dir);
    Ok(measured.into_report(args, &host))
}

/// One reported number.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Layer and source of a per-layer metric, for the printed table.
    note: String,
}

/// What a run hands to the report writer.
struct Measured {
    digest: String,
    sizes: String,
    tally: Tally,
    /// In printing order.
    metrics: Vec<Metric>,
    /// Name and quartiles of every timing behind the metrics.
    timings: Vec<(String, Json)>,
}

impl Measured {
    fn into_report(self, args: &RunArgs, host: &Host) -> Report {
        let correct = self.tally.failed == 0;
        println!(
            "{} seed={} digest={} {}",
            args.workload, args.seed, self.digest, self.sizes
        );
        for m in &self.metrics {
            println!(
                "  {:<32} {:>16.6} {:<8} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        println!(
            "  attempted={} failed={} failed_share={:.6} correct={}",
            self.tally.attempted,
            self.tally.failed,
            self.tally.failed as f64 / self.tally.attempted.max(1) as f64,
            correct
        );
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|m| (m.name.to_string(), metric_json(m.value, m.unit)))
                .collect(),
        );
        let last_line = Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Int(self.tally.attempted.max(1) as i64)),
            ("failed", Json::Int(self.tally.failed as i64)),
            ("metrics", metrics.clone()),
        ]);
        let full = Json::obj([
            ("schema", Json::str(SCHEMA)),
            ("workload", Json::str(args.workload.clone())),
            ("seed", Json::Int(args.seed as i64)),
            ("seconds", Json::Num(args.seconds)),
            ("trace", Json::Bool(args.trace)),
            ("quick", Json::Bool(args.quick)),
            ("input_digest", Json::str(self.digest)),
            ("sizes", Json::str(self.sizes)),
            ("host", host.to_json()),
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Int(self.tally.attempted.max(1) as i64)),
            ("failed", Json::Int(self.tally.failed as i64)),
            (
                "failures",
                Json::Arr(self.tally.failures.into_iter().map(Json::Str).collect()),
            ),
            ("metrics", metrics),
            ("timings", Json::Obj(self.timings)),
        ]);
        Report {
            full,
            last_line,
            correct,
        }
    }
}

fn end_to_end_metrics(setup_s: f64, pass_s: f64, qps: f64) -> Vec<Metric> {
    let values = [setup_s, pass_s, qps, host::peak_rss_mb()];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| Metric {
            name: m.name,
            value,
            unit: m.unit,
            note: String::new(),
        })
        .collect()
}

fn layer_metrics(layers: &LayerMetrics) -> Vec<Metric> {
    layers
        .iter()
        .map(|(m, value)| Metric {
            name: m.name,
            value,
            unit: m.unit,
            note: format!("{} ({})", m.layer, m.source),
        })
        .collect()
}

// ------------------------------------------------------------------- batch

/// Sets the workload up repeatedly (once when `repeat` is false), dropping
/// each set-up before the next, and returns the last.
fn set_up_batch(
    name: &str,
    ctx: &RunContext,
    repeat: bool,
) -> Result<(Box<dyn Batch>, Vec<f64>), String> {
    let mut seconds = Vec::new();
    loop {
        let t0 = Instant::now();
        let w = workloads::set_up(name, ctx)?;
        seconds.push(t0.elapsed().as_secs_f64());
        if !(repeat && set_up_again(seconds.len(), seconds.iter().sum())) {
            return Ok((w, seconds));
        }
    }
}

/// Runs untraced passes until `seconds` of wall time have gone by, at
/// least [`MIN_PASSES`] of them.
fn measure_passes(w: &mut dyn Batch, seconds: f64, tally: &mut Tally) -> Vec<Pass> {
    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        let p = w.pass(&mut Runner::Direct);
        tally.pass(&p);
        passes.push(p);
    }
    passes
}

fn warm_up(w: &mut dyn Batch, runner: &mut Runner<'_>, passes: usize, tally: &mut Tally) {
    if let Runner::Staged(t) = runner {
        t.set_pass(-1);
    }
    for _ in 0..passes {
        // A wrong answer in warm-up is still a wrong answer.
        let p = w.pass(runner);
        tally.pass(&p);
    }
}

fn pass_seconds(passes: &[Pass]) -> Vec<f64> {
    passes.iter().map(|p| p.seconds).collect()
}

/// The shortest time. The host's disturbances only ever add time, and the
/// work of a pass is the same every time, so the fastest pass is the
/// steadiest estimate of what the pass costs (see the README's host notes).
fn fastest(seconds: &[f64]) -> f64 {
    seconds.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The highest rate: the rate of the fastest fully correct pass.
fn fastest_rate(rates: &[f64]) -> f64 {
    rates.iter().copied().fold(0.0, f64::max)
}

/// Correct statements per second, pass by pass.
fn pass_rates(passes: &[Pass]) -> Vec<f64> {
    passes
        .iter()
        .map(|p| p.attempted.saturating_sub(p.failed) as f64 / p.seconds)
        .collect()
}

fn batch_untraced(args: &RunArgs, ctx: &RunContext) -> Result<Measured, String> {
    let (mut w, setups) = set_up_batch(&args.workload, ctx, true)?;
    let mut tally = Tally::default();
    let warm = w.warm_passes();
    warm_up(w.as_mut(), &mut Runner::Direct, warm, &mut tally);
    let passes = measure_passes(w.as_mut(), args.seconds, &mut tally);
    for why in w.finish() {
        tally.fail(why);
    }
    let times = pass_seconds(&passes);
    Ok(Measured {
        digest: w.digest(),
        sizes: w.describe(),
        tally,
        metrics: end_to_end_metrics(
            stats::median(&setups),
            fastest(&times),
            fastest_rate(&pass_rates(&passes)),
        ),
        timings: vec![
            ("setup_s".into(), summary_json(&Summary::of(&setups))),
            ("pass_s".into(), summary_json(&Summary::of(&times))),
        ],
    })
}

/// Spans that stand for a layer's work inside one statement.
const STAGED_SPANS: [&str; 7] = [
    "sql.parse",
    "sql.bind",
    "planner.optimize",
    "planner.physical",
    "exec.execute",
    "storage.ctas_write",
    "core.other",
];

/// Per-pass span and counter metrics of `n` staged passes.
fn staged_metrics(
    tracer: &Tracer,
    counts: &ExecCounts,
    statements: u64,
    n: usize,
    out: &mut LayerMetrics,
) -> f64 {
    let per_pass = |v: f64| v / n.max(1) as f64;
    let selfs = tracer.self_seconds_by_name();
    let of = |name: &str| per_pass(selfs.get(name).copied().unwrap_or(0.0));
    out.set("sql.parse_s", of("sql.parse"));
    out.set("sql.bind_s", of("sql.bind"));
    out.set("planner.optimize_s", of("planner.optimize"));
    out.set("planner.physical_s", of("planner.physical"));
    out.set("exec.execute_s", of("exec.execute"));
    out.set("storage.ctas_write_s", of("storage.ctas_write"));
    out.set("sql.statements", per_pass(statements as f64));
    out.set("exec.join_s", per_pass(counts.join_s));
    out.set("exec.agg_s", per_pass(counts.agg_s));
    out.set("exec.exchange_s", per_pass(counts.exchange_s));
    out.set("exec.scan_s", per_pass(counts.scan_s));
    out.set("exec.batches", per_pass(counts.batches as f64));
    out.set("exec.fallbacks", per_pass(counts.fallbacks as f64));
    out.set("exec.rows_shuffled", per_pass(counts.rows_shuffled as f64));
    out.set("la.dispatch.dense", per_pass(counts.dispatch_dense as f64));
    out.set("la.dispatch.spmv", per_pass(counts.dispatch_spmv as f64));
    out.set(
        "la.dispatch.densified",
        per_pass(counts.dispatch_densified as f64),
    );
    out.set("net.bytes_shuffled", per_pass(counts.bytes_shuffled as f64));
    out.set("net.frames", per_pass(counts.frames as f64));
    out.set("buf.spill_bytes", per_pass(counts.spill_bytes as f64));
    out.set("buf.spill_files", per_pass(counts.spill_files as f64));
    STAGED_SPANS.iter().map(|s| of(s)).sum()
}

fn cache_metrics(cache: CacheCounts, passes: f64, out: &mut LayerMetrics) {
    let lookups = (cache.hits + cache.misses) as f64;
    out.set(
        "core.plan_cache_hit_share",
        if lookups > 0.0 {
            cache.hits as f64 / lookups
        } else {
            0.0
        },
    );
    out.set(
        "core.plan_cache_invalidations",
        cache.invalidations as f64 / passes.max(1.0),
    );
}

fn host_metrics(host: &Host, out: &mut LayerMetrics) {
    out.set("host.peak_gflops", host.peak_gflops);
    out.set("host.memcpy_gb_s", host.memcpy_gb_s);
    let gemm = out.get("la.gemm_gflops");
    if gemm > 0.0 && host.peak_gflops > 0.0 {
        out.set("la.roofline_share", gemm / host.peak_gflops);
    }
}

fn write_trace(workload: &str, trace: &Json) -> Result<(), String> {
    let path = out_root().join(format!("trace_{workload}.json"));
    std::fs::write(&path, trace.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok(())
}

fn batch_traced(args: &RunArgs, ctx: &RunContext, host: &Host) -> Result<Measured, String> {
    let (mut w, _) = set_up_batch(&args.workload, ctx, false)?;
    let mut tally = Tally::default();
    let mut layers = LayerMetrics::default();

    // Untraced and spanned passes take turns, so that a slow spell of the
    // host falls on both alike; the untraced ones also give the plan-cache
    // counters of the path users take.
    let warm = w.warm_passes();
    warm_up(w.as_mut(), &mut Runner::Direct, warm, &mut tally);
    let mut tracer = Tracer::new();
    warm_up(w.as_mut(), &mut Runner::Staged(&mut tracer), 1, &mut tally);
    let mut cache = CacheCounts::default();
    let (mut direct, mut staged) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while staged.len() < w.traced_passes() || started.elapsed().as_secs_f64() < args.seconds * 0.6 {
        // Plan-cache counters are read around the untraced pass only: the
        // staged pass creates and drops tables too, but looks nothing up.
        let before = w.db().plan_cache();
        let p = w.pass(&mut Runner::Direct);
        cache.add_since(before, w.db().plan_cache());
        tally.pass(&p);
        direct.push(p);
        tracer.set_pass(staged.len() as i64);
        let p = w.pass(&mut Runner::Staged(&mut tracer));
        tally.pass(&p);
        staged.push(p);
    }
    cache_metrics(cache, direct.len() as f64, &mut layers);
    let direct_s = stats::median(&pass_seconds(&direct));
    let staged_s = stats::median(&pass_seconds(&staged));
    let mut counts = ExecCounts::default();
    for p in &staged {
        counts.add(&p.counts);
    }
    let statements = staged.iter().map(|p| p.attempted).sum();
    let spans_s = staged_metrics(&tracer, &counts, statements, staged.len(), &mut layers);
    layers.set("core.unattributed_share", (direct_s - spans_s) / direct_s);
    layers.set("bench.trace_overhead_share", staged_s / direct_s - 1.0);

    w.probes(ctx, direct_s, &mut layers)?;
    host_metrics(host, &mut layers);
    for why in w.finish() {
        tally.fail(why);
    }
    write_trace(&args.workload, &tracer.to_json(&args.workload))?;
    Ok(Measured {
        digest: w.digest(),
        sizes: w.describe(),
        tally,
        metrics: layer_metrics(&layers),
        timings: vec![
            (
                "untraced_pass_s".into(),
                summary_json(&Summary::of(&pass_seconds(&direct))),
            ),
            (
                "staged_pass_s".into(),
                summary_json(&Summary::of(&pass_seconds(&staged))),
            ),
        ],
    })
}

// ------------------------------------------------------------------ served

fn class_ms(driven: &Driven, class: Class) -> Vec<f64> {
    driven
        .ops
        .iter()
        .filter(|o| o.class == class && o.ok)
        .map(|o| o.seconds * 1e3)
        .collect()
}

/// Quartiles plus the tail: p95 always (it is the named metric), flagged
/// when fewer than ten samples lie beyond it, and the highest percentile the
/// sample does support.
fn latency_json(ms: &[f64]) -> Json {
    let mut fields = summary_fields(&Summary::of(ms));
    fields.push(("p95".into(), Json::Num(stats::percentile(ms, 950))));
    fields.push((
        "p95_supported".into(),
        Json::Bool(stats::supports(ms.len(), 950)),
    ));
    let top = stats::highest_supported(ms.len());
    fields.push((
        "highest_supported_percentile".into(),
        Json::Num(top as f64 / 10.0),
    ));
    fields.push((
        "highest_supported_value".into(),
        Json::Num(stats::percentile(ms, top)),
    ));
    Json::Obj(fields)
}

fn serve_tally(driven: &Driven, tally: &mut Tally) {
    tally.attempted += driven.ops.len() as u64;
    tally.failed += driven.ops.iter().filter(|o| !o.ok).count() as u64;
    tally.note(driven.failures.iter().cloned());
}

fn serve_timings(driven: &Driven) -> Vec<(String, Json)> {
    let mut timings = vec![(
        "pass_s".to_string(),
        summary_json(&Summary::of(&driven.blocks)),
    )];
    for class in [Class::Point, Class::Agg, Class::Insert, Class::Count] {
        timings.push((
            format!("{}_ms", class.name()),
            latency_json(&class_ms(driven, class)),
        ));
    }
    timings
}

/// Warm-up seconds of the closed loop before the measured window.
fn serve_warm_s(args: &RunArgs) -> f64 {
    if args.quick {
        0.1
    } else {
        2.0
    }
}

fn serve_untraced(args: &RunArgs, ctx: &RunContext) -> Result<Measured, String> {
    let mut setups = Vec::new();
    let mut w = loop {
        let t0 = Instant::now();
        let w = ServeMixed::set_up(ctx)?;
        setups.push(t0.elapsed().as_secs_f64());
        if !set_up_again(setups.len(), setups.iter().sum()) {
            break w;
        }
        // Dropping a set-up stops its server and waits for its threads.
    };
    let mut tally = Tally::default();
    let driven = w.drive(0, serve_warm_s(args), args.seconds, false)?;
    serve_tally(&driven, &mut tally);
    if let Err(why) = w.check_events() {
        tally.fail(why);
    }
    w.shut_down();
    let mut timings = vec![("setup_s".to_string(), summary_json(&Summary::of(&setups)))];
    timings.extend(serve_timings(&driven));
    Ok(Measured {
        digest: w.digest(),
        sizes: w.describe(),
        tally,
        metrics: end_to_end_metrics(
            stats::median(&setups),
            fastest(&driven.blocks),
            CLIENTS as f64 * fastest_rate(&driven.block_rates),
        ),
        timings,
    })
}

fn serve_traced(args: &RunArgs, ctx: &RunContext, host: &Host) -> Result<Measured, String> {
    let mut w = ServeMixed::set_up(ctx)?;
    let mut tally = Tally::default();
    let mut layers = LayerMetrics::default();

    // The closed loop, with spans on the client side only.
    let driven = w.drive(0, serve_warm_s(args), args.seconds * 0.6, true)?;
    serve_tally(&driven, &mut tally);
    let served_block_s = stats::median(&driven.blocks);
    for (class, p50, p95) in [
        (Class::Point, "point_p50_ms", "point_p95_ms"),
        (Class::Agg, "agg_p50_ms", "agg_p95_ms"),
        (Class::Insert, "insert_p50_ms", "insert_p95_ms"),
    ] {
        let ms = class_ms(&driven, class);
        layers.set(p50, stats::median(&ms));
        layers.set(p95, stats::percentile(&ms, 950));
    }
    // Counts are per pass, and a pass here is one block of ten statements.
    let blocks = driven.ops.len() as f64 / BLOCK_LEN as f64;
    cache_metrics(driven.cache, blocks, &mut layers);
    layers.set("server.rejected", driven.rejected as f64 / blocks.max(1.0));

    // The same statements in this process: what the wire and the sessions add.
    let (rounds, reps) = if args.quick { (2, 20) } else { (10, 50) };
    let (local_s, recorder_off_s) = w.local_point_seconds(rounds, reps)?;
    layers.set(
        "server.wire_overhead_ms",
        layers.get("point_p50_ms") - local_s * 1e3,
    );
    layers.set(
        "obs.recorder_overhead_share",
        local_s / recorder_off_s - 1.0,
    );

    // The front end and executor under spans, block by block.
    let mut tracer = Tracer::new();
    let staged_blocks = if args.quick { 3 } else { 30 };
    let (staged_block_s, counts) = w.staged_blocks(staged_blocks, &mut tracer)?;
    let spans_s = staged_metrics(
        &tracer,
        &counts,
        (staged_blocks * BLOCK_LEN) as u64,
        staged_blocks,
        &mut layers,
    );
    // Against the served block: what no staged span accounts for is the
    // wire, the sessions, admission and the recorder.
    layers.set(
        "core.unattributed_share",
        (served_block_s - spans_s) / served_block_s,
    );
    crate::probes::pool_scope(&mut layers);
    host_metrics(host, &mut layers);
    if let Err(why) = w.check_events() {
        tally.fail(why);
    }
    w.shut_down();

    let mut trace = tracer.to_json(&args.workload);
    if let Json::Obj(fields) = &mut trace {
        fields.push((
            "clients".into(),
            Json::Arr(
                driven
                    .tracers
                    .iter()
                    .map(|t| t.to_json(&args.workload))
                    .collect(),
            ),
        ));
    }
    write_trace(&args.workload, &trace)?;
    let mut timings = serve_timings(&driven);
    timings.push(("staged_block_s".into(), Json::Num(staged_block_s)));
    timings.push(("local_point_ms".into(), Json::Num(local_s * 1e3)));
    timings.push((
        "measured_blocks".into(),
        Json::Int(driven.blocks.len() as i64),
    ));
    Ok(Measured {
        digest: w.digest(),
        sizes: w.describe(),
        tally,
        metrics: layer_metrics(&layers),
        timings,
    })
}
