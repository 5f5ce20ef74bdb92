//! `perfbench`: the repository's benchmark. One command runs one named
//! workload from a seed, checks that the outputs are correct, and prints
//! every metric by name with its unit; the last line of standard output is
//! a JSON summary.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_zipf_rw --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with request tracing off;
//! `--trace 1` is a separate traced run that reports the per-layer metrics.
//! See `perfbench/README.md` for the workloads and the metric map.

mod openloop;
mod precompute_loop;
mod probes;
mod serve;
mod stats;
mod sys;

use pp_serving::{BatchServingEngine, EngineStats, WorkerStats};
use stats::{Metric, Samples};
use std::process::ExitCode;

/// An untraced run sets up at least this many times, and keeps setting up
/// (to at most [`SETUP_MAX_REPS`]) until [`SETUP_MIN_SECS`] have passed;
/// `setup_s` is the median.
pub const SETUP_MIN_REPS: usize = 3;
pub const SETUP_MAX_REPS: usize = 25;
pub const SETUP_MIN_SECS: f64 = 2.0;
/// Tracing sample rate of the traced run (one user in N).
pub const TRACE_SAMPLE: &str = "64";

pub const WORKLOADS: [&str; 3] = ["serve_zipf_rw", "serve_hot_read", "precompute_loop"];

/// The end-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("cpu_us_per_session", "us"),
];

/// The per-layer metrics every traced run reports, with their units.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("rnn.predict_ns.b1", "ns"),
    ("rnn.update_ns.b1", "ns"),
    ("rnn.predict_ns_per_row.b64", "ns"),
    ("rnn.update_ns_per_row.b64", "ns"),
    ("rnn.predict_gflops.b64", "GFLOP/s"),
    ("rnn.update_gflops.b64", "GFLOP/s"),
    ("rnn.train_examples_per_s", "1/s"),
    ("features.predict_input_ns", "ns"),
    ("features.update_input_ns", "ns"),
    ("engine.submit_ns", "ns"),
    ("engine.worker_idle_frac", "ratio"),
    ("engine.steals", "count"),
    ("engine.mean_batch_size", "count"),
    ("engine.batch_fill", "ratio"),
    ("engine.queue_wait_us.p99", "us"),
    ("engine.forward_pass_us.p50", "us"),
    ("engine.batch_assembly_us.p50", "us"),
    ("engine.reply_us.p50", "us"),
    ("store.get_ns", "ns"),
    ("store.put_ns", "ns"),
    ("store.hit_rate", "ratio"),
    ("store.evictions_per_1k", "per_1k"),
    ("store.resident_bytes", "bytes"),
    ("loop.score_ns", "ns"),
    ("loop.update_ns", "ns"),
    ("precompute.handle_wave_ns", "ns"),
    ("precompute.resolve_ns", "ns"),
    ("precompute.admit_ratio", "ratio"),
    ("precompute.budget_utilization", "ratio"),
    ("gen.late_us.p99", "us"),
    ("gen.outstanding_max", "count"),
    ("obs.trace_overhead", "ratio"),
    ("obs.sampled_requests", "count"),
];

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Internal: the untraced reference run a traced run compares its CPU
    /// cost against (`obs.trace_overhead`).
    pub reference: bool,
}

impl RunConfig {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut reference = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?.clone()),
                "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                "--reference" => reference = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload}; choose one of {}",
                WORKLOADS.join(", ")
            ));
        }
        if !(seconds > 0.0 && seconds <= 120.0) {
            return Err("--seconds must be in (0, 120]".into());
        }
        Ok(Self {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
            reference,
        })
    }
}

/// One correctness check and its outcome.
#[derive(Debug)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn expect(name: &str, ok: bool, detail: String) -> Self {
        Self {
            name: name.to_string(),
            ok,
            detail,
        }
    }

    pub fn from_result(name: &str, result: Result<(), String>) -> Self {
        match result {
            Ok(()) => Self::expect(name, true, "ok".into()),
            Err(e) => Self::expect(name, false, e),
        }
    }
}

/// Everything one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Output {
    pub e2e: Vec<Metric>,
    pub layer: Vec<Metric>,
    /// Workload-specific numbers printed for the reader but not part of the
    /// JSON summary.
    pub info: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Set by a `--reference` run: its CPU µs per session.
    pub reference: Option<f64>,
}

/// Runs `set_up` (which returns what it built and its own duration in
/// seconds) as often as the set-up rule asks — once for traced and
/// reference runs — and keeps the last result; the samples are every
/// set-up's duration.
pub fn repeat_setup<T>(cfg: &RunConfig, mut set_up: impl FnMut() -> (T, f64)) -> (T, Samples) {
    let mut secs = Samples::default();
    let mut total = 0.0;
    let mut last = None;
    loop {
        drop(last.take());
        let (built, s) = set_up();
        secs.push(s);
        total += s;
        last = Some(built);
        let reps = secs.len();
        if cfg.trace
            || cfg.reference
            || reps >= SETUP_MAX_REPS
            || (reps >= SETUP_MIN_REPS && total >= SETUP_MIN_SECS)
        {
            break;
        }
    }
    (last.expect("set up at least once"), secs)
}

/// `setup_s`: the median of a run's set-up durations.
pub fn setup_metric(secs: &Samples) -> Metric {
    Metric::new("setup_s", secs.median().expect("set up at least once"), "s").with_n(secs.len())
}

/// `peak_rss_mb`: the process's peak resident memory (`VmHWM`) read once
/// set-up is done, before any load phase — the built system with its
/// warmed states, not the load generator's queues.
pub fn peak_rss_metric(mb: f64) -> Metric {
    Metric::new("peak_rss_mb", mb, "MiB").note("VmHWM after set-up")
}

/// Median and p99 ([`Samples::tail`]) of a sample as metrics in µs
/// (`scale` converts the sample's unit to µs). A p99 the sample cannot
/// support is reported at the highest quantile it does support, and says
/// so.
pub fn p50_p99(s: &Samples, scale: f64) -> (Metric, Metric) {
    let p50 = Metric::new("p50", s.median().unwrap_or(f64::NAN) * scale, "us").with_n(s.len());
    let p99 =
        match s.tail(0.99) {
            Some((v, q, _)) if q < 0.99 => Metric::new("p99", v * scale, "us")
                .with_n(s.len())
                .note(format!(
                    "too few samples for p99: reported at p{:.1}",
                    q * 100.0
                )),
            Some((v, _, segments)) => Metric::new("p99", v * scale, "us")
                .with_n(s.len())
                .note(format!("median of {segments} segment p99s")),
            None => Metric::new("p99", f64::NAN, "us").with_n(0),
        };
    (p50, p99)
}

/// Engine counters at one instant.
#[derive(Debug)]
pub struct EngineSnapshot {
    stats: EngineStats,
    workers: Vec<WorkerStats>,
}

impl EngineSnapshot {
    pub fn take(engine: &BatchServingEngine) -> Self {
        Self {
            stats: engine.stats(),
            workers: engine.worker_stats(),
        }
    }
}

/// Engine-layer metrics between two snapshots `wall_s` apart.
pub fn engine_metrics(
    before: &EngineSnapshot,
    after: &EngineSnapshot,
    max_batch: usize,
    wall_s: f64,
) -> Vec<Metric> {
    let worker = |w: usize| before.workers.get(w).copied().unwrap_or_default();
    let idle_ns: u64 = after
        .workers
        .iter()
        .map(|a| a.idle_ns - worker(a.worker).idle_ns)
        .sum();
    let steals: u64 = after
        .workers
        .iter()
        .map(|a| a.steals - worker(a.worker).steals)
        .sum();
    let served = (after.stats.predictions + after.stats.updates)
        - (before.stats.predictions + before.stats.updates);
    let batches = after.stats.batches - before.stats.batches;
    let mean_batch = served as f64 / batches.max(1) as f64;
    let workers = after.workers.len().max(1);
    vec![
        Metric::new(
            "engine.worker_idle_frac",
            idle_ns as f64 / (workers as f64 * wall_s * 1e9),
            "ratio",
        ),
        Metric::new("engine.steals", steals as f64, "count"),
        Metric::new("engine.mean_batch_size", mean_batch, "count").with_n(batches as usize),
        Metric::new("engine.batch_fill", mean_batch / max_batch as f64, "ratio")
            .with_n(batches as usize),
    ]
}

/// Discards the spans recorded so far (those of set-up).
pub fn discard_spans() {
    let tracer = pp_obs::Tracer::global();
    if tracer.enabled() {
        drop(tracer.drain());
    }
}

/// Per-stage engine numbers from the spans the sampled tracer recorded
/// since the last drain, summarized with this benchmark's quantile
/// definition; the tracer's own tail report supplies the queue share.
pub fn trace_stage_metrics() -> Vec<Metric> {
    use pp_obs::Stage;
    let tracer = pp_obs::Tracer::global();
    let spans = if tracer.enabled() {
        tracer.drain()
    } else {
        Vec::new()
    };
    let stage = |stage: Stage| {
        let mut s = Samples::default();
        for span in spans.iter().filter(|sp| sp.stage == stage) {
            s.push(span.duration_ns() as f64 / 1_000.0);
        }
        s
    };
    let (_, queue_p99) = p50_p99(&stage(Stage::QueueWait), 1.0);
    let (forward_p50, _) = p50_p99(&stage(Stage::ForwardPass), 1.0);
    let (assembly_p50, _) = p50_p99(&stage(Stage::BatchAssembly), 1.0);
    let (reply_p50, _) = p50_p99(&stage(Stage::Reply), 1.0);
    let report = pp_obs::tail_report(&spans, tracer.config().sample_every, tracer.dropped());
    vec![
        queue_p99.named("engine.queue_wait_us.p99"),
        forward_p50.named("engine.forward_pass_us.p50"),
        assembly_p50.named("engine.batch_assembly_us.p50"),
        reply_p50.named("engine.reply_us.p50"),
        Metric::new(
            "obs.sampled_requests",
            report.sampled_requests as f64,
            "count",
        )
        .note(format!(
            "1/{} users traced, {} spans dropped, slowest 1% {:.0}% queued",
            report.sample_every,
            report.spans_dropped,
            report.tail_queue_share * 100.0
        )),
    ]
}

/// Runs this workload untraced in a child process over the same inputs and
/// compares CPU per session: `traced / untraced - 1`.
pub fn trace_overhead(cfg: &RunConfig, traced_cpu_us: f64) -> Metric {
    let reference = std::env::current_exe()
        .map_err(|e| e.to_string())
        .and_then(|exe| {
            std::process::Command::new(exe)
                .args([
                    "--workload",
                    &cfg.workload,
                    "--seed",
                    &cfg.seed.to_string(),
                    "--seconds",
                    &cfg.seconds.to_string(),
                    "--trace",
                    "0",
                    "--reference",
                ])
                .env("PP_TRACE_SAMPLE", "0")
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| e.to_string())
        })
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .last()
                .and_then(|l| l.strip_prefix("reference_cpu_us_per_session="))
                .and_then(|v| v.trim().parse::<f64>().ok())
                .ok_or_else(|| format!("reference run printed no result ({})", out.status))
        });
    match reference {
        Ok(untraced) => Metric::new(
            "obs.trace_overhead",
            traced_cpu_us / untraced - 1.0,
            "ratio",
        )
        .note(format!(
            "CPU per session traced {traced_cpu_us:.2} us vs untraced {untraced:.2} us"
        )),
        Err(e) => Metric::new("obs.trace_overhead", f64::NAN, "ratio").note(e),
    }
}

fn print_metric(kind: &str, m: &Metric) {
    let n = m.n.map(|n| format!(" (n={n})")).unwrap_or_default();
    let note = if m.note.is_empty() {
        String::new()
    } else {
        format!("  [{}]", m.note)
    };
    println!("{kind} {} = {} {}{n}{note}", m.name, m.value, m.unit);
}

/// Checks that `metrics` holds exactly the `expected` names, once each,
/// with the expected units and finite values.
fn check_metric_set(metrics: &[Metric], expected: &[(&str, &str)]) -> Check {
    let mut problems = Vec::new();
    for (name, unit) in expected {
        let found: Vec<&Metric> = metrics.iter().filter(|m| m.name == *name).collect();
        match found.as_slice() {
            [m] if m.unit != *unit => problems.push(format!("{name} has unit {}", m.unit)),
            [m] if !m.value.is_finite() => problems.push(format!("{name} is not finite")),
            [_] => {}
            other => problems.push(format!("{name} reported {} times", other.len())),
        }
    }
    for m in metrics {
        if !expected.iter().any(|(name, _)| *name == m.name) {
            problems.push(format!("unexpected metric {}", m.name));
        }
    }
    Check::expect(
        "metric_set",
        problems.is_empty(),
        if problems.is_empty() {
            format!("{} metrics, each once with its unit", expected.len())
        } else {
            problems.join("; ")
        },
    )
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match RunConfig::parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> [--seconds <s>] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // The tracer reads its sample rate once, on first use: set it before
    // anything touches the engine.
    std::env::set_var(
        "PP_TRACE_SAMPLE",
        if cfg.trace { TRACE_SAMPLE } else { "0" },
    );
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} | host {}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        sys::host_tag()
    );
    let mut out = match cfg.workload.as_str() {
        "serve_zipf_rw" => serve::run(&serve::ZIPF_RW, &cfg),
        "serve_hot_read" => serve::run(&serve::HOT_READ, &cfg),
        _ => precompute_loop::run(&cfg),
    };
    if cfg.reference {
        println!(
            "reference_cpu_us_per_session={}",
            out.reference.unwrap_or(f64::NAN)
        );
        return ExitCode::SUCCESS;
    }
    for m in &out.e2e {
        print_metric("metric", m);
    }
    for m in &out.layer {
        print_metric("layer", m);
    }
    for m in &out.info {
        print_metric("info", m);
    }
    let (reported, expected): (&[Metric], &[(&str, &str)]) = if cfg.trace {
        (&out.layer, &PER_LAYER)
    } else {
        (&out.e2e, &END_TO_END)
    };
    out.checks.push(check_metric_set(reported, expected));
    for c in &out.checks {
        println!(
            "check {} {}: {}",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
    println!(
        "requests attempted={} succeeded={} failed={}",
        out.attempted,
        out.attempted - out.failed,
        out.failed
    );
    let correct = out.checks.iter().all(|c| c.ok);
    let metrics: Vec<String> = reported
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: a correctness check failed");
        ExitCode::FAILURE
    }
}
