//! `load_gen` — replay synthetic MobileTab traffic against the serving
//! engine at configurable concurrency and measure throughput and latency.
//!
//! Two modes run back-to-back over the *same* request stream, worker count,
//! and sharded store so the only difference is request coalescing:
//!
//! * **single** — `max_batch = 1`: every request is a forward pass of one
//!   row;
//! * **batched** — `max_batch = PP_MAX_BATCH`: workers drain the arrival
//!   queue into batched forward passes (one pass per batch, same kernel).
//!
//! Environment knobs (defaults in parentheses): `PP_USERS` (400), `PP_DAYS`
//! (30), `PP_HIDDEN` (64), `PP_SEED` (17), `PP_CONCURRENCY` (64),
//! `PP_MAX_BATCH` (64), `PP_SHARDS` (16), `PP_WORKERS` (#cores, capped at
//! 8), `PP_REQUESTS` (60000), `PP_OUT` (`BENCH_serving.json`),
//! `PP_REQUIRE_SPEEDUP` (unset → report only; set e.g. `1.2` to exit
//! non-zero when the batched/single throughput ratio falls short).
//!
//! Core-scaling knobs: `PP_WORKER_SWEEP` (`1,2,4` — batched-mode worker
//! counts swept into the `worker_sweep` block) and
//! `PP_REQUIRE_WORKER_SCALING` (unset → report only; set e.g. `1.5` to exit
//! non-zero when 4-worker batched throughput falls below that multiple of
//! 1-worker throughput; skipped with a loud message on hosts with fewer
//! than 4 cores, where multi-worker scaling cannot materialize).
//!
//! Eviction-study knobs: `PP_POPULATION` (1000000 synthetic users),
//! `PP_STORE_CAPACITY` (population/10 resident states),
//! `PP_STUDY_EVENTS` (400000 Zipf-like sessions; `0` skips the study) and
//! `PP_DRIVEBY` (0.15 — fraction of one-shot drive-by users polluting the
//! store). The study replays the same stream against a capacity-bounded
//! store under LRU and frequency-weighted eviction and reports cold-start
//! regret (re-initialized hidden states per 1k predictions).
//!
//! Observability knobs: `PP_OBS_EVENTS` (unset → skip; set to a path to
//! drain the structured event ring there as JSONL), `PP_OBS_BASELINE`
//! (path to a `BENCH_serving.json` produced by the instrumentation-free
//! build — `cargo build -p pp-bench --no-default-features` — to compare
//! against) and `PP_REQUIRE_OBS_OVERHEAD` (tolerated fractional throughput
//! loss vs. that baseline, e.g. `0.05`; exits non-zero when instrumented
//! batched throughput falls below `(1 - tol) ×` baseline).
//!
//! Tracing knobs: `PP_TRACE_SAMPLE` (sample one user in N, default 64;
//! `0` disables tracing), `PP_TRACE_SEED` (sampling-hash seed, default
//! 17), `PP_OBS_TRACE` (unset → skip; set to a path to export the batched
//! mode's sampled spans as Chrome trace-event JSON — open in Perfetto) and
//! `PP_OBS_REPORT` (unset → skip; set to a path for a JSONL metrics
//! time-series, one snapshot line per `PP_OBS_REPORT_PERIOD` ms of run
//! time, default 100). The batched mode's sampled spans also become the
//! `trace` block of the report: end-to-end p50/p90/p99 decomposed by
//! lifecycle stage, plus queue-vs-service attribution for the slowest
//! percentile.
//!
//! Results are written to `PP_OUT` in the `BENCH_serving.json` format:
//! a `config` block, one entry per mode with `sessions_per_sec` and
//! latency percentiles in microseconds, a `speedup` block, and a `metrics`
//! block — the final `pp-obs` registry snapshot with per-stage latency
//! percentiles (batch assembly, forward pass, coalesce wait, store
//! traffic).

use pp_bench::{env_or, print_tail_report, section, Scale};
use pp_data::schema::DatasetKind;
use pp_data::synth::{MobileTabGenerator, SyntheticGenerator};
use pp_obs::sync::LockPolicy;
use pp_rnn::{RnnModel, RnnModelConfig, TaskKind};
use pp_serving::{
    BatchScheduler, BatchServingEngine, PredictRequest, ShardedStateStore, UpdateRequest,
};
use serde::Serialize;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, Serialize)]
struct BenchConfig {
    users: usize,
    days: u32,
    hidden_dim: usize,
    seed: u64,
    shards: usize,
    workers: usize,
    /// Cores visible to this process — the ceiling on real worker scaling.
    cores: usize,
    concurrency: usize,
    max_batch: usize,
    requests: usize,
}

#[derive(Debug, Clone, Serialize)]
struct ModeResult {
    mode: String,
    max_batch: usize,
    requests: usize,
    elapsed_secs: f64,
    sessions_per_sec: f64,
    latency_p50_us: f64,
    latency_p90_us: f64,
    latency_p99_us: f64,
    latency_max_us: f64,
    forward_passes: u64,
    mean_batch_size: f64,
    largest_batch: usize,
}

#[derive(Debug, Clone, Copy, Serialize)]
struct Speedup {
    throughput_ratio: f64,
    p50_latency_ratio: f64,
}

/// One worker count of the batched-mode core-scaling sweep.
#[derive(Debug, Clone, Copy, Serialize)]
struct WorkerSweepEntry {
    workers: usize,
    sessions_per_sec: f64,
    latency_p50_us: f64,
    latency_p99_us: f64,
    /// Throughput relative to the 1-worker entry of the same sweep.
    speedup_vs_1: f64,
}

/// One eviction policy's outcome over the bounded-store replay.
#[derive(Debug, Clone, Serialize)]
struct EvictionPolicyResult {
    policy: String,
    predictions: u64,
    evictions: u64,
    /// Predictions that found a previously-written hidden state evicted
    /// and fell back to the initial state.
    cold_restarts: u64,
    cold_restarts_per_1k_predictions: f64,
    store_hit_rate: f64,
    resident_states: usize,
}

/// The 1M-user bounded-memory eviction comparison.
#[derive(Debug, Clone, Serialize)]
struct EvictionStudy {
    population: usize,
    store_capacity: usize,
    events: usize,
    driveby_fraction: f64,
    policies: Vec<EvictionPolicyResult>,
}

#[derive(Debug, Clone, Serialize)]
struct BenchReport {
    benchmark: String,
    config: BenchConfig,
    modes: Vec<ModeResult>,
    speedup: Speedup,
    worker_sweep: Vec<WorkerSweepEntry>,
    eviction_study: Option<EvictionStudy>,
    metrics: pp_obs::Snapshot,
    /// Sampled-trace latency attribution over the batched mode's spans.
    trace: pp_obs::TailReport,
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[rank.min(sorted_us.len() - 1)]
}

/// Replays `requests` through a fresh engine with `max_batch`, returning the
/// per-request latencies and the wall-clock elapsed time.
///
/// `concurrency` is the number of requests in flight: `clients` generator
/// threads each keep a window of `concurrency / clients` outstanding
/// requests (submit ahead, then harvest the oldest), so offered load is
/// decoupled from generator thread count — as in a real load generator.
#[allow(clippy::too_many_arguments)]
fn run_mode(
    mode: &str,
    model: &Arc<RnnModel>,
    store: &Arc<ShardedStateStore>,
    requests: &[PredictRequest],
    workers: usize,
    clients: usize,
    concurrency: usize,
    max_batch: usize,
    sink: &mut pp_bench::ReportSink,
) -> ModeResult {
    sink.begin(&format!("{mode}/w{workers}"));
    let engine = BatchServingEngine::start(model.clone(), store.clone(), workers, max_batch);
    let window = (concurrency / clients).max(1);
    let started = Instant::now();
    let stop_sampler = std::sync::atomic::AtomicBool::new(false);
    let (latencies, elapsed): (Vec<Duration>, Duration) = std::thread::scope(|scope| {
        // A sampler thread ticks the metrics time-series on run time (ms
        // since this mode started) while the clients drive load.
        let sampler = sink.active().then(|| {
            let stop = &stop_sampler;
            let sink = &mut *sink;
            scope.spawn(move || {
                // Acquire pairs with the Release store below: the sampler's
                // final tick must see every client-side write from before
                // the stop, or the last time-series point under-reports.
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    sink.tick(started.elapsed().as_millis() as i64);
                    std::thread::sleep(Duration::from_millis(20));
                }
            })
        });
        let mut handles = Vec::with_capacity(clients);
        for client in 0..clients {
            let engine = &engine;
            handles.push(scope.spawn(move || {
                let mut stream = requests.iter().skip(client).step_by(clients);
                let mut times = Vec::with_capacity(requests.len() / clients + 1);
                let mut inflight: std::collections::VecDeque<(
                    Instant,
                    std::sync::mpsc::Receiver<pp_serving::Prediction>,
                )> = std::collections::VecDeque::with_capacity(window);
                let mut burst = Vec::with_capacity(window);
                loop {
                    // Refill the window in one burst (one queue lock).
                    burst.clear();
                    while inflight.len() + burst.len() < window {
                        match stream.next() {
                            Some(request) => burst.push(*request),
                            None => break,
                        }
                    }
                    if !burst.is_empty() {
                        let sent = Instant::now();
                        for receiver in engine.submit_many(&burst) {
                            inflight.push_back((sent, receiver));
                        }
                    }
                    // Harvest the oldest reply (blocking), then any others
                    // that are already ready.
                    match inflight.pop_front() {
                        None => break,
                        Some((sent, receiver)) => {
                            let _ = receiver.recv().expect("engine reply");
                            times.push(sent.elapsed());
                        }
                    }
                    while let Some((sent, receiver)) = inflight.pop_front() {
                        match receiver.try_recv() {
                            Ok(_) => times.push(sent.elapsed()),
                            Err(std::sync::mpsc::TryRecvError::Empty) => {
                                inflight.push_front((sent, receiver));
                                break;
                            }
                            Err(e) => panic!("engine reply lost: {e}"),
                        }
                    }
                }
                times
            }));
        }
        let times: Vec<Duration> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect();
        // Stop the clock before joining the sampler: it sleeps between
        // ticks, and waiting out its final sleep is not serving time —
        // folding it in deflates throughput (and trips the overhead gate)
        // on short runs.
        let elapsed = started.elapsed();
        stop_sampler.store(true, std::sync::atomic::Ordering::Release);
        if let Some(sampler) = sampler {
            sampler.join().expect("sampler thread panicked");
        }
        (times, elapsed)
    });
    let stats = engine.stats();
    drop(engine);

    let mut sorted_us: Vec<f64> = latencies.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    sorted_us.sort_by(f64::total_cmp);
    let result = ModeResult {
        mode: mode.to_string(),
        max_batch,
        requests: requests.len(),
        elapsed_secs: elapsed.as_secs_f64(),
        sessions_per_sec: requests.len() as f64 / elapsed.as_secs_f64(),
        latency_p50_us: percentile(&sorted_us, 0.50),
        latency_p90_us: percentile(&sorted_us, 0.90),
        latency_p99_us: percentile(&sorted_us, 0.99),
        latency_max_us: sorted_us.last().copied().unwrap_or(0.0),
        forward_passes: stats.batches,
        mean_batch_size: stats.mean_batch_size(),
        largest_batch: stats.largest_batch,
    };
    println!(
        "  {:<8} {:>10.0} sessions/s   p50 {:>8.1} µs   p90 {:>8.1} µs   p99 {:>8.1} µs   mean batch {:>6.2}",
        result.mode,
        result.sessions_per_sec,
        result.latency_p50_us,
        result.latency_p90_us,
        result.latency_p99_us,
        result.mean_batch_size,
    );
    result
}

/// SplitMix64 — a tiny deterministic PRNG so the study stream is identical
/// for every policy without pulling in a generator dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Replays the same synthetic session stream — Zipf-like repeat visitors
/// from a `population`-user universe plus a fraction of one-shot drive-by
/// users — against a capacity-bounded store under each eviction policy,
/// measuring how often a *returning* user finds their hidden state evicted
/// (a cold restart: the paper's per-user state must be re-initialized and
/// the prediction quality regresses to cold-start until re-warmed).
#[allow(clippy::too_many_arguments)]
fn run_eviction_study(
    model: &Arc<RnnModel>,
    population: usize,
    capacity: usize,
    events: usize,
    driveby: f64,
    shards: usize,
    workers: usize,
    max_batch: usize,
    seed: u64,
) -> EvictionStudy {
    use pp_serving::EvictionPolicy;
    const CHUNK: usize = 1024;
    let mut policies = Vec::new();
    for policy in [EvictionPolicy::Lru, EvictionPolicy::FrequencyWeighted] {
        let store = Arc::new(ShardedStateStore::with_capacity_and_policy(
            shards, capacity, policy,
        ));
        let engine = BatchServingEngine::start(model.clone(), store.clone(), workers, max_batch);
        let mut rng = seed ^ 0xA076_1D64_78BD_642F;
        let mut seen = vec![0u64; population.div_ceil(64)];
        let mut driveby_next = population as u64;
        let mut cold_restarts = 0u64;
        let mut predictions = 0u64;
        let mut remaining = events;
        let mut tick: i64 = 0;
        while remaining > 0 {
            let take = remaining.min(CHUNK);
            remaining -= take;
            let mut predicts = Vec::with_capacity(take);
            let mut updates = Vec::with_capacity(take);
            let mut in_chunk = std::collections::HashSet::with_capacity(take);
            for _ in 0..take {
                tick += 1;
                let draw = splitmix64(&mut rng);
                let driveby_draw = (draw >> 40) as f64 / (1u64 << 24) as f64;
                let user = if driveby_draw < driveby {
                    // One-shot drive-by user: pure pollution, never returns.
                    driveby_next += 1;
                    driveby_next - 1
                } else {
                    // Log-uniform rank ≈ Zipf(1): rank 0 is the hottest.
                    let x = (splitmix64(&mut rng) >> 11) as f64 / (1u64 << 53) as f64;
                    ((population as f64 + 1.0).powf(x) - 1.0) as u64
                };
                let id = pp_data::schema::UserId(user);
                if (user as usize) < population {
                    let (word, bit) = (user as usize / 64, user as usize % 64);
                    let was_seen = seen[word] & (1 << bit) != 0;
                    // A returning user whose state is gone (and was not
                    // just re-written earlier in this chunk) predicts from
                    // the initial state: a cold restart.
                    if was_seen && !in_chunk.contains(&user) && !store.contains_state(id) {
                        cold_restarts += 1;
                    }
                    seen[word] |= 1 << bit;
                }
                in_chunk.insert(user);
                let context = pp_data::schema::Context::MobileTab {
                    unread_count: (draw % 9) as u8,
                    active_tab: pp_data::schema::Tab::ALL
                        [(draw % pp_data::schema::Tab::ALL.len() as u64) as usize],
                };
                predicts.push(PredictRequest {
                    user_id: id,
                    timestamp: 100_000 + tick * 13,
                    context,
                    elapsed_secs: 3_600,
                });
                updates.push(UpdateRequest {
                    user_id: id,
                    timestamp: 100_000 + tick * 13,
                    context,
                    delta_t_secs: 3_600,
                    accessed: draw.is_multiple_of(3),
                });
            }
            predictions += predicts.len() as u64;
            let receivers = engine.submit_many(&predicts);
            engine.apply_updates_blocking(&updates);
            for receiver in receivers {
                receiver.recv().expect("engine reply");
            }
        }
        drop(engine);
        let stats = store.stats();
        let result = EvictionPolicyResult {
            policy: format!("{policy:?}"),
            predictions,
            evictions: stats.evictions,
            cold_restarts,
            cold_restarts_per_1k_predictions: cold_restarts as f64 * 1_000.0
                / predictions.max(1) as f64,
            store_hit_rate: stats.hits as f64 / stats.reads.max(1) as f64,
            resident_states: store.len(),
        };
        println!(
            "  {:<19} {:>9} evictions   {:>7} cold restarts ({:>6.2} per 1k predictions)   hit rate {:.3}",
            result.policy,
            result.evictions,
            result.cold_restarts,
            result.cold_restarts_per_1k_predictions,
            result.store_hit_rate,
        );
        policies.push(result);
    }
    EvictionStudy {
        population,
        store_capacity: capacity,
        events,
        driveby_fraction: driveby,
        policies,
    }
}

fn main() {
    let scale = Scale::from_env();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let concurrency: usize = env_or("PP_CONCURRENCY", 64);
    let default_clients = if cores <= 1 { 1 } else { concurrency.min(8) };
    let clients: usize = env_or("PP_CLIENTS", default_clients);
    let runs: usize = env_or("PP_RUNS", 3);
    let max_batch: usize = env_or("PP_MAX_BATCH", 64);
    let shards: usize = env_or("PP_SHARDS", 16);
    let default_workers = std::thread::available_parallelism().map_or(4, |n| n.get().min(8));
    let workers: usize = env_or("PP_WORKERS", default_workers);
    let max_requests: usize = env_or("PP_REQUESTS", 60_000);
    let out_path = std::env::var("PP_OUT").unwrap_or_else(|_| "BENCH_serving.json".to_string());

    section("load_gen: synthetic MobileTab serving traffic");
    let dataset = MobileTabGenerator::new(scale.mobiletab()).generate();
    let model = Arc::new(RnnModel::new(
        DatasetKind::MobileTab,
        TaskKind::PerSession,
        RnnModelConfig {
            hidden_dim: scale.hidden,
            mlp_width: scale.hidden,
            ..Default::default()
        },
        scale.seed,
    ));
    println!(
        "dataset: {} users, {} sessions; model: {}-d hidden ({} params)",
        dataset.num_users(),
        dataset.num_sessions(),
        scale.hidden,
        model.num_parameters()
    );

    // Replay in global timestamp order. The first half of each user's
    // sessions warms the hidden-state store through batched updates; the
    // second half becomes the prediction request stream.
    let mut events: Vec<(i64, usize, usize)> = Vec::new();
    for (ui, user) in dataset.users.iter().enumerate() {
        for (si, session) in user.sessions.iter().enumerate() {
            events.push((session.timestamp, ui, si));
        }
    }
    events.sort_unstable();

    let store = Arc::new(ShardedStateStore::new(shards));
    let mut last_ts: HashMap<usize, i64> = HashMap::new();
    let mut warm_updates = Vec::new();
    let mut requests = Vec::new();
    for &(ts, ui, si) in &events {
        let user = &dataset.users[ui];
        let session = &user.sessions[si];
        let elapsed = ts - last_ts.get(&ui).copied().unwrap_or(ts);
        if si < user.len() / 2 {
            warm_updates.push(UpdateRequest {
                user_id: user.user_id,
                timestamp: ts,
                context: session.context,
                delta_t_secs: elapsed,
                accessed: session.accessed,
            });
            last_ts.insert(ui, ts);
        } else {
            requests.push(PredictRequest {
                user_id: user.user_id,
                timestamp: ts,
                context: session.context,
                elapsed_secs: elapsed,
            });
        }
    }
    {
        let mut warmer = BatchScheduler::new(&model, &store, max_batch);
        warmer.apply_updates(&warm_updates);
        println!(
            "warmed {} hidden states with {} updates ({} forward passes)",
            store.len(),
            warmer.stats().updates,
            warmer.stats().batches
        );
    }
    requests.truncate(max_requests);
    assert!(
        !requests.is_empty(),
        "no prediction requests generated — increase PP_USERS/PP_DAYS"
    );
    // A short request stream under-coalesces; repeat it to the target count.
    while requests.len() < max_requests {
        let shortfall = max_requests - requests.len();
        let extension: Vec<PredictRequest> = requests.iter().take(shortfall).copied().collect();
        requests.extend(extension);
    }

    let config = BenchConfig {
        users: dataset.num_users(),
        days: scale.days,
        hidden_dim: scale.hidden,
        seed: scale.seed,
        shards,
        workers,
        cores,
        concurrency,
        max_batch,
        requests: requests.len(),
    };
    println!(
        "replaying {} requests: {} workers, {} clients x window {} = {} in flight, {} shards, max batch {}",
        requests.len(),
        workers,
        clients,
        (concurrency / clients).max(1),
        concurrency,
        shards,
        max_batch
    );

    // Spot-check: the batched path must agree with the single path before
    // any throughput number means anything.
    {
        let sample: Vec<PredictRequest> = requests.iter().step_by(97).take(32).copied().collect();
        let mut check = BatchScheduler::new(&model, &store, sample.len().max(2));
        let batched = check.run(sample.iter().copied());
        for (request, prediction) in sample.iter().zip(&batched) {
            let state = store
                .get_state(request.user_id)
                .unwrap_or_else(|| model.initial_state());
            let input = model.featurizer().predict_input(
                request.timestamp,
                &request.context,
                request.elapsed_secs,
            );
            let single = model.predict_proba(&state, &input);
            assert!(
                (prediction.probability - single).abs() < 1e-6,
                "batched/single divergence for {}",
                request.user_id
            );
        }
        println!(
            "equivalence spot-check: {} requests OK (|Δp| < 1e-6)",
            sample.len()
        );
    }

    section("throughput");
    let report_period: i64 = env_or("PP_OBS_REPORT_PERIOD", 100);
    let sink = std::sync::Mutex::new(pp_bench::ReportSink::from_env(report_period));
    let tracer = pp_obs::Tracer::global();
    // The host may be a noisy shared VM; take the best of `runs` repetitions
    // per mode (noise only ever subtracts from capacity).
    let best_of = |mode: &str, batch: usize, workers: usize| -> ModeResult {
        (0..runs.max(1))
            .map(|_| {
                run_mode(
                    mode,
                    &model,
                    &store,
                    &requests,
                    workers,
                    clients,
                    concurrency,
                    batch,
                    &mut sink.lock_recover(),
                )
            })
            .max_by(|a, b| a.sessions_per_sec.total_cmp(&b.sessions_per_sec))
            .expect("at least one run")
    };
    let single = best_of("single", 1, workers);
    // Only the batched mode's spans feed the trace block and export —
    // discard the single mode's buffers so the attribution describes the
    // engine configuration the headline numbers come from.
    let _ = tracer.drain();
    let batched = best_of("batched", max_batch, workers);
    let spans = tracer.drain();
    let trace = pp_obs::tail_report(&spans, tracer.config().sample_every, tracer.dropped());

    let speedup = Speedup {
        throughput_ratio: batched.sessions_per_sec / single.sessions_per_sec,
        p50_latency_ratio: single.latency_p50_us / batched.latency_p50_us.max(1e-9),
    };
    println!(
        "\nbatched/single throughput: {:.2}x   (p50 latency improved {:.2}x)",
        speedup.throughput_ratio, speedup.p50_latency_ratio
    );

    // Core-scaling sweep: batched mode only, one entry per worker count.
    // On a host with fewer cores than workers the extra workers contend
    // for the same core and the curve flattens — `config.cores` records
    // the ceiling so readers can tell scaling limits from engine limits.
    section("core scaling (batched mode)");
    let sweep_spec = std::env::var("PP_WORKER_SWEEP").unwrap_or_else(|_| "1,2,4".to_string());
    let sweep_counts: Vec<usize> = sweep_spec
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse()
                .expect("PP_WORKER_SWEEP entries must be positive integers")
        })
        .collect();
    let mut worker_sweep: Vec<WorkerSweepEntry> = Vec::with_capacity(sweep_counts.len());
    for &sweep_workers in &sweep_counts {
        let result = best_of("batched", max_batch, sweep_workers);
        let base = worker_sweep
            .iter()
            .find(|e| e.workers == 1)
            .map_or(result.sessions_per_sec, |e| e.sessions_per_sec);
        let entry = WorkerSweepEntry {
            workers: sweep_workers,
            sessions_per_sec: result.sessions_per_sec,
            latency_p50_us: result.latency_p50_us,
            latency_p99_us: result.latency_p99_us,
            speedup_vs_1: result.sessions_per_sec / base,
        };
        println!(
            "  {} worker(s): {:>10.0} sessions/s   ({:.2}x vs 1 worker)",
            entry.workers, entry.sessions_per_sec, entry.speedup_vs_1
        );
        worker_sweep.push(entry);
    }

    let metrics = pp_obs::MetricsRegistry::global().snapshot();
    if pp_obs::is_enabled() {
        let stage = |name: &str| {
            metrics.histogram(name).map_or_else(
                || "-".to_string(),
                |h| {
                    format!(
                        "p50 {:>9.0} ns  p99 {:>9.0} ns  (n={})",
                        h.p50, h.p99, h.count
                    )
                },
            )
        };
        section("metrics (pp-obs)");
        println!("  batch assembly  {}", stage("serving.batch_assembly_ns"));
        println!("  forward pass    {}", stage("serving.forward_pass_ns"));
        println!("  coalesce wait   {}", stage("serving.coalesce_wait_ns"));
    }
    print_tail_report(&trace);
    if let Ok(trace_path) = std::env::var("PP_OBS_TRACE") {
        let json = pp_obs::chrome_trace_json(&spans);
        std::fs::write(&trace_path, json).expect("write trace export");
        println!(
            "wrote {trace_path} ({} spans; open in Perfetto / chrome://tracing)",
            spans.len()
        );
    }
    if let Ok(events_path) = std::env::var("PP_OBS_EVENTS") {
        let log = pp_obs::MetricsRegistry::global().events();
        let (dropped, recorded) = (log.dropped(), log.recorded());
        let events = log.drain();
        let jsonl = pp_obs::EventLog::to_jsonl_with_footer(&events, dropped, recorded);
        std::fs::write(&events_path, jsonl).expect("write event log");
        println!("wrote {events_path}");
    }

    // Bounded-memory eviction study on a fresh synthetic population. Runs
    // after the metrics snapshot so its store traffic does not skew the
    // throughput runs' per-stage numbers.
    let population: usize = env_or("PP_POPULATION", 1_000_000);
    let store_capacity: usize = env_or("PP_STORE_CAPACITY", (population / 10).max(shards));
    let study_events: usize = env_or("PP_STUDY_EVENTS", 400_000);
    let driveby: f64 = env_or("PP_DRIVEBY", 0.15);
    let eviction_study = if study_events == 0 {
        println!("eviction study skipped (PP_STUDY_EVENTS=0)");
        None
    } else {
        section("eviction study: capacity-bounded store under Zipf traffic");
        println!(
            "population {population}, capacity {store_capacity} resident states, \
             {study_events} events, drive-by fraction {driveby:.2}"
        );
        Some(run_eviction_study(
            &model,
            population,
            store_capacity,
            study_events,
            driveby,
            shards,
            workers,
            max_batch,
            scale.seed,
        ))
    };

    let report = BenchReport {
        benchmark: "serving_load_gen".to_string(),
        config,
        modes: vec![single, batched],
        speedup,
        worker_sweep,
        eviction_study,
        metrics,
        trace,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, &json).expect("write benchmark report");
    println!("wrote {out_path}");
    sink.lock_recover().summarize();

    let mut failures: Vec<String> = Vec::new();
    if let Ok(required) = std::env::var("PP_REQUIRE_SPEEDUP") {
        let required: f64 = required
            .parse()
            .expect("PP_REQUIRE_SPEEDUP must be a number");
        if report.speedup.throughput_ratio < required {
            failures.push(format!(
                "batched/single throughput {:.2}x below required {required:.2}x",
                report.speedup.throughput_ratio
            ));
        } else {
            println!(
                "OK: batched/single throughput {:.2}x meets required {required:.2}x",
                report.speedup.throughput_ratio
            );
        }
    }

    if let Ok(required) = std::env::var("PP_REQUIRE_WORKER_SCALING") {
        let required: f64 = required
            .parse()
            .expect("PP_REQUIRE_WORKER_SCALING must be a number");
        if cores < 4 {
            println!(
                "SKIP: PP_REQUIRE_WORKER_SCALING needs at least 4 cores and this host exposes \
                 {cores}; 4 workers sharing {cores} core(s) cannot scale, so the gate is not \
                 meaningful here"
            );
        } else {
            let one = report.worker_sweep.iter().find(|e| e.workers == 1);
            let four = report.worker_sweep.iter().find(|e| e.workers == 4);
            match (one, four) {
                (Some(one), Some(four)) => {
                    let ratio = four.sessions_per_sec / one.sessions_per_sec;
                    if ratio < required {
                        failures.push(format!(
                            "4-worker/1-worker throughput {ratio:.2}x below required {required:.2}x"
                        ));
                    } else {
                        println!(
                            "OK: 4-worker/1-worker throughput {ratio:.2}x meets required \
                             {required:.2}x"
                        );
                    }
                }
                _ => failures.push(
                    "PP_REQUIRE_WORKER_SCALING needs PP_WORKER_SWEEP to include 1 and 4"
                        .to_string(),
                ),
            }
        }
    }

    // Instrumentation-overhead self-test: compare this (instrumented) run's
    // batched throughput against a baseline report from the no-op build.
    let baseline_path = std::env::var("PP_OBS_BASELINE").ok();
    if let Ok(tolerance) = std::env::var("PP_REQUIRE_OBS_OVERHEAD") {
        let tolerance: f64 = tolerance
            .parse()
            .expect("PP_REQUIRE_OBS_OVERHEAD must be a number");
        let baseline_path = baseline_path
            .as_deref()
            .expect("PP_REQUIRE_OBS_OVERHEAD needs PP_OBS_BASELINE pointing at the no-op report");
        let baseline = baseline_batched_throughput(baseline_path);
        let instrumented = report
            .modes
            .iter()
            .find(|m| m.mode == "batched")
            .expect("batched mode present")
            .sessions_per_sec;
        let floor = (1.0 - tolerance) * baseline;
        let delta = 1.0 - instrumented / baseline;
        if instrumented < floor {
            failures.push(format!(
                "instrumented batched throughput {instrumented:.0}/s is {:.1}% below no-op \
                 baseline {baseline:.0}/s (tolerated: {:.1}%)",
                delta * 100.0,
                tolerance * 100.0
            ));
        } else {
            println!(
                "OK: instrumentation overhead {:.1}% within {:.1}% of no-op baseline \
                 ({instrumented:.0}/s vs {baseline:.0}/s)",
                delta.max(0.0) * 100.0,
                tolerance * 100.0
            );
        }
    } else if let Some(path) = baseline_path.as_deref() {
        let baseline = baseline_batched_throughput(path);
        let instrumented = report
            .modes
            .iter()
            .find(|m| m.mode == "batched")
            .expect("batched mode present")
            .sessions_per_sec;
        println!(
            "instrumentation overhead vs {path}: {:.1}% ({instrumented:.0}/s vs {baseline:.0}/s)",
            (1.0 - instrumented / baseline) * 100.0
        );
    }

    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("FAIL: {failure}");
        }
        std::process::exit(1);
    }
}

/// Reads the batched-mode `sessions_per_sec` out of a `BENCH_serving.json`
/// written by another build of this binary (the no-op baseline).
fn baseline_batched_throughput(path: &str) -> f64 {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("PP_OBS_BASELINE {path} unreadable: {e}"));
    let value: serde::Value = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("PP_OBS_BASELINE {path} is not valid JSON: {e}"));
    value
        .as_object()
        .and_then(|pairs| pairs.iter().find(|(k, _)| k == "modes"))
        .and_then(|(_, modes)| modes.as_array())
        .and_then(|modes| {
            modes.iter().find(|m| {
                m.as_object()
                    .and_then(|pairs| pairs.iter().find(|(k, _)| k == "mode"))
                    .and_then(|(_, v)| v.as_str())
                    == Some("batched")
            })
        })
        .and_then(|m| m.as_object())
        .and_then(|pairs| pairs.iter().find(|(k, _)| k == "sessions_per_sec"))
        .and_then(|(_, v)| v.as_f64())
        .unwrap_or_else(|| panic!("PP_OBS_BASELINE {path} has no batched sessions_per_sec"))
}
