//! The `precompute_loop` workload and the wave driver it is built on: the
//! learned loop of the paper, replayed closed-loop by one caller. Each
//! one-minute wave of session starts is scored through the engine, decided
//! and acted on by `PrecomputeSystem`, resolved against ground truth, and
//! fed back to the engine as hidden-state updates.

use crate::openloop::REPLY_TIMEOUT;
use crate::stats::{Metric, Samples};
use crate::{sys, Check, Output, RunConfig};
use pp_core::PrecomputePolicy;
use pp_data::schema::{Context, Dataset, DatasetKind, UserHistory, UserId, SECONDS_PER_DAY};
use pp_data::synth::{MobileTabConfig, MobileTabGenerator, SyntheticGenerator};
use pp_precompute::{
    prefetch_cost_units, AdmissionOrder, BudgetConfig, CacheConfig, ControllerConfig,
    OutcomeCounts, PrecomputeSystem, SystemConfig,
};
use pp_rnn::{scores_and_labels, RnnModel, RnnModelConfig, RnnTrainer, TaskKind, TrainerConfig};
use pp_serving::{
    rnn_profile, BatchServingEngine, CostWeights, PredictRequest, ShardedStateStore, UpdateRequest,
};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Synthetic MobileTab users: the first [`TRAIN_USERS`] train the model,
/// the rest are replayed. The workload scales with days, not users, so
/// waves stay about one event.
pub const USERS: usize = 400;
pub const TRAIN_USERS: usize = 96;
pub const DAYS: u32 = 360;
/// The warm-up split the model trains on: the training users' first
/// [`TRAIN_DAYS`] days.
pub const TRAIN_DAYS: u32 = 30;
pub const HIDDEN: usize = 64;
pub const TRAIN_EPOCHS: usize = 4;
/// Each training user's sequence is cut to its most recent sessions, so
/// training memory does not hinge on the seed's most active user.
pub const TRAIN_MAX_HISTORY: usize = 300;
/// Share of the held-out stream (by time) that only warms hidden states.
pub const WARM_FRACTION: f64 = 0.3;
pub const TARGET_PRECISION: f64 = 0.6;
/// Steady-state precision must land within this distance of the target.
pub const PRECISION_TOLERANCE: f64 = 0.10;
pub const WORKERS: usize = 2;
pub const SHARDS: usize = 8;
pub const MAX_BATCH: usize = 64;
pub const MAX_WAVE: usize = 256;
/// Waves per segment of the closed loop's rate estimate.
pub const RATE_SEGMENT: usize = 1_000;

/// One session start of the replayed traffic.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub timestamp: i64,
    pub user: UserId,
    pub context: Context,
    pub accessed: bool,
}

/// The precompute configuration of the learned loop (the same operating
/// point `precompute_sim` replays): precision target 0.6, a budget that
/// sustains about half the session rate, and outcome-driven recalibration.
pub fn system_config(model: &RnnModel, threshold: f64, events_per_sec: f64) -> SystemConfig {
    let cost = prefetch_cost_units(&rnn_profile(model), &CostWeights::default());
    SystemConfig {
        initial_threshold: threshold,
        budget: BudgetConfig {
            capacity_units: 128.0 * cost,
            refill_units_per_sec: events_per_sec * 0.5 * cost,
            cost_per_prefetch_units: cost,
            max_inflight: 192,
        },
        cache: CacheConfig {
            shards: 8,
            capacity_per_shard: 2_048,
            ttl_secs: 900,
        },
        controller: ControllerConfig {
            target_precision: TARGET_PRECISION,
            window: 100,
            gain: 1.0,
            min_threshold: 0.01,
            max_threshold: 0.99,
        },
        admission: AdmissionOrder::Fifo,
        recalibrate_from_outcomes: true,
        payload_bytes: 512,
    }
}

/// Session starts per second of traffic time.
pub fn events_per_sec(events: &[Event]) -> f64 {
    match (events.first(), events.last()) {
        (Some(a), Some(b)) => events.len() as f64 / (b.timestamp - a.timestamp).max(1) as f64,
        _ => 1.0,
    }
}

/// The end of the wave starting at `start`: consecutive events of one
/// traffic minute, cut when a user repeats or at [`MAX_WAVE`].
pub fn wave_end(events: &[Event], start: usize) -> usize {
    let bucket = events[start].timestamp / 60;
    let mut users = HashSet::new();
    let mut end = start;
    while end < events.len()
        && end - start < MAX_WAVE
        && events[end].timestamp / 60 == bucket
        && users.insert(events[end].user.0)
    {
        end += 1;
    }
    end
}

/// Per-wave and per-call timings of the wave driver: the benchmark-side
/// spans around each call into a layer.
#[derive(Debug, Default)]
pub struct LoopTimes {
    /// Score → decide → resolve → act, per wave, µs.
    pub wave_us: Samples,
    /// Engine scoring (submit and await every reply), per wave, ns.
    pub score_ns: Samples,
    /// Engine state updates (submit and await every ack), per wave, ns.
    pub update_ns: Samples,
    /// `submit_many` alone, per request, ns.
    pub submit_ns: Samples,
    /// `PrecomputeSystem::handle_scores`, per wave, ns.
    pub handle_ns: Samples,
    /// `PrecomputeSystem::resolve_session`, per call, ns.
    pub resolve_ns: Samples,
    /// Driver time between one wave's end and the next wave's first
    /// request, µs: how late the closed-loop caller sends.
    pub gap_us: Samples,
}

/// Drives waves through the engine and a `PrecomputeSystem`, awaiting every
/// reply with [`REPLY_TIMEOUT`] and counting what fails.
pub struct WaveDriver<'a> {
    engine: &'a BatchServingEngine,
    pub system: PrecomputeSystem,
    last_update: HashMap<u64, i64>,
    last_wave_end: Option<Instant>,
    pub times: LoopTimes,
    pub attempted: u64,
    pub failed: u64,
    /// Replies naming the wrong user or an invalid probability, and scored
    /// sessions the system could not resolve.
    pub bad: u64,
    pub events: u64,
    pub max_wave: usize,
}

impl<'a> WaveDriver<'a> {
    pub fn new(engine: &'a BatchServingEngine, system: PrecomputeSystem) -> Self {
        Self {
            engine,
            system,
            last_update: HashMap::new(),
            last_wave_end: None,
            times: LoopTimes::default(),
            attempted: 0,
            failed: 0,
            bad: 0,
            events: 0,
            max_wave: 0,
        }
    }

    fn elapsed(&self, e: &Event) -> i64 {
        e.timestamp
            - self
                .last_update
                .get(&e.user.0)
                .copied()
                .unwrap_or(e.timestamp)
    }

    /// Serves one wave at traffic time `now`.
    pub fn run_wave(&mut self, wave: &[Event], now: i64) {
        let started = Instant::now();
        if let Some(end) = self.last_wave_end {
            self.times
                .gap_us
                .push(started.duration_since(end).as_secs_f64() * 1e6);
        }
        let requests: Vec<PredictRequest> = wave
            .iter()
            .map(|e| PredictRequest {
                user_id: e.user,
                timestamp: e.timestamp,
                context: e.context,
                elapsed_secs: self.elapsed(e),
            })
            .collect();
        let updates: Vec<UpdateRequest> = wave
            .iter()
            .map(|e| UpdateRequest {
                user_id: e.user,
                timestamp: e.timestamp,
                context: e.context,
                delta_t_secs: self.elapsed(e),
                accessed: e.accessed,
            })
            .collect();

        // Score: the body of `predict_many_blocking`, with a timeout on
        // every reply instead of an unbounded wait.
        let t_score = Instant::now();
        let receivers = self.engine.submit_many(&requests);
        let t_submitted = Instant::now();
        let deadline = t_score + REPLY_TIMEOUT;
        let mut predictions = Vec::with_capacity(wave.len());
        for (request, rx) in requests.iter().zip(receivers) {
            match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok(p) => {
                    if p.user_id != request.user_id || !(0.0..=1.0).contains(&p.probability) {
                        self.bad += 1;
                    }
                    predictions.push(p);
                }
                Err(_) => self.failed += 1,
            }
        }
        let t_scored = Instant::now();

        // Decide and act on the prefetches.
        self.system.handle_scores(&predictions, now);
        let t_decided = Instant::now();

        // Resolve against ground truth: accessed sessions consume the
        // payload quickly, the rest time out at window close.
        let scored: HashSet<u64> = predictions.iter().map(|p| p.user_id.0).collect();
        for e in wave {
            let t = Instant::now();
            let dwell = if e.accessed { 10 } else { 45 };
            let outcome = self.system.resolve_session(e.user, now + dwell, e.accessed);
            self.times.resolve_ns.push(t.elapsed().as_nanos() as f64);
            if outcome.is_none() && scored.contains(&e.user.0) {
                self.bad += 1;
            }
        }
        let t_resolved = Instant::now();

        // Feed the sessions back as hidden-state updates.
        let deadline = t_resolved + REPLY_TIMEOUT;
        for rx in self.engine.submit_updates(&updates) {
            if rx
                .recv_timeout(deadline.saturating_duration_since(Instant::now()))
                .is_err()
            {
                self.failed += 1;
            }
        }
        let t_done = Instant::now();
        for e in wave {
            self.last_update.insert(e.user.0, e.timestamp);
        }

        let ns = |a: Instant, b: Instant| b.duration_since(a).as_nanos() as f64;
        self.times.score_ns.push(ns(t_score, t_scored));
        self.times
            .submit_ns
            .push(ns(t_score, t_submitted) / wave.len() as f64);
        self.times.handle_ns.push(ns(t_scored, t_decided));
        self.times.update_ns.push(ns(t_resolved, t_done));
        self.times.wave_us.push(ns(t_score, t_done) / 1_000.0);
        self.attempted += 2 * wave.len() as u64;
        self.events += wave.len() as u64;
        self.max_wave = self.max_wave.max(wave.len());
        self.last_wave_end = Some(t_done);
    }

    /// Seeds the driver's record of each user's last state update (for
    /// users warmed before the replay).
    pub fn note_updates(&mut self, events: &[Event]) {
        for e in events {
            self.last_update.insert(e.user.0, e.timestamp);
        }
    }

    /// Loop- and precompute-layer metrics of the replay so far.
    pub fn layer_metrics(&self) -> Vec<Metric> {
        let t = &self.times;
        let median = |name: &str, s: &Samples| {
            Metric::new(name, s.median().unwrap_or(f64::NAN), "ns").with_n(s.len())
        };
        let report = self.system.report();
        let intents = report.decisions.prefetch_intents;
        vec![
            median("loop.score_ns", &t.score_ns),
            median("loop.update_ns", &t.update_ns),
            median("precompute.handle_wave_ns", &t.handle_ns),
            median("precompute.resolve_ns", &t.resolve_ns),
            Metric::new(
                "precompute.admit_ratio",
                report.budget.admitted as f64 / intents.max(1) as f64,
                "ratio",
            )
            .with_n(intents as usize),
            Metric::new(
                "precompute.budget_utilization",
                report.budget.utilization(),
                "ratio",
            ),
        ]
    }
}

/// Flattens the given users' histories into a time-ordered event stream.
pub fn events_of(dataset: &Dataset, users: std::ops::Range<usize>) -> Vec<Event> {
    let mut events: Vec<Event> = dataset.users[users]
        .iter()
        .flat_map(|u| {
            u.sessions.iter().map(move |s| Event {
                timestamp: s.timestamp,
                user: u.user_id,
                context: s.context,
                accessed: s.accessed,
            })
        })
        .collect();
    events.sort_by_key(|e| (e.timestamp, e.user.0));
    events
}

/// Advances hidden states for `events` through the engine in unique-user
/// chunks (the untimed warm-up path); returns the failures.
pub fn warm_states(engine: &BatchServingEngine, events: &[Event]) -> u64 {
    let mut last: HashMap<u64, i64> = HashMap::new();
    let mut failed = 0;
    let mut start = 0;
    while start < events.len() {
        let mut users = HashSet::new();
        let mut end = start;
        while end < events.len() && end - start < 256 && users.insert(events[end].user.0) {
            end += 1;
        }
        let updates: Vec<UpdateRequest> = events[start..end]
            .iter()
            .map(|e| {
                let delta = e.timestamp - last.get(&e.user.0).copied().unwrap_or(e.timestamp);
                last.insert(e.user.0, e.timestamp);
                UpdateRequest {
                    user_id: e.user,
                    timestamp: e.timestamp,
                    context: e.context,
                    delta_t_secs: delta,
                    accessed: e.accessed,
                }
            })
            .collect();
        let deadline = Instant::now() + REPLY_TIMEOUT;
        for rx in engine.submit_updates(&updates) {
            failed += u64::from(
                rx.recv_timeout(deadline.saturating_duration_since(Instant::now()))
                    .is_err(),
            );
        }
        start = end;
    }
    failed
}

/// The training users' first [`TRAIN_DAYS`] days.
fn warm_up_split(dataset: &Dataset) -> Dataset {
    let end = dataset.start_timestamp + i64::from(TRAIN_DAYS) * SECONDS_PER_DAY;
    Dataset {
        kind: dataset.kind,
        start_timestamp: dataset.start_timestamp,
        num_days: TRAIN_DAYS,
        users: dataset.users[..TRAIN_USERS]
            .iter()
            .map(|u| {
                let sessions = u
                    .sessions
                    .iter()
                    .filter(|s| s.timestamp < end)
                    .copied()
                    .collect();
                UserHistory::new(u.user_id, sessions)
            })
            .collect(),
    }
}

struct Setup {
    model: Arc<RnnModel>,
    engine: BatchServingEngine,
    store: Arc<ShardedStateStore>,
    threshold: f64,
    train_examples_per_s: f64,
    warm_failed: u64,
    secs: f64,
}

/// Trains the GRU on the warm-up split, calibrates its threshold to the
/// precision target on it, starts the engine and warms the held-out users'
/// states.
fn set_up(train: &Dataset, seed: u64, warm: &[Event]) -> Setup {
    let t0 = Instant::now();
    let mut model = RnnModel::new(
        DatasetKind::MobileTab,
        TaskKind::PerSession,
        RnnModelConfig {
            hidden_dim: HIDDEN,
            mlp_width: HIDDEN,
            ..RnnModelConfig::default()
        },
        seed,
    );
    // Serial training: its time and memory then do not depend on how two
    // training threads happen to overlap on a shared host.
    let trainer = RnnTrainer::new(TrainerConfig {
        epochs: TRAIN_EPOCHS,
        max_history_sessions: TRAIN_MAX_HISTORY,
        parallel: false,
        ..TrainerConfig::warmup(seed)
    });
    let train_idx: Vec<usize> = (0..TRAIN_USERS).collect();
    let report = trainer.train(&mut model, train, &train_idx);
    let (scores, labels) = scores_and_labels(&trainer.evaluate(&model, train, &train_idx, Some(7)));
    let threshold = PrecomputePolicy::for_target_precision(&scores, &labels, TARGET_PRECISION)
        .map_or(0.5, |p| p.threshold())
        .clamp(0.01, 0.99);
    let model = Arc::new(model);
    let store = Arc::new(ShardedStateStore::new(SHARDS));
    let engine = BatchServingEngine::start(model.clone(), store.clone(), WORKERS, MAX_BATCH);
    let warm_failed = warm_states(&engine, warm);
    Setup {
        model,
        engine,
        store,
        threshold,
        train_examples_per_s: report.total_predictions as f64 / report.wall_time_secs.max(1e-9),
        warm_failed,
        secs: t0.elapsed().as_secs_f64(),
    }
}

pub fn run(cfg: &RunConfig) -> Output {
    let mut out = Output::default();
    // Inputs, generated before any timing starts.
    let dataset = MobileTabGenerator::new(MobileTabConfig {
        num_users: USERS,
        num_days: DAYS,
        seed: cfg.seed,
        ..MobileTabConfig::default()
    })
    .generate();
    let serve = events_of(&dataset, TRAIN_USERS..USERS);
    let t0 = serve.first().expect("held-out traffic").timestamp;
    let t1 = serve.last().expect("held-out traffic").timestamp;
    let split_at = t0 + ((t1 - t0) as f64 * WARM_FRACTION) as i64;
    let (warm, live) = serve.split_at(serve.partition_point(|e| e.timestamp < split_at));
    let live_rate = events_per_sec(live);
    let train = warm_up_split(&dataset);
    drop(dataset);
    out.info.push(
        Metric::new("peak_rss_mb.inputs", sys::peak_rss_mb(), "MiB")
            .note("VmHWM once the inputs are generated, before set-up"),
    );

    let (setup, setup_secs) = crate::repeat_setup(cfg, || {
        let s = set_up(&train, cfg.seed, warm);
        let secs = s.secs;
        (s, secs)
    });
    out.attempted += warm.len() as u64;
    out.failed += setup.warm_failed;
    let peak_rss_mb = sys::peak_rss_mb();
    crate::discard_spans();
    setup.store.reset_stats();
    let stats0 = crate::EngineSnapshot::take(&setup.engine);

    let system = PrecomputeSystem::new(system_config(&setup.model, setup.threshold, live_rate));
    let mut driver = WaveDriver::new(&setup.engine, system);
    driver.note_updates(warm);
    let budget_s = if cfg.trace || cfg.reference {
        cfg.seconds * 0.5
    } else {
        cfg.seconds
    };
    let mut snapshots: Vec<(u64, OutcomeCounts)> = Vec::new();
    // Events/s per segment of RATE_SEGMENT waves.
    let mut segment_rates = Samples::default();
    // Process CPU µs per event per segment.
    let mut segment_cpu = Samples::default();
    let cpu0 = sys::process_cpu_ns(None);
    let mut segment_start = (Instant::now(), 0u64, cpu0);
    let started = Instant::now();
    let mut i = 0;
    while i < live.len() && started.elapsed().as_secs_f64() < budget_s {
        let end = wave_end(live, i);
        let now = live[i].timestamp / 60 * 60;
        driver.run_wave(&live[i..end], now);
        i = end;
        let waves = driver.times.wave_us.len();
        if waves.is_multiple_of(64) {
            snapshots.push((driver.events, driver.system.tracker().counts()));
        }
        if waves.is_multiple_of(RATE_SEGMENT) {
            let now = Instant::now();
            let cpu = sys::process_cpu_ns(None);
            let events = (driver.events - segment_start.1) as f64;
            segment_rates.push(events / now.duration_since(segment_start.0).as_secs_f64());
            segment_cpu.push((cpu - segment_start.2) as f64 / 1_000.0 / events);
            segment_start = (now, driver.events, cpu);
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_ns = sys::process_cpu_ns(None) - cpu0;
    let cpu_us_per_event = if segment_cpu.len() >= 3 {
        segment_cpu.median().expect("segments")
    } else {
        cpu_ns as f64 / 1_000.0 / driver.events.max(1) as f64
    };
    out.attempted += driver.attempted;
    out.failed += driver.failed;

    if cfg.reference {
        out.reference = Some(cpu_us_per_event);
        return out;
    }

    // Correctness: replies, invariants, steady-state precision.
    out.checks.push(Check::expect(
        "loop_replies_valid",
        driver.bad == 0,
        format!("{} bad replies or unresolvable sessions", driver.bad),
    ));
    out.checks.push(Check::from_result(
        "precompute_invariants",
        driver.system.check_invariants(),
    ));
    let report = driver.system.report();
    let half = snapshots
        .iter()
        .find(|(events, _)| *events >= driver.events / 2)
        .map_or_else(OutcomeCounts::default, |(_, c)| *c);
    let steady_prefetches = report.outcomes.prefetches_resolved() - half.prefetches_resolved();
    let steady_precision =
        (report.outcomes.hits - half.hits) as f64 / steady_prefetches.max(1) as f64;
    out.checks.push(Check::expect(
        "steady_state_precision",
        steady_prefetches >= 50 && (steady_precision - TARGET_PRECISION).abs() <= PRECISION_TOLERANCE,
        format!(
            "steady-state precision {steady_precision:.3} over {steady_prefetches} prefetches, target {TARGET_PRECISION} ± {PRECISION_TOLERANCE}"
        ),
    ));
    let t = &driver.times;
    out.info.push(
        Metric::new("precompute.precision", steady_precision, "ratio")
            .with_n(steady_prefetches as usize)
            .note("steady state: second half of the replay"),
    );
    out.info.push(
        Metric::new("recall_at_target", report.recall.unwrap_or(0.0), "ratio")
            .with_n(report.outcomes.accesses() as usize)
            .note(format!(
                "hits/accesses, threshold {:.3} -> {:.3}",
                setup.threshold, report.threshold
            )),
    );
    out.info.push(
        Metric::new("loop.events", driver.events as f64, "count").note(format!(
            "{} waves, {:.2} events/wave, {} live events available",
            t.wave_us.len(),
            driver.events as f64 / t.wave_us.len().max(1) as f64,
            live.len()
        )),
    );

    if !cfg.trace {
        out.e2e.push(crate::setup_metric(&setup_secs));
        out.e2e.push(crate::peak_rss_metric(peak_rss_mb));
        let (p50, p99) = crate::p50_p99(&t.score_ns, 1e-3);
        out.info.push(
            p50.named("predict_p50_us.lo")
                .note("engine score call per wave, one closed-loop caller"),
        );
        out.info.push(
            p99.named("predict_p99_us.lo")
                .note("engine score call per wave, one closed-loop caller"),
        );
        let (p50, p99) = crate::p50_p99(&t.wave_us, 1.0);
        out.info.push(
            p50.named("wave_p50_us")
                .note("score -> decide -> resolve -> update"),
        );
        out.info.push(
            p99.named("wave_p99_us")
                .note("score -> decide -> resolve -> update"),
        );
        out.info.push(
            Metric::new(
                "loop_events_per_s",
                segment_rates.median().unwrap_or(driver.events as f64 / wall_s),
                "1/s",
            )
            .with_n(segment_rates.len())
            .note(format!(
                "closed-loop events/s: median over {RATE_SEGMENT}-wave segments; {:.0} over the whole replay",
                driver.events as f64 / wall_s
            )),
        );
        out.e2e.push(
            Metric::new("cpu_us_per_session", cpu_us_per_event, "us")
                .with_n(segment_cpu.len())
                .note(format!(
                    "process CPU per replayed event: median over {RATE_SEGMENT}-wave segments"
                )),
        );
        return out;
    }

    // Traced run: per-layer numbers.
    let stats1 = crate::EngineSnapshot::take(&setup.engine);
    out.layer
        .extend(crate::engine_metrics(&stats0, &stats1, MAX_BATCH, wall_s));
    out.layer.push(
        Metric::new(
            "engine.submit_ns",
            t.submit_ns.median().unwrap_or(f64::NAN),
            "ns",
        )
        .with_n(t.submit_ns.len()),
    );
    out.layer.extend(crate::trace_stage_metrics());
    out.layer.extend(driver.layer_metrics());
    let (late, _) = crate::p50_p99(&t.gap_us, 1.0);
    out.layer.push(
        late.named("gen.late_us.p99")
            .note("closed loop: driver time between waves"),
    );
    out.layer.push(Metric::new(
        "gen.outstanding_max",
        driver.max_wave as f64,
        "count",
    ));
    out.layer.push(
        Metric::new(
            "rnn.train_examples_per_s",
            setup.train_examples_per_s,
            "1/s",
        )
        .note(format!("{TRAIN_EPOCHS} epochs on {TRAIN_USERS} users")),
    );
    let store_stats = setup.store.stats();
    out.layer.push(
        Metric::new("store.hit_rate", store_stats.hit_rate(), "ratio")
            .with_n(store_stats.reads as usize),
    );
    out.layer.push(Metric::new(
        "store.evictions_per_1k",
        store_stats.evictions as f64 * 1_000.0 / driver.events.max(1) as f64,
        "per_1k",
    ));
    let probe_events: Vec<Event> = live[..i].iter().rev().take(256).copied().collect();
    out.layer.extend(crate::probes::layer_probes(
        &setup.model,
        &setup.store,
        &probe_events,
        cfg.seed,
    ));
    out.layer.push(crate::trace_overhead(cfg, cpu_us_per_event));
    out
}
